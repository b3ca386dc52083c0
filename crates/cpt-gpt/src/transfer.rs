//! Transfer learning across hours (Design 3, §4.4).
//!
//! A model trained on one hour is adapted to the next hour's trace by
//! continuing supervised training with a reduced learning rate and fewer
//! epochs, instead of training from scratch. The tokenizer (interarrival
//! scaling bounds) travels with the pretrained weights — rescaling would
//! silently invalidate them — while the initial-event distribution is
//! refit on the new hour.

use crate::config::TrainConfig;
use crate::error::TrainError;
use crate::model::CptGpt;
use crate::source::ShardSource;
use crate::train::{train, TrainReport};

/// Fine-tuning defaults relative to the base run: the paper's Table 9
/// shows ~2.4× fewer wall-clock minutes per adapted hour than the initial
/// hour (21.81 → 9.06 min), driven by needing far fewer steps to converge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FineTuneConfig {
    /// Fraction of the base epochs to run (default 0.35).
    pub epoch_fraction: f64,
    /// Learning-rate multiplier (default 0.3).
    pub lr_factor: f32,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epoch_fraction: 0.35,
            lr_factor: 0.3,
        }
    }
}

/// Adapts a pretrained model to `new_data`, returning the fine-tuned model
/// and its training report. The pretrained model is not modified.
pub fn fine_tune(
    pretrained: &CptGpt,
    new_data: &dyn ShardSource,
    base_cfg: &TrainConfig,
    ft: &FineTuneConfig,
) -> Result<(CptGpt, TrainReport), TrainError> {
    let mut model = pretrained.clone();
    let epochs = ((base_cfg.epochs as f64 * ft.epoch_fraction).round() as usize).max(1);
    let cfg = TrainConfig {
        epochs,
        lr: base_cfg.lr * ft.lr_factor,
        // Fresh warmup is unnecessary when continuing from a trained model.
        warmup_steps: 0,
        ..*base_cfg
    };
    let report = train(&mut model, new_data, &cfg)?;
    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CptGptConfig;
    use crate::token::Tokenizer;
    use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};

    fn dataset_with_gap(gap: f64, n: usize) -> Dataset {
        let streams = (0..n)
            .map(|i| {
                let mut t = 0.0;
                let events = (0..8)
                    .map(|k| {
                        let (et, g) = if k % 2 == 0 {
                            (EventType::ServiceRequest, gap)
                        } else {
                            (EventType::ConnectionRelease, 10.0)
                        };
                        t += g;
                        Event::new(et, t)
                    })
                    .collect();
                Stream::new(UeId(i as u64), DeviceType::Phone, events)
            })
            .collect();
        Dataset::new(streams)
    }

    fn tiny_config() -> CptGptConfig {
        CptGptConfig {
            d_model: 16,
            n_blocks: 1,
            n_heads: 2,
            d_mlp: 32,
            d_head: 16,
            max_len: 12,
            ..CptGptConfig::small()
        }
    }

    #[test]
    fn fine_tune_is_cheaper_and_adapts() {
        let hour0 = dataset_with_gap(100.0, 24);
        let hour1 = dataset_with_gap(400.0, 24); // drifted interarrivals
        let tok = Tokenizer::fit(&hour0);
        let base_cfg = TrainConfig::quick().with_epochs(8).with_lr(5e-3);
        let mut base = CptGpt::new(tiny_config(), tok);
        let base_report = train(&mut base, &hour0, &base_cfg).expect("base training succeeds");

        let (adapted, ft_report) = fine_tune(&base, &hour1, &base_cfg, &FineTuneConfig::default())
            .expect("fine-tuning succeeds");

        // Fewer epochs than from-scratch training.
        assert!(ft_report.epochs.len() < base_report.epochs.len());
        // The adapted model fits hour-1 better than the base model does:
        // compare losses on an identical hour-1 batch.
        let streams: Vec<&Stream> = hour1.streams.iter().collect();
        let batch = crate::batch::build_batch(&base.tokenizer, &streams, 12);
        let eval = |m: &CptGpt| {
            let mut sess = cpt_nn::Session::new(&m.store);
            let loss = m.loss(&mut sess, &batch);
            sess.graph.value(loss).item()
        };
        assert!(
            eval(&adapted) < eval(&base),
            "fine-tuning did not adapt: {} vs {}",
            eval(&adapted),
            eval(&base)
        );
        // The pretrained model was not mutated.
        let id = base.store.ids()[0];
        assert_ne!(base.store.value(id).data, adapted.store.value(id).data);
        // Tokenizer is shared (scaling bounds preserved).
        assert_eq!(base.tokenizer, adapted.tokenizer);
    }
}
