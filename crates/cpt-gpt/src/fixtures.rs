//! The fixtures this crate's unit tests share. Traces and scratch dirs
//! come from `cpt-testkit`. The model fixtures are written here: the kit
//! links its own copy of this crate, and a `CptGpt` of that copy is not
//! this crate's `CptGpt`.

use crate::config::{CptGptConfig, TrainConfig};
use crate::model::CptGpt;
use crate::token::Tokenizer;
use crate::train::train;
use cpt_trace::Dataset;
use std::sync::OnceLock;

pub use cpt_testkit::{alternating_dataset, alternation, Scratch};

/// The 16-wide, one-block model shape the tests train.
pub fn tiny_config() -> CptGptConfig {
    CptGptConfig {
        d_model: 16,
        n_blocks: 1,
        n_heads: 2,
        d_mlp: 32,
        d_head: 16,
        max_len: 16,
        ..CptGptConfig::small()
    }
}

/// `n` streams of eight alternating events, the trace [`trained_model`]
/// learns.
pub fn eight_event_dataset(n: usize) -> Dataset {
    alternation(n, 100.0, |_| 8)
}

/// [`tiny_config`] at `max_len` 12, trained for 200 epochs at lr 1e-2 on
/// 24 eight-event streams: a model that has learned the alternation.
/// Trained once per process; each call returns its own copy.
pub fn trained_model() -> CptGpt {
    static MODEL: OnceLock<CptGpt> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let data = eight_event_dataset(24);
            let tok = Tokenizer::fit(&data);
            let mut model = CptGpt::new(tiny_config().with_max_len(12), tok);
            train(
                &mut model,
                &data,
                &TrainConfig::quick().with_epochs(200).with_lr(1e-2),
            )
            .expect("training succeeds");
            model
        })
        .clone()
}
