//! Hour-to-hour transfer learning (Design 3 / §5.5): adapt a pretrained
//! model to a drifted hour instead of retraining from scratch.
//!
//! ```sh
//! cargo run --release --example transfer_learning
//! ```

use cpt::gpt::transfer::FineTuneConfig;
use cpt::gpt::{fine_tune, train, CptGpt, CptGptConfig, GenerateConfig, Tokenizer, TrainConfig};
use cpt::metrics::FidelityReport;
use cpt::statemachine::StateMachine;
use cpt::synth::{generate_device, SynthConfig};
use cpt::trace::DeviceType;
use std::time::Instant;

fn hour_trace(hour: f64, seed: u64) -> cpt::trace::Dataset {
    generate_device(
        &SynthConfig::new(0, seed).starting_at(hour),
        DeviceType::Phone,
        400,
    )
    .clamp_lengths(2, 48)
}

fn main() {
    let machine = StateMachine::lte();
    // Evening busy-hour vs overnight trough: real diurnal drift.
    let hour19 = hour_trace(19.0, 1);
    let hour3 = hour_trace(3.0, 2);
    let hour3_test = hour_trace(3.0, 3);
    println!("hour 19: {}", hour19.summary());
    println!("hour 03: {}", hour3.summary());

    let base_cfg = TrainConfig::quick().with_epochs(16).with_lr(6e-3);
    let model_cfg = CptGptConfig {
        d_model: 32,
        d_mlp: 96,
        d_head: 32,
        max_len: 48,
        ..CptGptConfig::small()
    };

    // Base model on hour 19.
    let t0 = Instant::now();
    let mut base = CptGpt::new(model_cfg, Tokenizer::fit(&hour19));
    train(&mut base, &hour19, &base_cfg).expect("training failed");
    let base_secs = t0.elapsed().as_secs_f64();

    // Option A: retrain from scratch for hour 3.
    let t0 = Instant::now();
    let mut scratch = CptGpt::new(model_cfg.with_seed(9), Tokenizer::fit(&hour3));
    train(&mut scratch, &hour3, &base_cfg).expect("training failed");
    let scratch_secs = t0.elapsed().as_secs_f64();

    // Option B: fine-tune the hour-19 model (Design 3).
    let t0 = Instant::now();
    let (adapted, _) =
        fine_tune(&base, &hour3, &base_cfg, &FineTuneConfig::default()).expect("fine-tune failed");
    let ft_secs = t0.elapsed().as_secs_f64();

    println!("\ntraining cost: base {base_secs:.1}s | scratch {scratch_secs:.1}s | fine-tune {ft_secs:.1}s");
    println!(
        "fine-tune speedup over scratch: {:.2}x",
        scratch_secs / ft_secs
    );

    // Both hour-3 models should fit hour 3; the *unadapted* base should
    // fit it worse (that is the drift).
    for (name, model) in [
        ("hour-19 base (unadapted)", &base),
        ("hour-3 from scratch", &scratch),
        ("hour-19 → hour-3 fine-tuned", &adapted),
    ] {
        let synth = model
            .generate(&GenerateConfig::new(300, 4))
            .expect("generation failed");
        let r = FidelityReport::compute(&machine, &hour3_test, &synth);
        println!(
            "{name:<28} sojourn CONN dist {:.3} | IDLE {:.3} | flow length {:.3}",
            r.sojourn_connected, r.sojourn_idle, r.flow_length_all
        );
    }
}
