//! Quickstart: train CPT-GPT on a control-plane trace and synthesize new
//! traffic.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Because the original carrier trace is proprietary, this example first
//! simulates a "real" trace with `cpt-synth` (see DESIGN.md), then runs
//! the exact workflow of the paper's Figure 4: tokenize → train →
//! release (weights + initial-event distribution) → generate → validate.

use cpt::gpt::{train, CptGpt, CptGptConfig, GenerateConfig, Tokenizer, TrainConfig};
use cpt::metrics::violation_stats;
use cpt::statemachine::StateMachine;
use cpt::synth::{generate_device, SynthConfig};
use cpt::trace::DeviceType;

fn main() {
    // 1. A one-hour LTE trace for 400 phone UEs (stand-in for the
    //    operator's collected dataset).
    let real =
        generate_device(&SynthConfig::new(0, 42), DeviceType::Phone, 400).clamp_lengths(2, 48);
    println!("real trace: {}", real.summary());

    // 2. Fit the multimodal tokenizer and train the model (Figure 4,
    //    "Training").
    let tokenizer = Tokenizer::fit(&real);
    let config = CptGptConfig {
        d_model: 32,
        d_mlp: 96,
        d_head: 32,
        max_len: 48,
        ..CptGptConfig::small()
    };
    let mut model = CptGpt::new(config, tokenizer);
    println!("model: {} parameters", model.num_params());
    let report = train(
        &mut model,
        &real,
        &TrainConfig::quick().with_epochs(16).with_lr(6e-3),
    )
    .expect("training failed");
    println!(
        "trained {} epochs in {:.1}s (final loss {:.3})",
        report.epochs.len(),
        report.total_seconds,
        report.final_loss()
    );

    // 3. Synthesize a new UE population (Figure 4, "Inference").
    let synth = model
        .generate(&GenerateConfig::new(200, 7))
        .expect("generation failed");
    println!("synthesized: {}", synth.summary());

    // 4. Validate against the 3GPP state machine — the model never saw
    //    it, yet violations should be rare.
    let v = violation_stats(&StateMachine::lte(), &synth);
    println!(
        "semantic violations: {:.3}% of events, {:.1}% of streams",
        v.event_rate() * 100.0,
        v.stream_rate() * 100.0
    );

    // 5. Compare headline statistics.
    let real_breakdown = real.event_breakdown();
    let synth_breakdown = synth.event_breakdown();
    println!("event-type breakdown (real vs synthesized):");
    for (et, real_frac) in real_breakdown {
        println!(
            "  {:<12} {:>6.2}%  vs {:>6.2}%",
            et.to_string(),
            real_frac * 100.0,
            synth_breakdown[&et] * 100.0
        );
    }
}
