//! Head-to-head comparison of all four traffic generators on one trace —
//! a miniature of the paper's Tables 5–7.
//!
//! ```sh
//! cargo run --release --example compare_generators
//! ```

use cpt::gpt::{train, CptGpt, CptGptConfig, GenerateConfig, Tokenizer, TrainConfig};
use cpt::metrics::{FidelityReport, Table};
use cpt::netshare::{NetShare, NetShareConfig};
use cpt::smm::{SemiMarkovModel, SmmEnsemble};
use cpt::statemachine::StateMachine;
use cpt::synth::{generate_device, SynthConfig};
use cpt::trace::{Dataset, DeviceType};

fn main() {
    let device = DeviceType::Phone;
    let machine = StateMachine::lte();
    let train_data = generate_device(&SynthConfig::new(0, 5), device, 500).clamp_lengths(2, 48);
    let test_data = generate_device(&SynthConfig::new(0, 6), device, 500).clamp_lengths(2, 48);
    println!("training on {}", train_data.summary());

    let n = 400;
    let mut results: Vec<(&str, Dataset)> = Vec::new();

    // SMM-1: one semi-Markov model (domain knowledge, no diversity).
    let smm1 = SemiMarkovModel::fit(machine, &train_data, device);
    results.push(("SMM-1", smm1.generate(n, 3600.0, 1)));

    // SMM-k: clustered ensemble (the paper's SMM-20k mechanism).
    let smmk = SmmEnsemble::fit(machine, &train_data, device, 16, 0);
    println!(
        "SMM-k: {} cluster models, {} fitted CDFs",
        smmk.num_models(),
        smmk.num_cdfs()
    );
    results.push(("SMM-20k", smmk.generate(n, 3600.0, 2)));

    // NetShare: adapted GAN+LSTM baseline.
    let mut ns = NetShare::new(NetShareConfig {
        max_len: 48,
        epochs: 16,
        ..NetShareConfig::small()
    });
    ns.train(&train_data).expect("NetShare training failed");
    results.push((
        "NetShare",
        ns.generate(n, device, 3)
            .expect("NetShare generation failed"),
    ));

    // CPT-GPT: the paper's transformer (no domain knowledge).
    let tokenizer = Tokenizer::fit(&train_data);
    let mut gpt = CptGpt::new(
        CptGptConfig {
            d_model: 32,
            d_mlp: 96,
            d_head: 32,
            max_len: 48,
            ..CptGptConfig::small()
        },
        tokenizer,
    );
    train(
        &mut gpt,
        &train_data,
        &TrainConfig::quick().with_epochs(16).with_lr(6e-3),
    )
    .expect("training failed");
    results.push((
        "CPT-GPT",
        gpt.generate(&GenerateConfig::new(n, 4))
            .expect("generation failed"),
    ));

    // Evaluate everything against the held-out trace.
    let mut table = Table::new(
        "Fidelity vs held-out real trace (lower is better everywhere)",
        &[
            "generator",
            "event viol.%",
            "stream viol.%",
            "sojourn CONN dist",
            "sojourn IDLE dist",
            "flow-length dist",
            "max breakdown diff",
        ],
    );
    for (name, synth) in &results {
        let r = FidelityReport::compute(&machine, &test_data, synth);
        table.row(&[
            name.to_string(),
            format!("{:.3}", r.event_violation_rate * 100.0),
            format!("{:.1}", r.stream_violation_rate * 100.0),
            format!("{:.3}", r.sojourn_connected),
            format!("{:.3}", r.sojourn_idle),
            format!("{:.3}", r.flow_length_all),
            format!("{:.3}", r.max_breakdown_diff),
        ]);
    }
    table.print();
    println!(
        "Expected shape (paper §5.2): SMMs have zero violations by construction;\n\
         CPT-GPT has near-zero; NetShare is orders of magnitude worse. SMM-1 is\n\
         far off on flow length and sojourns; SMM-20k and CPT-GPT are closest."
    );
}
