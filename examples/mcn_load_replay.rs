//! MCN performance evaluation — the paper's first motivating use case
//! (§2.2): drive a mobile-core-network load model with synthesized
//! control-plane traffic and report the control-plane load it would
//! experience.
//!
//! ```sh
//! cargo run --release --example mcn_load_replay
//! ```
//!
//! Each control event invokes a different set of network functions (AMF-
//! style mobility handling for ATCH/DTCH/TAU, session management for
//! SRV_REQ/S1_CONN_REL, handover processing for HO), and stateful MCN
//! implementations must hold per-UE state while UEs are CONNECTED. This
//! example replays a synthesized trace to produce: events/second over
//! time, per-network-function invocation counts, and the peak number of
//! simultaneously CONNECTED UEs — exactly the quantities an MCN designer
//! sizes a deployment with.

use cpt::gpt::{train, CptGpt, CptGptConfig, GenerateConfig, Tokenizer, TrainConfig};
use cpt::statemachine::{replay, StateMachine, TopState};
use cpt::synth::{generate_device, SynthConfig};
use cpt::trace::{Dataset, DeviceType, EventType};

/// Which MCN network function an event invokes (simplified AMF/SMF split).
fn network_function(et: EventType) -> &'static str {
    match et {
        EventType::Attach | EventType::Detach => "AMF-registration",
        EventType::ServiceRequest | EventType::ConnectionRelease => "SMF-session",
        EventType::Handover => "AMF-handover",
        EventType::TrackingAreaUpdate => "AMF-mobility",
    }
}

fn report_load(name: &str, trace: &Dataset) {
    let machine = StateMachine::lte();

    // Events per second over the hour, bucketed per minute.
    let mut per_minute = vec![0usize; 62];
    let mut nf_counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for s in &trace.streams {
        for e in &s.events {
            let minute = (e.timestamp / 60.0) as usize;
            if minute < per_minute.len() {
                per_minute[minute] += 1;
            }
            *nf_counts.entry(network_function(e.event_type)).or_insert(0) += 1;
        }
    }
    let peak_minute = per_minute.iter().max().copied().unwrap_or(0);
    let total: usize = per_minute.iter().sum();

    // Peak simultaneously-CONNECTED UEs: sweep state-change events.
    let mut deltas: Vec<(f64, i64)> = Vec::new();
    for s in &trace.streams {
        let outcome = replay(&machine, s);
        // Completed CONNECTED visits: +1 at entry, -1 at exit. Entry time
        // reconstructed by cumulative sojourn walk.
        let mut t = s.events.first().map(|e| e.timestamp).unwrap_or(0.0);
        for rec in &outcome.sojourns {
            if rec.state == TopState::Connected {
                deltas.push((t, 1));
                deltas.push((t + rec.duration, -1));
            }
            t += rec.duration;
        }
    }
    deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
    let mut connected = 0i64;
    let mut peak_connected = 0i64;
    for (_, d) in deltas {
        connected += d;
        peak_connected = peak_connected.max(connected);
    }

    println!("--- MCN load driven by {name} ---");
    println!("  total control events:        {total}");
    println!(
        "  mean load:                   {:.2} events/s",
        total as f64 / 3600.0
    );
    println!(
        "  peak minute load:            {:.2} events/s",
        peak_minute as f64 / 60.0
    );
    println!("  peak simultaneous CONNECTED: {peak_connected} UEs");
    for (nf, count) in nf_counts {
        println!("  {nf:<18} {count:>8} invocations");
    }
    println!();
}

fn main() {
    // Real (simulated-carrier) trace for 500 phones.
    let real =
        generate_device(&SynthConfig::new(0, 11), DeviceType::Phone, 500).clamp_lengths(2, 48);

    // Train CPT-GPT on it and synthesize an equal population.
    let tokenizer = Tokenizer::fit(&real);
    let cfg = CptGptConfig {
        d_model: 32,
        d_mlp: 96,
        d_head: 32,
        max_len: 48,
        ..CptGptConfig::small()
    };
    let mut model = CptGpt::new(cfg, tokenizer);
    train(
        &mut model,
        &real,
        &TrainConfig::quick().with_epochs(16).with_lr(6e-3),
    )
    .expect("training failed");
    let synth = model
        .generate(&GenerateConfig::new(500, 3))
        .expect("generation failed");

    // An MCN sized on the synthesized workload should look like one sized
    // on the real workload.
    report_load("REAL trace (500 UEs)", &real);
    report_load("CPT-GPT synthesized trace (500 UEs)", &synth);
}
