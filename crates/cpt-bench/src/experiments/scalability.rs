//! Figure 6: fidelity vs synthesized-population size.
//!
//! CPT-GPT inference is run for increasing population sizes; each
//! synthesized dataset is compared against an equal-size random subset of
//! a large held-out real dataset. The paper's claim: size has minimal
//! influence on every fidelity metric.

use crate::output::Output;
use crate::pipeline::{ground_truth, SuiteCache, BASE_SEED};
use crate::suite::SuiteError;
use crate::Scale;
use cpt_gpt::GenerateConfig;
use cpt_metrics::report::pct;
use cpt_metrics::{FidelityReport, Table};
use cpt_statemachine::StateMachine;
use cpt_trace::DeviceType;

/// Figure 6: run the trained phone model at several population sizes.
pub fn run_fig6(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Figure 6: fidelity vs synthesized population size ==");
    let machine = StateMachine::lte();
    let gpt = cache.get(scale, DeviceType::Phone)?.gpt.clone();
    // A large reference pool to subsample per size (the paper samples from
    // its 380k-UE test set).
    let max_size = scale.fig6_sizes.iter().copied().max().unwrap_or(0);
    let pool = ground_truth(
        scale,
        DeviceType::Phone,
        0,
        3000,
        max_size.max(scale.test_ues),
    );

    let mut t = Table::new(
        "Figure 6 summary: fidelity metrics vs synthesized UE population",
        &[
            "population",
            "event viol.",
            "stream viol.",
            "sojourn CONN",
            "sojourn IDLE",
            "flow length",
            "max breakdown diff",
        ],
    );
    let mut rows = Vec::new();
    for (i, n) in scale.fig6_sizes.iter().enumerate() {
        let synth = gpt.generate(
            &GenerateConfig::new(*n, BASE_SEED + 50 + i as u64).device(DeviceType::Phone),
        )?;
        let reference = pool.sample(*n, BASE_SEED + 60 + i as u64);
        let r = FidelityReport::compute(&machine, &reference, &synth);
        t.row(&[
            n.to_string(),
            pct(r.event_violation_rate, 3),
            pct(r.stream_violation_rate, 1),
            pct(r.sojourn_connected, 1),
            pct(r.sojourn_idle, 1),
            pct(r.flow_length_all, 1),
            pct(r.max_breakdown_diff, 1),
        ]);
        for (metric, value) in [
            ("event_violations", r.event_violation_rate),
            ("stream_violations", r.stream_violation_rate),
            ("sojourn_connected", r.sojourn_connected),
            ("sojourn_idle", r.sojourn_idle),
            ("flow_length", r.flow_length_all),
            ("max_breakdown_diff", r.max_breakdown_diff),
        ] {
            rows.push(vec![
                n.to_string(),
                metric.to_string(),
                format!("{value:.6}"),
            ]);
        }
    }
    out.csv(
        "fig6_scalability",
        &["population", "metric", "value"],
        &rows,
    );
    out.table("fig6", &t.render());
    Ok(())
}
