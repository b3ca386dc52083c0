//! Extension experiment (the paper's §7 future work): downstream
//! fidelity. An MCN deployment evaluated on synthetic traffic should
//! behave like one evaluated on the real trace — same latency profile,
//! same autoscaling trajectory, same per-UE state footprint.

use crate::output::Output;
use crate::pipeline::{GeneratorKind, SuiteCache};
use crate::suite::SuiteError;
use crate::Scale;
use cpt_mcn::{simulate, McnConfig};
use cpt_metrics::Table;
use cpt_trace::{Dataset, DeviceType, Event, Stream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generated streams carry *relative* time (every stream starts near 0,
/// §4.5's bootstrap convention), so replaying a whole population naively
/// produces a thundering herd at t=0. A deployment harness places stream
/// starts across the window; we place them uniformly, which is also how
/// real UEs' activity phases are distributed within an hour.
fn place_streams(trace: &Dataset, window: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let streams = trace
        .streams
        .iter()
        .map(|s| {
            let slack = (window - s.duration()).max(0.0);
            let offset = rng.gen::<f64>() * slack;
            let events = s
                .events
                .iter()
                .map(|e| Event::new(e.event_type, e.timestamp + offset))
                .collect();
            Stream::new(s.ue_id, s.device_type, events)
        })
        .collect();
    Dataset::with_generation(trace.generation, streams)
}

fn row_for(name: &str, trace: &Dataset, cfg: &McnConfig) -> Vec<String> {
    let r = simulate(trace, cfg);
    vec![
        name.to_string(),
        r.processed.to_string(),
        format!("{:.1}", r.mean_latency * 1e3),
        format!("{:.1}", r.p99_latency * 1e3),
        r.peak_queue.to_string(),
        r.peak_workers.to_string(),
        r.peak_connected_ues.to_string(),
    ]
}

/// Drives a fixed-size and an autoscaling MCN with the real phone trace
/// and every generator's synthetic trace; the synthetic rows should agree
/// with the real row for a generator to be useful downstream.
pub fn run_downstream(
    scale: &Scale,
    out: &Output,
    cache: &mut SuiteCache,
) -> Result<(), SuiteError> {
    out.note("== Extension: downstream MCN evaluation (the §2.2 use case) ==");
    let suite = cache.get(scale, DeviceType::Phone)?;

    for (label, cfg) in [
        ("fixed 4-worker MCN", McnConfig::fixed(4)),
        (
            "autoscaling MCN (target 60% util)",
            McnConfig::autoscaling(2, 0.6),
        ),
    ] {
        let mut t = Table::new(
            format!("Downstream MCN load — {label} (phones)"),
            &[
                "trace",
                "events",
                "mean lat (ms)",
                "p99 lat (ms)",
                "peak queue",
                "peak workers",
                "peak CONNECTED UEs",
            ],
        );
        t.row(&row_for("real", &suite.real_test, &cfg));
        for (i, kind) in GeneratorKind::ALL.into_iter().enumerate() {
            let placed = place_streams(&suite.synth[&kind], 3600.0, 9000 + i as u64);
            t.row(&row_for(kind.label(), &placed, &cfg));
        }
        let name = if cfg.autoscale.is_some() {
            "downstream_autoscale"
        } else {
            "downstream_fixed"
        };
        out.table(name, &t.render());
    }
    Ok(())
}
