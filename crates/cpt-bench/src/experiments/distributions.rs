//! Figure 2, Table 6, Figure 5 and Table 7: the distribution-fidelity
//! experiments.

use crate::output::Output;
use crate::pipeline::{GeneratorKind, SuiteCache};
use crate::suite::SuiteError;
use crate::Scale;
use cpt_metrics::report::{pct, pct_signed};
use cpt_metrics::sojourn::sojourn_ecdf;
use cpt_metrics::{FlowLenKind, StreamAccumulator, Table};
use cpt_statemachine::{StateMachine, TopState};
use cpt_trace::{DeviceType, EventType};

/// Figure 2: CDFs of per-UE mean CONNECTED sojourn time, phones, real vs
/// all four generators. Emitted as CSV series plus a max-y summary table.
pub fn run_fig2(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Figure 2: CONNECTED sojourn CDFs (phones) ==");
    let machine = StateMachine::lte();
    let suite = cache.get(scale, DeviceType::Phone)?;
    let mut rows = Vec::new();
    let real = sojourn_ecdf(&machine, &suite.real_test, TopState::Connected);
    for (x, y) in real.series(200) {
        rows.push(vec!["real".to_string(), format!("{x:.4}"), format!("{y:.6}")]);
    }
    let mut t = Table::new(
        "Figure 2 summary: max y-distance to the real CONNECTED sojourn CDF (phones)",
        &["generator", "max y-distance"],
    );
    for kind in GeneratorKind::ALL {
        let e = sojourn_ecdf(&machine, &suite.synth[&kind], TopState::Connected);
        for (x, y) in e.series(200) {
            rows.push(vec![
                kind.label().to_string(),
                format!("{x:.4}"),
                format!("{y:.6}"),
            ]);
        }
        t.row(&[kind.label().into(), pct(real.max_y_distance(&e), 1)]);
    }
    out.csv("fig2_connected_sojourn_cdf_phone", &["series", "x_seconds", "cdf"], &rows);
    out.table("fig2", &t.render());
    Ok(())
}

/// Table 6: max y-distance of sojourn (CONNECTED/IDLE) and flow-length
/// (all / SRV_REQ / S1_CONN_REL) CDFs for every generator × device type.
pub fn run_table6(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Table 6: max y-distance between real and synthesized CDFs ==");
    let mut t = Table::new(
        "Table 6: maximum y-distance between the CDFs of the real and synthesized datasets",
        &[
            "device", "metric", "SMM-1", "SMM-20k", "NetShare", "CPT-GPT",
        ],
    );
    for device in DeviceType::ALL {
        let suite = cache.get(scale, device)?;
        type MetricFn = Box<dyn Fn(&cpt_metrics::FidelityReport) -> f64>;
        let metric_rows: [(&str, MetricFn); 5] = [
            ("Sojourn CONNECTED", Box::new(|r| r.sojourn_connected)),
            ("Sojourn IDLE", Box::new(|r| r.sojourn_idle)),
            ("Flow length (all)", Box::new(|r| r.flow_length_all)),
            ("Flow length SRV_REQ", Box::new(|r| r.flow_length_srv_req)),
            (
                "Flow length S1_CONN_REL",
                Box::new(|r| r.flow_length_conn_rel),
            ),
        ];
        for (name, f) in metric_rows {
            let mut row = vec![device.to_string(), name.to_string()];
            for kind in GeneratorKind::ALL {
                row.push(pct(f(&suite.reports[&kind]), 1));
            }
            t.row(&row);
        }
    }
    out.table("table6", &t.render());
    Ok(())
}

/// Figure 5: the full CDF grid (sojourns + flow lengths) per device type
/// and generator, as CSV series.
pub fn run_fig5(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Figure 5: fidelity-metric CDF grids ==");
    let machine = StateMachine::lte();
    for device in DeviceType::ALL {
        let suite = cache.get(scale, device)?;
        let mut rows = Vec::new();
        let emit = |panel: &str, series: &str, points: Vec<(f64, f64)>, rows: &mut Vec<Vec<String>>| {
            for (x, y) in points {
                rows.push(vec![
                    panel.to_string(),
                    series.to_string(),
                    format!("{x:.4}"),
                    format!("{y:.6}"),
                ]);
            }
        };
        let datasets: Vec<(&str, &cpt_trace::Dataset)> = std::iter::once(("real", &suite.real_test))
            .chain(
                GeneratorKind::ALL
                    .iter()
                    .map(|k| (k.label(), &suite.synth[k])),
            )
            .collect();
        for (name, ds) in datasets {
            // Five views of one fold of the trace.
            let acc = StreamAccumulator::of(&machine, ds);
            let panels = [
                ("sojourn_connected", acc.sojourn_ecdf(TopState::Connected)),
                ("sojourn_idle", acc.sojourn_ecdf(TopState::Idle)),
                ("flow_length_all", acc.flow_ecdf(FlowLenKind::All)),
                (
                    "flow_length_srv_req",
                    acc.flow_ecdf(FlowLenKind::OfType(EventType::ServiceRequest)),
                ),
                (
                    "flow_length_s1_conn_rel",
                    acc.flow_ecdf(FlowLenKind::OfType(EventType::ConnectionRelease)),
                ),
            ];
            for (panel, ecdf) in panels {
                emit(panel, name, ecdf.series(150), &mut rows);
            }
        }
        out.csv(
            &format!("fig5_{device}"),
            &["panel", "series", "x", "cdf"],
            &rows,
        );
    }
    Ok(())
}

/// Table 7: event-type breakdown of the real dataset and per-generator
/// differences.
pub fn run_table7(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Table 7: event-type breakdown (difference vs real) ==");
    let mut t = Table::new(
        "Table 7: breakdown of event types; generator columns show (synth - real)",
        &[
            "device", "event", "Real", "SMM-1", "SMM-20k", "NetShare", "CPT-GPT",
        ],
    );
    for device in DeviceType::ALL {
        let suite = cache.get(scale, device)?;
        let real = suite.real_test.event_breakdown();
        let diffs: Vec<_> = GeneratorKind::ALL
            .iter()
            .map(|k| cpt_metrics::breakdown_diffs(&suite.real_test, &suite.synth[k]))
            .collect();
        for et in EventType::ALL {
            let mut row = vec![
                device.to_string(),
                et.to_string(),
                pct(real.get(&et).copied().unwrap_or(0.0), 2),
            ];
            for d in &diffs {
                row.push(pct_signed(d[&et], 2));
            }
            t.row(&row);
        }
    }
    out.table("table7", &t.render());
    Ok(())
}
