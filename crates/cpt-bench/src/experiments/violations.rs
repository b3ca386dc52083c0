//! Tables 3 and 5: stateful-semantics violations.

use crate::output::Output;
use crate::pipeline::{GeneratorKind, SuiteCache};
use crate::suite::SuiteError;
use crate::Scale;
use cpt_metrics::report::pct;
use cpt_metrics::Table;
use cpt_trace::DeviceType;

/// Table 3: NetShare's violation rates plus its top-3 (state, event)
/// violation pairs, for phones.
pub fn run_table3(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Table 3: semantic violations in NetShare-synthesized traffic ==");
    let suite = cache.get(scale, DeviceType::Phone)?;
    let v = &suite.violations[&GeneratorKind::NetShare];
    let mut t = Table::new(
        "Table 3: NetShare violations (phones)",
        &["metric", "value"],
    );
    t.row(&["Perc. event violations".into(), pct(v.event_rate(), 3)]);
    t.row(&[
        "Perc. streams w/ at least one violating event".into(),
        pct(v.stream_rate(), 2),
    ]);
    for (violation, frac) in v.top(3) {
        t.row(&[format!("top violation {violation}"), pct(frac, 2)]);
    }
    out.table("table3", &t.render());
    Ok(())
}

/// Table 5: event/stream violation rates for NetShare and CPT-GPT across
/// the three device types (SMMs omitted — violation-free by
/// construction).
pub fn run_table5(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Table 5: violations, NetShare vs CPT-GPT, all devices ==");
    let mut t = Table::new(
        "Table 5: percentage of events/streams violating 3GPP stateful semantics",
        &[
            "device",
            "NetShare events",
            "CPT-GPT events",
            "NetShare streams",
            "CPT-GPT streams",
        ],
    );
    for device in DeviceType::ALL {
        let suite = cache.get(scale, device)?;
        let ns = &suite.violations[&GeneratorKind::NetShare];
        let gpt = &suite.violations[&GeneratorKind::CptGpt];
        t.row(&[
            device.to_string(),
            pct(ns.event_rate(), 3),
            pct(gpt.event_rate(), 3),
            pct(ns.stream_rate(), 1),
            pct(gpt.stream_rate(), 1),
        ]);
    }
    out.table("table5", &t.render());
    Ok(())
}
