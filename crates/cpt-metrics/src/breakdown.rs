//! Event-type breakdown differences (Table 7).
//!
//! Table 7 reports, per event type, the synthesized dataset's share minus
//! the real dataset's share (percentage points; lower magnitude = better).

use cpt_trace::{Dataset, EventType};
use std::collections::BTreeMap;

/// Per-type breakdown difference `synth − real` (fractions, not
/// percentage points).
pub fn breakdown_diffs(real: &Dataset, synth: &Dataset) -> BTreeMap<EventType, f64> {
    let r = real.event_breakdown();
    let s = synth.event_breakdown();
    EventType::ALL
        .iter()
        .map(|et| {
            (
                *et,
                s.get(et).copied().unwrap_or(0.0) - r.get(et).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

/// Largest absolute breakdown difference over all event types — the
/// summary number quoted in §5.2.2 ("within 0.66 %, 2.15 %, and 3.62 %").
pub fn max_abs_breakdown_diff(real: &Dataset, synth: &Dataset) -> f64 {
    breakdown_diffs(real, synth)
        .values()
        .fold(0.0f64, |m, d| m.max(d.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{DeviceType, Event, Stream, UeId};

    fn dataset(events: &[EventType]) -> Dataset {
        Dataset::new(vec![Stream::new(
            UeId(0),
            DeviceType::Phone,
            events
                .iter()
                .enumerate()
                .map(|(i, e)| Event::new(*e, i as f64))
                .collect(),
        )])
    }

    #[test]
    fn diffs_are_signed_and_cover_all_types() {
        use EventType::*;
        let real = dataset(&[ServiceRequest, ServiceRequest, ConnectionRelease, Handover]);
        let synth = dataset(&[
            ServiceRequest,
            ConnectionRelease,
            ConnectionRelease,
            Handover,
        ]);
        let d = breakdown_diffs(&real, &synth);
        assert_eq!(d.len(), 6);
        assert!((d[&ServiceRequest] - (0.25 - 0.5)).abs() < 1e-12);
        assert!((d[&ConnectionRelease] - (0.5 - 0.25)).abs() < 1e-12);
        assert_eq!(d[&Handover], 0.0);
        assert_eq!(d[&Attach], 0.0);
        assert!((max_abs_breakdown_diff(&real, &synth) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn identical_datasets_have_zero_diff() {
        use EventType::*;
        let d = dataset(&[ServiceRequest, ConnectionRelease]);
        assert_eq!(max_abs_breakdown_diff(&d, &d), 0.0);
    }
}
