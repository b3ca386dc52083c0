//! Semantic-violation statistics (§5.2.1, Tables 3 and 5).

use crate::streaming::StreamAccumulator;
use cpt_statemachine::{StateMachine, Violation};
use cpt_trace::Dataset;
use serde::{Deserialize, Serialize};

/// Aggregated violation counts over a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ViolationStats {
    /// Events checked (events after each stream's bootstrap event).
    pub events_checked: usize,
    /// Events that violated a state transition.
    pub violating_events: usize,
    /// Streams that could be bootstrapped and checked.
    pub streams_checked: usize,
    /// Streams containing at least one violating event.
    pub violating_streams: usize,
    /// Violation (state, event) pairs with counts, most frequent first —
    /// the "top-3 violations" rows of Table 3.
    pub by_kind: Vec<(Violation, usize)>,
}

impl ViolationStats {
    /// Fraction of checked events that violate (Table 5 row 1).
    pub fn event_rate(&self) -> f64 {
        if self.events_checked == 0 {
            0.0
        } else {
            self.violating_events as f64 / self.events_checked as f64
        }
    }

    /// Fraction of checked streams with ≥ 1 violation (Table 5 row 2).
    pub fn stream_rate(&self) -> f64 {
        if self.streams_checked == 0 {
            0.0
        } else {
            self.violating_streams as f64 / self.streams_checked as f64
        }
    }

    /// The `n` most frequent violation kinds, as a fraction of checked
    /// events (the Table 3 breakdown).
    pub fn top(&self, n: usize) -> Vec<(Violation, f64)> {
        self.by_kind
            .iter()
            .take(n)
            .map(|(v, c)| (*v, *c as f64 / self.events_checked.max(1) as f64))
            .collect()
    }
}

/// Replays every stream of `dataset` and aggregates violation statistics.
pub fn violation_stats(machine: &StateMachine, dataset: &Dataset) -> ViolationStats {
    StreamAccumulator::of(machine, dataset).violations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{DeviceType, Event, EventType, Stream, UeId};

    fn stream(id: u64, evs: &[(EventType, f64)]) -> Stream {
        Stream::new(
            UeId(id),
            DeviceType::Phone,
            evs.iter().map(|(e, t)| Event::new(*e, *t)).collect(),
        )
    }

    #[test]
    fn clean_dataset_has_zero_rates() {
        let d = Dataset::new(vec![stream(
            0,
            &[
                (EventType::ServiceRequest, 0.0),
                (EventType::ConnectionRelease, 5.0),
                (EventType::ServiceRequest, 60.0),
            ],
        )]);
        let s = violation_stats(&StateMachine::lte(), &d);
        assert_eq!(s.event_rate(), 0.0);
        assert_eq!(s.stream_rate(), 0.0);
        assert_eq!(s.events_checked, 2);
        assert_eq!(s.streams_checked, 1);
    }

    #[test]
    fn counts_violations_and_ranks_kinds() {
        // Two streams; one with a double-release (IDLE, S1_CONN_REL)
        // twice, the other with (CONNECTED, SRV_REQ) once.
        let d = Dataset::new(vec![
            stream(
                0,
                &[
                    (EventType::ServiceRequest, 0.0),
                    (EventType::ConnectionRelease, 1.0),
                    (EventType::ConnectionRelease, 2.0),
                    (EventType::ConnectionRelease, 3.0),
                ],
            ),
            stream(
                1,
                &[
                    (EventType::ServiceRequest, 0.0),
                    (EventType::ServiceRequest, 1.0),
                    (EventType::ConnectionRelease, 2.0),
                ],
            ),
            stream(
                2,
                &[
                    (EventType::ServiceRequest, 0.0),
                    (EventType::ConnectionRelease, 5.0),
                ],
            ),
        ]);
        let s = violation_stats(&StateMachine::lte(), &d);
        assert_eq!(s.streams_checked, 3);
        assert_eq!(s.violating_streams, 2);
        assert_eq!(s.violating_events, 3);
        assert_eq!(s.events_checked, 3 + 2 + 1);
        assert!((s.stream_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.event_rate() - 0.5).abs() < 1e-12);
        // Double-release is the most frequent kind.
        let top = s.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0.event, EventType::ConnectionRelease);
        assert_eq!(top[0].1, 2.0 / 6.0);
        assert_eq!(top[1].0.event, EventType::ServiceRequest);
    }

    #[test]
    fn unbootstrappable_streams_are_skipped() {
        let d = Dataset::new(vec![stream(
            0,
            &[
                (EventType::ConnectionRelease, 0.0),
                (EventType::TrackingAreaUpdate, 1.0),
            ],
        )]);
        let s = violation_stats(&StateMachine::lte(), &d);
        assert_eq!(s.streams_checked, 0);
        assert_eq!(s.event_rate(), 0.0);
    }
}
