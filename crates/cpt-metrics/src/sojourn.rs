//! Sojourn-time distributions (Fig. 2 / Fig. 5 / Table 6).
//!
//! The paper plots, per UE, the *average* time spent in a top-level state
//! (CONNECTED or IDLE), and reports the max y-distance between the CDFs of
//! these per-UE averages for real vs synthesized traces.

use crate::streaming::StreamAccumulator;
use cpt_statemachine::{StateMachine, TopState};
use cpt_trace::stats::Ecdf;
use cpt_trace::Dataset;

/// ECDF of per-UE mean sojourns in `state` (UEs with no completed visit to
/// it are skipped) — the curves of Fig. 2 / Fig. 5.
pub fn sojourn_ecdf(machine: &StateMachine, dataset: &Dataset, state: TopState) -> Ecdf {
    StreamAccumulator::of(machine, dataset).sojourn_ecdf(state)
}

/// Max y-distance between the real and synthesized per-UE mean sojourn
/// CDFs (the Table 6 "Sojourn time" rows).
pub fn sojourn_distance(
    machine: &StateMachine,
    real: &Dataset,
    synth: &Dataset,
    state: TopState,
) -> f64 {
    sojourn_ecdf(machine, real, state).max_y_distance(&sojourn_ecdf(machine, synth, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{DeviceType, Event, EventType, Stream, UeId};

    /// Stream alternating SRV_REQ/S1_CONN_REL with fixed CONNECTED and
    /// IDLE durations.
    fn cycle_stream(id: u64, conn: f64, idle: f64, cycles: usize) -> Stream {
        let mut events = Vec::new();
        let mut t = 0.0;
        for _ in 0..cycles {
            events.push(Event::new(EventType::ServiceRequest, t));
            t += conn;
            events.push(Event::new(EventType::ConnectionRelease, t));
            t += idle;
        }
        events.push(Event::new(EventType::ServiceRequest, t));
        Stream::new(UeId(id), DeviceType::Phone, events)
    }

    #[test]
    fn per_ue_means_match_construction() {
        let d = Dataset::new(vec![
            cycle_stream(0, 10.0, 100.0, 3),
            cycle_stream(1, 30.0, 50.0, 2),
        ]);
        let m = StateMachine::lte();
        // An ECDF holds its samples sorted.
        let conn = sojourn_ecdf(&m, &d, TopState::Connected);
        assert_eq!(conn.len(), 2);
        assert!((conn.values()[0] - 10.0).abs() < 1e-9);
        assert!((conn.values()[1] - 30.0).abs() < 1e-9);
        let idle = sojourn_ecdf(&m, &d, TopState::Idle);
        assert!((idle.values()[0] - 50.0).abs() < 1e-9);
        assert!((idle.values()[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn identical_datasets_have_zero_distance() {
        let d = Dataset::new(vec![cycle_stream(0, 10.0, 100.0, 3)]);
        let m = StateMachine::lte();
        assert_eq!(sojourn_distance(&m, &d, &d, TopState::Connected), 0.0);
    }

    #[test]
    fn disjoint_sojourns_have_distance_one() {
        let a = Dataset::new(vec![cycle_stream(0, 10.0, 100.0, 3)]);
        let b = Dataset::new(vec![cycle_stream(0, 500.0, 100.0, 3)]);
        let m = StateMachine::lte();
        assert!((sojourn_distance(&m, &a, &b, TopState::Connected) - 1.0).abs() < 1e-12);
        // IDLE durations are identical → distance 0.
        assert_eq!(sojourn_distance(&m, &a, &b, TopState::Idle), 0.0);
    }

    #[test]
    fn ues_without_completed_sojourns_are_skipped() {
        let d = Dataset::new(vec![Stream::new(
            UeId(0),
            DeviceType::Phone,
            vec![Event::new(EventType::ServiceRequest, 0.0)],
        )]);
        let m = StateMachine::lte();
        assert!(sojourn_ecdf(&m, &d, TopState::Connected).is_empty());
    }
}
