//! Stream replay against the UE state machine: semantic-violation counting
//! and sojourn-time extraction (§5.2.1 of the paper).
//!
//! > "For each synthesized stream, we sequentially replay the events against
//! > the UE state machine. On encountering a state-violating event, a
//! > counter is incremented and the state machine stays in the same state.
//! > To bootstrap the initial state of the state machine, we employ a
//! > heuristic that looks for the first ATCH, DTCH, SRV_REQ, or HO event
//! > [...]. Events preceding the state machine bootstrapping are excluded
//! > from the semantic correctness calculation."

use crate::machine::{StateMachine, Violation};
use crate::state::TopState;
use cpt_trace::Stream;

/// Time spent in one visit to a top-level state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SojournRecord {
    /// The top-level state that was occupied.
    pub state: TopState,
    /// Duration of the visit in seconds.
    pub duration: f64,
}

/// Result of replaying one stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayOutcome {
    /// Whether a bootstrap event was found; if not, nothing was checked.
    pub bootstrapped: bool,
    /// Number of events checked against the machine (events after the
    /// bootstrap event).
    pub events_checked: usize,
    /// Violations encountered, in stream order.
    pub violations: Vec<Violation>,
    /// Completed visits to top-level states (a visit completes when the UE
    /// *leaves* the state; the trailing open visit is not counted, matching
    /// the paper's "duration that the UE stays in each state").
    pub sojourns: Vec<SojournRecord>,
}

impl ReplayOutcome {
    /// Whether the stream contains at least one violating event (the
    /// stream-level violation metric of Tables 3 and 5).
    pub fn has_violation(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Completed sojourn durations in a given top state.
    #[cfg(test)]
    pub fn sojourns_in(&self, state: TopState) -> Vec<f64> {
        self.durations_in(state).collect()
    }

    /// Mean of the completed sojourn durations in `state`, if any — the
    /// per-UE quantity whose distribution Fig. 2 / Fig. 5 plot ("the
    /// average sojourn time in the CONNECTED state of each UE"). The
    /// durations are summed in stream order, without collecting them.
    pub fn mean_sojourn_in(&self, state: TopState) -> Option<f64> {
        let mut n = 0usize;
        let sum = self.durations_in(state).inspect(|_| n += 1).sum::<f64>();
        (n > 0).then(|| sum / n as f64)
    }

    fn durations_in(&self, state: TopState) -> impl Iterator<Item = f64> + '_ {
        self.sojourns
            .iter()
            .filter(move |s| s.state == state)
            .map(|s| s.duration)
    }
}

/// Replays `stream` against `machine`, returning violation counts and
/// per-top-state sojourn times.
pub fn replay(machine: &StateMachine, stream: &Stream) -> ReplayOutcome {
    let mut outcome = ReplayOutcome::default();
    replay_into(machine, stream, &mut outcome);
    outcome
}

/// [`replay`] into a caller-owned outcome, which is cleared first: a fold
/// that keeps one outcome allocates nothing per stream once its vectors
/// have grown to the longest stream's needs.
pub fn replay_into(machine: &StateMachine, stream: &Stream, outcome: &mut ReplayOutcome) {
    outcome.bootstrapped = false;
    outcome.events_checked = 0;
    outcome.violations.clear();
    outcome.sojourns.clear();

    // --- Bootstrap: find the first event that determines the state. ---
    let mut iter = stream.events.iter();
    let mut state = None;
    let mut entered_at = 0.0;
    for ev in iter.by_ref() {
        if let Some(s) = machine.bootstrap_state(ev.event_type) {
            state = Some(s);
            entered_at = ev.timestamp;
            break;
        }
    }
    let Some(mut state) = state else {
        return; // No bootstrap event: nothing to check.
    };
    outcome.bootstrapped = true;

    // --- Replay the remainder. ---
    for ev in iter {
        outcome.events_checked += 1;
        match machine.transition(state, ev.event_type) {
            Ok(next) => {
                if next.top() != state.top() {
                    outcome.sojourns.push(SojournRecord {
                        state: state.top(),
                        duration: (ev.timestamp - entered_at).max(0.0),
                    });
                    entered_at = ev.timestamp;
                }
                state = next;
            }
            Err(v) => {
                // Violation: count it; the machine stays in the same state.
                outcome.violations.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{DeviceType, Event, EventType, Stream, UeId};
    use EventType as E;

    fn stream(evs: &[(E, f64)]) -> Stream {
        Stream::new(
            UeId(0),
            DeviceType::Phone,
            evs.iter().map(|(e, t)| Event::new(*e, *t)).collect(),
        )
    }

    #[test]
    fn clean_stream_has_no_violations() {
        let m = StateMachine::lte();
        let s = stream(&[
            (E::Attach, 0.0),
            (E::ConnectionRelease, 10.0),
            (E::ServiceRequest, 100.0),
            (E::ConnectionRelease, 130.0),
            (E::Detach, 400.0),
        ]);
        let out = replay(&m, &s);
        assert!(out.bootstrapped);
        assert_eq!(out.events_checked, 4);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn sojourns_are_split_by_top_state() {
        let m = StateMachine::lte();
        // CONNECTED [0,10), IDLE [10,100), CONNECTED [100,130), IDLE [130,400)
        let s = stream(&[
            (E::Attach, 0.0),
            (E::ConnectionRelease, 10.0),
            (E::ServiceRequest, 100.0),
            (E::ConnectionRelease, 130.0),
            (E::Detach, 400.0),
        ]);
        let out = replay(&m, &s);
        assert_eq!(out.sojourns_in(TopState::Connected), vec![10.0, 30.0]);
        assert_eq!(out.sojourns_in(TopState::Idle), vec![90.0, 270.0]);
        assert_eq!(out.mean_sojourn_in(TopState::Connected), Some(20.0));
    }

    #[test]
    fn tau_within_idle_does_not_close_the_sojourn() {
        let m = StateMachine::lte();
        let s = stream(&[
            (E::ServiceRequest, 0.0),
            (E::ConnectionRelease, 5.0),
            (E::TrackingAreaUpdate, 50.0), // idle-mode TAU: still IDLE
            (E::ServiceRequest, 100.0),
        ]);
        let out = replay(&m, &s);
        assert!(out.violations.is_empty());
        assert_eq!(out.sojourns_in(TopState::Idle), vec![95.0]);
    }

    #[test]
    fn violation_freezes_state() {
        let m = StateMachine::lte();
        // SRV_REQ bootstrap → CONNECTED; second SRV_REQ is illegal in
        // CONNECTED; the machine stays CONNECTED so the S1_CONN_REL after it
        // is legal.
        let s = stream(&[
            (E::ServiceRequest, 0.0),
            (E::ServiceRequest, 1.0),
            (E::ConnectionRelease, 2.0),
        ]);
        let out = replay(&m, &s);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].event, E::ServiceRequest);
        assert_eq!(out.violations[0].state.top(), TopState::Connected);
        assert!(out.has_violation());
        // The release still completed a CONNECTED sojourn of 2 s.
        assert_eq!(out.sojourns_in(TopState::Connected), vec![2.0]);
    }

    #[test]
    fn events_before_bootstrap_are_excluded() {
        let m = StateMachine::lte();
        // Leading S1_CONN_REL and TAU cannot bootstrap; the SRV_REQ does.
        let s = stream(&[
            (E::ConnectionRelease, 0.0),
            (E::TrackingAreaUpdate, 1.0),
            (E::ServiceRequest, 2.0),
            (E::ConnectionRelease, 3.0),
        ]);
        let out = replay(&m, &s);
        assert!(out.bootstrapped);
        assert_eq!(out.events_checked, 1);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn stream_without_bootstrap_checks_nothing() {
        let m = StateMachine::lte();
        let s = stream(&[(E::ConnectionRelease, 0.0), (E::TrackingAreaUpdate, 1.0)]);
        let out = replay(&m, &s);
        assert!(!out.bootstrapped);
        assert_eq!(out.events_checked, 0);
        assert!(!out.has_violation());
        assert!(out.sojourns.is_empty());
    }

    #[test]
    fn ho_tau_sequence_keeps_connected_sojourn_open() {
        let m = StateMachine::lte();
        let s = stream(&[
            (E::ServiceRequest, 0.0),
            (E::Handover, 5.0),
            (E::TrackingAreaUpdate, 6.0),
            (E::ConnectionRelease, 20.0),
        ]);
        let out = replay(&m, &s);
        assert!(out.violations.is_empty());
        assert_eq!(out.sojourns_in(TopState::Connected), vec![20.0]);
    }

    #[test]
    fn a_reused_outcome_equals_a_fresh_one() {
        let m = StateMachine::lte();
        let busy = stream(&[
            (E::ServiceRequest, 0.0),
            (E::ServiceRequest, 1.0),
            (E::ConnectionRelease, 2.0),
            (E::ServiceRequest, 9.0),
        ]);
        let unbooted = stream(&[(E::ConnectionRelease, 0.0)]);
        let mut out = ReplayOutcome::default();
        for s in [&busy, &unbooted, &busy] {
            replay_into(&m, s, &mut out);
            assert_eq!(out, replay(&m, s));
        }
    }

    #[test]
    fn empty_stream() {
        let m = StateMachine::lte();
        let out = replay(&m, &stream(&[]));
        assert!(!out.bootstrapped);
        assert_eq!(out.events_checked, 0);
    }
}
