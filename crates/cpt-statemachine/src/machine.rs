//! The transition tables of the 4G and 5G two-level machines, and the
//! validation API.

use crate::state::{SubState, UeState};
use cpt_trace::{EventType, Generation};
use std::fmt;

/// A legal transition: observing `event` in `from` moves the UE to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Source state.
    pub from: UeState,
    /// Observed control event.
    pub event: EventType,
    /// Destination state.
    pub to: UeState,
}

/// A semantic violation: `event` is not legal in state `state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Violation {
    /// The state the UE was in when the illegal event was observed.
    pub state: UeState,
    /// The illegal event.
    pub event: EventType,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.state.sub(), self.event)
    }
}

/// A two-level hierarchical UE state machine (Fig. 1 of the paper),
/// parameterized by cellular generation.
///
/// The transition relation is deterministic: for each (state, event) pair
/// there is at most one destination state. This matches the paper's replay
/// procedure, which advances a single state per event and freezes on
/// violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateMachine {
    generation: Generation,
}

impl StateMachine {
    /// The 4G machine (Fig. 1a).
    pub fn lte() -> Self {
        StateMachine {
            generation: Generation::Lte,
        }
    }

    /// The 5G machine (Fig. 1b): TAU states/transitions removed, HO needs no
    /// TAU follow-up.
    pub fn nr() -> Self {
        StateMachine {
            generation: Generation::Nr,
        }
    }

    /// Machine for a given generation.
    pub fn for_generation(generation: Generation) -> Self {
        StateMachine { generation }
    }

    /// The generation this machine models.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Attempts to apply `event` in `state`. Returns the destination state,
    /// or the [`Violation`] if the event is illegal there.
    pub fn transition(&self, state: UeState, event: EventType) -> Result<UeState, Violation> {
        use EventType as E;
        use SubState as S;
        let dst = match self.generation {
            Generation::Lte => match (state.sub(), event) {
                // DEREGISTERED: only an attach is possible.
                (S::DeregS, E::Attach) => Some(S::SrvS),

                // CONNECTED/SRV_S: release, handover, or detach.
                (S::SrvS, E::ConnectionRelease) => Some(S::S1RelS),
                (S::SrvS, E::Handover) => Some(S::HoS),
                (S::SrvS, E::Detach) => Some(S::DeregS),

                // CONNECTED/HO_S: a TAU typically completes the handover
                // (§5.6: "HO is always followed by TAU in the CONNECTED
                // state" is the *common* pattern), but a handover within
                // the same tracking area records no TAU, so the UE may also
                // hand over again, release, or detach. Note TAU < HO in the
                // real trace's event breakdown (Table 7), so TAU-after-HO
                // cannot be mandatory.
                (S::HoS, E::TrackingAreaUpdate) => Some(S::TauCS),
                (S::HoS, E::Handover) => Some(S::HoS),
                (S::HoS, E::ConnectionRelease) => Some(S::S1RelS),
                (S::HoS, E::Detach) => Some(S::DeregS),

                // CONNECTED/TAU_C_S: same options as a fresh connection.
                (S::TauCS, E::ConnectionRelease) => Some(S::S1RelS),
                (S::TauCS, E::Handover) => Some(S::HoS),
                (S::TauCS, E::Detach) => Some(S::DeregS),

                // IDLE/S1_REL_S: reconnect, idle-mode TAU, or detach.
                // S1_CONN_REL and HO are illegal here — the top-2 NetShare
                // violations of Table 3.
                (S::S1RelS, E::ServiceRequest) => Some(S::SrvS),
                (S::S1RelS, E::TrackingAreaUpdate) => Some(S::TauIS),
                (S::S1RelS, E::Detach) => Some(S::DeregS),

                // IDLE/TAU_I_S: same options as S1_REL_S (TAU can repeat).
                (S::TauIS, E::ServiceRequest) => Some(S::SrvS),
                (S::TauIS, E::TrackingAreaUpdate) => Some(S::TauIS),
                (S::TauIS, E::Detach) => Some(S::DeregS),

                _ => None,
            },
            Generation::Nr => match (state.sub(), event) {
                // 5G: REGISTER/DEREGISTER/AN_REL map onto the same roles;
                // no TAU, and HO is not followed by anything special, so
                // HO_S behaves like SRV_S.
                (S::DeregS, E::Attach) => Some(S::SrvS),
                (S::SrvS, E::ConnectionRelease) => Some(S::S1RelS),
                (S::SrvS, E::Handover) => Some(S::HoS),
                (S::SrvS, E::Detach) => Some(S::DeregS),
                (S::HoS, E::ConnectionRelease) => Some(S::S1RelS),
                (S::HoS, E::Handover) => Some(S::HoS),
                (S::HoS, E::Detach) => Some(S::DeregS),
                (S::S1RelS, E::ServiceRequest) => Some(S::SrvS),
                (S::S1RelS, E::Detach) => Some(S::DeregS),
                _ => None,
            },
        };
        match dst {
            Some(sub) => Ok(UeState(sub)),
            None => Err(Violation { state, event }),
        }
    }

    /// Whether `event` is legal in `state`.
    pub fn is_legal(&self, state: UeState, event: EventType) -> bool {
        self.transition(state, event).is_ok()
    }

    /// Events legal in `state`, in canonical order (the tests' view of
    /// [`StateMachine::transition`]).
    #[cfg(test)]
    fn legal_events(&self, state: UeState) -> Vec<EventType> {
        self.generation
            .event_types()
            .iter()
            .copied()
            .filter(|e| self.is_legal(state, *e))
            .collect()
    }

    /// Every legal transition of the machine, enumerated in canonical
    /// (state, event) order. Used by `cpt-smm` to lay out its probability
    /// tables and by tests to cross-check the transition relation.
    pub fn transitions(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        for sub in SubState::ALL {
            let from = UeState(sub);
            for event in self.generation.event_types() {
                if let Ok(to) = self.transition(from, *event) {
                    out.push(Transition {
                        from,
                        event: *event,
                        to,
                    });
                }
            }
        }
        out
    }

    /// The paper's bootstrap heuristic (§5.2.1): the first
    /// ATCH / DTCH / SRV_REQ / HO event determines the UE state
    /// *after* that event regardless of the (unknown) source state.
    ///
    /// Returns the post-event state if `event` is a bootstrap event.
    pub fn bootstrap_state(&self, event: EventType) -> Option<UeState> {
        use EventType as E;
        match event {
            // ATCH registers and connects.
            E::Attach => Some(UeState(SubState::SrvS)),
            // DTCH always lands in DEREGISTERED.
            E::Detach => Some(UeState(SubState::DeregS)),
            // SRV_REQ always results in a fresh connection.
            E::ServiceRequest => Some(UeState(SubState::SrvS)),
            // HO implies the UE was CONNECTED and is now awaiting TAU (4G)
            // or simply still connected (5G).
            E::Handover => Some(match self.generation {
                Generation::Lte => UeState(SubState::HoS),
                Generation::Nr => UeState(SubState::HoS),
            }),
            // S1_CONN_REL and TAU do *not* determine the destination
            // uniquely enough for the paper's heuristic (TAU can be
            // connected- or idle-mode), so they are skipped.
            E::ConnectionRelease | E::TrackingAreaUpdate => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::TopState;
    use EventType as E;
    use SubState as S;

    fn st(s: SubState) -> UeState {
        UeState(s)
    }

    #[test]
    fn lte_happy_path_cycle() {
        let m = StateMachine::lte();
        let mut s = UeState::DEREGISTERED;
        for (ev, expect) in [
            (E::Attach, S::SrvS),
            (E::ConnectionRelease, S::S1RelS),
            (E::ServiceRequest, S::SrvS),
            (E::Handover, S::HoS),
            (E::TrackingAreaUpdate, S::TauCS),
            (E::ConnectionRelease, S::S1RelS),
            (E::TrackingAreaUpdate, S::TauIS),
            (E::ServiceRequest, S::SrvS),
            (E::Detach, S::DeregS),
        ] {
            s = m
                .transition(s, ev)
                .unwrap_or_else(|v| panic!("unexpected violation {v}"));
            assert_eq!(s.sub(), expect);
        }
    }

    #[test]
    fn table3_violations_are_illegal() {
        // The top-3 NetShare violations of Table 3 must be violations here.
        let m = StateMachine::lte();
        assert!(!m.is_legal(st(S::S1RelS), E::ConnectionRelease));
        assert!(!m.is_legal(st(S::S1RelS), E::Handover));
        for conn in [S::SrvS, S::HoS, S::TauCS] {
            assert!(
                !m.is_legal(st(conn), E::ServiceRequest),
                "SRV_REQ legal in {conn}"
            );
        }
    }

    #[test]
    fn ho_state_allows_tau_completion_and_connected_actions() {
        let m = StateMachine::lte();
        assert_eq!(
            m.legal_events(st(S::HoS)),
            vec![
                E::Detach,
                E::ConnectionRelease,
                E::Handover,
                E::TrackingAreaUpdate
            ]
        );
        // TAU after HO lands in TAU_C_S (connected), not IDLE.
        assert_eq!(
            m.transition(st(S::HoS), E::TrackingAreaUpdate)
                .unwrap()
                .sub(),
            S::TauCS
        );
    }

    #[test]
    fn attach_only_from_deregistered() {
        let m = StateMachine::lte();
        for sub in S::ALL {
            let legal = m.is_legal(st(sub), E::Attach);
            assert_eq!(legal, sub == S::DeregS, "ATCH legality wrong in {sub}");
        }
    }

    #[test]
    fn detach_legal_in_every_registered_state_except_ho_pending() {
        let m = StateMachine::lte();
        for sub in [S::SrvS, S::HoS, S::TauCS, S::S1RelS, S::TauIS] {
            assert!(m.is_legal(st(sub), E::Detach), "DTCH illegal in {sub}");
        }
        assert!(!m.is_legal(st(S::DeregS), E::Detach));
    }

    #[test]
    fn nr_has_no_tau() {
        let m = StateMachine::nr();
        for sub in S::ALL {
            assert!(
                !m.is_legal(st(sub), E::TrackingAreaUpdate),
                "TAU legal in 5G state {sub}"
            );
        }
        // And HO can repeat without TAU.
        assert!(m.is_legal(st(S::HoS), E::Handover));
        assert!(m.is_legal(st(S::HoS), E::ConnectionRelease));
    }

    #[test]
    fn transition_preserves_top_level_semantics() {
        // CONNECTED ↔ IDLE only via release / service request; every
        // machine transition must respect the top-level merged EMM+ECM
        // semantics.
        for m in [StateMachine::lte(), StateMachine::nr()] {
            for t in m.transitions() {
                match t.event {
                    E::Attach => {
                        assert_eq!(t.from.top(), TopState::Deregistered);
                        assert_eq!(t.to.top(), TopState::Connected);
                    }
                    E::Detach => assert_eq!(t.to.top(), TopState::Deregistered),
                    E::ServiceRequest => {
                        assert_eq!(t.from.top(), TopState::Idle);
                        assert_eq!(t.to.top(), TopState::Connected);
                    }
                    E::ConnectionRelease => {
                        assert_eq!(t.from.top(), TopState::Connected);
                        assert_eq!(t.to.top(), TopState::Idle);
                    }
                    E::Handover => {
                        assert_eq!(t.from.top(), TopState::Connected);
                        assert_eq!(t.to.top(), TopState::Connected);
                    }
                    E::TrackingAreaUpdate => {
                        assert_eq!(t.from.top(), t.to.top(), "TAU must not change top state");
                    }
                }
            }
        }
    }

    #[test]
    fn transition_count_is_exactly_the_table() {
        // 4G: 1 (ATCH) + 3 (SRV_S) + 4 (HO_S) + 3 (TAU_C_S) + 3 (S1_REL_S)
        //     + 3 (TAU_I_S) = 17.
        assert_eq!(StateMachine::lte().transitions().len(), 17);
        // 5G: 1 + 3 + 3 + 2 = 9.
        assert_eq!(StateMachine::nr().transitions().len(), 9);
    }

    #[test]
    fn bootstrap_heuristic_matches_paper() {
        let m = StateMachine::lte();
        assert_eq!(m.bootstrap_state(E::Attach), Some(st(S::SrvS)));
        assert_eq!(m.bootstrap_state(E::Detach), Some(st(S::DeregS)));
        assert_eq!(m.bootstrap_state(E::ServiceRequest), Some(st(S::SrvS)));
        assert_eq!(m.bootstrap_state(E::Handover), Some(st(S::HoS)));
        assert_eq!(m.bootstrap_state(E::ConnectionRelease), None);
        assert_eq!(m.bootstrap_state(E::TrackingAreaUpdate), None);
    }

    #[test]
    fn bootstrap_states_are_reachable_and_consistent() {
        // Each bootstrap destination must be the destination of every legal
        // transition with that event (that is what makes the heuristic
        // sound: the event determines the destination regardless of
        // source).
        for m in [StateMachine::lte(), StateMachine::nr()] {
            for event in m.generation().event_types() {
                if let Some(boot) = m.bootstrap_state(*event) {
                    for t in m.transitions().into_iter().filter(|t| t.event == *event) {
                        assert_eq!(
                            t.to, boot,
                            "{event} transition to {} disagrees with bootstrap {}",
                            t.to, boot
                        );
                    }
                }
            }
        }
    }
}
