//! UE states of the two-level hierarchical machines.

use std::fmt;

/// Top-level UE state, the merge of the EMM/RM and ECM/CM machines (§2.1):
/// DEREGISTERED, CONNECTED and IDLE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopState {
    /// Not registered with the MCN (EMM-DEREGISTERED).
    Deregistered,
    /// Registered with an active signaling connection (EMM-REGISTERED +
    /// ECM-CONNECTED).
    Connected,
    /// Registered but with the signaling connection released
    /// (EMM-REGISTERED + ECM-IDLE).
    Idle,
}

impl TopState {
    /// All top states.
    pub const ALL: [TopState; 3] = [TopState::Deregistered, TopState::Connected, TopState::Idle];

    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        match self {
            TopState::Deregistered => 0,
            TopState::Connected => 1,
            TopState::Idle => 2,
        }
    }
}

impl fmt::Display for TopState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopState::Deregistered => "DEREGISTERED",
            TopState::Connected => "CONNECTED",
            TopState::Idle => "IDLE",
        };
        write!(f, "{s}")
    }
}

/// Bottom-level sub-state, embedded in the top-level CONNECTED and IDLE
/// states. Sub-states capture the event-history-dependent constraints the
/// top level alone cannot express (e.g. "HO must be followed by TAU" and
/// "S1_CONN_REL / HO are invalid in S1_REL_S", the top NetShare violations
/// of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubState {
    /// CONNECTED via ATCH or SRV_REQ (a fresh signaling connection).
    SrvS,
    /// CONNECTED, immediately after a handover. In 4G the only legal next
    /// event is TAU (the standard mandates a tracking-area update after a
    /// handover that changes tracking area, which the trace always records).
    HoS,
    /// CONNECTED, after the TAU that completes a handover.
    TauCS,
    /// IDLE, entered via S1_CONN_REL / AN_REL. `S1_REL_S` in the paper's
    /// Table 3.
    S1RelS,
    /// IDLE, after an idle-mode (periodic) TAU. 4G only.
    TauIS,
    /// Placeholder sub-state of DEREGISTERED (the top state has no bottom
    /// machine; a single sub-state keeps the representation uniform).
    DeregS,
}

impl SubState {
    /// All sub-states.
    pub const ALL: [SubState; 6] = [
        SubState::SrvS,
        SubState::HoS,
        SubState::TauCS,
        SubState::S1RelS,
        SubState::TauIS,
        SubState::DeregS,
    ];

    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        match self {
            SubState::SrvS => 0,
            SubState::HoS => 1,
            SubState::TauCS => 2,
            SubState::S1RelS => 3,
            SubState::TauIS => 4,
            SubState::DeregS => 5,
        }
    }

    /// The top-level state this sub-state belongs to.
    pub fn top(self) -> TopState {
        match self {
            SubState::SrvS | SubState::HoS | SubState::TauCS => TopState::Connected,
            SubState::S1RelS | SubState::TauIS => TopState::Idle,
            SubState::DeregS => TopState::Deregistered,
        }
    }
}

impl fmt::Display for SubState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SubState::SrvS => "SRV_S",
            SubState::HoS => "HO_S",
            SubState::TauCS => "TAU_C_S",
            SubState::S1RelS => "S1_REL_S",
            SubState::TauIS => "TAU_I_S",
            SubState::DeregS => "DEREG_S",
        };
        write!(f, "{s}")
    }
}

/// A complete two-level UE state: the sub-state determines the top state
/// via [`SubState::top`], so `UeState` is a thin wrapper adding convenience
/// accessors and the canonical display form `TOP/SUB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UeState(pub SubState);

impl UeState {
    /// The UE state machine's initial state.
    pub const DEREGISTERED: UeState = UeState(SubState::DeregS);

    /// The bottom-level sub-state.
    pub fn sub(self) -> SubState {
        self.0
    }

    /// The top-level state.
    pub fn top(self) -> TopState {
        self.0.top()
    }
}

impl fmt::Display for UeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.top(), self.sub())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substate_top_mapping() {
        assert_eq!(SubState::SrvS.top(), TopState::Connected);
        assert_eq!(SubState::HoS.top(), TopState::Connected);
        assert_eq!(SubState::TauCS.top(), TopState::Connected);
        assert_eq!(SubState::S1RelS.top(), TopState::Idle);
        assert_eq!(SubState::TauIS.top(), TopState::Idle);
        assert_eq!(SubState::DeregS.top(), TopState::Deregistered);
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, s) in SubState::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, s) in TopState::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(UeState(SubState::S1RelS).to_string(), "IDLE/S1_REL_S");
        assert_eq!(UeState(SubState::SrvS).to_string(), "CONNECTED/SRV_S");
        assert_eq!(TopState::Deregistered.to_string(), "DEREGISTERED");
    }
}
