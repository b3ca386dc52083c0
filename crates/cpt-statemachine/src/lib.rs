//! Two-level hierarchical 3GPP UE state machines (Figure 1 of the paper).
//!
//! The 3GPP standard specifies two per-UE state machines — EMM/RM
//! (mobility/registration management) and ECM/CM (connection management) —
//! and intricate dependences of control events on their states. Following
//! [Meng et al., IMC'23] the paper merges them into a *two-level*
//! hierarchical machine per generation: three top-level states
//! (DEREGISTERED, CONNECTED, IDLE) with bottom-level sub-states embedded in
//! CONNECTED and IDLE.
//!
//! This crate is the domain-knowledge substrate of the workspace. It is used
//! in three roles:
//!
//! 1. by `cpt-synth` to *generate* semantically correct ground-truth traces;
//! 2. by `cpt-smm` as the skeleton of the Semi-Markov baselines;
//! 3. by `cpt-metrics` to *validate* synthesized traces (the semantic
//!    violation metric) and to extract per-state sojourn times — the replay
//!    procedure of §5.2.1, including the paper's bootstrap heuristic.
//!
//! Note that CPT-GPT itself never sees this crate at training or inference
//! time — that is the paper's whole point ("without domain knowledge").

pub mod dot;
pub mod machine;
pub mod replay;
pub mod state;

pub use dot::to_dot;
pub use machine::{StateMachine, Transition, Violation};
pub use replay::{replay, replay_into, ReplayOutcome, SojournRecord};
pub use state::{SubState, TopState, UeState};
