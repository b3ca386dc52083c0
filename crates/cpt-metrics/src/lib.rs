//! Fidelity metrics for synthesized control-plane traffic — the
//! implementation of Table 2 of the paper.
//!
//! | Metric | Module | Evaluates |
//! |---|---|---|
//! | Semantic violations | [`violations`] | C2 (stateful semantics) |
//! | Sojourn time distribution | [`sojourn`] | C3 (multimodal features) |
//! | Event type breakdown | [`breakdown`] | C3 |
//! | Flow length distribution | [`flowlen`] | C4 (variable flow length) |
//! | Adaptability to drift | measured by the experiment harness (wall-clock) | C5 |
//!
//! Every replay-based number comes from one fold, [`StreamAccumulator`]
//! ([`streaming`]): one state-machine replay per stream feeds violations,
//! sojourns, flow lengths and the breakdown at once, for a resident
//! [`Dataset`] and for a trace read stream by stream alike; the functions
//! above are views of it.
//!
//! Additionally [`memorization`] implements the §5.6 n-gram memorization
//! analysis, [`selection`] the §5.5 checkpoint-selection heuristic used to
//! compare training times fairly, and [`report`] the plain-text table
//! rendering used by the experiment binaries.

pub mod breakdown;
pub mod flowlen;
pub mod memorization;
pub mod report;
pub mod selection;
pub mod sojourn;
pub mod streaming;
pub mod violations;

pub use breakdown::{breakdown_diffs, max_abs_breakdown_diff};
pub use flowlen::{flow_length_distance, FlowLenKind};
pub use memorization::ngram_repeat_fraction;
pub use report::Table;
pub use selection::select_checkpoint;
pub use sojourn::sojourn_distance;
pub use streaming::{
    accumulate_reader, accumulate_trace, fidelity_from_accumulators, StreamAccumulator,
};
pub use violations::{violation_stats, ViolationStats};

use cpt_statemachine::StateMachine;
use cpt_trace::Dataset;

/// Everything the paper's evaluation computes for one (real, synthesized)
/// dataset pair, in one call. Used by the experiment harness for Tables
/// 5–8, 10 and Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityReport {
    /// Fraction of checked events that violate the state machine.
    pub event_violation_rate: f64,
    /// Fraction of checked streams with ≥ 1 violating event.
    pub stream_violation_rate: f64,
    /// Max y-distance of per-UE mean CONNECTED sojourn CDFs.
    pub sojourn_connected: f64,
    /// Max y-distance of per-UE mean IDLE sojourn CDFs.
    pub sojourn_idle: f64,
    /// Max y-distance of flow-length CDFs over all events.
    pub flow_length_all: f64,
    /// Max y-distance of per-stream SRV_REQ count CDFs.
    pub flow_length_srv_req: f64,
    /// Max y-distance of per-stream S1_CONN_REL count CDFs.
    pub flow_length_conn_rel: f64,
    /// Largest absolute event-type breakdown difference.
    pub max_breakdown_diff: f64,
}

impl FidelityReport {
    /// Computes the full report for `synth` against `real`, folding each
    /// dataset once.
    pub fn compute(machine: &StateMachine, real: &Dataset, synth: &Dataset) -> Self {
        fidelity_from_accumulators(
            &StreamAccumulator::of(machine, real),
            &StreamAccumulator::of(machine, synth),
        )
    }

    /// The metric vector used by the §5.5 checkpoint-ranking heuristic
    /// (all entries: lower is better).
    pub fn metric_vector(&self) -> Vec<f64> {
        vec![
            self.event_violation_rate,
            self.stream_violation_rate,
            self.sojourn_connected,
            self.sojourn_idle,
            self.flow_length_all,
            self.max_breakdown_diff,
        ]
    }
}
