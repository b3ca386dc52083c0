//! Discrete-event mobile-core-network (MCN) load simulator.
//!
//! The paper motivates control-plane traffic generation with two use
//! cases (§2.2); the first is *performance evaluation of MCN design*:
//! driving an MCN implementation with a large, realistic control-plane
//! workload to study throughput, latency, scalability and autoscaling
//! (CoreKube-style systems). The paper leaves "evaluating CPT-GPT's
//! effectiveness on downstream applications" as future work (§7) — this
//! crate implements that downstream application as a queueing model so
//! the repository can close the loop: an MCN *sized on synthetic traffic*
//! should behave like one sized on the real trace.
//!
//! Model: each control event is a job for the control plane. Jobs arrive
//! at their trace timestamps, wait in a bounded FIFO queue, and are
//! served by a pool of identical workers (think AMF/SMF worker pods) with
//! per-event-type service times. An optional autoscaler adjusts the pool
//! size between evaluation epochs based on observed utilization —
//! exercising exactly the diurnal-drift capability (C5) the paper calls
//! out. The simulator also tracks the per-UE state table (UEs currently
//! CONNECTED) that stateful MCN implementations must hold in memory.

pub mod report;
pub mod sim;

pub use report::McnReport;
pub use sim::{simulate, AutoscaleConfig, McnConfig};
