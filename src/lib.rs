//! Umbrella crate re-exporting the CPT-GPT reproduction workspace.
//!
//! See the individual crates for details:
//! - [`trace`] — data model for control-plane traffic traces
//! - [`statemachine`] — 3GPP two-level UE state machines
//! - [`synth`] — ground-truth trace simulator
//! - [`nn`] — tensor/autodiff substrate
//! - [`gpt`] — the CPT-GPT model (the paper's contribution)
//! - [`netshare`] — adapted NetShare GAN/LSTM baseline
//! - [`smm`] — Semi-Markov-model baselines
//! - [`metrics`] — fidelity metrics
//! - [`mcn`] — downstream MCN load simulator (the §2.2 use case)
//! - [`bench`](mod@bench) — experiment harness (the paper's tables and figures)
//! - [`serve`] — streaming multi-UE generation service (continuous
//!   batching, backpressure, load generator)
//!
//! The `cptgen` binary (`src/bin/cptgen/`, one module per subcommand) is
//! the pipeline's CLI. Throughput is measured by the separate `cpt-ledger`
//! crate, which this umbrella does not re-export.

pub use cpt_bench as bench;
pub use cpt_gpt as gpt;
pub use cpt_mcn as mcn;
pub use cpt_metrics as metrics;
pub use cpt_netshare as netshare;
pub use cpt_nn as nn;
pub use cpt_serve as serve;
pub use cpt_smm as smm;
pub use cpt_statemachine as statemachine;
pub use cpt_synth as synth;
pub use cpt_trace as trace;
