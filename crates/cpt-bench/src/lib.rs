//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5 + Appendix B) on the simulated carrier trace.
//!
//! The entry point is the `experiments` binary
//! (`cargo run --release -p cpt-bench --bin experiments -- all`), which
//! dispatches to one function per table/figure in [`experiments`]. Shared
//! dataset/model plumbing lives in [`pipeline`]; run sizes in [`Scale`].
//!
//! Absolute numbers differ from the paper (CPU-sized models on a
//! simulated trace vs A100-trained models on a 73 M-event carrier trace);
//! the *shape* of every comparison — who wins, by roughly what factor —
//! is what these experiments reproduce. See EXPERIMENTS.md for the
//! paper-vs-measured record.
//!
//! This crate measures *fidelity*. Throughput (train / generate / serve /
//! trace rates, layer by layer) is `cpt-ledger`'s job; the Criterion
//! benches under `benches/` only track per-kernel latency trends.

pub mod experiments;
pub mod output;
pub mod pipeline;
pub mod suite;

use cpt_gpt::{CptGptConfig, TrainConfig};
use cpt_netshare::NetShareConfig;

/// Run sizes for the experiment suite.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Human-readable name ("quick" / "full" / "tiny").
    pub name: &'static str,
    /// UEs per device type in each training trace.
    pub train_ues: usize,
    /// UEs per device type in each held-out test trace.
    pub test_ues: usize,
    /// Streams synthesized per generator for fidelity evaluation (the
    /// paper uses 1000).
    pub gen_streams: usize,
    /// Maximum stream length (the paper uses 500).
    pub max_len: usize,
    /// CPT-GPT architecture.
    pub gpt: CptGptConfig,
    /// CPT-GPT optimization settings.
    pub gpt_train: TrainConfig,
    /// NetShare architecture + optimization settings.
    pub ns: NetShareConfig,
    /// k for the clustered SMM ensemble (the paper's SMM-20k mechanism).
    pub smm_clusters: usize,
    /// Synthesized population sizes for the Fig. 6 scalability sweep.
    pub fig6_sizes: Vec<usize>,
    /// Hours covered by the transfer-learning experiments (the paper
    /// uses 6).
    pub hours: usize,
    /// Snapshot cadence (epochs) for the §5.5 checkpoint-time methodology.
    pub snapshot_every: usize,
    /// Streams generated per snapshot when scoring checkpoints.
    pub snapshot_eval_streams: usize,
}

impl Scale {
    /// Minutes-scale run used by CI, tests and `cargo bench`.
    pub fn quick() -> Self {
        let max_len = 48;
        Scale {
            name: "quick",
            train_ues: 600,
            test_ues: 600,
            gen_streams: 500,
            max_len,
            gpt: CptGptConfig {
                d_model: 32,
                n_blocks: 2,
                n_heads: 4,
                d_mlp: 96,
                d_head: 32,
                max_len,
                ..CptGptConfig::small()
            },
            gpt_train: TrainConfig {
                epochs: 32,
                batch_size: 32,
                lr: 6e-3,
                warmup_steps: 20,
                clip_norm: 1.0,
                seed: 0,
                snapshot_every: None,
                ..TrainConfig::quick()
            },
            ns: NetShareConfig {
                hidden: 32,
                noise_dim: 12,
                batch_gen: 5,
                max_len,
                d_hidden: 32,
                epochs: 24,
                batch_size: 32,
                ..NetShareConfig::small()
            },
            smm_clusters: 16,
            fig6_sizes: vec![125, 250, 500, 1000, 2000],
            hours: 6,
            snapshot_every: 4,
            snapshot_eval_streams: 100,
        }
    }

    /// Larger run for the recorded EXPERIMENTS.md numbers (tens of
    /// minutes on a multicore CPU).
    pub fn full() -> Self {
        let max_len = 96;
        Scale {
            name: "full",
            train_ues: 1200,
            test_ues: 1200,
            gen_streams: 1000,
            max_len,
            gpt: CptGptConfig {
                d_model: 48,
                n_blocks: 2,
                n_heads: 4,
                d_mlp: 192,
                d_head: 48,
                max_len,
                ..CptGptConfig::small()
            },
            gpt_train: TrainConfig {
                epochs: 40,
                batch_size: 32,
                lr: 6e-3,
                warmup_steps: 30,
                clip_norm: 1.0,
                seed: 0,
                snapshot_every: None,
                ..TrainConfig::quick()
            },
            ns: NetShareConfig {
                hidden: 48,
                noise_dim: 16,
                batch_gen: 5,
                max_len,
                d_hidden: 48,
                epochs: 40,
                batch_size: 32,
                ..NetShareConfig::small()
            },
            smm_clusters: 24,
            fig6_sizes: vec![250, 500, 1000, 2000, 4000],
            hours: 6,
            snapshot_every: 5,
            snapshot_eval_streams: 250,
        }
    }

    /// Seconds-scale run for supervisor/resume tests and the CI smoke
    /// job: every stage exercises its real code path, but models are as
    /// small as the transfer protocol allows (`hours` must stay >= 4
    /// because Table 10 compares hour-3 models). Numbers produced at this
    /// scale are meaningless; only the plumbing is under test.
    pub fn tiny() -> Self {
        let max_len = 16;
        Scale {
            name: "tiny",
            train_ues: 48,
            test_ues: 48,
            gen_streams: 32,
            max_len,
            gpt: CptGptConfig {
                d_model: 16,
                n_blocks: 1,
                n_heads: 2,
                d_mlp: 32,
                d_head: 16,
                max_len,
                ..CptGptConfig::small()
            },
            gpt_train: TrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 6e-3,
                warmup_steps: 4,
                clip_norm: 1.0,
                seed: 0,
                snapshot_every: None,
                ..TrainConfig::quick()
            },
            ns: NetShareConfig {
                hidden: 12,
                noise_dim: 6,
                batch_gen: 4,
                max_len,
                d_hidden: 12,
                epochs: 2,
                batch_size: 16,
                ..NetShareConfig::small()
            },
            smm_clusters: 4,
            fig6_sizes: vec![16, 32],
            hours: 4,
            snapshot_every: 1,
            snapshot_eval_streams: 16,
        }
    }

    /// Scale by name.
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::quick()),
            "full" => Some(Scale::full()),
            "tiny" => Some(Scale::tiny()),
            _ => None,
        }
    }
}
