//! Model and training hyperparameters.

use crate::error::TrainError;
use crate::faultinject::FaultPlan;
use cpt_trace::Generation;

/// Architecture hyperparameters of CPT-GPT.
///
/// The paper's tuned model uses 2 attention blocks, embedding dimension
/// 128 and MLP hidden size 1024 (725 k parameters, 2.9 MB). The defaults
/// here keep the same shape at reduced width so CPU training finishes in
/// minutes; [`CptGptConfig::paper`] reproduces the paper's exact sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CptGptConfig {
    /// Cellular generation (sets the event-type vocabulary: 6 for LTE).
    pub generation: Generation,
    /// Attention hidden size (`d_model`).
    pub d_model: usize,
    /// Number of transformer blocks.
    pub n_blocks: usize,
    /// Attention heads per block.
    pub n_heads: usize,
    /// MLP hidden size inside each block.
    pub d_mlp: usize,
    /// Hidden size of the three output MLP heads.
    pub d_head: usize,
    /// Maximum stream length the model can represent (the paper trains
    /// with 500 and discards longer streams).
    pub max_len: usize,
    /// Loss weights (event type, interarrival, stop flag); the paper's
    /// default is 1:1:1 and Table 8 shows low sensitivity.
    pub loss_weights: (f32, f32, f32),
    /// Ablation switch (Table 8, "No dist. pred."): when `true` the
    /// interarrival head outputs a single scalar trained with MSE instead
    /// of Gaussian (μ, log σ) trained with NLL, and inference uses the
    /// scalar directly without sampling.
    pub point_iat_head: bool,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl CptGptConfig {
    /// CPU-sized default (same architecture shape as the paper at reduced
    /// width).
    pub fn small() -> Self {
        CptGptConfig {
            generation: Generation::Lte,
            d_model: 48,
            n_blocks: 2,
            n_heads: 4,
            d_mlp: 192,
            d_head: 48,
            max_len: 128,
            loss_weights: (1.0, 1.0, 1.0),
            point_iat_head: false,
            seed: 0,
        }
    }

    /// The paper's exact architecture (§5.1): 2 blocks, d_model 128, MLP
    /// 1024 — ~725 k parameters.
    pub fn paper() -> Self {
        CptGptConfig {
            d_model: 128,
            d_mlp: 1024,
            d_head: 128,
            max_len: 500,
            ..CptGptConfig::small()
        }
    }

    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the maximum stream length.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = max_len;
        self
    }

    /// Builder: sets loss weights (event : interarrival : stop).
    pub fn with_loss_weights(mut self, event: f32, iat: f32, stop: f32) -> Self {
        self.loss_weights = (event, iat, stop);
        self
    }

    /// Builder: enables the Table 8 "no distribution prediction" ablation.
    pub fn with_point_iat_head(mut self) -> Self {
        self.point_iat_head = true;
        self
    }
}

impl Default for CptGptConfig {
    fn default() -> Self {
        CptGptConfig::small()
    }
}

// The form a model file's metadata carries.
cpt_trace::json_struct!(CptGptConfig {
    generation,
    d_model,
    n_blocks,
    n_heads,
    d_mlp,
    d_head,
    max_len,
    loss_weights,
    point_iat_head,
    seed,
});

/// Divergence-watchdog policy: what the training loop does when a loss or
/// gradient norm comes back NaN/∞.
///
/// On each fault the loop rolls the model and optimizer back to the last
/// epoch boundary that completed cleanly, multiplies the effective learning
/// rate by [`lr_backoff`](WatchdogConfig::lr_backoff), and replays. After
/// [`max_retries`](WatchdogConfig::max_retries) consecutive faults the run
/// aborts with [`TrainError::Diverged`]. This is the only training retry:
/// the experiment suite and the serve-side fine-tune report a `Diverged`
/// run as a failure and never re-run it under another seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Rollback + backoff attempts before aborting.
    pub max_retries: u32,
    /// Multiplier applied to the learning-rate scale on each rollback
    /// (must be in `(0, 1)`).
    pub lr_backoff: f32,
    /// Floor for the accumulated learning-rate scale; backoff never takes
    /// the scale below this.
    pub min_lr_scale: f32,
}

impl WatchdogConfig {
    /// Default policy: 3 retries, halve the learning rate each time, floor
    /// the scale at 1/16.
    pub fn standard() -> Self {
        WatchdogConfig {
            max_retries: 3,
            lr_backoff: 0.5,
            min_lr_scale: 0.0625,
        }
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::standard()
    }
}

/// Optimization hyperparameters for one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training streams.
    pub epochs: usize,
    /// Streams per optimizer step (the *effective* batch size).
    pub batch_size: usize,
    /// Streams per micro-batch shard (gradient accumulation). Each
    /// optimizer-step batch is cut into `ceil(batch_size / microbatch)`
    /// shards; every shard runs forward/backward independently (possibly
    /// on different rayon workers) and the shard gradients are combined
    /// with a fixed-order tree reduction before the single optimizer step.
    /// Shard layout depends only on this field — never on thread count —
    /// so results are bit-identical at any `--threads` value.
    pub microbatch: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Linear warmup steps before the cosine decay.
    pub warmup_steps: u64,
    /// Global gradient-norm clip.
    pub clip_norm: f64,
    /// Seed for batch shuffling.
    pub seed: u64,
    /// If `Some(n)`, snapshot the parameter store every `n` epochs (for
    /// the §5.5 checkpoint-selection heuristic).
    pub snapshot_every: Option<usize>,
    /// Divergence-recovery policy.
    pub watchdog: WatchdogConfig,
    /// Scheduled fault for chaos testing; `None` in production runs.
    pub fault: Option<FaultPlan>,
}

impl TrainConfig {
    /// Quick default suitable for tests and examples.
    pub fn quick() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 32,
            microbatch: 8,
            lr: 3e-3,
            warmup_steps: 5,
            clip_norm: 1.0,
            seed: 0,
            snapshot_every: None,
            watchdog: WatchdogConfig::standard(),
            fault: None,
        }
    }

    /// Builder: sets epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder: sets the learning rate.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Builder: sets the shuffle seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the micro-batch (gradient-accumulation shard) size.
    pub fn with_microbatch(mut self, microbatch: usize) -> Self {
        self.microbatch = microbatch;
        self
    }

    /// Builder: enables parameter snapshots.
    pub fn with_snapshots(mut self, every: usize) -> Self {
        self.snapshot_every = Some(every);
        self
    }

    /// Builder: sets the divergence-recovery policy.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Builder: schedules a deterministic fault (chaos-testing hook).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Checks every field against its domain, returning the first
    /// violation as [`TrainError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), TrainError> {
        fn bad(field: &'static str, message: impl Into<String>) -> TrainError {
            TrainError::InvalidConfig {
                field,
                message: message.into(),
            }
        }
        if self.epochs == 0 {
            return Err(bad("epochs", "must be at least 1"));
        }
        if self.batch_size == 0 {
            return Err(bad("batch_size", "must be at least 1"));
        }
        if self.microbatch == 0 {
            return Err(bad("microbatch", "must be at least 1"));
        }
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err(bad(
                "lr",
                format!("must be finite and positive, got {}", self.lr),
            ));
        }
        if !self.clip_norm.is_finite() || self.clip_norm <= 0.0 {
            return Err(bad(
                "clip_norm",
                format!("must be finite and positive, got {}", self.clip_norm),
            ));
        }
        if self.snapshot_every == Some(0) {
            return Err(bad("snapshot_every", "must be at least 1 when set"));
        }
        let w = &self.watchdog;
        if !(w.lr_backoff > 0.0 && w.lr_backoff < 1.0) {
            return Err(bad(
                "watchdog.lr_backoff",
                format!("must be in (0, 1), got {}", w.lr_backoff),
            ));
        }
        if !w.min_lr_scale.is_finite() || w.min_lr_scale <= 0.0 || w.min_lr_scale > 1.0 {
            return Err(bad(
                "watchdog.min_lr_scale",
                format!("must be in (0, 1], got {}", w.min_lr_scale),
            ));
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_5_1() {
        let c = CptGptConfig::paper();
        assert_eq!(c.n_blocks, 2);
        assert_eq!(c.d_model, 128);
        assert_eq!(c.d_mlp, 1024);
        assert_eq!(c.max_len, 500);
        assert_eq!(c.loss_weights, (1.0, 1.0, 1.0));
        assert!(!c.point_iat_head);
    }

    #[test]
    fn builders() {
        let c = CptGptConfig::small()
            .with_seed(9)
            .with_max_len(64)
            .with_loss_weights(3.0, 1.0, 1.0)
            .with_point_iat_head();
        assert_eq!(c.seed, 9);
        assert_eq!(c.max_len, 64);
        assert_eq!(c.loss_weights.0, 3.0);
        assert!(c.point_iat_head);
        let t = TrainConfig::quick()
            .with_epochs(3)
            .with_lr(0.1)
            .with_seed(5)
            .with_microbatch(4);
        assert_eq!(t.epochs, 3);
        assert_eq!(t.lr, 0.1);
        assert_eq!(t.seed, 5);
        assert_eq!(t.microbatch, 4);
    }

    #[test]
    fn quick_config_validates() {
        assert!(TrainConfig::quick().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_fields() {
        use crate::error::TrainError;
        let cases = [
            (
                "epochs",
                TrainConfig {
                    epochs: 0,
                    ..TrainConfig::quick()
                },
            ),
            (
                "batch_size",
                TrainConfig {
                    batch_size: 0,
                    ..TrainConfig::quick()
                },
            ),
            (
                "microbatch",
                TrainConfig {
                    microbatch: 0,
                    ..TrainConfig::quick()
                },
            ),
            (
                "lr",
                TrainConfig {
                    lr: -1.0,
                    ..TrainConfig::quick()
                },
            ),
            (
                "lr",
                TrainConfig {
                    lr: f32::NAN,
                    ..TrainConfig::quick()
                },
            ),
            (
                "clip_norm",
                TrainConfig {
                    clip_norm: 0.0,
                    ..TrainConfig::quick()
                },
            ),
            (
                "snapshot_every",
                TrainConfig {
                    snapshot_every: Some(0),
                    ..TrainConfig::quick()
                },
            ),
            (
                "watchdog.lr_backoff",
                TrainConfig::quick().with_watchdog(WatchdogConfig {
                    lr_backoff: 1.5,
                    ..WatchdogConfig::standard()
                }),
            ),
            (
                "watchdog.min_lr_scale",
                TrainConfig::quick().with_watchdog(WatchdogConfig {
                    min_lr_scale: 0.0,
                    ..WatchdogConfig::standard()
                }),
            ),
        ];
        for (field, cfg) in cases {
            match cfg.validate() {
                Err(TrainError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig({field}), got {other:?}"),
            }
        }
    }
}
