//! Deterministic fault injection for exercising the training loop's
//! fault-tolerance paths.
//!
//! Divergence and crashes mid-run are rare in the wild and impossible to
//! schedule — which makes the recovery code the least tested code in the
//! repo. A [`FaultPlan`] makes them reproducible: it tells the training
//! loop to produce a NaN loss or a NaN shard gradient at an exact optimizer
//! step, or to simulate a crash right after an epoch's checkpoint. The same
//! plan always produces the same fault, so CI can assert on the recovery,
//! not just hope to observe one.

#![deny(clippy::unwrap_used)]

/// A scheduled, deterministic fault for the training loop.
///
/// Attached to a training run via
/// [`TrainConfig::fault`](crate::config::TrainConfig). All fields default to
/// "no fault", so `FaultPlan::default()` is a no-op plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Replace the loss with NaN at this global optimizer step (0-based,
    /// counted across epochs and rollback replays).
    pub nan_loss_at_step: Option<u64>,
    /// Poison one worker shard's gradients with NaN at this global
    /// optimizer step (0-based, counted like
    /// [`nan_loss_at_step`](FaultPlan::nan_loss_at_step)). The poisoned
    /// shard is [`fault_shard`](FaultPlan::fault_shard); whether the fault
    /// fires is decided on the main thread before the step's shards are
    /// dispatched, so injection is deterministic at any thread count. The
    /// NaN propagates through the fixed-order gradient reduction into the
    /// global clip norm and surfaces as
    /// [`FaultKind::NonFiniteGradient`](crate::error::FaultKind) — the
    /// exact same watchdog path a serial non-finite gradient takes.
    pub nan_grad_at_step: Option<u64>,
    /// Which micro-batch shard [`nan_grad_at_step`](FaultPlan::nan_grad_at_step)
    /// poisons (0-based; clamped to the step's last shard if out of range).
    pub fault_shard: usize,
    /// Stop the run as if the process died right after this epoch's
    /// checkpoint was written (0-based epoch index). The report comes back
    /// with `interrupted = true`; a later `--resume` picks up from the
    /// checkpoint. Lets tests compare interrupted+resumed against
    /// uninterrupted runs under identical schedules.
    pub interrupt_after_epoch: Option<usize>,
    /// If true a scheduled NaN (loss or shard gradient) fires only the
    /// first time its step is reached; the rollback replay of that step
    /// then proceeds cleanly (a transient fault). If false the fault is
    /// persistent and retries cannot help.
    pub once: bool,
}

impl FaultPlan {
    /// A transient NaN loss at global optimizer step `step`.
    pub fn nan_loss_once_at(step: u64) -> Self {
        FaultPlan {
            nan_loss_at_step: Some(step),
            once: true,
            ..FaultPlan::default()
        }
    }

    /// A persistent NaN loss at global optimizer step `step`: it fires on
    /// every replay, so the watchdog must eventually give up.
    pub fn nan_loss_always_at(step: u64) -> Self {
        FaultPlan {
            nan_loss_at_step: Some(step),
            once: false,
            ..FaultPlan::default()
        }
    }

    /// A transient NaN in shard `shard`'s gradients at global optimizer
    /// step `step` — models one worker of a data-parallel step going bad.
    pub fn nan_shard_grad_once_at(step: u64, shard: usize) -> Self {
        FaultPlan {
            nan_grad_at_step: Some(step),
            fault_shard: shard,
            once: true,
            ..FaultPlan::default()
        }
    }

    /// A persistent shard-gradient NaN at step `step`: fires on every
    /// replay, so the watchdog must eventually give up.
    pub fn nan_shard_grad_always_at(step: u64, shard: usize) -> Self {
        FaultPlan {
            nan_grad_at_step: Some(step),
            fault_shard: shard,
            once: false,
            ..FaultPlan::default()
        }
    }

    /// Simulate a crash immediately after epoch `epoch` (0-based) completes
    /// and its checkpoint is written.
    pub fn interrupt_after(epoch: usize) -> Self {
        FaultPlan {
            interrupt_after_epoch: Some(epoch),
            ..FaultPlan::default()
        }
    }

    /// True if the plan schedules any fault at all.
    pub fn is_active(&self) -> bool {
        self.nan_loss_at_step.is_some()
            || self.nan_grad_at_step.is_some()
            || self.interrupt_after_epoch.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive() {
        assert!(!FaultPlan::default().is_active());
        assert!(FaultPlan::nan_loss_once_at(3).is_active());
        assert!(FaultPlan::interrupt_after(0).is_active());
        assert!(FaultPlan::nan_shard_grad_once_at(2, 1).is_active());
        let p = FaultPlan::nan_shard_grad_always_at(5, 0);
        assert_eq!(p.nan_grad_at_step, Some(5));
        assert_eq!(p.fault_shard, 0);
        assert!(!p.once);
    }
}
