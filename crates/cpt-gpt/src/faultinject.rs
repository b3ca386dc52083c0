//! Deterministic fault injection for exercising the fault-tolerance paths.
//!
//! Divergence, crashes mid-run, and corrupt artifacts are rare in the wild
//! and impossible to schedule — which makes the recovery code the least
//! tested code in the repo. This module makes every fault reproducible:
//! a [`FaultPlan`] tells the training loop to produce a NaN loss at an exact
//! optimizer step or to simulate a crash right after an epoch's checkpoint,
//! and the file helpers corrupt bytes of an artifact under a seed. The same
//! seed always produces the same fault, so CI can assert on the recovery,
//! not just hope to observe one.

#![deny(clippy::unwrap_used)]

use crate::mix::{mix64, GOLDEN_GAMMA};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// A scheduled, deterministic fault for the training loop.
///
/// Attached to a training run via
/// [`TrainConfig::fault`](crate::config::TrainConfig). All fields default to
/// "no fault", so `FaultPlan::default()` is a no-op plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Replace the loss with NaN at this global optimizer step (0-based,
    /// counted across epochs and rollback replays).
    #[serde(default)]
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
    #[serde(default)]
    pub nan_grad_at_step: Option<u64>,
    /// Which micro-batch shard [`nan_grad_at_step`](FaultPlan::nan_grad_at_step)
    /// poisons (0-based; clamped to the step's last shard if out of range).
    #[serde(default)]
    pub fault_shard: usize,
    /// Stop the run as if the process died right after this epoch's
    /// checkpoint was written (0-based epoch index). The report comes back
    /// with `interrupted = true`; a later `--resume` picks up from the
    /// checkpoint. Lets tests compare interrupted+resumed against
    /// uninterrupted runs under identical schedules.
    #[serde(default)]
    pub interrupt_after_epoch: Option<usize>,
    /// If true a scheduled NaN (loss or shard gradient) fires only the
    /// first time its step is reached; the rollback replay of that step
    /// then proceeds cleanly (a transient fault). If false the fault is
    /// persistent and retries cannot help.
    #[serde(default)]
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

/// A scheduled, deterministic failure of a *named pipeline stage* — the
/// coarse-grained sibling of [`FaultPlan`]'s in-loop faults, consumed by
/// the experiment suite's stage supervisor.
///
/// The plan names one stage and how many of its attempts fail. Attempts
/// are 1-based, so `failures: 1` fails the first attempt and lets the
/// supervisor's retry (with its reseed and backoff) succeed, while
/// `failures: u32::MAX` defeats any retry budget. The same plan always
/// fails the same attempts, so CI can assert on manifests exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageFaultPlan {
    /// Name of the stage to fail (e.g. `"table5"`).
    pub stage: String,
    /// Number of leading attempts that fail.
    pub failures: u32,
}

impl StageFaultPlan {
    /// Fails every attempt of `stage` — retries cannot help.
    pub fn always(stage: impl Into<String>) -> Self {
        StageFaultPlan {
            stage: stage.into(),
            failures: u32::MAX,
        }
    }

    /// Fails the first `failures` attempts of `stage`.
    pub fn first_attempts(stage: impl Into<String>, failures: u32) -> Self {
        StageFaultPlan {
            stage: stage.into(),
            failures,
        }
    }

    /// Parses the CLI spec `STAGE` (always fail) or `STAGE:N` (fail the
    /// first N attempts).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (stage, failures) = match spec.split_once(':') {
            None => (spec, u32::MAX),
            Some((stage, n)) => (
                stage,
                n.parse()
                    .map_err(|_| format!("bad failure count {n:?} in fault spec {spec:?}"))?,
            ),
        };
        if stage.is_empty() {
            return Err(format!("empty stage name in fault spec {spec:?}"));
        }
        Ok(StageFaultPlan {
            stage: stage.to_string(),
            failures,
        })
    }

    /// True if attempt number `attempt` (1-based) of `stage` must fail.
    pub fn should_fail(&self, stage: &str, attempt: u32) -> bool {
        self.stage == stage && attempt <= self.failures
    }
}

/// One splitmix64 step: derives corruption offsets from a seed without
/// depending on an RNG crate here.
fn splitmix64(state: &mut u64) {
    *state = mix64(state.wrapping_add(GOLDEN_GAMMA));
}

/// Flip one bit in each of `n_flips` seed-chosen bytes of the file at
/// `path`, in place. Deterministic: the same (file length, seed, n_flips)
/// always damages the same offsets. Returns the offsets touched.
pub fn corrupt_file_bytes(path: &Path, seed: u64, n_flips: usize) -> io::Result<Vec<usize>> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut state = seed ^ bytes.len() as u64;
    let mut offsets = Vec::with_capacity(n_flips);
    for _ in 0..n_flips {
        splitmix64(&mut state);
        let off = (state % bytes.len() as u64) as usize;
        splitmix64(&mut state);
        let bit = (state % 8) as u8;
        bytes[off] ^= 1 << bit;
        offsets.push(off);
    }
    fs::write(path, &bytes)?;
    Ok(offsets)
}

/// Truncate the file at `path` to `keep_fraction` of its length (clamped to
/// `[0, 1]`), simulating a write cut short by a crash or full disk.
pub fn truncate_file(path: &Path, keep_fraction: f64) -> io::Result<()> {
    let bytes = fs::read(path)?;
    let keep = ((bytes.len() as f64) * keep_fraction.clamp(0.0, 1.0)) as usize;
    fs::write(path, &bytes[..keep])
}

/// Mangle line `line_idx` (0-based) of a JSONL text by chopping it mid-way
/// and appending garbage, returning the damaged text. Lines out of range
/// leave the text unchanged.
pub fn malform_jsonl_line(text: &str, line_idx: usize) -> String {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            if i == line_idx {
                let cut = line.len() / 2;
                format!("{}<<corrupt>>", &line[..cut])
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
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

    #[test]
    fn old_serialized_plans_still_parse() {
        // A plan serialized before shard faults existed lacks the new
        // fields; serde defaults must fill them in.
        let plan: FaultPlan =
            serde_json::from_str(r#"{"nan_loss_at_step":4,"once":true}"#).expect("parse");
        assert_eq!(plan.nan_loss_at_step, Some(4));
        assert_eq!(plan.nan_grad_at_step, None);
        assert_eq!(plan.fault_shard, 0);
    }

    #[test]
    fn stage_fault_plan_parses_and_schedules() {
        let p = StageFaultPlan::parse("table5:2").expect("parse");
        assert_eq!(p, StageFaultPlan::first_attempts("table5", 2));
        assert!(p.should_fail("table5", 1));
        assert!(p.should_fail("table5", 2));
        assert!(!p.should_fail("table5", 3));
        assert!(!p.should_fail("table6", 1));

        let always = StageFaultPlan::parse("fig2").expect("parse");
        assert_eq!(always, StageFaultPlan::always("fig2"));
        assert!(always.should_fail("fig2", u32::MAX));

        assert!(StageFaultPlan::parse(":3").is_err());
        assert!(StageFaultPlan::parse("fig2:x").is_err());
    }

    #[test]
    fn corruption_is_deterministic() {
        let dir = std::env::temp_dir().join("cpt_faultinject_det");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        fs::write(&a, &payload).expect("write a");
        fs::write(&b, &payload).expect("write b");
        let offs_a = corrupt_file_bytes(&a, 42, 5).expect("corrupt a");
        let offs_b = corrupt_file_bytes(&b, 42, 5).expect("corrupt b");
        assert_eq!(offs_a, offs_b);
        assert_eq!(fs::read(&a).expect("read a"), fs::read(&b).expect("read b"));
        assert_ne!(fs::read(&a).expect("read a"), payload);
    }

    #[test]
    fn truncation_shortens_file() {
        let dir = std::env::temp_dir().join("cpt_faultinject_trunc");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("t.bin");
        fs::write(&p, vec![7u8; 100]).expect("write");
        truncate_file(&p, 0.25).expect("truncate");
        assert_eq!(fs::read(&p).expect("read").len(), 25);
    }

    #[test]
    fn malform_hits_only_requested_line() {
        let text = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
        let out = malform_jsonl_line(text, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "{\"a\":1}");
        assert!(lines[1].contains("<<corrupt>>"));
        assert_eq!(lines[2], "{\"c\":3}");
    }
}
