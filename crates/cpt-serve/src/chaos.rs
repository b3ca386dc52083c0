//! Deterministic chaos injection for the serving layer.
//!
//! The crash-only contract (worker panics contained, disconnects parked,
//! drains bounded) is only trustworthy if the failure paths run in CI on
//! every change — and real panics and drops cannot be scheduled. A [`ChaosPlan`] mirrors `cpt_gpt::faultinject::FaultPlan`
//! for the serving layer: every fault fires at an exactly reproducible
//! point, so a chaos run can be diffed event-for-event against an
//! uninjected run.
//!
//! Determinism discipline: faults are targeted by *logical* coordinates
//! that do not depend on scheduling — a worker panic fires when a specific
//! session reaches a specific decoded-event index (never "the Nth global
//! slice", which is worker-count dependent); connection drops fire at a
//! (connection index, request index) pair; the byte a corrupted candidate
//! artifact loses comes from [`ChaosPlan::seed`]. The same plan therefore
//! injects the same faults at 1, 2, or 8 workers.

#![deny(clippy::unwrap_used)]

use std::time::Duration;

/// A scheduled, deterministic set of serving-layer faults.
///
/// All fields default to "no fault", so `ChaosPlan::default()` is a no-op
/// and the engine/server hot paths stay branch-cheap when chaos is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Seed for the candidate-corruption byte choice (and any future
    /// random draws). Two runs with the same plan inject byte-identical
    /// faults.
    pub seed: u64,
    /// Panic the worker advancing this session id...
    pub panic_session: Option<u64>,
    /// ...once the session has emitted at least this many events (0-based
    /// threshold on `SessionDecoder::events_emitted`). The panic fires
    /// mid-slice, after the already-decoded prefix of the slice exists in
    /// the worker's local buffer — exactly the state a real decode panic
    /// leaves behind.
    pub panic_at_event: u64,
    /// Sleep this long before publishing every `delay_every`-th slice
    /// (per worker), simulating a straggling worker. 0 = no delay.
    pub delay_slice_ms: u64,
    /// Which slices to delay: every Nth slice decoded by a worker. 0 = off.
    pub delay_every: u64,
    /// Server-side: hard-drop this connection (0-based accept index) ...
    pub drop_connection: Option<u64>,
    /// ...after it has had this many requests dispatched (so the drop
    /// lands mid-conversation, not at accept time).
    pub drop_after_requests: u64,
    /// Registry swap-window fault: abort the Nth manifest commit (1-based,
    /// counted per registry instance) after the temp file is written but
    /// before the rename — exactly the torn state a crash in the
    /// write-temp/fsync/rename window leaves on disk. The commit returns a
    /// typed `RegistryError::SimulatedCrash` and the durable manifest is
    /// untouched. 0/None = off.
    pub crash_manifest_commit: Option<u64>,
    /// Registry swap-window fault: flip one byte of the Nth staged
    /// candidate artifact (1-based, counted per registry instance) after
    /// it is written but before validation, so the validation gate must
    /// catch it. The byte position comes from `seed`.
    pub corrupt_candidate: Option<u64>,
    /// Widens the publish window: sleep this long between validation and
    /// promotion, so a concurrent drain/close race has room to land.
    /// 0 = off.
    pub publish_delay_ms: u64,
    /// Divergence fault: overwrite the interarrival of one decoded event
    /// with NaN for this session...
    pub poison_session: Option<u64>,
    /// ...once it has emitted at least this many events — the serve-time
    /// trip-wire must fail the session and demote the live version.
    pub poison_at_event: u64,
}

impl ChaosPlan {
    /// True when every fault is disabled (the hot-path fast check).
    pub fn is_noop(&self) -> bool {
        self.panic_session.is_none()
            && (self.delay_every == 0 || self.delay_slice_ms == 0)
            && self.drop_connection.is_none()
            && self.crash_manifest_commit.is_none()
            && self.corrupt_candidate.is_none()
            && self.publish_delay_ms == 0
            && self.poison_session.is_none()
    }

    /// A plan that panics the worker advancing `session` once it has
    /// emitted `at_event` events.
    pub fn panic_session_at(session: u64, at_event: u64) -> Self {
        ChaosPlan {
            panic_session: Some(session),
            panic_at_event: at_event,
            ..ChaosPlan::default()
        }
    }

    /// Should the worker advancing `session` panic before decoding the
    /// event at index `events_emitted`?
    pub fn should_panic(&self, session: u64, events_emitted: u64) -> bool {
        self.panic_session == Some(session) && events_emitted >= self.panic_at_event
    }

    /// The delay to apply before publishing the `slice_idx`-th slice of
    /// one worker (0-based), if any.
    pub fn slice_delay(&self, slice_idx: u64) -> Option<Duration> {
        if self.delay_every == 0 || self.delay_slice_ms == 0 {
            return None;
        }
        if (slice_idx + 1).is_multiple_of(self.delay_every) {
            Some(Duration::from_millis(self.delay_slice_ms))
        } else {
            None
        }
    }

    /// Should the `commit_idx`-th manifest commit (1-based) abort in the
    /// torn window between temp-write and rename?
    pub fn crash_at_commit(&self, commit_idx: u64) -> bool {
        self.crash_manifest_commit == Some(commit_idx)
    }

    /// Should the `stage_idx`-th staged candidate artifact (1-based) be
    /// corrupted on disk before validation?
    pub fn corrupts_candidate(&self, stage_idx: u64) -> bool {
        self.corrupt_candidate == Some(stage_idx)
    }

    /// The deliberate publish-window delay between validation and
    /// promotion, if any.
    pub fn publish_delay(&self) -> Option<Duration> {
        (self.publish_delay_ms > 0).then(|| Duration::from_millis(self.publish_delay_ms))
    }

    /// Should the event a worker just decoded for `session` (its
    /// `events_emitted`-th, 0-based) be poisoned with a non-finite
    /// interarrival to trip the serve-time divergence wire?
    pub fn should_poison(&self, session: u64, events_emitted: u64) -> bool {
        self.poison_session == Some(session) && events_emitted >= self.poison_at_event
    }

    /// Should connection `conn_idx` be hard-dropped before dispatching its
    /// `req_idx`-th request (both 0-based)?
    pub fn should_drop(&self, conn_idx: u64, req_idx: u64) -> bool {
        self.drop_connection == Some(conn_idx) && req_idx >= self.drop_after_requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop() {
        let p = ChaosPlan::default();
        assert!(p.is_noop());
        assert!(!p.should_panic(1, 100));
        assert!(!p.should_drop(0, 100));
        assert!(p.slice_delay(7).is_none());
    }

    #[test]
    fn panic_targets_by_session_and_event_index() {
        let p = ChaosPlan::panic_session_at(3, 5);
        assert!(!p.is_noop());
        assert!(!p.should_panic(3, 4), "below the event threshold");
        assert!(p.should_panic(3, 5));
        assert!(p.should_panic(3, 9), "at or past the threshold");
        assert!(!p.should_panic(2, 9), "other sessions untouched");
    }

    #[test]
    fn swap_window_faults_target_exact_ordinals() {
        let p = ChaosPlan {
            crash_manifest_commit: Some(3),
            corrupt_candidate: Some(2),
            publish_delay_ms: 5,
            poison_session: Some(7),
            poison_at_event: 4,
            ..ChaosPlan::default()
        };
        assert!(!p.is_noop());
        assert!(!p.crash_at_commit(2) && p.crash_at_commit(3) && !p.crash_at_commit(4));
        assert!(!p.corrupts_candidate(1) && p.corrupts_candidate(2));
        assert_eq!(p.publish_delay(), Some(Duration::from_millis(5)));
        assert!(!p.should_poison(7, 3), "below the event threshold");
        assert!(p.should_poison(7, 4) && p.should_poison(7, 9));
        assert!(!p.should_poison(6, 9), "other sessions untouched");
        let default = ChaosPlan::default();
        assert!(default.publish_delay().is_none());
        assert!(!default.crash_at_commit(1) && !default.corrupts_candidate(1));
    }

    #[test]
    fn delays_fire_every_nth_slice() {
        let p = ChaosPlan {
            delay_every: 2,
            delay_slice_ms: 7,
            ..ChaosPlan::default()
        };
        assert!(p.slice_delay(0).is_none());
        assert_eq!(p.slice_delay(1), Some(Duration::from_millis(7)));
        assert!(p.slice_delay(2).is_none());
        assert_eq!(p.slice_delay(3), Some(Duration::from_millis(7)));
    }
}
