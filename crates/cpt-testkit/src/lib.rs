//! The workspace's test kit: one copy of each fixture the tests share.
//!
//! - [`alternating_dataset`]: strict SRV_REQ / S1_CONN_REL alternation,
//!   the simplest stateful trace there is, and [`alternation`], its
//!   general form.
//! - [`tiny_config`] and [`fixture_model`]: the 16-wide model trained on
//!   that trace for two epochs, built once per process, and
//!   [`fixture_model_v2`], trained one epoch more.
//! - [`reference()`]: the sequential decode every batched path must equal;
//!   [`drain_session`] and [`data_events`]: what an engine delivers for one
//!   session.
//! - [`Scratch`]: a temp dir removed on drop.
//! - [`run`], [`exit_code`], [`stderr_of`], [`stdout_of`]: a binary run as
//!   a child process.
//! - [`corrupt_file_bytes`], [`truncate_file`], [`malform_jsonl_line`]:
//!   seeded, deterministic damage to artifacts.
//! - [`Fnv`] and [`platform_fingerprint`]: what the bit pins hash, and
//!   the platform they were recorded on.
//!
//! # Where the kit can be used
//!
//! The kit is only ever a dev-dependency; no production crate links it. It
//! depends on `cpt-gpt` and `cpt-serve`, and both dev-depend on it. A
//! dev-dependency cycle links a second copy of the crate into its own unit
//! tests, so a crate's `#[cfg(test)]` modules may call the kit only where
//! none of that crate's own types crosses the call. `cpt-serve`'s unit
//! tests take the kit's `Arc<CptGpt>`; `cpt-gpt`'s take its datasets and
//! [`Scratch`], and keep their model fixtures in one in-crate test module.
//! The compiler enforces the rule: a type of the other copy does not unify.

mod bits;
mod faults;
mod scratch;

pub use bits::{platform_fingerprint, Fnv};
pub use faults::{corrupt_file_bytes, malform_jsonl_line, truncate_file};
pub use scratch::Scratch;

use cpt_gpt::{CptGpt, CptGptConfig, StreamParams, Tokenizer, TrainConfig};
use cpt_serve::{ServeHandle, SessionEvent, SessionId};
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
use std::process::{Command, Output};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One decoded event, as a session decoder yields it.
pub type DecodedEvent = cpt_gpt::SessionEvent;

/// `n` phone streams of strict SRV_REQ / S1_CONN_REL alternation. Stream
/// `i` has `len(i)` events; each SRV_REQ comes `srv_gap` seconds after the
/// event before it, each S1_CONN_REL 10 s after its SRV_REQ.
pub fn alternation(n: usize, srv_gap: f64, len: impl Fn(usize) -> usize) -> Dataset {
    let streams = (0..n)
        .map(|i| {
            let mut t = 0.0;
            let events = (0..len(i))
                .map(|k| {
                    let (et, gap) = if k % 2 == 0 {
                        (EventType::ServiceRequest, srv_gap)
                    } else {
                        (EventType::ConnectionRelease, 10.0)
                    };
                    t += gap;
                    Event::new(et, t)
                })
                .collect();
            Stream::new(UeId(i as u64), DeviceType::Phone, events)
        })
        .collect();
    Dataset::new(streams)
}

/// The fixture trace: [`alternation`] with 100 s gaps and stream lengths
/// cycling 6, 8, 10. A working trainer learns it in a few epochs.
pub fn alternating_dataset(n: usize) -> Dataset {
    alternation(n, 100.0, |i| 6 + (i % 3) * 2)
}

/// The 16-wide, one-block model shape the tests train.
pub fn tiny_config() -> CptGptConfig {
    CptGptConfig {
        d_model: 16,
        n_blocks: 1,
        n_heads: 2,
        d_mlp: 32,
        d_head: 16,
        max_len: 16,
        ..CptGptConfig::small()
    }
}

/// The fixture model: [`tiny_config`] trained for two quick epochs on
/// `alternating_dataset(12)`. Built once per process; training per test
/// would dominate the runtime.
pub fn fixture_model() -> Arc<CptGpt> {
    static MODEL: OnceLock<Arc<CptGpt>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let data = alternating_dataset(12);
        let mut model = CptGpt::new(tiny_config(), Tokenizer::fit(&data));
        cpt_gpt::train(&mut model, &data, &TrainConfig::quick().with_epochs(2))
            .expect("fixture training failed");
        Arc::new(model)
    }))
}

/// A second version: the fixture model trained one epoch more, so its
/// weights differ and a session's output shows which version it ran on.
pub fn fixture_model_v2() -> Arc<CptGpt> {
    static MODEL: OnceLock<Arc<CptGpt>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let mut model = (*fixture_model()).clone();
        cpt_gpt::train(
            &mut model,
            &alternating_dataset(12),
            &TrainConfig::quick().with_epochs(1),
        )
        .expect("fixture v2 training failed");
        Arc::new(model)
    }))
}

/// The ground truth for one session: a fresh single-session decoder on
/// `model`, drained to completion.
pub fn reference(model: &CptGpt, params: StreamParams) -> Vec<DecodedEvent> {
    let mut dec = model.open_session(params).expect("open reference session");
    let mut out = Vec::new();
    while let Some(ev) = dec.next_event(model) {
        out.push(ev);
    }
    out
}

/// [`reference()`] as an engine delivers it: every event a data event.
pub fn served_reference(model: &CptGpt, params: StreamParams) -> Vec<SessionEvent> {
    reference(model, params)
        .into_iter()
        .map(SessionEvent::Data)
        .collect()
}

/// Drains one open session to `finished`, `batch` events per call, closes
/// it and returns everything it delivered.
pub fn drain_session(handle: &ServeHandle, id: SessionId, batch: usize) -> Vec<SessionEvent> {
    let mut out = Vec::new();
    loop {
        let b = handle
            .next_events(id, batch, Duration::from_secs(10))
            .expect("next_events on open session");
        out.extend(b.events);
        if b.finished {
            handle.close_session(id).expect("close drained session");
            return out;
        }
    }
}

/// Unwraps delivered events to the decoded data, asserting none is a
/// contained-failure record.
pub fn data_events(events: &[SessionEvent]) -> Vec<DecodedEvent> {
    events
        .iter()
        .map(|e| {
            assert!(!e.is_failure(), "unexpected failure record: {e:?}");
            *e.data().expect("data event")
        })
        .collect()
}

/// Runs the binary at `bin` with `args` and waits for it.
pub fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// The exit code of a finished run.
pub fn exit_code(out: &Output) -> i32 {
    out.status
        .code()
        .expect("the binary must exit, not be killed")
}

/// A run's stderr as text.
pub fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A run's stdout as text.
pub fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}
