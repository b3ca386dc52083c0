//! Data model for cellular control-plane traffic traces.
//!
//! A control-plane traffic dataset (`Dataset`) is a collection of
//! [`Stream`]s, one per UE, where each stream is a timestamped sequence of
//! 3GPP control [`Event`]s (§3.1 of the paper). This crate provides the
//! shared vocabulary for every other crate in the workspace:
//!
//! - [`EventType`] — the 4G and 5G control-plane event types of Table 1;
//! - [`DeviceType`] — phones, connected cars and tablets;
//! - [`Stream`] / [`Dataset`] — the trace containers plus filtering,
//!   splitting and windowing operations;
//! - [`stats`] — empirical CDFs, histograms and summary statistics used by
//!   the fidelity metrics;
//! - [`io`] — JSON-lines (de)serialization of datasets;
//! - [`columnar`] — the binary out-of-core `.ctb` format;
//! - [`any`] — one reader and one writer over both, chosen by extension.
//!
//! All timestamps are `f64` seconds from an arbitrary trace epoch;
//! interarrival times are therefore also in seconds, matching the units used
//! throughout the paper's evaluation (e.g. sojourn times of 5–50 s).

pub mod any;
mod atomic;
pub mod columnar;
pub mod dataset;
pub mod device;
pub mod event;
pub mod io;
pub mod mmap;
pub mod stats;
pub mod stream;

pub use any::{is_ctb, write_trace, AnyTrace, TraceWriter};
pub use columnar::{ColumnarReader, ColumnarWriter, CtbError, CtbSummary, StreamView};
pub use dataset::{Dataset, DatasetSummary};
pub use device::DeviceType;
pub use event::{EventType, Generation};
pub use stream::{Event, Stream, UeId};
