//! Property tests for the `.ctb` columnar trace format (DESIGN.md §17).
//!
//! Three contracts, over randomly-shaped datasets (empty datasets, empty
//! streams, every device type, timestamps across the full finite f64
//! range including subnormals and repeated values):
//!
//! 1. A dataset written to `.ctb` and read back is **bit-identical** —
//!    every timestamp compared via `to_bits`, not float equality.
//! 2. JSONL → ctb → JSONL produces a **byte-identical** JSONL file: the
//!    columnar format is a lossless intermediate for the text format.
//! 3. Any truncation or single-bit flip of a `.ctb` file is rejected
//!    with a typed [`CtbError`] by open + verify + decode — never a
//!    panic, never silently-wrong data. Every byte of the file is
//!    covered by the header, index, or per-block checksum, so this holds
//!    for *arbitrary* corruption positions, not just curated ones.

use cpt_trace::columnar::{write_ctb, ColumnarReader, ColumnarWriter};
use cpt_trace::io::{StreamReader, StreamWriter};
use cpt_trace::{write_trace, Dataset, DeviceType, Event, EventType, Stream, UeId};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

fn tmp_path(test: &str, suffix: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "cpt-columnar-props-{}-{test}.{suffix}",
        std::process::id()
    ));
    p
}

fn arb_device() -> impl Strategy<Value = DeviceType> {
    (0usize..DeviceType::ALL.len()).prop_map(|i| DeviceType::ALL[i])
}

fn arb_type() -> impl Strategy<Value = EventType> {
    (0usize..EventType::ALL.len()).prop_map(|i| EventType::ALL[i])
}

/// Interarrival gaps spanning the finite f64 range: ordinary magnitudes,
/// exact zero (repeated timestamps), the smallest positive subnormal, a
/// huge-but-safely-summable magnitude, and a non-terminating binary
/// fraction. Timestamps are cumulative sums, so streams stay
/// time-ordered and finite while still exercising exotic bit patterns.
fn arb_gap() -> impl Strategy<Value = f64> {
    prop_oneof![
        1.0e-3f64..5.0e3,
        Just(0.0),
        Just(5e-324),
        Just(1.0e100),
        Just(1.0 / 3.0),
    ]
}

/// Datasets of 0..16 streams with 0..12 events each — covering the empty
/// dataset, empty streams, and every device type.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    vec((arb_device(), vec((arb_type(), arb_gap()), 0..12)), 0..16).prop_map(|specs| {
        let streams = specs
            .into_iter()
            .enumerate()
            .map(|(i, (device, evs))| {
                let mut t = 0.0;
                let events = evs
                    .into_iter()
                    .map(|(et, gap)| {
                        t += gap;
                        Event::new(et, t)
                    })
                    .collect();
                Stream::new(UeId(i as u64), device, events)
            })
            .collect();
        Dataset::new(streams)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ctb_roundtrips_datasets_bit_exactly(data in arb_dataset()) {
        let path = tmp_path("roundtrip", "ctb");
        let summary = write_ctb(&data, &path).expect("write ctb");
        prop_assert_eq!(summary.streams as usize, data.num_streams());
        prop_assert_eq!(summary.events as usize, data.num_events());

        let back = ColumnarReader::open(&path)
            .and_then(|r| r.to_dataset())
            .expect("read ctb");
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(back.generation, data.generation);
        prop_assert_eq!(back.streams.len(), data.streams.len());
        for (a, b) in data.streams.iter().zip(&back.streams) {
            prop_assert_eq!(a.ue_id, b.ue_id);
            prop_assert_eq!(a.device_type, b.device_type);
            prop_assert_eq!(a.events.len(), b.events.len());
            for (ea, eb) in a.events.iter().zip(&b.events) {
                prop_assert_eq!(ea.event_type, eb.event_type);
                prop_assert_eq!(
                    ea.timestamp.to_bits(),
                    eb.timestamp.to_bits(),
                    "timestamp {} came back as {}",
                    ea.timestamp,
                    eb.timestamp
                );
            }
        }
    }

    #[test]
    fn jsonl_to_ctb_to_jsonl_is_byte_identical(data in arb_dataset()) {
        let jsonl_in = tmp_path("jsonl-in", "jsonl");
        let ctb = tmp_path("jsonl-mid", "ctb");
        let jsonl_out = tmp_path("jsonl-out", "jsonl");

        write_trace(&data, &jsonl_in).expect("write jsonl");

        // JSONL -> ctb, stream by stream — the `cptgen trace convert` path.
        let mut sr = StreamReader::new(BufReader::new(
            File::open(&jsonl_in).expect("open jsonl"),
        ))
        .expect("jsonl header");
        let mut cw = ColumnarWriter::create(&ctb, sr.generation()).expect("create ctb");
        while let Some(s) = sr.next_stream().expect("read stream") {
            cw.push_stream(&s).expect("push stream");
        }
        cw.finish().expect("finish ctb");

        // ctb -> JSONL, stream by stream.
        let r = ColumnarReader::open(&ctb).expect("open ctb");
        r.verify().expect("verify ctb");
        let mut sw = StreamWriter::create(&jsonl_out, r.generation(), r.num_streams())
            .expect("create jsonl");
        for view in r.streams() {
            sw.push(&view.to_stream().expect("decode stream")).expect("push");
        }
        sw.finish().expect("finish jsonl");

        let original = std::fs::read(&jsonl_in).expect("read original");
        let rewritten = std::fs::read(&jsonl_out).expect("read rewritten");
        std::fs::remove_file(&jsonl_in).ok();
        std::fs::remove_file(&ctb).ok();
        std::fs::remove_file(&jsonl_out).ok();
        prop_assert_eq!(original, rewritten);
    }

    #[test]
    fn corrupted_ctb_is_rejected_with_typed_error(
        data in arb_dataset(),
        frac in 0.0f64..1.0,
        bit in 0u32..8,
        truncate in 0usize..2,
    ) {
        let path = tmp_path("corrupt", "ctb");
        write_ctb(&data, &path).expect("write ctb");
        let bytes = std::fs::read(&path).expect("read ctb bytes");
        std::fs::remove_file(&path).ok();

        let corrupted = if truncate == 1 {
            // Cut anywhere strictly inside the file, including mid-header.
            let cut = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[..cut].to_vec()
        } else {
            let pos = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            let mut b = bytes.clone();
            b[pos] ^= 1 << bit;
            b
        };

        // Open-time structural validation, full checksum verification, or
        // decode must catch it — with an error, not a panic or garbage.
        let outcome = ColumnarReader::from_bytes(corrupted).and_then(|r| {
            r.verify()?;
            r.to_dataset().map(|_| ())
        });
        prop_assert!(
            outcome.is_err(),
            "corruption (truncate={}, frac={}, bit={}) went undetected",
            truncate,
            frac,
            bit
        );
    }
}
