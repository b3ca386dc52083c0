//! `accumulate_reader` folds a `.ctb` trace a block group per pool item.
//! Its result must be the serial fold's bit for bit on any pool. A damaged
//! file must give the lowest damaged block's error, as `verify()` does.

use cpt_metrics::{accumulate_reader, FlowLenKind, StreamAccumulator};
use cpt_statemachine::{StateMachine, TopState};
use cpt_synth::SynthConfig;
use cpt_testkit::Scratch;
use cpt_trace::columnar::{
    write_ctb, ColumnarReader, CtbError, BLOCK_ENTRY_LEN, GROUP_BLOCKS, STREAM_ENTRY_LEN,
};
use cpt_trace::{Dataset, EventType};
use rayon::ThreadPoolBuilder;
use std::path::PathBuf;

/// A simulated trace of seven 64K-event blocks in which every fifth stream
/// has its event types rotated by one, so that it violates the machine in
/// several ways.
fn trace_with_violations() -> Dataset {
    let mut d = cpt_synth::generate(&SynthConfig::new(1800, 7).hours(6.0));
    for s in d.streams.iter_mut().step_by(5) {
        let types: Vec<EventType> = s.events.iter().map(|e| e.event_type).collect();
        for (e, t) in s.events.iter_mut().zip(types.iter().cycle().skip(1)) {
            e.event_type = *t;
        }
    }
    d
}

/// Writes that trace into `scratch` and checks its block count: at least
/// six, and not a multiple of the group size, so the last group is short.
fn write_trace(scratch: &Scratch) -> PathBuf {
    let path = scratch.path("trace.ctb");
    write_ctb(&trace_with_violations(), &path).expect("write ctb");
    let blocks = ColumnarReader::open(&path).expect("open ctb").num_blocks();
    assert!(
        blocks >= 6 && !blocks.is_multiple_of(GROUP_BLOCKS),
        "{blocks} blocks"
    );
    path
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every quantity an accumulator reports, floats as their bits.
fn assert_same_bits(serial: &StreamAccumulator, parallel: &StreamAccumulator, threads: usize) {
    assert_eq!(serial.streams_observed(), parallel.streams_observed());
    assert_eq!(serial.events_observed(), parallel.events_observed());
    assert_eq!(
        serial.violations(),
        parallel.violations(),
        "{threads} threads"
    );
    let breakdown = |a: &StreamAccumulator| bits(&a.breakdown().into_values().collect::<Vec<_>>());
    assert_eq!(breakdown(serial), breakdown(parallel), "{threads} threads");
    let kinds = EventType::ALL.iter().map(|et| FlowLenKind::OfType(*et));
    for kind in kinds.chain([FlowLenKind::All]) {
        assert_eq!(
            bits(serial.flow_ecdf(kind).values()),
            bits(parallel.flow_ecdf(kind).values()),
            "{kind:?}, {threads} threads"
        );
    }
    for state in [TopState::Connected, TopState::Idle, TopState::Deregistered] {
        assert_eq!(
            bits(serial.sojourn_ecdf(state).values()),
            bits(parallel.sojourn_ecdf(state).values()),
            "{state:?}, {threads} threads"
        );
    }
}

#[test]
fn the_block_parallel_fold_is_the_serial_fold_bit_for_bit() {
    let scratch = Scratch::new("parallel-fold");
    let reader = ColumnarReader::open(write_trace(&scratch)).expect("open ctb");
    let machine = StateMachine::lte();
    let serial = StreamAccumulator::of(&machine, &reader.to_dataset().expect("decode"));
    let v = serial.violations();
    assert!(v.violating_events > 0 && v.by_kind.len() > 1, "{v:?}");
    for threads in [1, 2, 8] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let parallel = pool
            .install(|| accumulate_reader(&machine, &reader))
            .expect("fold");
        assert_same_bits(&serial, &parallel, threads);
    }
}

/// Each block's first byte, from the block index (the layout in the
/// `cpt_trace::columnar` module doc), then the index's own offset.
fn block_starts(bytes: &[u8]) -> Vec<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (streams, index, blocks) = (u64_at(16), u64_at(32), u64_at(40));
    let block_index = index + STREAM_ENTRY_LEN * streams;
    (0..blocks)
        .map(|b| u64_at(block_index + BLOCK_ENTRY_LEN * b))
        .chain([index])
        .collect()
}

#[test]
fn two_damaged_blocks_are_the_lower_ones_checksum_error() {
    let scratch = Scratch::new("parallel-fold-damage");
    let path = write_trace(&scratch);
    let mut bytes = std::fs::read(&path).expect("read ctb");
    let starts = block_starts(&bytes);
    for b in [5, 2] {
        bytes[(starts[b] + starts[b + 1]) / 2] ^= 0x04;
    }
    std::fs::write(&path, &bytes).expect("write damaged ctb");
    // The indexes are intact, so the file opens; only the payloads fail.
    let reader = ColumnarReader::open(&path).expect("open ctb");
    let machine = StateMachine::lte();
    let is_block_2 = |e: &CtbError| {
        matches!(
            e,
            CtbError::Checksum {
                what: "block",
                index: 2
            }
        )
    };
    for threads in [1, 2, 8] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let verified = reader.verify().expect_err("verify passed a damaged file");
            assert!(is_block_2(&verified), "{threads} threads: {verified}");
            let folded =
                accumulate_reader(&machine, &reader).expect_err("fold passed a damaged file");
            assert!(is_block_2(&folded), "{threads} threads: {folded}");
        });
    }
}
