//! The `.ctb` format's bytes, pinned (DESIGN.md §17).
//!
//! A change to the writer that claims to keep the format must leave these
//! whole-file FNV-1a/64 digests as they are. The fixture is built from
//! integer arithmetic only: every timestamp is an integer tick count over
//! a power of two, so no libm call can move a bit on another platform.
//!
//! Two files, from one stream sequence: eight blocks, the last cut by its
//! final stream (two full groups of `GROUP_BLOCKS`), and nine blocks, the
//! same streams plus a tail that `finish` writes as a lone ninth block.

use cpt_trace::columnar::{fnv1a, ColumnarReader, ColumnarWriter, BLOCK_TARGET_EVENTS};
use cpt_trace::{DeviceType, Event, EventType, Generation, Stream, UeId};

/// Whole-file FNV-1a/64 of the eight-block file (4 933 320 bytes).
const PIN_8: u64 = 0x6da9_6a48_43d6_bbba;
/// Whole-file FNV-1a/64 of the nine-block file (4 935 960 bytes).
const PIN_9: u64 = 0xbd73_15de_92b1_2242;

/// A 64-bit LCG (Knuth's MMIX constants); the high bits feed the fixture.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Stream `ue` of the fixture: 0 to 159 events (empty streams included),
/// every device and event type, timestamps in 1/1024 s ticks.
fn fixture_stream(rng: &mut Lcg, ue: u64) -> Stream {
    let device = DeviceType::ALL[(rng.next() % 3) as usize];
    let len = rng.next() % 160;
    let mut ticks = rng.next() % 100_000;
    let events = (0..len)
        .map(|_| {
            ticks += rng.next() % 5_000;
            let event_type = EventType::ALL[(rng.next() % 6) as usize];
            Event::new(event_type, ticks as f64 / 1024.0)
        })
        .collect();
    Stream::new(UeId(1_000 + ue), device, events)
}

/// Streams that fill exactly `cut` blocks (the last stream cuts the last
/// block), then `tail` more streams.
fn fixture(cut: usize, tail: usize) -> Vec<Stream> {
    let mut rng = Lcg(0x0c7b_5eed);
    let mut streams = Vec::new();
    let (mut blocks, mut filling) = (0, 0);
    while blocks < cut {
        let s = fixture_stream(&mut rng, streams.len() as u64);
        filling += s.events.len();
        if filling >= BLOCK_TARGET_EVENTS {
            blocks += 1;
            filling = 0;
        }
        streams.push(s);
    }
    for _ in 0..tail {
        streams.push(fixture_stream(&mut rng, streams.len() as u64));
    }
    streams
}

/// Writes `streams` through the streaming writer and returns the file.
fn written(streams: &[Stream], tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("cpt-ctb-bytes-{tag}-{}.ctb", std::process::id()));
    let mut w = ColumnarWriter::create(&path, Generation::Lte).expect("create");
    for s in streams {
        w.push_stream(s).expect("push");
    }
    let summary = w.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    assert_eq!(summary.bytes, bytes.len() as u64);
    bytes
}

fn check_pin(cut: usize, tail: usize, blocks: usize, pinned: u64) {
    let streams = fixture(cut, tail);
    let bytes = written(&streams, &format!("{blocks}"));
    let r = ColumnarReader::from_bytes(bytes.clone()).expect("open");
    assert_eq!(r.num_blocks(), blocks);
    assert_eq!(r.num_streams(), streams.len());
    r.verify().expect("verify");
    let digest = fnv1a(&bytes);
    assert_eq!(
        digest,
        pinned,
        "{blocks}-block file: fnv1a {digest:016x}, {} bytes",
        bytes.len()
    );
}

#[test]
fn eight_blocks_two_full_groups() {
    check_pin(8, 0, 8, PIN_8);
}

#[test]
fn nine_blocks_two_groups_and_a_lone_block() {
    check_pin(8, 5, 9, PIN_9);
}
