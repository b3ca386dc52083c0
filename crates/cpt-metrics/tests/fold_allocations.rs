//! The fidelity fold allocates nothing per stream once warm.
//!
//! A block-parallel fold runs `decode_into` and `observe` on the pool's
//! threads. There, per-stream allocation made the fold slower on two
//! threads than on one, because glibc trims the arenas of threads other
//! than the main one. This binary counts the test thread's allocations
//! with a counting global allocator.

use cpt_metrics::StreamAccumulator;
use cpt_statemachine::StateMachine;
use cpt_synth::SynthConfig;
use cpt_testkit::Scratch;
use cpt_trace::columnar::{write_ctb, ColumnarReader};
use cpt_trace::{DeviceType, EventType, Stream, UeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const` initialisation: no lazy init and no destructor, so reading
    // it inside the allocator can never itself allocate.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a const-initialised thread-local
// `Cell<u64>`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn decode_and_observe_allocate_nothing_per_stream() {
    const N: usize = 10_000;
    // Every fourth stream has its event types rotated by one, so the
    // replay records violations of several kinds too.
    let mut d = cpt_synth::generate(&SynthConfig::new(1000, 3).hours(2.0));
    for s in d.streams.iter_mut().step_by(4) {
        let types: Vec<EventType> = s.events.iter().map(|e| e.event_type).collect();
        for (e, t) in s.events.iter_mut().zip(types.iter().cycle().skip(1)) {
            e.event_type = *t;
        }
    }
    let scratch = Scratch::new("fold-allocations");
    let path = scratch.path("trace.ctb");
    write_ctb(&d, &path).expect("write ctb");
    let reader = ColumnarReader::open(&path).expect("open ctb");
    let n = reader.num_streams();
    let machine = StateMachine::lte();
    let mut acc = StreamAccumulator::new();
    let mut stream = Stream::new(UeId(0), DeviceType::Phone, Vec::new());
    let mut fold = |i: usize| {
        let view = reader.stream(i % n).expect("in range");
        view.decode_into(&mut stream).expect("decode");
        acc.observe(&machine, &stream);
    };

    // Warm-up: one pass grows the stream buffer, the replay scratch and
    // the violation-kind map to what this trace needs.
    (0..n).for_each(&mut fold);
    let before = allocs();
    (n..n + N).for_each(&mut fold);
    let made = allocs() - before;
    // What is left is the per-stream vectors' own amortised growth.
    assert!(
        made < (N / 100) as u64,
        "{made} allocations over {N} streams"
    );
    assert!(acc.violations().violating_events > 0);
    assert_eq!(acc.streams_observed(), n + N);
}
