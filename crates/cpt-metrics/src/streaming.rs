//! The one fidelity fold.
//!
//! [`StreamAccumulator::observe`] folds every per-stream quantity the
//! fidelity metrics need in **one replay per stream** — it is the crate's
//! only caller of [`cpt_statemachine::replay_into`]. Everything else is a
//! view of an accumulator: [`violation_stats`](crate::violation_stats),
//! [`sojourn_ecdf`](crate::sojourn::sojourn_ecdf) and
//! [`FidelityReport::compute`] fold a resident [`Dataset`] with
//! [`StreamAccumulator::of`]; [`accumulate_trace`] (`cptgen evaluate`) and
//! [`accumulate_reader`] fold a trace stream by stream without ever
//! materializing it. Peak memory is O(streams) — the per-UE flow lengths
//! and mean sojourns that the ECDF distances are defined over — never
//! O(events). The pooled interarrival ECDF is deliberately *not*
//! accumulated: it is O(events) by definition and not part of
//! [`FidelityReport`].
//!
//! `observe` allocates nothing per stream: the replay fills a scratch
//! outcome the accumulator keeps, and the mean sojourns are summed without
//! collecting the durations. That is what lets [`accumulate_reader`] run on
//! every core. It hands each pool item one [`BlockGroup`] (four
//! consecutive `.ctb` blocks): the item verifies the group's checksums,
//! then folds its streams into a group accumulator, each stream decoded
//! into one `Stream` and replayed into one scratch outcome per pool
//! thread. [`StreamAccumulator::merge`] appends the groups in block order.
//! No bit depends on the schedule or the thread count:
//! - the counts are integer sums;
//! - a stream never spans blocks, so the per-stream vectors are appended
//!   in file order;
//! - the violation kinds are integer counts, which
//!   [`StreamAccumulator::violations`] sorts.

use crate::violations::ViolationStats;
use crate::FidelityReport;
use cpt_statemachine::{replay_into, ReplayOutcome, StateMachine, TopState, Violation};
use cpt_trace::columnar::{BlockGroup, ColumnarReader, CtbError};
use cpt_trace::io::IoError;
use cpt_trace::stats::Ecdf;
use cpt_trace::{AnyTrace, Dataset, DeviceType, EventType, Stream, UeId};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Everything [`FidelityReport`] needs about one dataset, accumulated one
/// stream at a time.
#[derive(Debug, Clone, Default)]
pub struct StreamAccumulator {
    // Event-type breakdown.
    type_counts: [usize; EventType::ALL.len()],
    total_events: usize,
    // Per-stream event counts by type, in observation order (matches
    // dataset stream order); a `.ctb` stream length is a `u32` too.
    flows: Vec<[u32; EventType::ALL.len()]>,
    // Per-UE mean sojourns, skipping UEs with no completed visit.
    sojourn_connected: Vec<f64>,
    sojourn_idle: Vec<f64>,
    sojourn_deregistered: Vec<f64>,
    // Violation accumulation.
    events_checked: usize,
    violating_events: usize,
    streams_checked: usize,
    violating_streams: usize,
    kinds: HashMap<Violation, usize>,
    // The replay's scratch, reused by every `observe`; not part of the
    // fold's state.
    scratch: ReplayOutcome,
}

impl StreamAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamAccumulator::default()
    }

    /// An empty accumulator with room for `streams` streams' vectors.
    fn with_capacity(streams: usize) -> Self {
        StreamAccumulator {
            flows: Vec::with_capacity(streams),
            sojourn_connected: Vec::with_capacity(streams),
            sojourn_idle: Vec::with_capacity(streams),
            sojourn_deregistered: Vec::with_capacity(streams),
            ..StreamAccumulator::default()
        }
    }

    /// Every stream of a resident dataset, folded in dataset order.
    pub fn of(machine: &StateMachine, dataset: &Dataset) -> Self {
        let mut acc = StreamAccumulator::new();
        for stream in &dataset.streams {
            acc.observe(machine, stream);
        }
        acc
    }

    /// Number of streams observed so far.
    pub fn streams_observed(&self) -> usize {
        self.flows.len()
    }

    /// Total events observed so far.
    pub fn events_observed(&self) -> usize {
        self.total_events
    }

    /// Folds one stream into every accumulated metric, replaying it
    /// through `machine` exactly once.
    pub fn observe(&mut self, machine: &StateMachine, stream: &Stream) {
        let mut counts = [0u32; EventType::ALL.len()];
        for e in &stream.events {
            counts[e.event_type.index()] += 1;
        }
        for (total, n) in self.type_counts.iter_mut().zip(counts) {
            *total += n as usize;
        }
        self.total_events += stream.len();
        self.flows.push(counts);

        replay_into(machine, stream, &mut self.scratch);
        let outcome = &self.scratch;
        if let Some(m) = outcome.mean_sojourn_in(TopState::Connected) {
            self.sojourn_connected.push(m);
        }
        if let Some(m) = outcome.mean_sojourn_in(TopState::Idle) {
            self.sojourn_idle.push(m);
        }
        if let Some(m) = outcome.mean_sojourn_in(TopState::Deregistered) {
            self.sojourn_deregistered.push(m);
        }
        if outcome.bootstrapped {
            self.streams_checked += 1;
            self.events_checked += outcome.events_checked;
            if outcome.has_violation() {
                self.violating_streams += 1;
            }
            self.violating_events += outcome.violations.len();
            for v in &outcome.violations {
                *self.kinds.entry(*v).or_insert(0) += 1;
            }
        }
    }

    /// Appends `other`'s streams after the ones observed here: the result
    /// equals, bit for bit, having observed `other`'s streams here, in
    /// their order, after these.
    pub fn merge(&mut self, other: &StreamAccumulator) {
        for (total, n) in self.type_counts.iter_mut().zip(other.type_counts) {
            *total += n;
        }
        self.total_events += other.total_events;
        self.flows.extend_from_slice(&other.flows);
        self.sojourn_connected
            .extend_from_slice(&other.sojourn_connected);
        self.sojourn_idle.extend_from_slice(&other.sojourn_idle);
        self.sojourn_deregistered
            .extend_from_slice(&other.sojourn_deregistered);
        self.events_checked += other.events_checked;
        self.violating_events += other.violating_events;
        self.streams_checked += other.streams_checked;
        self.violating_streams += other.violating_streams;
        for (v, n) in &other.kinds {
            *self.kinds.entry(*v).or_insert(0) += n;
        }
    }

    /// Event-type breakdown, equal to `Dataset::event_breakdown` on the
    /// observed streams.
    pub fn breakdown(&self) -> BTreeMap<EventType, f64> {
        EventType::ALL
            .iter()
            .map(|et| {
                let p = if self.total_events == 0 {
                    0.0
                } else {
                    self.type_counts[et.index()] as f64 / self.total_events as f64
                };
                (*et, p)
            })
            .collect()
    }

    /// ECDF of per-stream flow lengths for `kind`, equal to
    /// [`flow_length_ecdf`](crate::flowlen::flow_length_ecdf).
    pub fn flow_ecdf(&self, kind: crate::FlowLenKind) -> Ecdf {
        use crate::FlowLenKind;
        let length = |counts: &[u32; EventType::ALL.len()]| match kind {
            FlowLenKind::All => counts.iter().map(|n| *n as usize).sum::<usize>() as f64,
            FlowLenKind::OfType(et) => counts[et.index()] as f64,
        };
        Ecdf::new(self.flows.iter().map(length).collect())
    }

    /// ECDF of per-UE mean sojourns in `state` (UEs with no completed
    /// visit to `state` are skipped).
    pub fn sojourn_ecdf(&self, state: TopState) -> Ecdf {
        Ecdf::new(match state {
            TopState::Connected => self.sojourn_connected.clone(),
            TopState::Idle => self.sojourn_idle.clone(),
            TopState::Deregistered => self.sojourn_deregistered.clone(),
        })
    }

    /// Violation statistics over the observed streams.
    pub fn violations(&self) -> ViolationStats {
        let mut by_kind: Vec<(Violation, usize)> =
            self.kinds.iter().map(|(v, c)| (*v, *c)).collect();
        by_kind.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| format!("{}", a.0).cmp(&format!("{}", b.0)))
        });
        ViolationStats {
            events_checked: self.events_checked,
            violating_events: self.violating_events,
            streams_checked: self.streams_checked,
            violating_streams: self.violating_streams,
            by_kind,
        }
    }

    /// Largest absolute breakdown difference against another accumulator.
    pub fn max_abs_breakdown_diff(&self, other: &StreamAccumulator) -> f64 {
        let a = self.breakdown();
        let b = other.breakdown();
        EventType::ALL
            .iter()
            .fold(0.0f64, |m, et| m.max((b[et] - a[et]).abs()))
    }
}

/// Accumulates every stream of a `.ctb` trace, a [`BlockGroup`] per pool
/// item: each item verifies its blocks' checksums before it decodes a
/// stream of them, so a damaged file is the lowest failing block's
/// [`CtbError`], as from [`ColumnarReader::verify`]. One stream per pool
/// thread is resident. The result is the serial fold's, bit for bit, on
/// any number of threads (see the module doc); a one-group file is folded
/// inline.
pub fn accumulate_reader(
    machine: &StateMachine,
    reader: &ColumnarReader,
) -> Result<StreamAccumulator, CtbError> {
    // Each group's vectors are allocated here, on the calling thread, at
    // their final size, so a pool thread's malloc arena keeps none of the
    // per-stream vectors after the call (DESIGN §17, "One fidelity fold",
    // has the peak RSS that cost when the groups grew them there).
    let groups: Vec<(BlockGroup, StreamAccumulator)> = reader
        .block_groups()
        .into_iter()
        .map(|g| {
            let acc = StreamAccumulator::with_capacity(g.streams.len());
            (g, acc)
        })
        .collect();
    let mut groups = groups
        .into_par_iter()
        .map_init(
            || {
                let stream = Stream::new(UeId(0), DeviceType::Phone, Vec::new());
                (stream, ReplayOutcome::default())
            },
            |(stream, scratch), (group, acc)| {
                fold_group(machine, reader, group, acc, stream, scratch)
            },
        )
        .collect::<Result<Vec<_>, CtbError>>()?;
    if groups.len() <= 1 {
        return Ok(groups.pop().unwrap_or_default());
    }
    let mut acc = StreamAccumulator::with_capacity(reader.num_streams());
    for group in groups {
        acc.merge(&group);
    }
    Ok(acc)
}

/// One pool item of [`accumulate_reader`]: verifies `group`'s blocks, then
/// folds their streams into `acc`, decoding each into the thread's
/// `stream`. The thread's replay `scratch` serves every group it folds and
/// goes back to the thread afterwards, so a pool thread grows one scratch
/// per call, not one per group, and a folded group holds none.
fn fold_group(
    machine: &StateMachine,
    reader: &ColumnarReader,
    group: BlockGroup,
    mut acc: StreamAccumulator,
    stream: &mut Stream,
    scratch: &mut ReplayOutcome,
) -> Result<StreamAccumulator, CtbError> {
    reader.verify_blocks(group.blocks)?;
    acc.scratch = std::mem::take(scratch);
    for i in group.streams {
        reader.stream(i).expect("in range").decode_into(stream)?;
        acc.observe(machine, stream);
    }
    *scratch = std::mem::take(&mut acc.scratch);
    Ok(acc)
}

/// Accumulates a trace of either format: a `.ctb` file through
/// [`accumulate_reader`], a JSONL file stream by stream as it is parsed.
pub fn accumulate_trace(
    machine: &StateMachine,
    trace: AnyTrace,
) -> Result<StreamAccumulator, IoError> {
    match trace {
        AnyTrace::Ctb(reader) => Ok(accumulate_reader(machine, &reader)?),
        jsonl => {
            let mut acc = StreamAccumulator::new();
            jsonl.for_each_stream(|stream| {
                acc.observe(machine, stream);
                Ok(())
            })?;
            Ok(acc)
        }
    }
}

/// Assembles the full [`FidelityReport`] of `synth` against `real`.
pub fn fidelity_from_accumulators(
    real: &StreamAccumulator,
    synth: &StreamAccumulator,
) -> FidelityReport {
    use crate::FlowLenKind;
    let v = synth.violations();
    FidelityReport {
        event_violation_rate: v.event_rate(),
        stream_violation_rate: v.stream_rate(),
        sojourn_connected: real
            .sojourn_ecdf(TopState::Connected)
            .max_y_distance(&synth.sojourn_ecdf(TopState::Connected)),
        sojourn_idle: real
            .sojourn_ecdf(TopState::Idle)
            .max_y_distance(&synth.sojourn_ecdf(TopState::Idle)),
        flow_length_all: real
            .flow_ecdf(FlowLenKind::All)
            .max_y_distance(&synth.flow_ecdf(FlowLenKind::All)),
        flow_length_srv_req: real
            .flow_ecdf(FlowLenKind::OfType(EventType::ServiceRequest))
            .max_y_distance(&synth.flow_ecdf(FlowLenKind::OfType(EventType::ServiceRequest))),
        flow_length_conn_rel: real
            .flow_ecdf(FlowLenKind::OfType(EventType::ConnectionRelease))
            .max_y_distance(&synth.flow_ecdf(FlowLenKind::OfType(EventType::ConnectionRelease))),
        max_breakdown_diff: real.max_abs_breakdown_diff(synth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flowlen::flow_length_ecdf, FlowLenKind};
    use cpt_synth::SynthConfig;
    use cpt_trace::Event;

    #[test]
    fn accumulator_matches_batch_metrics() {
        let d = cpt_synth::generate(&SynthConfig::new(50, 3).hours(0.3));
        let acc = StreamAccumulator::of(&StateMachine::lte(), &d);

        assert_eq!(acc.streams_observed(), d.num_streams());
        assert_eq!(acc.events_observed(), d.num_events());
        assert_eq!(acc.breakdown(), d.event_breakdown());
        // Total over the kinds: every event type, not only the two
        // FidelityReport reads.
        let kinds = EventType::ALL.iter().map(|et| FlowLenKind::OfType(*et));
        for kind in kinds.chain([FlowLenKind::All]) {
            assert_eq!(
                acc.flow_ecdf(kind).values(),
                flow_length_ecdf(&d, kind).values(),
                "{kind:?}"
            );
        }
    }

    /// The views sort what they read, so only the vectors themselves show
    /// whether the block-parallel fold keeps the streams in file order.
    #[test]
    fn the_block_parallel_fold_keeps_file_order() {
        // Stream i's length and spacing are its own, so its flow counts
        // and mean sojourns name its place; about six blocks, two groups.
        let streams = (0..5000u64)
            .map(|i| {
                let events = (0..1 + i % 151)
                    .map(|k| {
                        let t = [EventType::ServiceRequest, EventType::ConnectionRelease];
                        Event::new(t[k as usize % 2], (k * (1 + i % 7)) as f64)
                    })
                    .collect();
                Stream::new(UeId(i), DeviceType::Phone, events)
            })
            .collect();
        let d = Dataset::new(streams);
        let scratch = cpt_testkit::Scratch::new("fold-order");
        let path = scratch.path("trace.ctb");
        cpt_trace::columnar::write_ctb(&d, &path).expect("write ctb");
        let reader = ColumnarReader::open(&path).expect("open ctb");
        assert!(reader.block_groups().len() > 1, "{}", reader.num_blocks());
        let m = StateMachine::lte();
        let serial = StreamAccumulator::of(&m, &d);
        let parallel = accumulate_reader(&m, &reader).expect("fold");
        assert_eq!(parallel.flows, serial.flows);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (p, s) in [
            (&parallel.sojourn_connected, &serial.sojourn_connected),
            (&parallel.sojourn_idle, &serial.sojourn_idle),
            (&parallel.sojourn_deregistered, &serial.sojourn_deregistered),
        ] {
            assert_eq!(bits(p), bits(s));
        }
    }

    #[test]
    fn empty_accumulator_yields_zero_rates() {
        let acc = StreamAccumulator::new();
        let v = acc.violations();
        assert_eq!(v.event_rate(), 0.0);
        assert_eq!(v.stream_rate(), 0.0);
        assert_eq!(acc.breakdown().values().sum::<f64>(), 0.0);
    }
}
