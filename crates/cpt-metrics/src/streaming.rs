//! The one fidelity fold.
//!
//! [`StreamAccumulator::observe`] folds every per-stream quantity the
//! fidelity metrics need in **one replay per stream** — it is the crate's
//! only caller of [`cpt_statemachine::replay`]. Everything else is a view
//! of an accumulator: [`violation_stats`](crate::violation_stats),
//! [`sojourn_ecdf`](crate::sojourn::sojourn_ecdf) and
//! [`FidelityReport::compute`] fold a resident
//! [`Dataset`] with [`StreamAccumulator::of`]; `cptgen evaluate` / `stats`
//! and [`accumulate_reader`] fold a trace stream by stream without ever
//! materializing it. Peak memory is O(streams) — the per-UE flow lengths
//! and mean sojourns that the ECDF distances are defined over — never
//! O(events). The pooled interarrival ECDF is deliberately *not*
//! accumulated: it is O(events) by definition and not part of
//! [`FidelityReport`].

use crate::violations::ViolationStats;
use crate::FidelityReport;
use cpt_statemachine::{replay, StateMachine, TopState, Violation};
use cpt_trace::columnar::{ColumnarReader, CtbError};
use cpt_trace::stats::Ecdf;
use cpt_trace::{Dataset, EventType, Stream};
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
}

impl StreamAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamAccumulator::default()
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

        let outcome = replay(machine, stream);
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
            for v in outcome.violations {
                *self.kinds.entry(v).or_insert(0) += 1;
            }
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

/// Accumulates every stream of a `.ctb` trace, verifying block checksums
/// up front so stream materialization cannot fail mid-pass. Only one
/// stream is resident at a time.
pub fn accumulate_reader(
    machine: &StateMachine,
    reader: &ColumnarReader,
) -> Result<StreamAccumulator, CtbError> {
    reader.verify()?;
    let mut acc = StreamAccumulator::new();
    for view in reader.streams() {
        let stream = view.to_stream().expect("ctb verified before accumulation");
        acc.observe(machine, &stream);
    }
    Ok(acc)
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
    use cpt_trace::columnar::write_ctb;

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

    #[test]
    fn ctb_accumulation_matches_in_ram() {
        let d = cpt_synth::generate(&SynthConfig::new(30, 9).hours(0.25));
        let m = StateMachine::lte();
        let mut path = std::env::temp_dir();
        path.push(format!("cpt-metrics-streaming-{}.ctb", std::process::id()));
        write_ctb(&d, &path).expect("write ctb");
        let reader = ColumnarReader::open(&path).expect("open ctb");
        let from_ctb = accumulate_reader(&m, &reader).expect("accumulate ctb");
        let in_ram = StreamAccumulator::of(&m, &d);
        assert_eq!(from_ctb.violations(), in_ram.violations());
        assert_eq!(from_ctb.breakdown(), in_ram.breakdown());
        assert_eq!(from_ctb.streams_observed(), in_ram.streams_observed());
        std::fs::remove_file(&path).ok();
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
