//! Datasets: collections of streams plus the operations the evaluation
//! pipeline needs (filtering by device type, hourly windowing, sampling,
//! train/test splitting, summary statistics).

use crate::{DeviceType, EventType, Generation, Stream};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A control-plane traffic dataset `D = {S_1, …, S_n}` (§3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Dataset {
    /// Cellular generation the trace was collected on.
    pub generation: Generation,
    /// The per-UE streams.
    pub streams: Vec<Stream>,
}

impl Dataset {
    /// Creates a dataset from streams (LTE generation, like the paper's
    /// trace).
    pub fn new(streams: Vec<Stream>) -> Self {
        Dataset {
            generation: Generation::Lte,
            streams,
        }
    }

    /// Creates a dataset with an explicit generation.
    pub fn with_generation(generation: Generation, streams: Vec<Stream>) -> Self {
        Dataset {
            generation,
            streams,
        }
    }

    /// Number of streams (UEs).
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Total number of events across all streams.
    pub fn num_events(&self) -> usize {
        self.streams.iter().map(Stream::len).sum()
    }

    /// Streams belonging to one device type.
    pub fn filter_device(&self, device: DeviceType) -> Dataset {
        Dataset {
            generation: self.generation,
            streams: self
                .streams
                .iter()
                .filter(|s| s.device_type == device)
                .cloned()
                .collect(),
        }
    }

    /// Cuts the trace into one-hour windows (§5.1: "the 24-hour-long traces
    /// are divided into 24 traces of one hour in length each"). Empty
    /// per-hour streams are dropped.
    pub fn hourly_windows(&self, hours: usize) -> Vec<Dataset> {
        (0..hours)
            .map(|h| self.window(h as f64 * 3600.0, (h as f64 + 1.0) * 3600.0))
            .collect()
    }

    /// Sub-dataset containing, for each stream, the events inside
    /// `[start, end)` seconds, re-based to the window start. Streams that
    /// become empty are dropped.
    pub fn window(&self, start: f64, end: f64) -> Dataset {
        Dataset {
            generation: self.generation,
            streams: self
                .streams
                .iter()
                .map(|s| s.window(start, end))
                .filter(|s| !s.is_empty())
                .collect(),
        }
    }

    /// Truncates every stream to at most `max_len` events and drops streams
    /// shorter than `min_len` (the paper trains with max length 500 and
    /// excludes length-1 streams, §4.5/§5.1).
    pub fn clamp_lengths(&self, min_len: usize, max_len: usize) -> Dataset {
        Dataset {
            generation: self.generation,
            streams: self
                .streams
                .iter()
                .map(|s| s.truncated(max_len))
                .filter(|s| s.len() >= min_len)
                .collect(),
        }
    }

    /// Deterministically samples `n` streams without replacement (or all of
    /// them if `n >= num_streams`). Used by the scalability study (Fig 6)
    /// to compare against equal-size real subsets.
    pub fn sample(&self, n: usize, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.streams.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(n);
        idx.sort_unstable();
        Dataset {
            generation: self.generation,
            streams: idx.into_iter().map(|i| self.streams[i].clone()).collect(),
        }
    }

    /// Deterministic train/test split by stream, with `train_fraction` of
    /// streams going to the first returned dataset.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train_fraction must be in [0, 1]"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.streams.len()).collect();
        idx.shuffle(&mut rng);
        let n_train = (self.streams.len() as f64 * train_fraction).round() as usize;
        let (train_idx, test_idx) = idx.split_at(n_train.min(idx.len()));
        let pick = |ids: &[usize]| {
            let mut ids = ids.to_vec();
            ids.sort_unstable();
            Dataset {
                generation: self.generation,
                streams: ids.into_iter().map(|i| self.streams[i].clone()).collect(),
            }
        };
        (pick(train_idx), pick(test_idx))
    }

    /// Fraction of each event type among all events (the "event type
    /// breakdown" metric of Table 2). Types absent from the trace get 0.
    pub fn event_breakdown(&self) -> BTreeMap<EventType, f64> {
        let mut counts: BTreeMap<EventType, usize> =
            EventType::ALL.iter().map(|e| (*e, 0)).collect();
        let mut total = 0usize;
        for s in &self.streams {
            for e in &s.events {
                *counts.entry(e.event_type).or_insert(0) += 1;
                total += 1;
            }
        }
        counts
            .into_iter()
            .map(|(k, v)| (k, if total == 0 { 0.0 } else { v as f64 / total as f64 }))
            .collect()
    }

    /// Distribution of the initial event type across streams, used to
    /// bootstrap CPT-GPT inference (§4.5). Returned as (event, probability)
    /// pairs over the generation's event types.
    pub fn initial_event_distribution(&self) -> Vec<(EventType, f64)> {
        let mut counts = [0usize; EventType::ALL.len()];
        let mut total = 0usize;
        for s in &self.streams {
            if let Some(first) = s.events.first() {
                counts[first.event_type.index()] += 1;
                total += 1;
            }
        }
        self.generation
            .event_types()
            .iter()
            .map(|e| {
                let p = if total == 0 {
                    0.0
                } else {
                    counts[e.index()] as f64 / total as f64
                };
                (*e, p)
            })
            .collect()
    }

    /// Flow lengths (events per stream), in stream order.
    pub fn flow_lengths(&self) -> Vec<f64> {
        self.streams.iter().map(|s| s.len() as f64).collect()
    }

    /// Per-stream counts of a given event type, in stream order.
    pub fn flow_lengths_of(&self, event_type: EventType) -> Vec<f64> {
        self.streams
            .iter()
            .map(|s| s.count_of(event_type) as f64)
            .collect()
    }

    /// All interarrival times (seconds) pooled over streams, skipping the
    /// leading zero of each stream.
    pub fn interarrivals(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for s in &self.streams {
            out.extend(s.interarrivals().into_iter().skip(1));
        }
        out
    }

    /// Summary counts for logging.
    pub fn summary(&self) -> DatasetSummary {
        let mut summary = DatasetSummary::default();
        for s in &self.streams {
            summary.observe(s);
        }
        summary
    }
}

/// Headline counts for a dataset, mirroring the §4.1 dataset overview.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Number of streams (UEs).
    pub streams: usize,
    /// Total events.
    pub events: usize,
    /// Streams with device type phone.
    pub phones: usize,
    /// Streams with device type connected car.
    pub connected_cars: usize,
    /// Streams with device type tablet.
    pub tablets: usize,
}

impl DatasetSummary {
    /// Counts one more stream: how a trace that is never resident (read
    /// or generated stream by stream) is summarized.
    pub fn observe(&mut self, stream: &Stream) {
        self.streams += 1;
        self.events += stream.len();
        match stream.device_type {
            DeviceType::Phone => self.phones += 1,
            DeviceType::ConnectedCar => self.connected_cars += 1,
            DeviceType::Tablet => self.tablets += 1,
        }
    }
}

impl std::fmt::Display for DatasetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events from {} UEs (phones: {}, connected cars: {}, tablets: {})",
            self.events, self.streams, self.phones, self.connected_cars, self.tablets
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, UeId};

    fn toy() -> Dataset {
        let mk = |id: u64, dt: DeviceType, evs: &[(EventType, f64)]| {
            Stream::new(
                UeId(id),
                dt,
                evs.iter().map(|(e, t)| Event::new(*e, *t)).collect(),
            )
        };
        Dataset::new(vec![
            mk(
                1,
                DeviceType::Phone,
                &[
                    (EventType::Attach, 0.0),
                    (EventType::ConnectionRelease, 10.0),
                    (EventType::ServiceRequest, 3700.0),
                ],
            ),
            mk(
                2,
                DeviceType::Tablet,
                &[
                    (EventType::ServiceRequest, 5.0),
                    (EventType::ConnectionRelease, 25.0),
                ],
            ),
            mk(3, DeviceType::Phone, &[(EventType::ServiceRequest, 100.0)]),
        ])
    }

    #[test]
    fn counts() {
        let d = toy();
        assert_eq!(d.num_streams(), 3);
        assert_eq!(d.num_events(), 6);
        let s = d.summary();
        assert_eq!(s.phones, 2);
        assert_eq!(s.tablets, 1);
        assert_eq!(s.connected_cars, 0);
    }

    #[test]
    fn filter_device_keeps_only_that_device() {
        let d = toy().filter_device(DeviceType::Phone);
        assert_eq!(d.num_streams(), 2);
        assert!(d.streams.iter().all(|s| s.device_type == DeviceType::Phone));
    }

    #[test]
    fn hourly_windows_rebased_and_nonempty() {
        let d = toy();
        let hours = d.hourly_windows(2);
        assert_eq!(hours.len(), 2);
        // Hour 0 contains events at t < 3600 from streams 1, 2, 3.
        assert_eq!(hours[0].num_streams(), 3);
        assert_eq!(hours[0].num_events(), 5);
        // Hour 1 contains only stream 1's event at 3700 → rebased to 100.
        assert_eq!(hours[1].num_streams(), 1);
        assert!((hours[1].streams[0].events[0].timestamp - 100.0).abs() < 1e-9);
    }

    #[test]
    fn clamp_lengths_drops_short_and_truncates_long() {
        let d = toy().clamp_lengths(2, 2);
        assert_eq!(d.num_streams(), 2);
        assert!(d.streams.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn event_breakdown_sums_to_one() {
        let d = toy();
        let b = d.event_breakdown();
        let total: f64 = b.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((b[&EventType::ServiceRequest] - 3.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn initial_event_distribution_counts_first_events() {
        let d = toy();
        let dist = d.initial_event_distribution();
        let p: BTreeMap<EventType, f64> = dist.into_iter().collect();
        assert!((p[&EventType::Attach] - 1.0 / 3.0).abs() < 1e-9);
        assert!((p[&EventType::ServiceRequest] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let d = toy();
        let (tr1, te1) = d.split(0.67, 42);
        let (tr2, te2) = d.split(0.67, 42);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.num_streams() + te1.num_streams(), d.num_streams());
    }

    #[test]
    fn sample_is_deterministic_and_bounded() {
        let d = toy();
        assert_eq!(d.sample(2, 1).num_streams(), 2);
        assert_eq!(d.sample(99, 1).num_streams(), 3);
        assert_eq!(d.sample(2, 1), d.sample(2, 1));
    }
}
