//! A single semi-Markov model on the two-level 3GPP state machine
//! (SMM-1 when used alone; the building block of [`crate::SmmEnsemble`]).

use cpt_statemachine::{StateMachine, SubState, UeState};
use cpt_trace::stats::Ecdf;
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A fitted semi-Markov model: per-state transition probabilities over
/// legal events plus one empirical sojourn CDF per (state, event)
/// transition, as in §3.3 of the paper.
///
/// The SMM paper found that parametric families (Poisson, Pareto, Weibull,
/// TCPlib) cannot fit cellular sojourn times, so each CDF is the fitted
/// sample itself, drawn from by inverse CDF with linear interpolation
/// between order statistics ([`Ecdf::quantile`] of a uniform draw).
#[derive(Debug, Clone, PartialEq)]
pub struct SemiMarkovModel {
    machine: StateMachine,
    device: DeviceType,
    /// Initial-state weights over [`SubState`] indices.
    initial: Vec<f64>,
    /// `counts[state][event]` transition weights (0 where illegal or
    /// unobserved).
    transition_weights: Vec<Vec<f64>>,
    /// Sojourn CDFs keyed by (state index, event index).
    sojourns: HashMap<(usize, usize), Ecdf>,
    /// Empirical offset of each stream's first event within the window,
    /// so generated traffic starts mid-hour like real traffic.
    initial_offset: Ecdf,
}

impl SemiMarkovModel {
    /// Fits an SMM on `dataset` (expected: single device type). Streams
    /// are replayed through `machine`; violating events are skipped the
    /// same way the replay skips them (the ground truth has none anyway).
    pub fn fit(machine: StateMachine, dataset: &Dataset, device: DeviceType) -> Self {
        let n_states = SubState::ALL.len();
        let n_events = EventType::ALL.len();
        let mut initial = vec![0.0; n_states];
        let mut weights = vec![vec![0.0; n_events]; n_states];
        let mut sojourn_samples: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
        let mut offsets = Vec::new();

        for stream in &dataset.streams {
            // Determine the bootstrap point exactly like the metric replay.
            let mut state: Option<(UeState, f64)> = None;
            for ev in &stream.events {
                match state {
                    None => {
                        if let Some(s) = machine.bootstrap_state(ev.event_type) {
                            initial[s.sub().index()] += 1.0;
                            offsets.push(ev.timestamp);
                            state = Some((s, ev.timestamp));
                        }
                    }
                    Some((s, since)) => {
                        if let Ok(next) = machine.transition(s, ev.event_type) {
                            let key = (s.sub().index(), ev.event_type.index());
                            weights[key.0][key.1] += 1.0;
                            sojourn_samples
                                .entry(key)
                                .or_default()
                                .push((ev.timestamp - since).max(0.0));
                            state = Some((next, ev.timestamp));
                        }
                        // Violating events in the fitting data are ignored.
                    }
                }
            }
        }

        let sojourns = sojourn_samples
            .into_iter()
            .map(|(k, v)| (k, Ecdf::new(v)))
            .collect();
        if offsets.is_empty() {
            offsets.push(0.0);
        }
        SemiMarkovModel {
            machine,
            device,
            initial,
            transition_weights: weights,
            sojourns,
            initial_offset: Ecdf::new(offsets),
        }
    }

    /// Number of (state, event) transitions with fitted CDFs — the paper's
    /// "283,024 CDFs" count at ensemble scale.
    pub fn num_cdfs(&self) -> usize {
        self.sojourns.len()
    }

    /// The machine this model walks.
    pub fn machine(&self) -> &StateMachine {
        &self.machine
    }

    /// Generates `n` streams covering `duration` seconds each.
    pub fn generate(&self, n: usize, duration: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let streams = (0..n)
            .map(|i| self.generate_stream(UeId(i as u64), duration, &mut rng))
            .collect();
        Dataset::new(streams)
    }

    /// Generates one stream (exposed for the ensemble).
    pub fn generate_stream(&self, ue_id: UeId, duration: f64, rng: &mut StdRng) -> Stream {
        let mut events = Vec::new();
        let Some(start_idx) = sample_weights(&self.initial, rng) else {
            return Stream::new(ue_id, self.device, events);
        };
        let mut state = UeState(SubState::ALL[start_idx]);
        let mut t = self.initial_offset.quantile(rng.gen()).min(duration * 0.95);
        // Emit the bootstrap event itself: pick among events that
        // bootstrap into `state` — by construction of the machine each
        // bootstrap state has a canonical event.
        if let Some(first_event) = bootstrap_event_for(&self.machine, state) {
            events.push(Event::new(first_event, t));
        }
        loop {
            let weights = &self.transition_weights[state.sub().index()];
            let Some(ev_idx) = sample_weights(weights, rng) else {
                break; // Absorbing in the fitted data (e.g. DEREGISTERED
                       // with no observed re-attach).
            };
            let event = EventType::from_index(ev_idx).expect("valid event index");
            let key = (state.sub().index(), ev_idx);
            let hold = self
                .sojourns
                .get(&key)
                .map(|d| d.quantile(rng.gen()))
                .unwrap_or(0.0);
            t += hold;
            if t >= duration {
                break;
            }
            events.push(Event::new(event, t));
            state = self
                .machine
                .transition(state, event)
                .expect("fitted transitions are legal");
        }
        Stream::new(ue_id, self.device, events)
    }

    /// Consistency check used by tests: every positive transition weight
    /// corresponds to a legal machine transition with a fitted CDF.
    pub fn validate(&self) -> Result<(), String> {
        for (si, row) in self.transition_weights.iter().enumerate() {
            for (ei, w) in row.iter().enumerate() {
                if *w > 0.0 {
                    let state = UeState(SubState::ALL[si]);
                    let event = EventType::from_index(ei).expect("event index");
                    if self.machine.transition(state, event).is_err() {
                        return Err(format!("illegal fitted transition ({state}, {event})"));
                    }
                    if !self.sojourns.contains_key(&(si, ei)) {
                        return Err(format!("missing CDF for ({state}, {event})"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The event that the replay bootstrap would map to `state`, used to emit
/// the generated stream's first event. Inverse of
/// [`StateMachine::bootstrap_state`] restricted to its canonical images.
fn bootstrap_event_for(machine: &StateMachine, state: UeState) -> Option<EventType> {
    for ev in machine.generation().event_types() {
        if machine.bootstrap_state(*ev) == Some(state) {
            // Prefer SRV_REQ over ATCH for the CONNECTED bootstrap; both
            // map there but SRV_REQ dominates real traces.
            if state.sub() == SubState::SrvS {
                return Some(EventType::ServiceRequest);
            }
            return Some(*ev);
        }
    }
    None
}

fn sample_weights(weights: &[f64], rng: &mut impl Rng) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if target < *w {
            return Some(i);
        }
        target -= w;
    }
    Some(weights.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_metrics::violation_stats;
    use cpt_synth::{generate_device, SynthConfig};

    fn ground_truth() -> Dataset {
        generate_device(&SynthConfig::new(0, 11), DeviceType::Phone, 300)
    }

    #[test]
    fn fit_produces_valid_model() {
        let data = ground_truth();
        let smm = SemiMarkovModel::fit(StateMachine::lte(), &data, DeviceType::Phone);
        smm.validate().unwrap();
        assert!(
            smm.num_cdfs() >= 5,
            "too few fitted CDFs: {}",
            smm.num_cdfs()
        );
    }

    #[test]
    fn generated_streams_have_zero_violations() {
        let data = ground_truth();
        let smm = SemiMarkovModel::fit(StateMachine::lte(), &data, DeviceType::Phone);
        let synth = smm.generate(200, 3600.0, 42);
        let v = violation_stats(&StateMachine::lte(), &synth);
        assert_eq!(v.violating_events, 0, "SMM must be violation-free");
        assert!(v.streams_checked > 100);
    }

    #[test]
    fn generation_is_deterministic() {
        let data = ground_truth();
        let smm = SemiMarkovModel::fit(StateMachine::lte(), &data, DeviceType::Phone);
        assert_eq!(smm.generate(20, 3600.0, 1), smm.generate(20, 3600.0, 1));
        assert_ne!(smm.generate(20, 3600.0, 1), smm.generate(20, 3600.0, 2));
    }

    #[test]
    fn event_breakdown_roughly_matches_training_data() {
        let data = ground_truth();
        let smm = SemiMarkovModel::fit(StateMachine::lte(), &data, DeviceType::Phone);
        let synth = smm.generate(300, 3600.0, 7);
        let real_b = data.event_breakdown();
        let synth_b = synth.event_breakdown();
        for et in [EventType::ServiceRequest, EventType::ConnectionRelease] {
            assert!(
                (real_b[&et] - synth_b[&et]).abs() < 0.05,
                "{et}: real {} vs synth {}",
                real_b[&et],
                synth_b[&et]
            );
        }
    }

    #[test]
    fn timestamps_bounded_by_duration() {
        let data = ground_truth();
        let smm = SemiMarkovModel::fit(StateMachine::lte(), &data, DeviceType::Phone);
        let synth = smm.generate(100, 1800.0, 3);
        for s in &synth.streams {
            assert!(s.events.iter().all(|e| e.timestamp < 1800.0));
            assert!(s
                .events
                .windows(2)
                .all(|w| w[0].timestamp <= w[1].timestamp));
        }
    }

    #[test]
    fn empty_dataset_yields_empty_streams() {
        let empty = Dataset::new(vec![]);
        let smm = SemiMarkovModel::fit(StateMachine::lte(), &empty, DeviceType::Phone);
        let synth = smm.generate(5, 3600.0, 0);
        assert_eq!(synth.num_streams(), 5);
        assert!(synth.streams.iter().all(|s| s.is_empty()));
    }
}
