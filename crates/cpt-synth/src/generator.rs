//! The simulation loop: drives the two-level state machine per UE.

use crate::config::SynthConfig;
use crate::dist::sample_standard_normal;
use crate::profile::DeviceProfile;
use cpt_statemachine::StateMachine;
use cpt_trace::columnar::{ColumnarWriter, CtbError, CtbSummary};
use cpt_trace::{Dataset, DeviceType, Event, EventType, Generation, Stream, UeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::path::Path;

/// UEs simulated per parallel chunk by [`generate_streaming`]; bounds the
/// number of materialized streams while keeping every core busy.
const STREAM_CHUNK_UES: usize = 4096;

/// Per-device UE counts matching the paper's population shares, with the
/// rounding remainder assigned to phones.
fn device_counts(config: &SynthConfig) -> [usize; 3] {
    let mut counts = [0usize; 3];
    for dt in DeviceType::ALL {
        counts[dt.index()] =
            (config.num_ues as f64 * dt.population_share()).round() as usize;
    }
    // Rounding may drop/add a UE; give the remainder to phones.
    let assigned: usize = counts.iter().sum();
    counts[0] = (counts[0] as i64 + config.num_ues as i64 - assigned as i64).max(0) as usize;
    counts
}

/// Simulates UE `i` of `device` with its deterministic per-UE RNG.
///
/// The seed derivation makes generation deterministic under any thread
/// count and any chunking. The multiplier is splitmix64's increment, a
/// good odd constant for decorrelating consecutive indices.
fn simulate_indexed_ue(config: &SynthConfig, profile: &DeviceProfile, i: usize) -> Stream {
    let ue_seed = config
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(profile.device.index() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1);
    let mut rng = StdRng::seed_from_u64(ue_seed);
    simulate_ue(config, profile, UeId(i as u64), &mut rng)
}

/// Generates a mixed-device trace with the paper's population shares
/// (§4.1: ~65 % phones, ~26 % connected cars, ~9 % tablets):
/// [`generate_streaming`] collected into a [`Dataset`].
pub fn generate(config: &SynthConfig) -> Dataset {
    let mut streams = Vec::with_capacity(config.num_ues);
    generate_streaming(config, |s| {
        streams.push(s);
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|never| match never {});
    Dataset::with_generation(config.generation, streams)
}

/// Simulates the mixed-device population UE by UE and hands each stream to
/// `sink` in order, stopping at its first error. Peak memory is one
/// [`STREAM_CHUNK_UES`]-sized chunk of simulated streams, so paper-scale
/// traces can be written straight to disk.
///
/// Returns `(streams, events)` emitted.
pub fn generate_streaming<E>(
    config: &SynthConfig,
    mut sink: impl FnMut(Stream) -> Result<(), E>,
) -> Result<(u64, u64), E> {
    let counts = device_counts(config);
    let mut next_id = 0u64;
    let mut events = 0u64;
    for dt in DeviceType::ALL {
        let profile = DeviceProfile::for_device(dt);
        let count = counts[dt.index()];
        let mut start = 0usize;
        while start < count {
            let end = (start + STREAM_CHUNK_UES).min(count);
            let chunk: Vec<Stream> = (start..end)
                .into_par_iter()
                .map(|i| simulate_indexed_ue(config, &profile, i))
                .filter(|s| !s.is_empty())
                .collect();
            for mut s in chunk {
                s.ue_id = UeId(next_id);
                next_id += 1;
                events += s.len() as u64;
                sink(s)?;
            }
            start = end;
        }
    }
    Ok((next_id, events))
}

/// Simulates straight into a `.ctb` columnar trace at `path` without ever
/// holding more than one generation chunk in memory.
pub fn generate_ctb(config: &SynthConfig, path: impl AsRef<Path>) -> Result<CtbSummary, CtbError> {
    let mut writer = ColumnarWriter::create(path, config.generation)?;
    generate_streaming(config, |s| writer.push_stream(&s))?;
    writer.finish()
}

/// Generates `count` UEs of a single device type.
pub fn generate_device(config: &SynthConfig, device: DeviceType, count: usize) -> Dataset {
    let profile = DeviceProfile::for_device(device);
    let streams: Vec<Stream> = (0..count)
        .into_par_iter()
        .map(|i| simulate_indexed_ue(config, &profile, i))
        .filter(|s| !s.is_empty())
        .collect();
    Dataset::with_generation(config.generation, streams)
}

/// Draws a Poisson count (Knuth's algorithm; fine for the small λ used by
/// the profiles).
fn sample_poisson(rng: &mut impl Rng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        // Guard against pathological λ; the profiles stay below 1.
        if k > 10_000 {
            return k;
        }
    }
}

/// Simulates one UE over the configured duration, emitting only events
/// whose timestamps fall in `[0, duration)`.
fn simulate_ue(
    config: &SynthConfig,
    profile: &DeviceProfile,
    ue_id: UeId,
    rng: &mut StdRng,
) -> Stream {
    let duration = config.duration_seconds();
    let is_lte = config.generation == Generation::Lte;
    // Per-UE activity multiplier: scales all dwell times (heterogeneity).
    let activity = (profile.activity_sigma * sample_standard_normal(rng)).exp();

    let mut events: Vec<Event> = Vec::new();
    let push = |t: f64, et: EventType, events: &mut Vec<Event>| {
        if (0.0..duration).contains(&t) && (et.exists_in(config.generation)) {
            events.push(Event::new(et, t));
        }
    };

    // Start mid-cycle: begin IDLE with a uniformly sampled residual so the
    // UE population is unsynchronized. Start the clock one mean cycle early
    // so the window begins in steady state.
    let warmup = profile.mean_cycle_seconds() * activity;
    let mut t = -warmup * rng.gen::<f64>();

    // The diurnal factor at absolute simulation time `t` seconds.
    let hour_at = |t: f64| config.start_hour + t / 3600.0;

    while t < duration {
        let dfac = profile.diurnal.factor(hour_at(t)) * activity;

        // ---- IDLE period ----
        let idle_len = profile.idle_sojourn.scaled(dfac).sample(rng);
        // Idle-mode TAUs (4G only), uniform within the idle period.
        if is_lte {
            let n_tau = sample_poisson(rng, profile.idle_tau_per_idle);
            let mut tau_offsets: Vec<f64> =
                (0..n_tau).map(|_| rng.gen::<f64>() * idle_len).collect();
            tau_offsets.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            for off in tau_offsets {
                push(t + off, EventType::TrackingAreaUpdate, &mut events);
            }
        }
        t += idle_len;
        if t >= duration {
            break;
        }

        // ---- End of idle: reconnect, or detach → dwell → re-attach ----
        if rng.gen::<f64>() < profile.p_detach {
            push(t, EventType::Detach, &mut events);
            let dwell = profile.deregistered_dwell.scaled(activity).sample(rng);
            t += dwell;
            if t >= duration {
                break;
            }
            push(t, EventType::Attach, &mut events);
        } else {
            push(t, EventType::ServiceRequest, &mut events);
        }

        // ---- CONNECTED period ----
        let conn_len = profile
            .connected_sojourn
            .scaled(profile.diurnal.factor(hour_at(t)) * activity)
            .sample(rng);
        let n_ho = sample_poisson(rng, profile.ho_per_connection);
        let mut ho_offsets: Vec<f64> = (0..n_ho)
            .map(|_| rng.gen::<f64>() * conn_len * 0.95)
            .collect();
        ho_offsets.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        for (j, off) in ho_offsets.iter().enumerate() {
            push(t + off, EventType::Handover, &mut events);
            if is_lte && rng.gen::<f64>() < profile.p_tau_after_ho {
                // Complete the handover with a TAU shortly after, strictly
                // before the next HO and before the release.
                let next_boundary = ho_offsets.get(j + 1).copied().unwrap_or(conn_len);
                let gap = (next_boundary - off).max(1e-3);
                let tau_off = off + (0.5 + 1.5 * rng.gen::<f64>()).min(gap * 0.5);
                push(t + tau_off, EventType::TrackingAreaUpdate, &mut events);
            }
        }
        t += conn_len;
        push(t, EventType::ConnectionRelease, &mut events);
    }

    events.sort_by(|a, b| a.timestamp.partial_cmp(&b.timestamp).expect("no NaN"));
    Stream::new(ue_id, profile.device, events)
}

/// Asserts (by replay) that a dataset is semantically correct. Used by
/// tests; exported so downstream integration tests can reuse it.
pub fn assert_semantically_valid(dataset: &Dataset) -> Result<(), String> {
    let machine = StateMachine::for_generation(dataset.generation);
    for stream in &dataset.streams {
        let outcome = cpt_statemachine::replay(&machine, stream);
        if outcome.has_violation() {
            return Err(format!(
                "stream {} ({} events) violates: {:?}",
                stream.ue_id,
                stream.len(),
                outcome.violations.first()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::stats::mean;

    #[test]
    fn deterministic_given_seed() {
        let c = SynthConfig::new(50, 42);
        let a = generate(&c);
        let b = generate(&c);
        assert_eq!(a, b);
        let c2 = SynthConfig::new(50, 43);
        assert_ne!(generate(&c2), a);
    }

    #[test]
    fn generated_traces_are_semantically_valid() {
        let d = generate(&SynthConfig::new(200, 1));
        assert!(d.num_streams() > 0);
        assert_semantically_valid(&d).unwrap();
    }

    #[test]
    fn nr_traces_are_semantically_valid_and_tau_free() {
        let c = SynthConfig::new(100, 2).generation(Generation::Nr);
        let d = generate(&c);
        assert_semantically_valid(&d).unwrap();
        for s in &d.streams {
            assert!(s
                .events
                .iter()
                .all(|e| e.event_type != EventType::TrackingAreaUpdate));
        }
    }

    #[test]
    fn timestamps_inside_window_and_sorted() {
        let c = SynthConfig::new(100, 3).hours(2.0);
        let d = generate(&c);
        for s in &d.streams {
            assert!(s
                .events
                .iter()
                .all(|e| (0.0..7200.0).contains(&e.timestamp)));
            assert!(s
                .events
                .windows(2)
                .all(|w| w[0].timestamp <= w[1].timestamp));
        }
    }

    #[test]
    fn event_breakdown_close_to_paper_for_phones() {
        // Table 7 "Real" column for phones. Generous tolerances: this is a
        // simulator, not a curve fit, but dominant shares must match.
        let d = generate_device(&SynthConfig::new(0, 4).hours(4.0), DeviceType::Phone, 800);
        let b = d.event_breakdown();
        let srv = b[&EventType::ServiceRequest];
        let rel = b[&EventType::ConnectionRelease];
        let ho = b[&EventType::Handover];
        let tau = b[&EventType::TrackingAreaUpdate];
        assert!((srv - 0.4706).abs() < 0.05, "SRV_REQ {srv}");
        assert!((rel - 0.4825).abs() < 0.05, "S1_CONN_REL {rel}");
        assert!((ho - 0.0288).abs() < 0.015, "HO {ho}");
        assert!((tau - 0.0159).abs() < 0.015, "TAU {tau}");
        assert!(b[&EventType::Attach] < 0.02);
        assert!(b[&EventType::Detach] < 0.02);
    }

    #[test]
    fn connected_cars_have_more_handovers_than_phones() {
        let cfg = SynthConfig::new(0, 5).hours(2.0);
        let phones = generate_device(&cfg, DeviceType::Phone, 300).event_breakdown();
        let cars = generate_device(&cfg, DeviceType::ConnectedCar, 300).event_breakdown();
        assert!(cars[&EventType::Handover] > 2.0 * phones[&EventType::Handover]);
    }

    #[test]
    fn phone_connected_sojourns_mostly_5_to_50_seconds() {
        // §4.2.1: "the majority of streams in the real dataset have an
        // averaged CONNECTED state sojourn time ranging from 5 to 50 s".
        let d = generate_device(&SynthConfig::new(0, 6), DeviceType::Phone, 400);
        let machine = StateMachine::lte();
        let means: Vec<f64> = d
            .streams
            .iter()
            .filter_map(|s| {
                cpt_statemachine::replay(&machine, s)
                    .mean_sojourn_in(cpt_statemachine::TopState::Connected)
            })
            .collect();
        assert!(means.len() > 100, "not enough UEs with sojourns");
        let in_range = means.iter().filter(|m| (5.0..=50.0).contains(*m)).count();
        assert!(
            in_range as f64 / means.len() as f64 > 0.6,
            "only {}/{} in 5–50 s",
            in_range,
            means.len()
        );
    }

    #[test]
    fn flow_lengths_are_heterogeneous() {
        let d = generate_device(&SynthConfig::new(0, 7), DeviceType::Phone, 400);
        let lens = d.flow_lengths();
        let m = mean(&lens);
        let max = lens.iter().cloned().fold(0.0f64, f64::max);
        let min = lens.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(m > 5.0, "mean flow length {m}");
        assert!(max > 4.0 * m, "max {max} vs mean {m}");
        assert!(min < m, "min {min} vs mean {m}");
    }

    #[test]
    fn diurnal_drift_changes_hourly_volume() {
        // An evening-peak trace must contain more phone events than an
        // overnight-trough trace of equal population.
        let peak = generate_device(
            &SynthConfig::new(0, 8).starting_at(19.0),
            DeviceType::Phone,
            300,
        );
        let trough = generate_device(
            &SynthConfig::new(0, 8).starting_at(7.0),
            DeviceType::Phone,
            300,
        );
        assert!(
            peak.num_events() as f64 > 1.15 * trough.num_events() as f64,
            "peak {} vs trough {}",
            peak.num_events(),
            trough.num_events()
        );
    }

    #[test]
    fn mixed_generation_respects_population_shares() {
        let d = generate(&SynthConfig::new(1000, 9));
        let s = d.summary();
        let phone_share = s.phones as f64 / s.streams as f64;
        assert!((phone_share - 0.646).abs() < 0.05, "phone share {phone_share}");
        // UE ids are unique.
        let mut ids: Vec<u64> = d.streams.iter().map(|s| s.ue_id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), d.num_streams());
    }

    #[test]
    fn streaming_generation_matches_batch_exactly() {
        // The reference: each device type simulated whole, then renumbered.
        let c = SynthConfig::new(300, 11);
        let counts = device_counts(&c);
        let per_device = DeviceType::ALL
            .into_iter()
            .flat_map(|dt| generate_device(&c, dt, counts[dt.index()]).streams);
        let batch: Vec<Stream> = (0u64..)
            .zip(per_device)
            .map(|(id, s)| Stream {
                ue_id: UeId(id),
                ..s
            })
            .collect();
        let mut streamed: Vec<Stream> = Vec::new();
        let (n_streams, n_events) = generate_streaming(&c, |s| {
            streamed.push(s);
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        assert_eq!(streamed, batch);
        assert_eq!(n_streams as usize, batch.len());
        assert_eq!(
            n_events as usize,
            batch.iter().map(Stream::len).sum::<usize>()
        );
        assert_eq!(generate(&c).streams, batch);
    }

    #[test]
    fn generate_ctb_equals_batch_written_ctb() {
        let c = SynthConfig::new(120, 12);
        let dir = std::env::temp_dir().join(format!("cpt-synth-ctb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let streamed_path = dir.join("streamed.ctb");
        let batch_path = dir.join("batch.ctb");
        let summary = generate_ctb(&c, &streamed_path).unwrap();
        let batch = generate(&c);
        cpt_trace::columnar::write_ctb(&batch, &batch_path).unwrap();
        assert_eq!(summary.streams as usize, batch.num_streams());
        assert_eq!(summary.events as usize, batch.num_events());
        // The two paths must agree byte for byte.
        assert_eq!(
            std::fs::read(&streamed_path).unwrap(),
            std::fs::read(&batch_path).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mean_emp: f64 = (0..n)
            .map(|_| sample_poisson(&mut rng, 0.2) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean_emp - 0.2).abs() < 0.01, "{mean_emp}");
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }
}
