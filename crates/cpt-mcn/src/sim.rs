//! The event-driven queueing simulation.

use crate::report::McnReport;
use cpt_statemachine::{replay, StateMachine, TopState};
use cpt_trace::{Dataset, EventType};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Autoscaler settings: every `epoch_seconds` the worker count is set to
/// `ceil(observed_busy_fraction · workers / target_utilization)`, clamped
/// to `[min_workers, max_workers]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Evaluation window in seconds.
    pub epoch_seconds: f64,
    /// Utilization the autoscaler aims for (e.g. 0.6).
    pub target_utilization: f64,
    /// Lower bound on the pool size.
    pub min_workers: usize,
    /// Upper bound on the pool size.
    pub max_workers: usize,
}

/// MCN model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McnConfig {
    /// Initial (and, without autoscaling, permanent) worker count.
    pub workers: usize,
    /// FIFO queue capacity; jobs arriving at a full queue are dropped
    /// (counted as rejected signaling, like an overload-control MCN).
    pub queue_capacity: usize,
    /// Optional autoscaler.
    pub autoscale: Option<AutoscaleConfig>,
}

impl McnConfig {
    /// A fixed-size deployment.
    pub fn fixed(workers: usize) -> Self {
        McnConfig {
            workers,
            queue_capacity: 10_000,
            autoscale: None,
        }
    }

    /// An autoscaling deployment starting from `workers`.
    pub fn autoscaling(workers: usize, target_utilization: f64) -> Self {
        McnConfig {
            workers,
            queue_capacity: 10_000,
            autoscale: Some(AutoscaleConfig {
                epoch_seconds: 300.0,
                target_utilization,
                min_workers: 1,
                max_workers: 4096,
            }),
        }
    }
}

/// Per-event-type control-plane processing cost in seconds. Values follow
/// the relative message-sequence complexity of each procedure: attach is
/// by far the heaviest (authentication + session establishment), handover
/// involves path switching, service request / release are the cheap
/// steady-state procedures.
pub fn service_time(event: EventType) -> f64 {
    match event {
        EventType::Attach => 0.040,
        EventType::Detach => 0.015,
        EventType::ServiceRequest => 0.008,
        EventType::ConnectionRelease => 0.005,
        EventType::Handover => 0.020,
        EventType::TrackingAreaUpdate => 0.010,
    }
}

/// Runs the MCN model over every event of `trace` (all streams merged in
/// timestamp order) and returns aggregate load/latency statistics.
pub fn simulate(trace: &Dataset, config: &McnConfig) -> McnReport {
    assert!(config.workers > 0, "need at least one worker");

    // Merge all events, tagging arrival times.
    let mut arrivals: Vec<(f64, EventType)> = trace
        .streams
        .iter()
        .flat_map(|s| s.events.iter().map(|e| (e.timestamp, e.event_type)))
        .collect();
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));

    let mut report = McnReport::default();
    report.initial_workers = config.workers;
    report.peak_workers = config.workers;
    if arrivals.is_empty() {
        report.final_workers = config.workers;
        return report;
    }

    // Worker pool: a min-heap of worker-free times (ordered f64 bits are
    // safe: times are non-negative finite).
    let mut workers = config.workers;
    let mut free_at: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0u64)).collect();
    let to_bits = |t: f64| -> u64 { (t.max(0.0) * 1e6) as u64 };
    let from_bits = |b: u64| -> f64 { b as f64 / 1e6 };

    let mut queue: VecDeque<(f64, EventType)> = VecDeque::new();

    // Autoscaler accounting.
    let mut epoch_busy = 0.0f64;
    let mut epoch_start = arrivals[0].0;

    let drain = |queue: &mut VecDeque<(f64, EventType)>,
                 free_at: &mut BinaryHeap<Reverse<u64>>,
                 now: f64,
                 epoch_busy: &mut f64,
                 report: &mut McnReport| {
        // Start any queued job whose worker frees up not after `now`.
        while let (Some(&Reverse(fb)), false) = (free_at.peek(), queue.is_empty()) {
            let free = from_bits(fb);
            if free > now {
                break;
            }
            let (arrived, event) = queue.pop_front().expect("nonempty");
            free_at.pop();
            let start = free.max(arrived);
            let svc = service_time(event);
            let done = start + svc;
            free_at.push(Reverse(to_bits(done)));
            *epoch_busy += svc;
            report.record_latency(event, done - arrived);
        }
    };

    for (arrive, event) in arrivals {
        // Autoscale at epoch boundaries.
        if let Some(auto) = &config.autoscale {
            while arrive - epoch_start >= auto.epoch_seconds {
                let capacity_time = workers as f64 * auto.epoch_seconds;
                let utilization = (epoch_busy / capacity_time).min(1.0);
                let desired = ((utilization * workers as f64) / auto.target_utilization)
                    .ceil()
                    .max(auto.min_workers as f64) as usize;
                let desired = desired.clamp(auto.min_workers, auto.max_workers);
                if desired != workers {
                    report
                        .scale_events
                        .push((epoch_start + auto.epoch_seconds, desired));
                    // Grow: add idle workers. Shrink: drop the idlest.
                    while workers < desired {
                        free_at.push(Reverse(to_bits(arrive)));
                        workers += 1;
                    }
                    while workers > desired && workers > 1 {
                        // Remove the worker that frees earliest (idlest).
                        free_at.pop();
                        workers -= 1;
                    }
                }
                epoch_busy = 0.0;
                epoch_start += auto.epoch_seconds;
                report.peak_workers = report.peak_workers.max(workers);
            }
        }

        drain(
            &mut queue,
            &mut free_at,
            arrive,
            &mut epoch_busy,
            &mut report,
        );
        if queue.len() >= config.queue_capacity {
            report.dropped += 1;
            continue;
        }
        queue.push_back((arrive, event));
        report.peak_queue = report.peak_queue.max(queue.len());
        drain(
            &mut queue,
            &mut free_at,
            arrive,
            &mut epoch_busy,
            &mut report,
        );
    }
    // Flush the tail.
    drain(
        &mut queue,
        &mut free_at,
        f64::MAX / 4.0,
        &mut epoch_busy,
        &mut report,
    );

    report.peak_workers = report.peak_workers.max(workers);
    report.final_workers = workers;

    // Peak simultaneously-CONNECTED UEs (per-UE state table footprint).
    report.peak_connected_ues = peak_connected(trace);
    report.finalize();
    report
}

/// Peak number of simultaneously CONNECTED UEs over the trace, from
/// completed CONNECTED sojourns.
fn peak_connected(trace: &Dataset) -> usize {
    let machine = StateMachine::for_generation(trace.generation);
    let mut deltas: Vec<(f64, i64)> = Vec::new();
    for s in &trace.streams {
        let outcome = replay(&machine, s);
        let mut t = s.events.first().map(|e| e.timestamp).unwrap_or(0.0);
        for rec in &outcome.sojourns {
            if rec.state == TopState::Connected {
                deltas.push((t, 1));
                deltas.push((t + rec.duration, -1));
            }
            t += rec.duration;
        }
    }
    deltas.sort_by(|a, b| {
        a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)) // exits before entries at equal times
    });
    let mut cur = 0i64;
    let mut peak = 0i64;
    for (_, d) in deltas {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{DeviceType, Event, Stream, UeId};

    fn uniform_trace(n_events: usize, spacing: f64) -> Dataset {
        let events = (0..n_events)
            .map(|i| Event::new(EventType::ServiceRequest, i as f64 * spacing))
            .collect();
        Dataset::new(vec![Stream::new(UeId(0), DeviceType::Phone, events)])
    }

    #[test]
    fn underloaded_system_has_service_time_latency() {
        // Arrivals far apart: every job is served immediately, so latency
        // equals the SRV_REQ service time.
        let trace = uniform_trace(100, 1.0);
        let r = simulate(&trace, &McnConfig::fixed(2));
        assert_eq!(r.processed, 100);
        assert_eq!(r.dropped, 0);
        assert!((r.mean_latency - service_time(EventType::ServiceRequest)).abs() < 1e-9);
        assert!((r.p99_latency - r.mean_latency).abs() < 1e-9);
        assert!(r.peak_queue <= 1);
    }

    #[test]
    fn overloaded_system_queues_and_latency_grows() {
        // One worker, arrivals every 1 ms but 8 ms service: queue builds.
        let trace = uniform_trace(200, 0.001);
        let r = simulate(&trace, &McnConfig::fixed(1));
        assert_eq!(r.processed, 200);
        assert!(r.mean_latency > 10.0 * service_time(EventType::ServiceRequest));
        assert!(r.p99_latency > r.mean_latency);
        assert!(r.peak_queue > 50);
    }

    #[test]
    fn more_workers_reduce_latency() {
        let trace = uniform_trace(500, 0.002);
        let slow = simulate(&trace, &McnConfig::fixed(1));
        let fast = simulate(&trace, &McnConfig::fixed(8));
        assert!(fast.mean_latency < slow.mean_latency);
    }

    #[test]
    fn bounded_queue_drops_over_capacity() {
        let mut cfg = McnConfig::fixed(1);
        cfg.queue_capacity = 10;
        let trace = uniform_trace(500, 0.0001);
        let r = simulate(&trace, &cfg);
        assert!(r.dropped > 0);
        assert_eq!(r.processed + r.dropped, 500);
    }

    #[test]
    fn autoscaler_grows_under_load_and_is_recorded() {
        // 20-minute overload with a 5-minute autoscale epoch.
        let trace = uniform_trace(120_000, 0.01);
        let cfg = McnConfig::autoscaling(1, 0.6);
        let r = simulate(&trace, &cfg);
        assert!(
            r.peak_workers > 1,
            "autoscaler never scaled up: {:?}",
            r.scale_events
        );
        assert!(!r.scale_events.is_empty());
        // Scaled system keeps p99 close to service time.
        assert!(r.p99_latency < 1.0, "p99 {:.3}", r.p99_latency);
    }

    #[test]
    fn attach_heavier_than_release() {
        assert!(service_time(EventType::Attach) > service_time(EventType::ConnectionRelease));
    }

    #[test]
    fn peak_connected_counts_overlap() {
        // Two UEs connected [0,100) and [50,150): peak overlap is 2.
        let mk = |id, t0: f64| {
            Stream::new(
                UeId(id),
                DeviceType::Phone,
                vec![
                    Event::new(EventType::ServiceRequest, t0),
                    Event::new(EventType::ConnectionRelease, t0 + 100.0),
                    Event::new(EventType::ServiceRequest, t0 + 500.0),
                ],
            )
        };
        let trace = Dataset::new(vec![mk(0, 0.0), mk(1, 50.0)]);
        assert_eq!(peak_connected(&trace), 2);
        let disjoint = Dataset::new(vec![mk(0, 0.0), mk(1, 200.0)]);
        assert_eq!(peak_connected(&disjoint), 1);
    }

    #[test]
    fn deterministic_and_empty_trace_ok() {
        let trace = uniform_trace(50, 0.01);
        let a = simulate(&trace, &McnConfig::fixed(2));
        let b = simulate(&trace, &McnConfig::fixed(2));
        assert_eq!(a, b);
        let empty = Dataset::new(vec![]);
        let r = simulate(&empty, &McnConfig::fixed(2));
        assert_eq!(r.processed, 0);
    }
}
