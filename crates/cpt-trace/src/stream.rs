//! Streams: per-UE sequences of timestamped control events.

use crate::{DeviceType, EventType};
use std::fmt;

/// Opaque UE identifier.
///
/// In the real trace UE IDs are hashed strings without semantic meaning
/// (§4.2.1), so the paper generates them with a random string generator
/// rather than a model. We model them as plain `u64`s; the `Display`
/// implementation renders the hashed-string form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct UeId(pub u64);

impl fmt::Display for UeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hex-rendered like an anonymized IMSI hash.
        write!(f, "ue-{:016x}", self.0)
    }
}

/// One control-plane event: a type plus the absolute timestamp (seconds
/// since trace epoch) at which it occurred.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The control event type.
    pub event_type: EventType,
    /// Seconds since the trace epoch. Non-negative, non-decreasing within a
    /// stream.
    pub timestamp: f64,
}

impl Event {
    /// Convenience constructor.
    pub fn new(event_type: EventType, timestamp: f64) -> Self {
        Event {
            event_type,
            timestamp,
        }
    }
}

/// A stream: the sequence of control events produced by a single UE
/// (`S_i = {UE_ID, device_type, events}` in §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The UE this stream belongs to.
    pub ue_id: UeId,
    /// The UE's device type.
    pub device_type: DeviceType,
    /// Events ordered by non-decreasing timestamp.
    pub events: Vec<Event>,
}

impl Stream {
    /// Creates a stream, asserting (in debug builds) that events are
    /// time-ordered.
    pub fn new(ue_id: UeId, device_type: DeviceType, events: Vec<Event>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
            "stream events must be time-ordered"
        );
        Stream {
            ue_id,
            device_type,
            events,
        }
    }

    /// Number of events in the stream (the paper's "flow length").
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Wall-clock span covered by the stream in seconds (0 for streams with
    /// fewer than two events).
    pub fn duration(&self) -> f64 {
        match (self.events.first(), self.events.last()) {
            (Some(first), Some(last)) => last.timestamp - first.timestamp,
            _ => 0.0,
        }
    }

    /// Interarrival times between consecutive events, in seconds.
    ///
    /// By the paper's tokenization convention the first event of a stream
    /// has interarrival time 0, so the returned vector has the same length
    /// as `events` with `out[0] == 0.0`.
    pub fn interarrivals(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.events.len());
        let mut prev: Option<f64> = None;
        for ev in &self.events {
            out.push(match prev {
                Some(p) => (ev.timestamp - p).max(0.0),
                None => 0.0,
            });
            prev = Some(ev.timestamp);
        }
        out
    }

    /// Event types only, in order.
    pub fn event_types(&self) -> Vec<EventType> {
        self.events.iter().map(|e| e.event_type).collect()
    }

    /// Number of events of a given type (per-type "flow length" used by
    /// Table 6's SRV_REQ / S1_CONN_REL rows).
    pub fn count_of(&self, event_type: EventType) -> usize {
        self.events
            .iter()
            .filter(|e| e.event_type == event_type)
            .count()
    }

    /// Returns a copy truncated to at most `max_len` events.
    ///
    /// Both NetShare and CPT-GPT are configured to synthesize streams with a
    /// maximum length (500 in the paper, §5.1); training discards the tail
    /// the same way.
    pub fn truncated(&self, max_len: usize) -> Stream {
        Stream {
            ue_id: self.ue_id,
            device_type: self.device_type,
            events: self.events.iter().take(max_len).copied().collect(),
        }
    }

    /// Rebuilds a stream from interarrival times and event types, the
    /// inverse of [`Stream::interarrivals`]. Inputs must have equal length;
    /// the first interarrival is treated as an offset from time 0.
    pub fn from_interarrivals(
        ue_id: UeId,
        device_type: DeviceType,
        event_types: &[EventType],
        interarrivals: &[f64],
    ) -> Stream {
        assert_eq!(
            event_types.len(),
            interarrivals.len(),
            "event/interarrival length mismatch"
        );
        let mut t = 0.0;
        let events = event_types
            .iter()
            .zip(interarrivals)
            .map(|(et, dt)| {
                t += dt.max(0.0);
                Event::new(*et, t)
            })
            .collect();
        Stream {
            ue_id,
            device_type,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(events: &[(EventType, f64)]) -> Stream {
        Stream::new(
            UeId(1),
            DeviceType::Phone,
            events.iter().map(|(e, t)| Event::new(*e, *t)).collect(),
        )
    }

    #[test]
    fn interarrivals_first_is_zero() {
        let st = s(&[
            (EventType::ServiceRequest, 3.0),
            (EventType::ConnectionRelease, 10.0),
            (EventType::ServiceRequest, 12.5),
        ]);
        assert_eq!(st.interarrivals(), vec![0.0, 7.0, 2.5]);
        assert_eq!(st.len(), 3);
        assert!((st.duration() - 9.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stream() {
        let st = s(&[]);
        assert!(st.is_empty());
        assert_eq!(st.duration(), 0.0);
        assert!(st.interarrivals().is_empty());
    }

    #[test]
    fn truncated_caps_length() {
        let st = s(&[
            (EventType::ServiceRequest, 1.0),
            (EventType::ConnectionRelease, 2.0),
            (EventType::ServiceRequest, 3.0),
        ]);
        assert_eq!(st.truncated(2).len(), 2);
        assert_eq!(st.truncated(10).len(), 3);
    }

    #[test]
    fn count_of_filters_by_type() {
        let st = s(&[
            (EventType::ServiceRequest, 1.0),
            (EventType::ConnectionRelease, 2.0),
            (EventType::ServiceRequest, 3.0),
        ]);
        assert_eq!(st.count_of(EventType::ServiceRequest), 2);
        assert_eq!(st.count_of(EventType::Handover), 0);
    }

    proptest! {
        /// from_interarrivals ∘ interarrivals is the identity on the
        /// interarrival representation (up to float round-off).
        #[test]
        fn interarrival_roundtrip(mut iats in proptest::collection::vec(0.0f64..1e4, 0..50)) {
            // By convention the first event of a stream has interarrival 0
            // (it is an offset from stream start, which interarrivals()
            // cannot recover), so the roundtrip only holds with iats[0]=0.
            if let Some(first) = iats.first_mut() {
                *first = 0.0;
            }
            let ets: Vec<EventType> =
                iats.iter().enumerate().map(|(i, _)| EventType::ALL[i % 6]).collect();
            let st = Stream::from_interarrivals(UeId(7), DeviceType::Tablet, &ets, &iats);
            let back = st.interarrivals();
            prop_assert_eq!(back.len(), iats.len());
            for (a, b) in back.iter().zip(&iats) {
                prop_assert!((a - b).abs() < 1e-6, "a={a} b={b}");
            }
            // Timestamps are non-decreasing by construction.
            prop_assert!(st.events.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        }
    }
}
