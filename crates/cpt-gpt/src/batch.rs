//! Mini-batch construction: next-token prediction targets, each stream's
//! positions packed one after another.

use crate::token::Tokenizer;
use cpt_nn::Tensor;
use cpt_trace::Stream;

/// One training batch for next-token prediction, packed: no padding.
///
/// For a stream of `L + 1` tokens (after truncation to `max_len + 1`) the
/// model input is tokens `0..L` and the targets at position `t` are the
/// three fields of token `t + 1`. The batch's `R = Σ L` rows are the
/// streams' positions one stream after another, in stream order; `lens`
/// holds each stream's `L`, so the model attends within a stream and reads
/// position `t`'s embedding for its row. Every row is a real position.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Model input, shape `[R, token_dim]`.
    pub inputs: Tensor,
    /// Event-type class targets, length `R`.
    pub event_targets: Vec<usize>,
    /// Scaled interarrival targets, length `R`.
    pub iat_targets: Vec<f32>,
    /// Stop-flag class targets (0 = continue, 1 = stop), length `R`.
    pub stop_targets: Vec<usize>,
    /// Positions of each stream, in stream order; they sum to `R`.
    pub lens: Vec<usize>,
}

impl Batch {
    /// Number of target positions, `R`: every row is one.
    pub fn real_positions(&self) -> usize {
        self.event_targets.len()
    }
}

/// Builds one batch from a slice of streams (each with `len >= 2`), of
/// which only the first `max_len + 1` events count: the model sees
/// `max_len` transitions, as in the paper.
pub fn build_batch(tokenizer: &Tokenizer, streams: &[&Stream], max_len: usize) -> Batch {
    assert!(!streams.is_empty(), "empty batch");
    let d = tokenizer.token_dim();
    let truncated: Vec<Stream> = streams.iter().map(|s| s.truncated(max_len + 1)).collect();
    let lens: Vec<usize> = truncated
        .iter()
        .map(|s| s.len().saturating_sub(1))
        .collect();
    let rows: usize = lens.iter().sum();
    assert!(rows > 0, "all streams too short to form targets");

    let mut inputs = Tensor::zeros(&[rows, d]);
    let mut event_targets = Vec::with_capacity(rows);
    let mut iat_targets = Vec::with_capacity(rows);
    let mut stop_targets = Vec::with_capacity(rows);

    for (stream, &l) in truncated.iter().zip(&lens) {
        let toks = tokenizer.encode_stream(stream);
        debug_assert!(
            l >= 1,
            "stream of length {} cannot form targets",
            stream.len()
        );
        let row = event_targets.len();
        inputs.data[row * d..(row + l) * d].copy_from_slice(&toks[..l * d]);
        for next in toks.chunks_exact(d).skip(1) {
            // Event target: index of the one-hot.
            event_targets.push(
                next[..tokenizer.num_events()]
                    .iter()
                    .position(|x| *x == 1.0)
                    .expect("one-hot event"),
            );
            iat_targets.push(next[tokenizer.iat_slot()]);
            stop_targets.push(usize::from(next[tokenizer.stop_slot() + 1] == 1.0));
        }
    }
    Batch {
        inputs,
        event_targets,
        iat_targets,
        stop_targets,
        lens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{Dataset, DeviceType, Event, EventType, UeId};

    fn stream(id: u64, times: &[f64]) -> Stream {
        Stream::new(
            UeId(id),
            DeviceType::Phone,
            times
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let et = if i % 2 == 0 {
                        EventType::ServiceRequest
                    } else {
                        EventType::ConnectionRelease
                    };
                    Event::new(et, *t)
                })
                .collect(),
        )
    }

    fn dataset() -> Dataset {
        Dataset::new(vec![
            stream(0, &[0.0, 5.0, 30.0]),
            stream(1, &[0.0, 2.0]),
            stream(2, &[1.0]), // too short: excluded
            stream(3, &[0.0, 1.0, 2.0, 3.0, 4.0]),
        ])
    }

    #[test]
    fn batch_packs_real_positions_only() {
        let d = dataset();
        let tok = Tokenizer::fit(&d);
        let streams: Vec<&Stream> = vec![&d.streams[0], &d.streams[1], &d.streams[3]];
        let b = build_batch(&tok, &streams, 100);
        // Stream 0 yields 2 targets, stream 1 one, stream 3 four: R = 7
        // rows, no row for the padding a rectangle of 3 × 4 would hold.
        assert_eq!(b.lens, vec![2, 1, 4]);
        assert_eq!(b.real_positions(), 7);
        assert_eq!(b.inputs.shape, vec![7, 9]);
        assert_eq!(b.event_targets.len(), 7);
        assert_eq!(b.iat_targets.len(), 7);
        assert_eq!(b.stop_targets.len(), 7);
        // Each stream's rows are its tokens 0..L, one stream after another,
        // and each ends on its stop target.
        let mut row = 0;
        for (s, &l) in streams.iter().zip(&b.lens) {
            let toks = tok.encode_stream(s);
            assert_eq!(b.inputs.data[row * 9..(row + l) * 9], toks[..l * 9]);
            assert_eq!(b.stop_targets[row + l - 1], 1);
            assert!(b.stop_targets[row..row + l - 1].iter().all(|&x| x == 0));
            row += l;
        }
        // No row is padding: every input row is a token (one event one-hot).
        for r in b.inputs.data.chunks_exact(9) {
            assert_eq!(
                r[..tok.num_events()].iter().filter(|x| **x == 1.0).count(),
                1
            );
        }
    }

    #[test]
    fn targets_are_next_token_fields() {
        let d = dataset();
        let tok = Tokenizer::fit(&d);
        let streams: Vec<&Stream> = vec![&d.streams[0]];
        let b = build_batch(&tok, &streams, 100);
        // Stream 0: SRV@0, REL@5, SRV@30. Targets: (REL, iat 5, stop 0),
        // (SRV, iat 25, stop 1).
        assert_eq!(b.event_targets[0], EventType::ConnectionRelease.index());
        assert_eq!(b.event_targets[1], EventType::ServiceRequest.index());
        assert_eq!(b.stop_targets, vec![0, 1]);
        assert!((tok.unscale_iat(b.iat_targets[0]) - 5.0).abs() < 0.1);
        assert!((tok.unscale_iat(b.iat_targets[1]) - 25.0).abs() < 0.3);
    }

    #[test]
    fn max_len_truncates() {
        let d = dataset();
        let tok = Tokenizer::fit(&d);
        let streams: Vec<&Stream> = vec![&d.streams[3]]; // 5 events
        let b = build_batch(&tok, &streams, 2);
        assert_eq!(b.lens, vec![2]);
        assert_eq!(b.real_positions(), 2);
        assert_eq!(b.inputs.shape, vec![2, 9]);
    }
}
