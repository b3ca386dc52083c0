//! Mini-batch construction: next-token prediction targets with padding
//! masks.

use crate::token::Tokenizer;
use cpt_nn::Tensor;
use cpt_trace::Stream;

/// One training batch for next-token prediction.
///
/// For a stream of `L` tokens the model input is tokens `0..L-1` and the
/// targets at position `t` are the three fields of token `t+1`. Rows are
/// padded to the longest sequence in the batch; `mask` is 0 on padding.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Model input, shape `[batch, seq, token_dim]`.
    pub inputs: Tensor,
    /// Event-type class targets, length `batch·seq`.
    pub event_targets: Vec<usize>,
    /// Scaled interarrival targets, length `batch·seq`.
    pub iat_targets: Vec<f32>,
    /// Stop-flag class targets (0 = continue, 1 = stop), length
    /// `batch·seq`.
    pub stop_targets: Vec<usize>,
    /// 1.0 on real positions, 0.0 on padding, length `batch·seq`.
    pub mask: Vec<f32>,
    /// Batch size.
    pub batch: usize,
    /// Padded sequence length.
    pub seq: usize,
}

impl Batch {
    /// Number of unpadded target positions.
    pub fn real_positions(&self) -> usize {
        self.mask.iter().filter(|m| **m != 0.0).count()
    }
}

/// Builds one batch from a slice of streams (each with `len >= 2`), of
/// which only the first `max_len + 1` events count: the model sees
/// `max_len` transitions, as in the paper.
pub fn build_batch(tokenizer: &Tokenizer, streams: &[&Stream], max_len: usize) -> Batch {
    assert!(!streams.is_empty(), "empty batch");
    let d = tokenizer.token_dim();
    let truncated: Vec<Stream> = streams.iter().map(|s| s.truncated(max_len + 1)).collect();
    let seq = truncated
        .iter()
        .map(|s| s.len().saturating_sub(1))
        .max()
        .expect("nonempty");
    assert!(seq > 0, "all streams too short to form targets");
    let b = streams.len();

    let mut inputs = Tensor::zeros(&[b, seq, d]);
    let mut event_targets = vec![0usize; b * seq];
    let mut iat_targets = vec![0f32; b * seq];
    let mut stop_targets = vec![0usize; b * seq];
    let mut mask = vec![0f32; b * seq];

    for (bi, stream) in truncated.iter().enumerate() {
        let toks = tokenizer.encode_stream(stream);
        let l = stream.len();
        debug_assert!(l >= 2, "stream of length {l} cannot form targets");
        for t in 0..(l - 1) {
            let src = &toks[t * d..(t + 1) * d];
            let dst = (bi * seq + t) * d;
            inputs.data[dst..dst + d].copy_from_slice(src);
            let next = &toks[(t + 1) * d..(t + 2) * d];
            let flat = bi * seq + t;
            // Event target: index of the one-hot.
            event_targets[flat] = next[..tokenizer.num_events()]
                .iter()
                .position(|x| *x == 1.0)
                .expect("one-hot event");
            iat_targets[flat] = next[tokenizer.iat_slot()];
            stop_targets[flat] = usize::from(next[tokenizer.stop_slot() + 1] == 1.0);
            mask[flat] = 1.0;
        }
    }
    Batch {
        inputs,
        event_targets,
        iat_targets,
        stop_targets,
        mask,
        batch: b,
        seq,
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
    fn batch_shapes_and_mask() {
        let d = dataset();
        let tok = Tokenizer::fit(&d);
        let streams: Vec<&Stream> = vec![&d.streams[0], &d.streams[1]];
        let b = build_batch(&tok, &streams, 100);
        assert_eq!(b.batch, 2);
        assert_eq!(b.seq, 2); // stream 0 yields 2 targets, stream 1 yields 1
        assert_eq!(b.inputs.shape, vec![2, 2, 9]);
        assert_eq!(b.mask, vec![1.0, 1.0, 1.0, 0.0]);
        assert_eq!(b.real_positions(), 3);
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
        assert_eq!(b.seq, 2);
        assert_eq!(b.real_positions(), 2);
    }
}
