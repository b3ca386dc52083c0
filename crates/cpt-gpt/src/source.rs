//! Training-data sources: what the epoch engine reads, in RAM or out of
//! core, with bit-identical results.
//!
//! **The training-set rule** (§4.5/§5.1): a stream trains iff it has at
//! least two events, and only its first `max_len + 1` count. A
//! [`ShardSource`] says which of its streams train and hands any of them
//! over; the epoch plan — one shuffle of those ids per epoch, cut into
//! optimizer steps, each cut into micro-batch shards — is written once, in
//! [`ShardSource::epoch_steps`], over those two answers. Two sources exist:
//! a [`Dataset`] (every stream resident, borrowed) and a [`ColumnarSource`]
//! over a `.ctb` file (one optimizer step's streams resident, decoded on
//! demand). Which one a trace file becomes is decided in
//! [`with_training_set`], the single home of that choice.
//!
//! The equivalence argument: both sources list the same trainable streams
//! in file order, so shuffling the id lists with the same RNG yields the
//! same permutation; [`build_batch`] reads only each stream's first
//! `max_len + 1` events, so a borrowed whole stream and a decoded prefix
//! give equal batches; the trainer consumes them in the same order, so the
//! weights are bit-identical (`tests/streaming_train.rs`).

use crate::batch::{build_batch, Batch};
use crate::token::{ScaleKind, Tokenizer, TokenizerFit};
use cpt_trace::columnar::{ColumnarReader, CtbError, StreamView};
use cpt_trace::io::IoError;
use cpt_trace::{AnyTrace, Dataset, EventType, Generation, Stream};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::borrow::Cow;

/// A set of streams the epoch engine can train on.
pub trait ShardSource {
    /// The generation of the underlying trace.
    fn generation(&self) -> Generation;

    /// Distribution of the initial event type (used to bootstrap
    /// generation).
    fn initial_event_distribution(&self) -> Vec<(EventType, f64)>;

    /// Ids of the trainable streams (at least two events), in file order.
    fn trainable_ids(&self) -> Vec<u32>;

    /// Stream `id`, holding at least its first `max_len + 1` events.
    fn stream(&self, id: u32, max_len: usize) -> Cow<'_, Stream>;

    /// Number of trainable streams.
    fn num_trainable(&self) -> usize {
        self.trainable_ids().len()
    }

    /// Lazily yields one `Vec<Batch>` per optimizer step (the step's
    /// micro-batch shards, in stream order) for one pass over the
    /// trainable streams in the order `rng` shuffles them into. Only the
    /// current step's streams are materialized.
    ///
    /// The layout is a pure function of the shuffle and `(batch_size,
    /// microbatch)` — never of how many threads later execute the shards —
    /// which is what makes data-parallel training bit-identical across
    /// thread counts.
    fn epoch_steps<'a>(
        &'a self,
        tokenizer: &'a Tokenizer,
        batch_size: usize,
        microbatch: usize,
        max_len: usize,
        mut rng: StdRng,
    ) -> Box<dyn Iterator<Item = Vec<Batch>> + 'a> {
        assert!(batch_size > 0 && microbatch > 0, "zero batch/microbatch");
        let mut order = self.trainable_ids();
        order.shuffle(&mut rng);
        let steps = order.len().div_ceil(batch_size);
        Box::new((0..steps).map(move |si| {
            let step = &order[si * batch_size..((si + 1) * batch_size).min(order.len())];
            let streams: Vec<Cow<'_, Stream>> =
                step.iter().map(|&id| self.stream(id, max_len)).collect();
            streams
                .chunks(microbatch)
                .map(|shard| {
                    let refs: Vec<&Stream> = shard.iter().map(|s| s.as_ref()).collect();
                    build_batch(tokenizer, &refs, max_len)
                })
                .collect()
        }))
    }
}

/// The in-RAM source. It trains on whatever it is given — callers that
/// want the file semantics clamp first, as [`with_training_set`] does — and
/// reports [`Dataset::initial_event_distribution`] over all its streams.
impl ShardSource for Dataset {
    fn generation(&self) -> Generation {
        self.generation
    }

    fn initial_event_distribution(&self) -> Vec<(EventType, f64)> {
        Dataset::initial_event_distribution(self)
    }

    fn trainable_ids(&self) -> Vec<u32> {
        (0u32..)
            .zip(&self.streams)
            .filter(|(_, s)| s.len() >= 2)
            .map(|(id, _)| id)
            .collect()
    }

    fn stream(&self, id: u32, _max_len: usize) -> Cow<'_, Stream> {
        Cow::Borrowed(&self.streams[id as usize])
    }
}

/// The out-of-core source: streams are decoded from a `.ctb` columnar
/// trace as the epoch plan asks for them.
///
/// Construction verifies every block checksum once up front, so the
/// training loop can decode infallibly afterwards (the mapping is
/// immutable: `.ctb` files are published by atomic rename and never
/// rewritten in place).
pub struct ColumnarSource<'r> {
    reader: &'r ColumnarReader,
    /// Ids of the trainable streams, in file order.
    trainable: Vec<u32>,
}

/// The trainable streams of `reader` with their ids, in file order.
fn trainable_views(reader: &ColumnarReader) -> impl Iterator<Item = (u32, StreamView<'_>)> {
    (0u32..).zip(reader.streams()).filter(|(_, v)| v.len() >= 2)
}

impl<'r> ColumnarSource<'r> {
    /// Builds a source over `reader`, verifying all block checksums.
    pub fn new(reader: &'r ColumnarReader) -> Result<Self, CtbError> {
        reader.verify()?;
        if reader.num_streams() > u32::MAX as usize {
            return Err(CtbError::TooLarge("stream count"));
        }
        let trainable = trainable_views(reader).map(|(id, _)| id).collect();
        Ok(ColumnarSource { reader, trainable })
    }
}

impl ShardSource for ColumnarSource<'_> {
    fn generation(&self) -> Generation {
        self.reader.generation()
    }

    fn initial_event_distribution(&self) -> Vec<(EventType, f64)> {
        // First event type per trainable stream, straight off the type
        // column — equals Dataset::initial_event_distribution on the
        // clamped dataset (clamping keeps exactly the len >= 2 streams and
        // never touches the first event).
        let mut counts = [0usize; EventType::ALL.len()];
        let mut total = 0usize;
        for (_, view) in trainable_views(self.reader) {
            counts[view.type_bytes()[0] as usize] += 1;
            total += 1;
        }
        self.generation()
            .event_types()
            .iter()
            .map(|e| (*e, counts[e.index()] as f64 / total.max(1) as f64))
            .collect()
    }

    fn trainable_ids(&self) -> Vec<u32> {
        self.trainable.clone()
    }

    fn stream(&self, id: u32, max_len: usize) -> Cow<'_, Stream> {
        let view = self
            .reader
            .stream(id as usize)
            .expect("id from trainable_ids");
        Cow::Owned(
            view.prefix(max_len + 1)
                .to_stream()
                .expect("ctb verified at source construction"),
        )
    }
}

/// Fits a tokenizer from a `.ctb` trace in one streaming pass, equivalent
/// (bit for bit) to `Tokenizer::fit_with` on the clamped dataset: only
/// trainable streams contribute, each truncated to `max_len + 1` events,
/// and truncating a stream truncates its interarrival sequence.
pub fn fit_tokenizer_streaming(
    reader: &ColumnarReader,
    max_len: usize,
    scale: ScaleKind,
) -> Tokenizer {
    let mut fit = TokenizerFit::new(scale);
    for (_, view) in trainable_views(reader) {
        for iat in view.prefix(max_len + 1).interarrivals() {
            fit.observe(iat);
        }
    }
    fit.finish(reader.generation())
}

/// A trace file opened for training: see [`with_training_set`].
pub struct TrainingSet<'a> {
    /// What the trainer reads.
    pub source: &'a (dyn ShardSource + Sync),
    /// The line `cptgen train` prints before a fresh run.
    pub banner: String,
    /// What a resumed run says it resumed on.
    pub resumed_on: String,
    fit: &'a dyn Fn() -> Tokenizer,
}

impl TrainingSet<'_> {
    /// Fits a tokenizer (default scaling) on exactly the events that train.
    pub fn fit_tokenizer(&self) -> Tokenizer {
        (self.fit)()
    }
}

/// Opens `trace` (the file called `name`) as the training set of a model
/// with the given `max_len` and runs `body` on it. A JSONL trace is loaded
/// and clamped to the training-set rule; a `.ctb` stays on disk, its
/// tokenizer fit streams over it and training decodes one optimizer step's
/// streams at a time. Either way `body` sees the same trainable streams,
/// so what it trains is bit-identical.
pub fn with_training_set<T>(
    trace: AnyTrace,
    name: &str,
    max_len: usize,
    body: impl FnOnce(&TrainingSet<'_>) -> T,
) -> Result<T, IoError> {
    match trace {
        AnyTrace::Jsonl(r) => {
            let data = r.into_dataset()?.clamp_lengths(2, max_len + 1);
            let summary = data.summary().to_string();
            Ok(body(&TrainingSet {
                source: &data,
                banner: format!("training on {summary}"),
                resumed_on: summary,
                fit: &|| Tokenizer::fit(&data),
            }))
        }
        AnyTrace::Ctb(reader) => {
            let source = ColumnarSource::new(&reader)?;
            let size = format!(
                "{name} ({} streams, {} events",
                reader.num_streams(),
                reader.num_events()
            );
            Ok(body(&TrainingSet {
                source: &source,
                banner: format!("training out-of-core on {size}, {})", reader.mapping()),
                resumed_on: format!("{size}, out-of-core)"),
                fit: &|| fit_tokenizer_streaming(&reader, max_len, ScaleKind::default()),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{write_trace, DeviceType, Event, UeId};
    use rand::SeedableRng;

    fn stream(id: u64, len: usize) -> Stream {
        let events = (0..len).map(|i| {
            let et = if i % 2 == 0 {
                EventType::ServiceRequest
            } else {
                EventType::ConnectionRelease
            };
            Event::new(et, (id + 1) as f64 * i as f64)
        });
        Stream::new(UeId(id), DeviceType::Phone, events.collect())
    }

    /// Three trainable streams and a singleton.
    fn dataset() -> Dataset {
        Dataset::new(vec![stream(0, 3), stream(1, 2), stream(2, 1), stream(3, 5)])
    }

    fn steps(d: &Dataset, batch_size: usize, microbatch: usize, seed: u64) -> Vec<Vec<Batch>> {
        let tok = Tokenizer::fit(d);
        d.epoch_steps(
            &tok,
            batch_size,
            microbatch,
            100,
            StdRng::seed_from_u64(seed),
        )
        .collect()
    }

    #[test]
    fn epoch_covers_each_trainable_stream_once() {
        let d = dataset();
        assert_eq!(d.trainable_ids(), vec![0, 1, 3]);
        assert_eq!(d.num_trainable(), 3);
        // One-stream shards make each row identifiable by its length.
        let mut rows: Vec<usize> = steps(&d, 2, 1, 0)
            .iter()
            .flatten()
            .map(|shard| {
                assert_eq!(shard.batch, 1);
                shard.real_positions() + 1
            })
            .collect();
        rows.sort_unstable();
        assert_eq!(
            rows,
            vec![2, 3, 5],
            "the singleton is excluded, nothing repeats"
        );
    }

    #[test]
    fn step_and_shard_counts_follow_batch_size_and_microbatch() {
        let d = dataset();
        let shape = |batch_size, microbatch| -> Vec<Vec<usize>> {
            steps(&d, batch_size, microbatch, 0)
                .iter()
                .map(|step| step.iter().map(|shard| shard.batch).collect())
                .collect()
        };
        assert_eq!(shape(2, 1), vec![vec![1, 1], vec![1]]);
        assert_eq!(shape(2, 2), vec![vec![2], vec![1]]);
        assert_eq!(shape(3, 2), vec![vec![2, 1]]);
        assert_eq!(shape(8, 8), vec![vec![3]]);
    }

    #[test]
    fn shards_are_the_step_cut_in_stream_order() {
        // The same shuffle at two microbatch sizes: concatenating a step's
        // shards row by row gives the same streams in the same order.
        let d = dataset();
        let lens = |microbatch| -> Vec<usize> {
            steps(&d, 3, microbatch, 42)[0]
                .iter()
                .flat_map(|shard| {
                    (0..shard.batch).map(|row| {
                        let mask = &shard.mask[row * shard.seq..(row + 1) * shard.seq];
                        mask.iter().filter(|m| **m != 0.0).count()
                    })
                })
                .collect()
        };
        assert_eq!(lens(1), lens(3));
    }

    #[test]
    fn same_seed_gives_the_same_batches() {
        let d = dataset();
        assert_eq!(steps(&d, 2, 1, 7), steps(&d, 2, 1, 7));
        assert!((0..8).any(|seed| steps(&d, 2, 1, seed) != steps(&d, 2, 1, 7)));
    }

    /// An empty, a singleton and an over-long stream among trainable ones.
    fn edge_trace() -> Dataset {
        Dataset::new(vec![
            stream(0, 0),
            stream(1, 1),
            stream(2, 40),
            stream(3, 2),
            stream(4, 9),
        ])
    }

    #[test]
    fn ctb_training_set_is_the_clamped_dataset() {
        let data = edge_trace();
        let path =
            std::env::temp_dir().join(format!("cpt-training-set-{}.ctb", std::process::id()));
        write_trace(&data, &path).expect("write ctb");
        let clamped = data.clamp_lengths(2, 8 + 1);
        let trace = AnyTrace::open(&path).expect("open");
        let checked = with_training_set(trace, "edge", 8, |set| {
            assert_eq!(set.source.trainable_ids(), vec![2, 3, 4]);
            assert_eq!(set.source.num_trainable(), clamped.num_trainable());
            assert_eq!(
                set.source.initial_event_distribution(),
                Dataset::initial_event_distribution(&clamped)
            );
            assert_eq!(set.fit_tokenizer(), Tokenizer::fit(&clamped));
            assert!(set
                .banner
                .starts_with("training out-of-core on edge (5 streams, 52 events, "));
            assert_eq!(set.resumed_on, "edge (5 streams, 52 events, out-of-core)");
        });
        checked.expect("training set");
        std::fs::remove_file(&path).ok();
    }
}
