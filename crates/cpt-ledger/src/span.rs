//! The harness's own tracer: spans around each call into a crate.
//!
//! Spans are recorded only while a traced run is active; otherwise
//! [`enter`] costs one relaxed load. Each thread appends finished spans to
//! a thread-local vector and hands them to a shared sink in blocks, so
//! nothing is written out (or locked per span) while a workload runs.
//! Spans *inside* `cpt-serve` and friends are a later change; these sit on
//! the ledger's side of every public call.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `parent == 0` marks a root; `op` ties the spans of
/// one operation together (epoch, chunk, repetition or session index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub thread: u32,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Finished spans are moved to the sink in blocks of this many, which
/// bounds the cost of growing the thread-local vector.
const BLOCK: usize = 1 << 16;

struct Local {
    thread: u32,
    done: Vec<Span>,
    /// Ids of the spans currently open on this thread, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        done: Vec::new(),
        open: Vec::new(),
    });
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn sink() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // Only plain pushes happen under this lock, so a poisoned sink is
    // still a valid vector.
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Open span handle; the span ends when it is dropped.
pub struct Guard(Option<Span>);

/// Opens a span named `name` for operation `op` under the innermost span
/// open on this thread. A no-op unless a traced run is active.
pub fn enter(name: &'static str, op: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, thread) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        (parent, l.thread)
    });
    Guard(Some(Span {
        id,
        parent,
        thread,
        name,
        op,
        start_ns: now_ns(),
        end_ns: 0,
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.0.take() else {
            return;
        };
        span.end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.open.pop();
            l.done.push(span);
            if l.done.len() >= BLOCK {
                sink().append(&mut l.done);
            }
        });
    }
}

/// Hands this thread's finished spans to the sink. Every thread that
/// opened spans calls this before it exits.
pub fn flush_thread() {
    LOCAL.with(|l| sink().append(&mut l.borrow_mut().done));
}

/// Starts a traced run: discards anything recorded earlier and enables
/// recording on every thread.
pub fn start() {
    flush_thread();
    sink().clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording without ending the run: what follows is not part of
/// the workload being traced.
pub fn pause() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Ends the traced run and returns every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    flush_thread();
    std::mem::take(&mut *sink())
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of each span's interval that its child
    /// spans cover (overlapping children are counted once).
    pub self_ns: u64,
}

/// Self time per span name. A child is clipped to its parent's interval;
/// a span whose parent was not recorded counts as a root.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let max_id = spans.iter().map(|s| s.id).max().unwrap_or(0) as usize;
    // Span ids are a dense counter, so a flat table beats a hash map here
    // (a serve run records millions of spans).
    let mut by_id = vec![u32::MAX; max_id + 1];
    for (i, s) in spans.iter().enumerate() {
        by_id[s.id as usize] = i as u32;
    }
    let parent_of = |s: &Span| match by_id.get(s.parent as usize) {
        Some(&i) if s.parent != 0 && i != u32::MAX => Some(i as usize),
        _ => None,
    };
    let mut children: Vec<usize> = (0..spans.len())
        .filter(|&i| parent_of(&spans[i]).is_some())
        .collect();
    children.sort_unstable_by_key(|&i| (spans[i].parent, spans[i].start_ns));

    let mut covered = vec![0u64; spans.len()];
    let mut at = 0;
    while at < children.len() {
        let parent = parent_of(&spans[children[at]]).expect("filtered to spans with a parent");
        let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
        // Union of the children's intervals, swept in start order.
        let mut reach = lo;
        while at < children.len() && spans[children[at]].parent == spans[parent].id {
            let c = &spans[children[at]];
            let (start, end) = (c.start_ns.clamp(lo, hi).max(reach), c.end_ns.clamp(lo, hi));
            if end > start {
                covered[parent] += end - start;
                reach = end;
            }
            at += 1;
        }
    }

    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let stat = out.entry(s.name).or_default();
        let total = s.end_ns.saturating_sub(s.start_ns);
        stat.count += 1;
        stat.total_ns += total;
        stat.self_ns += total.saturating_sub(covered);
    }
    out
}

/// Writes one JSON object per line for every span of an operation whose
/// `op` is a multiple of `keep_every` (a serve run records millions of
/// spans; the file keeps whole operations, never a partial one).
pub fn write_jsonl(path: &Path, spans: &[Span], keep_every: u64) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for s in spans.iter().filter(|s| s.op % keep_every.max(1) == 0) {
        line.clear();
        Json::obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("thread", Json::Num(s.thread as f64)),
            ("name", Json::str(s.name)),
            ("op", Json::Num(s.op as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ])
        .write(&mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

/// The tracer is process-global, so tests that turn it on take this lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            thread: 1,
            name,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "mid", 10, 60),
            span(3, 2, "leaf", 20, 30),
            span(4, 1, "mid", 70, 90),
        ];
        let t = self_times(&spans);
        // root: 100 - (50 + 20); the leaf is the mid span's business.
        assert_eq!(
            t["root"],
            NameStat {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["mid"],
            NameStat {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            t["leaf"],
            NameStat {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        let all: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(all, 100, "self times partition the root interval");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        let spans = [
            span(1, 0, "root", 100, 200),
            // Two children overlapping on [130, 150].
            span(2, 1, "a", 110, 150),
            span(3, 1, "b", 130, 170),
            // Contained in an earlier child: adds nothing.
            span(4, 1, "c", 135, 140),
            // Hangs over the parent's end: clipped to [190, 200].
            span(5, 1, "d", 190, 260),
            // Parent never recorded: a root of its own.
            span(6, 99, "orphan", 0, 7),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - (60 + 10));
        assert_eq!(t["d"].self_ns, 70, "a child's own self time is not clipped");
        assert_eq!(t["orphan"].self_ns, 7);
    }

    #[test]
    fn guards_nest_and_jsonl_keeps_whole_operations() {
        let _tracer = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        start();
        {
            let _outer = enter("test.outer", 4);
            let _inner = enter("test.inner", 4);
        }
        drop(enter("test.other", 5));
        let spans = finish();
        assert!(
            enter("test.off", 0).0.is_none(),
            "disabled tracer records nothing"
        );
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let path =
            std::env::temp_dir().join(format!("cpt-ledger-span-{}.jsonl", std::process::id()));
        let mine: Vec<Span> = spans
            .iter()
            .filter(|s| s.name.starts_with("test."))
            .copied()
            .collect();
        write_jsonl(&path, &mine, 4).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 2, "op 5 is not a multiple of 4");
        for line in text.lines() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("op").unwrap().as_f64(), Some(4.0));
        }
    }
}
