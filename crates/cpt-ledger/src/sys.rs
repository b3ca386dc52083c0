//! What the ledger reads from the machine rather than from the crates:
//! `/proc` counters, a machine fingerprint, an allocation counter and the
//! scratch directory.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// /proc
// ---------------------------------------------------------------------------

/// Process-wide counters at one instant. Differences between two samples
/// give the `proc.*` per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub minor_faults: f64,
    pub vol_ctx_switches: f64,
    pub invol_ctx_switches: f64,
}

impl ProcSample {
    /// Reads the counters; zeros where procfs is unavailable.
    ///
    /// CPU time and faults come from `/proc/self/stat` (which includes
    /// threads that already exited). Context switches are per task, so
    /// they are summed over the tasks alive now: take both samples while
    /// the threads of interest exist.
    pub fn now() -> ProcSample {
        let mut s = ProcSample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // The command name (field 2) may contain spaces; fields are
            // counted from the closing parenthesis.
            let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
            let f: Vec<&str> = rest.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
            // After ")" comes field 3 (state), so field n is f[n - 3].
            // USER_HZ is 100 on every Linux the toolchain targets.
            s.minor_faults = num(10 - 3);
            s.cpu_user_s = num(14 - 3) / 100.0;
            s.cpu_sys_s = num(15 - 3) / 100.0;
        }
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
                    continue; // the task exited between readdir and read
                };
                s.vol_ctx_switches += status_field(&status, "voluntary_ctxt_switches:");
                s.invol_ctx_switches += status_field(&status, "nonvoluntary_ctxt_switches:");
            }
        }
        s
    }

    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_user_s: self.cpu_user_s - earlier.cpu_user_s,
            cpu_sys_s: self.cpu_sys_s - earlier.cpu_sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
            invol_ctx_switches: self.invol_ctx_switches - earlier.invol_ctx_switches,
        }
    }
}

fn status_field(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 without procfs.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .map(|s| status_field(&s, "VmHWM:") / 1024.0)
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Machine fingerprint
// ---------------------------------------------------------------------------

/// True when the linked `rayon` is the sequential offline stub: a pool
/// asked for two threads that reports another count is not the real crate.
pub fn offline_stubs() -> bool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .map_or(true, |pool| pool.current_num_threads() != 2)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// What a result has to carry for its numbers to be comparable: the same
/// code on another CPU, core count, SIMD level, compiler or dependency set
/// is another measurement.
pub fn fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let unknown = || "unknown".to_string();
    Json::obj([
        ("cpu_model", Json::Str(cpu_model)),
        ("nproc", Json::Num(nproc() as f64)),
        ("avx2", Json::Bool(avx2)),
        ("fma", Json::Bool(fma)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "rayon_threads",
            Json::Num(rayon::current_num_threads() as f64),
        ),
        ("offline_stubs", Json::Bool(offline_stubs())),
        (
            // "unknown" in a benchmark checkout, which is not a git
            // repository.
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Allocation counter
// ---------------------------------------------------------------------------

/// The ledger binary's global allocator: `System`, plus two counters that
/// advance only while [`count_allocs`] is on (the traced run), and only on
/// threads that have not opted out — so the harness's own client threads
/// do not pollute the program's allocation figures.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation: no lazy init and no destructor, so reading
    // it inside the allocator can never itself allocate.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics and a const-initialised
// thread-local `Cell<bool>`, neither of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; count it rather than panic in the allocator.
    if COUNTING.load(Ordering::Relaxed) && !EXCLUDED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off process-wide.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Stops counting allocations made by the calling thread (harness client
/// threads call this once).
pub fn exclude_thread_from_alloc_count() {
    EXCLUDED.with(|e| e.set(true));
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------
// Scratch directory
// ---------------------------------------------------------------------------

/// `temp_dir()/cpt-ledger-<pid>/`, removed when dropped — which every
/// exit path of `main` reaches, error or not, because `main` returns its
/// exit code instead of calling `process::exit` with the guard alive.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let dir = std::env::temp_dir().join(format!("cpt-ledger-{}", std::process::id()));
        // A stale directory from a recycled pid is somebody's leftover.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_move_forward() {
        let a = ProcSample::now();
        // Touch fresh pages so at least the fault counter moves.
        let v = vec![1u8; 8 << 20];
        std::hint::black_box(&v);
        let d = ProcSample::now().since(&a);
        if cfg!(target_os = "linux") {
            assert!(d.minor_faults > 0.0, "{d:?}");
            assert!(d.cpu_user_s >= 0.0 && d.cpu_sys_s >= 0.0);
            assert!(peak_rss_mib() > 1.0);
        }
    }

    #[test]
    fn fingerprint_names_the_machine() {
        let f = fingerprint();
        for key in [
            "cpu_model",
            "nproc",
            "avx2",
            "fma",
            "rustc",
            "rayon_threads",
            "offline_stubs",
            "git_commit",
        ] {
            assert!(f.get(key).is_some(), "{key} missing from {f:?}");
        }
        assert!(f.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        // Scratch::create is keyed by pid, so build a sibling by hand to
        // stay clear of other tests that hold the real one.
        let dir = std::env::temp_dir().join(format!("cpt-ledger-{}-t", std::process::id()));
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        std::fs::write(dir.join("nested/file"), b"x").unwrap();
        drop(Scratch(dir.clone()));
        assert!(!dir.exists());
    }
}
