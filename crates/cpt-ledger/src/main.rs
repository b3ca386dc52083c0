//! cpt-ledger: the repo's benchmark.
//!
//! Four workloads drive the crates strictly through their public APIs and
//! report what a user of the system sees (`run`), the same workloads again
//! under the harness's tracer plus outside-in timings of every layer
//! (`layers`), and verdicts over two result sets (`compare`). See
//! `README.md` beside this crate for the tables and the reasoning.

mod compare;
mod json;
mod micro;
mod offline;
mod serve;
mod span;
mod stats;
mod sys;
mod tracescale;
mod workload;

use json::Json;
use std::path::{Path, PathBuf};
use workload::{Outcome, Params, Res, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "\
usage: cpt-ledger run     [--workload <name>|all] [--seed N] [--seconds S] [--scale F] [--out DIR] [--trace 0|1]
       cpt-ledger layers  [same flags]            (run --trace 1)
       cpt-ledger compare <dirA> <dirB>
       cpt-ledger compare --self [run flags]      (run --workload all twice, then compare)
       cpt-ledger manifest                        (print BENCHMARK.json)
workloads: offline_pipeline trace_scale serve_steady serve_churn";

/// The measured phase's default length, and `run_seconds` in the manifest.
const RUN_SECONDS: u32 = 20;

struct Args {
    workloads: Vec<&'static str>,
    params: Params,
    out: Option<PathBuf>,
    self_compare: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String], trace: bool) -> Res<Args> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().map(|(n, _)| *n).collect(),
        params: Params {
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            scale: 1.0,
            trace,
        },
        out: None,
        self_compare: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{arg}: {v:?} is not a number"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                if v != "all" {
                    // Unknown names are refused here, before any work.
                    let known = WORKLOADS.iter().find(|(n, _)| n == v);
                    parsed.workloads =
                        vec![known.ok_or_else(|| format!("unknown workload {v:?}"))?.0];
                }
            }
            "--seed" => {
                let v = value()?;
                parsed.params.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v:?} is not an integer"))?;
            }
            "--seconds" => parsed.params.seconds = number(value()?)?,
            "--scale" => parsed.params.scale = number(value()?)?,
            "--trace" => parsed.params.trace = number(value()?)? != 0.0,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--self" => parsed.self_compare = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    let p = &parsed.params;
    if !(p.seconds > 0.0 && p.seconds <= 3600.0 && p.scale > 0.0 && p.scale <= 64.0) {
        return Err("--seconds must be in (0, 3600] and --scale in (0, 64]".into());
    }
    Ok(parsed)
}

fn run_workload(name: &str, p: &Params, scratch: &Path) -> Res<Outcome> {
    let dir = scratch.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // VmHWM is a process-wide high-water mark; resetting it keeps an
    // earlier workload's peak out of this one's reading. What earlier
    // workloads still hold (cpt-nn's scratch arena keeps a training run's
    // buffers) stays resident, so only a one-workload process — what the
    // benchmark contract runs — reads the workload's own footprint.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let outcome = match name {
        "offline_pipeline" => offline::run(p, &dir),
        "trace_scale" => tracescale::run(p, &dir),
        "serve_steady" => serve::run(serve::Kind::Steady, p),
        "serve_churn" => serve::run(serve::Kind::Churn, p),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = outcome?;
    outcome.put("peak_rss_mib", sys::peak_rss_mib(), "MiB");
    let per_core = outcome.get("primary_rate").unwrap_or(0.0) / sys::nproc() as f64;
    outcome.put("proc.primary_rate_per_core", per_core, "1/s");
    Ok(outcome)
}

/// The traced re-run of a workload and its span summary.
fn traced(
    name: &str,
    p: &Params,
    untraced: &Outcome,
    scratch: &Path,
    out_dir: Option<&Path>,
) -> Res<Outcome> {
    span::start();
    sys::count_allocs(true);
    let result = run_workload(name, &Params { trace: true, ..*p }, scratch);
    sys::count_allocs(false);
    let spans = span::finish();
    let mut outcome = result?;

    let by_name = span::self_times(&spans);
    for (span_name, stat) in &by_name {
        outcome.put(
            format!("span.{span_name}.count"),
            stat.count as f64,
            "count",
        );
        outcome.put(
            format!("span.{span_name}.self_ms"),
            stat.self_ns as f64 / 1e6,
            "ms",
        );
    }
    // Thread-time under the per-thread root spans that no named child
    // span accounts for.
    let roots = by_name.iter().filter(|(n, _)| n.ends_with(".thread"));
    let (own, total) = roots.fold((0, 0), |(o, t), (_, s)| (o + s.self_ns, t + s.total_ns));
    outcome.put(
        "span_unattributed_pct",
        100.0 * own as f64 / total.max(1) as f64,
        "%",
    );
    let (plain, with_spans) = (untraced.get("primary_rate"), outcome.get("primary_rate"));
    if let (Some(plain), Some(with_spans)) = (plain, with_spans) {
        outcome.put(
            "trace_overhead_pct",
            100.0 * (plain - with_spans) / plain,
            "%",
        );
    }
    if let Some(dir) = out_dir {
        // Serve runs record millions of client spans; the file keeps one
        // session in 64 whole. The summary above counted all of them.
        let keep_every = if name.starts_with("serve_") { 64 } else { 1 };
        let path = dir.join(format!("trace-{name}.jsonl"));
        span::write_jsonl(&path, &spans, keep_every)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

fn result_json(kind: &str, name: &str, p: &Params, o: &Outcome, fingerprint: &Json) -> Json {
    let metrics = o.metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        fields.extend(m.notes.iter().map(|(k, v)| (*k, Json::Num(*v))));
        (m.name.clone(), Json::obj(fields))
    });
    Json::obj([
        ("ledger", Json::Num(1.0)),
        ("kind", Json::str(kind)),
        ("workload", Json::str(name)),
        ("seed", Json::Num(p.seed as f64)),
        ("seconds", Json::Num(p.seconds)),
        ("scale", Json::Num(p.scale)),
        ("fingerprint", fingerprint.clone()),
        ("correct", Json::Bool(true)),
        ("ops_attempted", Json::Num(o.ops_attempted as f64)),
        ("ops_failed", Json::Num(o.ops_failed as f64)),
        ("metrics", Json::Obj(metrics.collect())),
        (
            "quality",
            Json::Obj(
                o.quality
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::str(v)))
                    .collect(),
            ),
        ),
    ])
}

/// The line the benchmark contract reads: every end-to-end metric of an
/// untraced run, or every per-layer metric of a traced one (0 where the
/// workload does not exercise the layer).
fn contract_line(o: &Outcome, traced: bool) -> String {
    let table: &[workload::MetricDef] = if traced { PER_LAYER } else { &END_TO_END };
    let metrics = table.iter().map(|def| {
        let value = o.get(def.name).filter(|v| v.is_finite()).unwrap_or(0.0);
        (
            def.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(o.ops_attempted.max(1) as f64)),
        ("failed", Json::Num(o.ops_failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

/// Where the next result of `kind` for this workload and seed goes: runs
/// accumulate in a directory instead of overwriting each other.
fn result_path(dir: &Path, kind: &str, name: &str, seed: u64) -> PathBuf {
    (0..)
        .map(|k| dir.join(format!("{kind}-{name}-s{seed}-{k}.json")))
        .find(|p| !p.exists())
        .expect("some index is free")
}

fn run_command(args: &Args, scratch: &Path) -> Res<()> {
    let p = &args.params;
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let fingerprint = sys::fingerprint();
    eprintln!("machine: {}", fingerprint.to_line());
    // The layer suite does not depend on the workload: it runs once per
    // invocation, after the first workload so that one's untraced run
    // still starts in a fresh process.
    let mut suite = None;
    for &name in &args.workloads {
        eprintln!(
            "{name}: seed {} · {} s × scale {}",
            p.seed, p.seconds, p.scale
        );
        let untraced = run_workload(name, &Params { trace: false, ..*p }, scratch)
            .map_err(|e| format!("{name}: {e}"))?;
        let (kind, outcome) = if p.trace {
            let mut o = traced(name, p, &untraced, scratch, args.out.as_deref())
                .map_err(|e| format!("{name} (traced): {e}"))?;
            let layers: &Outcome = match &suite {
                Some(done) => done,
                None => {
                    suite.insert(micro::run(p, scratch).map_err(|e| format!("layer suite: {e}"))?)
                }
            };
            o.absorb(layers.clone());
            ("layers", o)
        } else {
            ("run", untraced)
        };
        for m in &outcome.metrics {
            println!("{name} {} {} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &outcome.quality {
            println!("{name} quality.{k} {v}");
        }
        println!(
            "{name} ops_attempted {} ops_failed {}",
            outcome.ops_attempted, outcome.ops_failed
        );
        if let Some(dir) = &args.out {
            let path = result_path(dir, kind, name, p.seed);
            let text = result_json(kind, name, p, &outcome, &fingerprint).to_pretty();
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!("{}", contract_line(&outcome, p.trace));
    }
    Ok(())
}

fn compare_command(args: &Args, scratch: &Path) -> Res<bool> {
    if !args.self_compare {
        let [a, b] = args.positional.as_slice() else {
            return Err("compare needs <dirA> <dirB>, or --self".into());
        };
        return compare::compare(Path::new(a), Path::new(b));
    }
    let dirs = [scratch.join("self-a"), scratch.join("self-b")];
    for dir in &dirs {
        let once = Args {
            workloads: args.workloads.clone(),
            params: Params {
                trace: false,
                ..args.params
            },
            out: Some(dir.clone()),
            self_compare: false,
            positional: Vec::new(),
        };
        run_command(&once, scratch)?;
    }
    compare::compare(&dirs[0], &dirs[1])
}

/// Everything `main` does, with the scratch directory alive for exactly
/// this long, so it is removed on every path out.
fn real_main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let args = match parse_args(rest, command == "layers") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpt-ledger: {e}\n{USAGE}");
            return 2;
        }
    };
    if command == "manifest" {
        print!("{}", workload::manifest(RUN_SECONDS).to_pretty());
        return 0;
    }
    let scratch = match sys::Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cpt-ledger: {e}");
            return 1;
        }
    };
    let outcome = match command.as_str() {
        "run" | "layers" => run_command(&args, scratch.path()).map(|()| true),
        "compare" => compare_command(&args, scratch.path()),
        other => {
            eprintln!("cpt-ledger: unknown command {other:?}\n{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 3,
        Err(e) => {
            eprintln!("cpt-ledger: {e}");
            1
        }
    }
}

fn main() {
    std::process::exit(real_main());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Res<Args> {
        parse_args(
            &list.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            false,
        )
    }

    #[test]
    fn unknown_workloads_and_flags_are_refused_before_any_work() {
        assert!(args(&["--workload", "serve_stedy"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--seed"]).is_err(), "a flag without its value");
        assert!(args(&["--seconds", "0"]).is_err());
        let a = args(&["--workload", "trace_scale", "--seed", "9", "--trace", "1"]).unwrap();
        assert_eq!(a.workloads, ["trace_scale"]);
        assert_eq!(a.params.seed, 9);
        assert!(a.params.trace);
        assert_eq!(args(&["--workload", "all"]).unwrap().workloads.len(), 4);
    }

    /// Drives all four workloads end to end — set-up, measured phase and
    /// every correctness check — at a fiftieth of the size, then the
    /// traced path on the cheapest one.
    #[test]
    fn smoke_all_workloads_at_small_scale() {
        let scratch = sys::Scratch::create().unwrap();
        let p = Params {
            seed: 3,
            seconds: 15.0,
            scale: 0.02,
            trace: false,
        };
        let mut plain = None;
        for (name, _) in WORKLOADS {
            let o =
                run_workload(name, &p, scratch.path()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(o.ops_failed, 0, "{name}");
            assert!(o.ops_attempted >= workload::MIN_REPS as u64, "{name}");
            for def in &END_TO_END {
                let v = o
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{name} lacks {}", def.name));
                assert!(v.is_finite() && v > 0.0, "{name} {} = {v}", def.name);
            }
            let line = json::parse(&contract_line(&o, false)).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(
                line.get("metrics").unwrap().as_obj().len(),
                END_TO_END.len()
            );
            if name == "trace_scale" {
                plain = Some(o);
            }
        }

        let _tracer = span::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plain = plain.expect("trace_scale ran");
        let o = traced(
            "trace_scale",
            &p,
            &plain,
            scratch.path(),
            Some(scratch.path()),
        )
        .unwrap();
        let text = std::fs::read_to_string(scratch.path().join("trace-trace_scale.jsonl")).unwrap();
        assert!(text.lines().count() > 7 && text.lines().all(|l| json::parse(l).is_ok()));
        assert!(o.get("span.trace.copy.decode.self_ms").unwrap() > 0.0);
        assert!(o.get("span_unattributed_pct").unwrap() < 50.0);
        assert!(o.get("trace_overhead_pct").is_some());
        let line = json::parse(&contract_line(&o, true)).unwrap();
        assert_eq!(line.get("metrics").unwrap().as_obj().len(), PER_LAYER.len());
    }

    /// The layer suite fills in every per-layer line that is not specific
    /// to one workload's traced run.
    #[test]
    fn layer_suite_reports_every_crate() {
        let dir = std::env::temp_dir().join(format!("cpt-ledger-{}-micro", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = Params {
            seed: 3,
            seconds: 15.0,
            scale: 0.02,
            trace: true,
        };
        let o = micro::run(&p, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let o = o.unwrap();
        for prefix in ["nn.", "trace.", "synth.", "statemachine.", "metrics."] {
            for def in PER_LAYER.iter().filter(|d| d.name.starts_with(prefix)) {
                let v = o
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{} missing", def.name));
                assert!(v.is_finite() && v > 0.0, "{} = {v}", def.name);
            }
        }
        let own = |n: &str| {
            [
                "gpt.first_epoch_s",
                "gpt.generate_stage_wall_s",
                "gpt.train_stage_wall_s",
            ]
            .contains(&n)
                || n.starts_with("serve.engine_")
                || n == "serve.socket_rtt_us"
                || n.starts_with("serve.openloop_")
        };
        let from_stats = PER_LAYER
            .iter()
            .position(|d| d.name == "serve.batch_p50")
            .unwrap();
        for (i, def) in PER_LAYER.iter().enumerate() {
            let by_suite = (def.name.starts_with("gpt.") || def.name.starts_with("serve."))
                && !own(def.name)
                && !(from_stats..from_stats + 13).contains(&i);
            if by_suite {
                assert!(
                    o.get(def.name).is_some_and(|v| v > 0.0),
                    "{} missing",
                    def.name
                );
            }
        }
    }
}
