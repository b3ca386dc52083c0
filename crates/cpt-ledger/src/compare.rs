//! `compare <dirA> <dirB>`: two result sets → one verdict per workload and
//! end-to-end metric, by the claim rule of the `choosing-metrics` guide.

use crate::json;
use crate::stats;
use crate::workload::{MetricDef, Res, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;

/// One `run-*.json` file.
struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
    quality: BTreeMap<String, String>,
    attempted: f64,
    failed: f64,
}

fn load_dir(dir: &Path) -> Res<Vec<Run>> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("run-") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("{}: no {k:?}", path.display()))
        };
        runs.push(Run {
            workload: field("workload")?.as_str().unwrap_or("").to_string(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            metrics: field("metrics")?
                .as_obj()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            quality: field("quality")?
                .as_obj()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
            attempted: field("ops_attempted")?.as_f64().unwrap_or(0.0),
            failed: field("ops_failed")?.as_f64().unwrap_or(0.0),
        });
    }
    if runs.is_empty() {
        return Err(format!("{}: no run-*.json result files", dir.display()));
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// The median got worse by more than the bound.
    Regressed,
    /// The runs spread wider than the bound and the two sets overlap, so
    /// "no change" cannot be told from a change of the bound's size.
    Unresolved,
}

/// The rule: with runs tighter than the bound, a median worse by more than
/// the bound is a regression. With runs spread wider than the bound, only
/// complete separation decides — every run of B better than every run of
/// A is fine, every run worse with the median past the bound is a
/// regression, and anything in between is unresolved.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let lower_better = def.better == "lower";
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse = if lower_better {
        med_b - med_a
    } else {
        med_a - med_b
    };
    let worse_by = worse / med_a.abs();
    let spread = stats::spread(a).abs().max(stats::spread(b).abs());
    if spread.is_nan() || spread <= def.bound {
        return if worse_by > def.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let (min_a, max_a) = min_max(a);
    let (min_b, max_b) = min_max(b);
    let (b_all_better, b_all_worse) = if lower_better {
        (max_b < min_a, min_b > max_a)
    } else {
        (min_b > max_a, max_b < min_a)
    };
    if b_all_better {
        Verdict::Ok
    } else if b_all_worse && worse_by > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Prints the comparison and returns whether set B is acceptable: no
/// regressed metric and no larger share of failed operations.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Res<bool> {
    let (a, b) = (load_dir(dir_a)?, load_dir(dir_b)?);
    let mut acceptable = true;
    println!("A = {}   B = {}", dir_a.display(), dir_b.display());
    for (workload, _) in WORKLOADS {
        let of = |runs: &[Run]| runs.iter().filter(|r| r.workload == workload).count();
        if of(&a) == 0 || of(&b) == 0 {
            continue;
        }
        println!("\n{workload}   ({} runs in A, {} in B)", of(&a), of(&b));
        println!(
            "  {:<16} {:>6} {:>36} {:>36} {:>10}  verdict",
            "metric", "unit", "A: median [q1, q3]", "B: median [q1, q3]", "B/A"
        );
        for def in &END_TO_END {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| r.metrics.get(def.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let show = |v: &[f64]| {
                let (q1, q2, q3) = stats::quartiles(v);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let v = verdict(def, &va, &vb);
            acceptable &= v != Verdict::Regressed;
            println!(
                "  {:<16} {:>6} {:>36} {:>36} {:>10.4}  {}",
                def.name,
                def.unit,
                show(&va),
                show(&vb),
                stats::median(&vb) / stats::median(&va),
                match v {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regressed => format!("regressed (bound {})", def.bound),
                    Verdict::Unresolved => format!("unresolved (spread > bound {})", def.bound),
                }
            );
        }

        let share = |runs: &[Run]| {
            let mine = runs.iter().filter(|r| r.workload == workload);
            let (failed, attempted) =
                mine.fold((0.0, 0.0), |(f, n), r| (f + r.failed, n + r.attempted));
            (failed, attempted, failed / f64::max(attempted, 1.0))
        };
        let ((fa, na, sa), (fb, nb, sb)) = (share(&a), share(&b));
        let more_failures = sb > sa;
        acceptable &= !more_failures;
        println!(
            "  ops failed/attempted   A: {fa}/{na}   B: {fb}/{nb}{}",
            if more_failures {
                "   LARGER FAILED SHARE"
            } else {
                ""
            }
        );

        // Fingerprints are compared where both sets ran the same seed.
        for ra in a.iter().filter(|r| r.workload == workload) {
            let Some(rb) = b
                .iter()
                .find(|r| r.workload == workload && r.seed == ra.seed)
            else {
                continue;
            };
            for (key, va) in &ra.quality {
                match rb.quality.get(key) {
                    Some(vb) if vb == va => println!("  seed {} {key}: identical ({va})", ra.seed),
                    Some(vb) => println!("  seed {} {key}: DIFFERS   A {va}   B {vb}", ra.seed),
                    None => println!("  seed {} {key}: missing from B", ra.seed),
                }
            }
        }
    }
    println!(
        "\n{}",
        if acceptable {
            "acceptable"
        } else {
            "NOT acceptable"
        }
    );
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: MetricDef = MetricDef {
        name: "primary_rate",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    };
    const TIME: MetricDef = MetricDef {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    };

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict(&RATE, &a, &[95.0, 96.0, 94.0, 95.5]), Verdict::Ok);
        assert_eq!(
            verdict(&RATE, &a, &[85.0, 86.0, 84.0, 85.5]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&RATE, &a, &[130.0, 131.0, 129.0, 130.5]),
            Verdict::Ok
        );
        // For a time, up is worse.
        assert_eq!(
            verdict(&TIME, &a, &[115.0, 116.0, 114.0, 115.5]),
            Verdict::Regressed
        );
        assert_eq!(verdict(&TIME, &a, &[80.0, 81.0, 79.0, 80.5]), Verdict::Ok);
        // A single run per side has no spread to speak of.
        assert_eq!(verdict(&RATE, &[100.0], &[80.0]), Verdict::Regressed);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = [70.0, 100.0, 130.0, 85.0, 115.0];
        assert_eq!(
            verdict(&RATE, &a, &[75.0, 105.0, 125.0, 90.0, 110.0]),
            Verdict::Unresolved
        );
        // Wide, but every run of B beats every run of A.
        assert_eq!(
            verdict(&RATE, &a, &[140.0, 170.0, 200.0, 155.0, 185.0]),
            Verdict::Ok
        );
        // Wide, and every run of B is below every run of A.
        assert_eq!(
            verdict(&RATE, &a, &[20.0, 40.0, 60.0, 30.0, 50.0]),
            Verdict::Regressed
        );
    }
}
