//! Table 11 (n-gram memorization) and Figure 7 (interarrival-time
//! distribution, Appendix B).

use crate::output::Output;
use crate::pipeline::{GeneratorKind, SuiteCache};
use crate::suite::SuiteError;
use crate::Scale;
use cpt_metrics::report::pct;
use cpt_metrics::{ngram_repeat_fraction, Table};
use cpt_trace::stats::{log_scale, Histogram};
use cpt_trace::DeviceType;

/// Table 11: fraction of generated n-grams repeated from the training
/// set, for n ∈ {5, 10, 20} and ε ∈ {10 %, 20 %}.
pub fn run_table11(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Table 11: n-gram memorization (phones) ==");
    let suite = cache.get(scale, DeviceType::Phone)?;
    let generated = &suite.synth[&GeneratorKind::CptGpt];
    let training = &suite.real_train;
    let mut t = Table::new(
        "Table 11: percentage of generated n-grams repeating from the training set",
        &["n", "eps=10%", "eps=20%"],
    );
    for n in [5usize, 10, 20] {
        t.row(&[
            format!("n={n}"),
            pct(ngram_repeat_fraction(generated, training, n, 0.10), 3),
            pct(ngram_repeat_fraction(generated, training, n, 0.20), 3),
        ]);
    }
    out.table("table11", &t.render());
    Ok(())
}

/// Figure 7: interarrival-time histogram for phones, raw seconds and
/// log-scaled (`ln(t+1)`), demonstrating the tokenizer's log-scaling
/// rationale.
pub fn run_fig7(scale: &Scale, out: &Output, cache: &mut SuiteCache) -> Result<(), SuiteError> {
    out.note("== Figure 7: interarrival-time distribution (phones) ==");
    let suite = cache.get(scale, DeviceType::Phone)?;
    let iats = suite.real_train.interarrivals();
    let max = iats.iter().cloned().fold(0.0f64, f64::max).max(1.0);

    let mut raw = Histogram::new(0.0, max, 50);
    raw.extend(iats.iter().copied());
    let mut logh = Histogram::new(0.0, log_scale(max), 50);
    logh.extend(iats.iter().map(|x| log_scale(*x)));

    let mut rows = Vec::new();
    for (x, f) in raw.normalized() {
        rows.push(vec![
            "raw_seconds".to_string(),
            format!("{x:.3}"),
            format!("{f:.6}"),
        ]);
    }
    for (x, f) in logh.normalized() {
        rows.push(vec![
            "log_scaled".to_string(),
            format!("{x:.3}"),
            format!("{f:.6}"),
        ]);
    }
    out.csv(
        "fig7_interarrival_hist",
        &["series", "bin_center", "fraction"],
        &rows,
    );

    // Print the long-tail evidence: mass concentration in raw space vs
    // spread in log space.
    let below_frac = |h: &Histogram, frac: f64| {
        let bins = h.normalized();
        let cut = (bins.len() as f64 * frac) as usize;
        bins.iter().take(cut).map(|(_, f)| f).sum::<f64>()
    };
    let mut t = Table::new(
        "Figure 7 summary: fraction of interarrivals in the lowest 10% of the range",
        &["scaling", "mass in lowest 10% of bins"],
    );
    t.row(&["raw seconds".into(), pct(below_frac(&raw, 0.1), 1)]);
    t.row(&["ln(t+1)".into(), pct(below_frac(&logh, 0.1), 1)]);
    out.table("fig7", &t.render());
    Ok(())
}
