//! Tables 4, 9 and 10: adapting to data drift across hours of the day.
//!
//! Methodology (§5.5): for each training run, checkpoints are snapshotted
//! every N epochs, scored on the fidelity metrics against a validation
//! trace, and the checkpoint-selection heuristic decides when the model
//! had converged; "training time" is the wall-clock time up to that
//! checkpoint. The two regimes compared are (a) one model trained on the
//! concatenated multi-hour trace, and (b) an hour-0 model transferred
//! recursively to each subsequent hour.

use crate::output::Output;
use crate::pipeline::{
    cache_meta, cached_gpt, cached_netshare, concat_hours, cptgpt_time_to_converge,
    netshare_time_to_converge, read_cache, test_trace, train_trace, write_cache, BASE_SEED,
};
use crate::suite::SuiteError;
use crate::Scale;
use cpt_gpt::{CptGpt, GenerateConfig};
use cpt_metrics::report::{minutes, pct};
use cpt_metrics::{FidelityReport, Table};
use cpt_netshare::NetShare;
use cpt_nn::serialize::push_store;
use cpt_statemachine::StateMachine;
use cpt_trace::json::{JsonError, ToJson, Value};
use cpt_trace::{Cmb, Dataset, DeviceType};
use std::path::Path;

/// The timing measurements shared by Tables 4 and 9, plus the hour-3
/// models needed by Table 10.
#[derive(Debug, Clone)]
pub struct TransferRuns {
    /// Seconds to train the single multi-hour model.
    pub scratch_multi: (f64, f64), // (netshare, cptgpt)
    /// Seconds to train the hour-0 model from scratch.
    pub first_hour: (f64, f64),
    /// Seconds per subsequent hour via transfer (averaged).
    pub per_hour_ft: (f64, f64),
    /// Total for the hourly-ensemble regime: first hour + (hours-1) fine-
    /// tunes.
    pub total_ft: (f64, f64),
    /// Hour-3 models trained from scratch (NetShare, CPT-GPT).
    pub hour3_scratch: (NetShare, CptGpt),
    /// Hour-3 models reached through the transfer chain.
    pub hour3_transfer: (NetShare, CptGpt),
    /// Hour-3 test trace.
    pub hour3_test: Dataset,
}

/// Format version of the transfer-runs cache file. Version 3 is the
/// `.cmb` file holding the wall times and the four hour-3 models; the
/// hour-3 test trace is a function of the scale and is regenerated.
const TRANSFER_CACHE_FORMAT_VERSION: u32 = 3;

/// The wall times a cache file stores, by field name.
const TIMES: [&str; 4] = ["scratch_multi", "first_hour", "per_hour_ft", "total_ft"];

/// The hour-3 models a cache file stores, by key: `(NetShare, CPT-GPT)`.
const HOUR3: [(&str, &str); 2] = [
    ("hour3_scratch_ns", "hour3_scratch_gpt"),
    ("hour3_transfer_ns", "hour3_transfer_gpt"),
];

/// Loads cached transfer runs from `path`, or `None` when the file is
/// missing, damaged, from a different scale/format, or contains a model
/// whose weights fail validation. Corrupt caches degrade to a recompute,
/// never an error.
pub fn load_cached_runs(path: &Path, scale: &Scale) -> Option<TransferRuns> {
    let cmb = read_cache(path, "transfer", TRANSFER_CACHE_FORMAT_VERSION, scale)?;
    let load = || -> Result<TransferRuns, String> {
        let time = |key| cmb.meta.field(key).map_err(|e: JsonError| e.to_string());
        let pair = |(ns, gpt): (&str, &str)| -> Result<(NetShare, CptGpt), String> {
            Ok((cached_netshare(&cmb, ns)?, cached_gpt(&cmb, gpt, path)?))
        };
        Ok(TransferRuns {
            scratch_multi: time(TIMES[0])?,
            first_hour: time(TIMES[1])?,
            per_hour_ft: time(TIMES[2])?,
            total_ft: time(TIMES[3])?,
            hour3_scratch: pair(HOUR3[0])?,
            hour3_transfer: pair(HOUR3[1])?,
            hour3_test: test_trace(scale, DeviceType::Phone, 3),
        })
    };
    match load() {
        Ok(runs) => Some(runs),
        Err(e) => {
            eprintln!(
                "warning: transfer cache {} is unusable ({e}); recomputing",
                path.display()
            );
            None
        }
    }
}

/// Best-effort persistence of the transfer runs (cache write failures
/// only warn: the in-memory result is already correct).
pub fn persist_runs(path: &Path, scale: &Scale, runs: &TransferRuns) {
    let times = [
        runs.scratch_multi,
        runs.first_hour,
        runs.per_hour_ft,
        runs.total_ft,
    ];
    let models = [&runs.hour3_scratch, &runs.hour3_transfer];
    let mut meta = cache_meta(
        "transfer",
        TRANSFER_CACHE_FORMAT_VERSION,
        scale,
        TIMES.into_iter().zip(times.iter().map(ToJson::to_json)),
    );
    for ((ns_key, gpt_key), (ns, gpt)) in HOUR3.into_iter().zip(models) {
        meta.push((ns_key, ns.cmb_meta()));
        meta.push((gpt_key, gpt.cmb_meta()));
    }
    let mut cmb = Cmb::new(Value::obj(meta));
    for ((ns_key, gpt_key), (ns, gpt)) in HOUR3.into_iter().zip(models) {
        push_store(&mut cmb, &format!("{ns_key}/"), &ns.store);
        push_store(&mut cmb, &format!("{gpt_key}/"), &gpt.store);
    }
    write_cache(path, &cmb);
}

/// Runs the full transfer-learning timing protocol once (used by Tables
/// 4, 9 and 10).
pub fn run_transfer_protocol(scale: &Scale, out: &Output) -> Result<TransferRuns, SuiteError> {
    if scale.hours < 4 {
        return Err(SuiteError::Config {
            what: format!(
                "the transfer protocol needs scale.hours >= 4 (Table 10 evaluates hour 3), got {}",
                scale.hours
            ),
        });
    }
    let device = DeviceType::Phone;
    let hours: Vec<Dataset> = (0..scale.hours)
        .map(|h| train_trace(scale, device, h))
        .collect();
    let validations: Vec<Dataset> = (0..scale.hours)
        .map(|h| test_trace(scale, device, h))
        .collect();
    let multi = concat_hours(&hours);
    let multi_val = concat_hours(&validations);
    let seed = |offset: u64| BASE_SEED + offset;

    out.note("  [training multi-hour models from scratch]");
    let (_, ns_multi) = netshare_time_to_converge(scale, &multi, &multi_val, None, seed(70))?;
    let (_, gpt_multi) = cptgpt_time_to_converge(scale, &multi, &multi_val, None, seed(70))?;

    out.note("  [training hour-0 models from scratch]");
    let (mut ns_cur, ns_first) =
        netshare_time_to_converge(scale, &hours[0], &validations[0], None, seed(71))?;
    let (mut gpt_cur, gpt_first) =
        cptgpt_time_to_converge(scale, &hours[0], &validations[0], None, seed(71))?;

    let mut ns_scratch3 = None;
    let mut gpt_scratch3 = None;
    let mut ns_ft_secs = Vec::new();
    let mut gpt_ft_secs = Vec::new();
    let mut ns_ft3 = None;
    let mut gpt_ft3 = None;
    for h in 1..scale.hours {
        out.note(&format!("  [transferring to hour {h}]"));
        let (ns_next, ns_t) = netshare_time_to_converge(
            scale,
            &hours[h],
            &validations[h],
            Some(&ns_cur),
            seed(72 + h as u64),
        )?;
        let (gpt_next, gpt_t) = cptgpt_time_to_converge(
            scale,
            &hours[h],
            &validations[h],
            Some(&gpt_cur),
            seed(72 + h as u64),
        )?;
        ns_ft_secs.push(ns_t.seconds);
        gpt_ft_secs.push(gpt_t.seconds);
        ns_cur = ns_next;
        gpt_cur = gpt_next;
        if h == 3 {
            ns_ft3 = Some(ns_cur.clone());
            gpt_ft3 = Some(gpt_cur.clone());
            out.note("  [training hour-3 models from scratch for Table 10]");
            let (ns3, _) =
                netshare_time_to_converge(scale, &hours[3], &validations[3], None, seed(80))?;
            let (gpt3, _) =
                cptgpt_time_to_converge(scale, &hours[3], &validations[3], None, seed(80))?;
            ns_scratch3 = Some(ns3);
            gpt_scratch3 = Some(gpt3);
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let total_ns = ns_first.seconds + ns_ft_secs.iter().sum::<f64>();
    let total_gpt = gpt_first.seconds + gpt_ft_secs.iter().sum::<f64>();
    // The hours >= 4 precondition above guarantees the hour-3 models and
    // trace exist; a miss here is a logic error surfaced as Config, not a
    // panic.
    let missing = || SuiteError::Config {
        what: "transfer protocol finished without hour-3 artifacts".to_string(),
    };
    Ok(TransferRuns {
        scratch_multi: (ns_multi.seconds, gpt_multi.seconds),
        first_hour: (ns_first.seconds, gpt_first.seconds),
        per_hour_ft: (avg(&ns_ft_secs), avg(&gpt_ft_secs)),
        total_ft: (total_ns, total_gpt),
        hour3_scratch: (
            ns_scratch3.ok_or_else(missing)?,
            gpt_scratch3.ok_or_else(missing)?,
        ),
        hour3_transfer: (ns_ft3.ok_or_else(missing)?, gpt_ft3.ok_or_else(missing)?),
        hour3_test: validations.into_iter().nth(3).ok_or_else(missing)?,
    })
}

/// Table 4: NetShare's training time, scratch vs transfer.
pub fn run_table4(out: &Output, runs: &TransferRuns, hours: usize) {
    out.note("== Table 4: NetShare training time, from scratch vs transfer learning ==");
    let mut t = Table::new(
        "Table 4: NetShare training time (checkpoint-selection methodology)",
        &["setup", "time"],
    );
    t.row(&[
        format!("{hours}-hour model from scratch"),
        minutes(runs.scratch_multi.0),
    ]);
    t.row(&[
        "1-hour model from scratch".into(),
        minutes(runs.first_hour.0),
    ]);
    t.row(&[
        "1-hour model from finetuning from another hour".into(),
        minutes(runs.per_hour_ft.0),
    ]);
    t.row(&[
        format!("{hours} 1-hour models total from transfer learning"),
        minutes(runs.total_ft.0),
    ]);
    out.table("table4", &t.render());
}

/// Table 9: NetShare vs CPT-GPT training time with and without transfer.
pub fn run_table9(out: &Output, runs: &TransferRuns, hours: usize) {
    out.note("== Table 9: training time w/ and w/o transfer learning ==");
    let mut t = Table::new(
        "Table 9: training time (checkpoint-selection methodology)",
        &["setup", "NetShare", "CPT-GPT"],
    );
    t.row(&[
        format!("No transfer learning ({hours}-hour model)"),
        minutes(runs.scratch_multi.0),
        minutes(runs.scratch_multi.1),
    ]);
    t.row(&[
        "Transfer: first hour".into(),
        minutes(runs.first_hour.0),
        minutes(runs.first_hour.1),
    ]);
    t.row(&[
        "Transfer: finetune to each subsequent hour (avg)".into(),
        minutes(runs.per_hour_ft.0),
        minutes(runs.per_hour_ft.1),
    ]);
    t.row(&[
        "Transfer: total".into(),
        minutes(runs.total_ft.0),
        minutes(runs.total_ft.1),
    ]);
    let speedup = runs.total_ft.0 / runs.total_ft.1.max(1e-9);
    t.row(&[
        "Hourly-ensemble speedup (NetShare time / CPT-GPT time)".into(),
        String::new(),
        format!("{speedup:.2}x"),
    ]);
    out.table("table9", &t.render());
}

/// Table 10: fidelity of the 4th-hour trace with and without transfer
/// learning.
pub fn run_table10(scale: &Scale, out: &Output, runs: &TransferRuns) -> Result<(), SuiteError> {
    out.note("== Table 10: fidelity w/ and w/o transfer learning (hour 3) ==");
    let machine = StateMachine::lte();
    let eval_ns = |m: &NetShare, seed: u64| -> Result<FidelityReport, SuiteError> {
        let synth = m.generate(scale.gen_streams, DeviceType::Phone, seed)?;
        Ok(FidelityReport::compute(&machine, &runs.hour3_test, &synth))
    };
    let eval_gpt = |m: &CptGpt, seed: u64| -> Result<FidelityReport, SuiteError> {
        let synth =
            m.generate(&GenerateConfig::new(scale.gen_streams, seed).device(DeviceType::Phone))?;
        Ok(FidelityReport::compute(&machine, &runs.hour3_test, &synth))
    };
    let reports = [
        (
            "w/o xfer",
            eval_ns(&runs.hour3_scratch.0, BASE_SEED + 90)?,
            eval_gpt(&runs.hour3_scratch.1, BASE_SEED + 90)?,
        ),
        (
            "w/ xfer",
            eval_ns(&runs.hour3_transfer.0, BASE_SEED + 91)?,
            eval_gpt(&runs.hour3_transfer.1, BASE_SEED + 91)?,
        ),
    ];
    let mut t = Table::new(
        "Table 10: hour-3 fidelity with and without transfer learning",
        &[
            "metric",
            "NetShare w/o",
            "CPT-GPT w/o",
            "NetShare w/",
            "CPT-GPT w/",
        ],
    );
    type MetricFn = Box<dyn Fn(&FidelityReport) -> f64>;
    let metric_rows: [(&str, MetricFn); 5] = [
        ("Event violations", Box::new(|r| r.event_violation_rate)),
        ("Stream violations", Box::new(|r| r.stream_violation_rate)),
        ("Sojourn CONNECTED", Box::new(|r| r.sojourn_connected)),
        ("Sojourn IDLE", Box::new(|r| r.sojourn_idle)),
        ("Flow length", Box::new(|r| r.flow_length_all)),
    ];
    for (name, f) in metric_rows {
        t.row(&[
            name.into(),
            pct(f(&reports[0].1), 2),
            pct(f(&reports[0].2), 2),
            pct(f(&reports[1].1), 2),
            pct(f(&reports[1].2), 2),
        ]);
    }
    out.table("table10", &t.render());
    Ok(())
}
