//! Table 8 (loss-weight sensitivity + no-distribution-head ablation) and
//! the two extra ablations called out in DESIGN.md (log scaling,
//! NetShare batch-generation size).

use crate::output::Output;
use crate::pipeline::{test_trace, train_trace, BASE_SEED};
use crate::suite::SuiteError;
use crate::Scale;
use cpt_gpt::{train, CptGpt, GenerateConfig, ScaleKind, Tokenizer};
use cpt_metrics::report::pct;
use cpt_metrics::{FidelityReport, Table};
use cpt_netshare::NetShare;
use cpt_statemachine::StateMachine;
use cpt_trace::DeviceType;

struct Variant {
    name: &'static str,
    weights: (f32, f32, f32),
    point_head: bool,
    scale_kind: ScaleKind,
}

fn eval_variant(scale: &Scale, v: &Variant) -> Result<FidelityReport, SuiteError> {
    let machine = StateMachine::lte();
    let train_data = train_trace(scale, DeviceType::Phone, 0);
    let test_data = test_trace(scale, DeviceType::Phone, 0);
    let tokenizer = Tokenizer::fit_with(&train_data, v.scale_kind);
    let mut cfg =
        scale
            .gpt
            .with_seed(BASE_SEED)
            .with_loss_weights(v.weights.0, v.weights.1, v.weights.2);
    if v.point_head {
        cfg = cfg.with_point_iat_head();
    }
    let mut model = CptGpt::new(cfg, tokenizer);
    train(&mut model, &train_data, &scale.gpt_train)?;
    let synth = model.generate(
        &GenerateConfig::new(scale.gen_streams, BASE_SEED + 40).device(DeviceType::Phone),
    )?;
    Ok(FidelityReport::compute(&machine, &test_data, &synth))
}

fn fidelity_rows(t: &mut Table, name: &str, r: &FidelityReport) {
    t.row(&[
        name.into(),
        pct(r.event_violation_rate, 3),
        pct(r.stream_violation_rate, 1),
        pct(r.sojourn_connected, 1),
        pct(r.sojourn_idle, 1),
        pct(r.flow_length_all, 1),
        pct(r.max_breakdown_diff, 1),
    ]);
}

const FIDELITY_HEADERS: [&str; 7] = [
    "variant",
    "event viol.",
    "stream viol.",
    "sojourn CONN",
    "sojourn IDLE",
    "flow length",
    "max breakdown diff",
];

/// Table 8: varying per-field loss weights, and disabling the
/// distribution-parameter interarrival head.
pub fn run_table8(scale: &Scale, out: &Output) -> Result<(), SuiteError> {
    out.note("== Table 8: loss-weight sensitivity and no-distribution-head ablation ==");
    let variants = [
        Variant {
            name: "Ours (1:1:1)",
            weights: (1.0, 1.0, 1.0),
            point_head: false,
            scale_kind: ScaleKind::Log,
        },
        Variant {
            name: "weights 3:1:1",
            weights: (3.0, 1.0, 1.0),
            point_head: false,
            scale_kind: ScaleKind::Log,
        },
        Variant {
            name: "weights 1:3:1",
            weights: (1.0, 3.0, 1.0),
            point_head: false,
            scale_kind: ScaleKind::Log,
        },
        Variant {
            name: "weights 1:1:3",
            weights: (1.0, 1.0, 3.0),
            point_head: false,
            scale_kind: ScaleKind::Log,
        },
        Variant {
            name: "No dist. pred.",
            weights: (1.0, 1.0, 1.0),
            point_head: true,
            scale_kind: ScaleKind::Log,
        },
    ];
    let mut t = Table::new(
        "Table 8: CPT-GPT fidelity under loss-weight variations and without distribution prediction",
        &FIDELITY_HEADERS,
    );
    for v in &variants {
        let r = eval_variant(scale, v)?;
        fidelity_rows(&mut t, v.name, &r);
    }
    out.table("table8", &t.render());
    Ok(())
}

/// Extra ablation: log vs linear interarrival scaling (the Appendix B /
/// footnote 3 design rationale).
pub fn run_ablation_logscale(scale: &Scale, out: &Output) -> Result<(), SuiteError> {
    out.note("== Ablation: log vs linear interarrival scaling ==");
    let variants = [
        Variant {
            name: "log scaling (paper)",
            weights: (1.0, 1.0, 1.0),
            point_head: false,
            scale_kind: ScaleKind::Log,
        },
        Variant {
            name: "linear scaling",
            weights: (1.0, 1.0, 1.0),
            point_head: false,
            scale_kind: ScaleKind::Linear,
        },
    ];
    let mut t = Table::new(
        "Ablation: interarrival scaling (CPT-GPT, phones)",
        &FIDELITY_HEADERS,
    );
    for v in &variants {
        let r = eval_variant(scale, v)?;
        fidelity_rows(&mut t, v.name, &r);
    }
    out.table("ablation_logscale", &t.render());
    Ok(())
}

/// Extra ablation: NetShare batch-generation size (the L4 trade-off —
/// larger batches mean fewer LSTM steps but lose intra-batch
/// dependencies).
pub fn run_ablation_batchgen(scale: &Scale, out: &Output) -> Result<(), SuiteError> {
    out.note("== Ablation: NetShare batch-generation size ==");
    let machine = StateMachine::lte();
    let train_data = train_trace(scale, DeviceType::Phone, 0);
    let test_data = test_trace(scale, DeviceType::Phone, 0);
    let mut t = Table::new(
        "Ablation: NetShare batch generation (samples per LSTM step)",
        &FIDELITY_HEADERS,
    );
    for bg in [1usize, 5, 10] {
        let mut cfg = scale.ns;
        cfg.batch_gen = bg;
        cfg.seed = BASE_SEED + bg as u64;
        let mut model = NetShare::new(cfg);
        model.train(&train_data)?;
        let synth = model.generate(scale.gen_streams, DeviceType::Phone, BASE_SEED + 41)?;
        let r = FidelityReport::compute(&machine, &test_data, &synth);
        let name = format!("batch_gen = {bg}");
        t.row(&[
            name,
            pct(r.event_violation_rate, 3),
            pct(r.stream_violation_rate, 1),
            pct(r.sojourn_connected, 1),
            pct(r.sojourn_idle, 1),
            pct(r.flow_length_all, 1),
            pct(r.max_breakdown_diff, 1),
        ]);
    }
    out.table("ablation_batchgen", &t.render());
    Ok(())
}
