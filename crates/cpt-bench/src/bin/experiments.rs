//! Experiment driver: regenerates every table and figure of the paper
//! under the stage supervisor (see `cpt_bench::suite`).
//!
//! ```text
//! experiments --out DIR [options] <command> [command...]
//!
//! commands:
//!   table3 table4 table5 table6 table7 table8 table9 table10 table11
//!   fig2 fig5 fig6 fig7
//!   ablation-logscale ablation-batchgen downstream
//!   all          every table/figure plus both extra ablations
//!
//! options:
//!   --out DIR                 results directory (required)
//!   --scale quick|full|tiny   run sizes (default quick)
//!   --resume                  skip stages manifest.json records completed
//!   --keep-going              run later stages after a failure (exit 8)
//!   --inject-fail STAGE       fail STAGE instead of running it (drills)
//!
//! exit codes:
//!   0  every requested stage completed
//!   1  no stage completed (or a supervisor-level IO failure)
//!   2  usage error (a missing --out among them) — rejected before any
//!      stage runs or any directory is created
//!   8  partial success: some stages completed, some failed
//! ```
//!
//! Results are printed and mirrored into the output directory; the run is
//! recorded stage-by-stage in `<out>/manifest.json` and summarized in
//! `<out>/run_report.txt`. There is no default directory, so a run never
//! writes over the committed `results/` unless it names it. Trained
//! models are cached under `<out>/cache/` and reused by `--resume`. A
//! failed stage is not retried: running it again is another invocation,
//! usually with `--resume`.

use cpt_bench::suite::{self, SuiteConfig, SuiteError};
use cpt_bench::Scale;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments --out DIR [--scale quick|full|tiny] [--resume] [--keep-going]\n\
         \u{20}                  [--inject-fail STAGE] <command...>\n\
         commands: table3 table4 table5 table6 table7 table8 table9 table10 table11\n\
         \u{20}         fig2 fig5 fig6 fig7 downstream ablation-logscale ablation-batchgen all\n\
         exit codes: 0 all completed; 1 nothing completed; 2 usage; 8 partial success"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut cfg = SuiteConfig::new(Scale::quick(), "");
    let mut out_dir = None;
    let mut commands: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(name) = args.next() else {
                    return usage();
                };
                match Scale::by_name(&name) {
                    Some(s) => cfg.scale = s,
                    None => {
                        eprintln!("unknown scale {name:?} (use quick, full or tiny)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--out" => {
                let Some(dir) = args.next() else {
                    return usage();
                };
                out_dir = Some(dir);
            }
            "--resume" => cfg.resume = true,
            "--keep-going" => cfg.keep_going = true,
            "--inject-fail" => {
                let Some(stage) = args.next() else {
                    return usage();
                };
                cfg.inject_fail = Some(stage);
            }
            "--help" | "-h" => return usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}");
                return usage();
            }
            cmd => commands.push(cmd.to_string()),
        }
    }
    if commands.is_empty() {
        return usage();
    }
    let Some(out_dir) = out_dir else {
        eprintln!("missing --out DIR: name the results directory");
        return usage();
    };
    cfg.out_dir = out_dir.into();
    match suite::run_stages(&cfg, &commands) {
        Ok(report) => ExitCode::from(report.exit_code()),
        Err(SuiteError::Config { what }) => {
            eprintln!("error: {what}");
            usage()
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
