//! Source guard: the redundant decode paths stay deleted. There is one
//! gradient-free transformer step (`decode_step_multi`), one stream
//! generator (`SessionDecoder` under `BatchDecoder`) and one serve worker
//! loop; `batch_max = 1` is the sequential case and int8 is a weight
//! format, not a serving switch. A name from the list below reappearing in
//! production source means a second path came back.
//!
//! The same walk keeps libm's `tanh` out of the program: its precision is
//! unspecified and varies between libms. The decode core applies GELU
//! through `cpt_nn::gelu_rows` (a rational `tanh`), and the autodiff tape's
//! GELU and `tanh` run `tensor.rs`'s transcription of fdlibm's `tanhf`,
//! bit-identical to the glibc `tanhf` the training bits were recorded on.
//! Its f32 `exp` stays out of the model crates (`cpt-nn`, `cpt-gpt`) for
//! the same reason: every softmax and every f32 `exp` there runs
//! `tensor.rs`'s transcription of glibc's `expf`, and an f64 `exp` is
//! spelled `f64::exp(..)`, so `.exp()` is banned outright.
//! Test modules may still call libm to compare against it, so the walk
//! skips `#[cfg(test)]` modules. The GELU formulas (`gelu_f_arg`,
//! `gelu_df…`) live beside their row kernels in `tensor.rs` and nowhere
//! else.
//!
//! And it keeps ISA dispatch in one place: CPU-feature detection, feature-
//! gated functions and intrinsics live in `cpt-nn`'s `tensor.rs`, behind its
//! one `KernelLevel`, and the single-accumulator-chain tail kernel
//! (`micro1_*`) stays deleted. The one other `std::arch` item allowed is
//! `std::arch::asm` in `cpt-trace`'s `mmap.rs`, which issues the
//! `mmap`/`munmap` syscalls; every other needle applies to that file too.
//!
//! And the trace data plane stays single: one epoch plan
//! (`ShardSource::epoch_steps`), one train entry per behaviour, and no
//! whole-file reader of one format: `read_dataset`, the JSONL-only one, is
//! deleted and must not come back in the walked crates (`cpt-trace`, where
//! it lived, among them) — a trace is opened through `AnyTrace`, so `.ctb`
//! works wherever JSONL does.
//!
//! And the wire has one client: only `cpt_serve::client::Client` writes
//! the preamble a client opens a connection with, so `loadgen`, `ctl` and
//! anything after them connect through it rather than through a copy.
//! (The benchmark ledger, which is not walked, keeps a connection of its
//! own.)
//!
//! And the server trains nothing: fine-tuning is an offline `cptgen train
//! --from BASE.cmb` run whose output `cptgen ctl --publish` serves, so the
//! serve-side trainer's names stay out of `cpt-serve` and the CLI. (The
//! benchmark suite's Table 9 row names the same offline step "finetune",
//! so this ban is scoped to those two trees.)

use std::path::{Path, PathBuf};

const BANNED: [&str; 13] = [
    "read_dataset(",
    "DatasetSource",
    "make_epoch_",
    "train_source_with_checkpoints",
    "resume_training_source",
    "micro1_",
    "decode_step_into",
    "apply_decode_step",
    "generate_batch",
    "worker_loop_sequential",
    "with_quant",
    "batch_decode:",
    "no-batch-decode",
];

/// `src` without its `#[cfg(test)]` modules: each runs from a
/// `#[cfg(test)]` line followed by a `mod … {` line through the `}` line
/// at the module's indentation.
fn production_source(src: &str) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < lines.len() {
        let module = lines.get(i + 1).filter(|l| {
            let l = l
                .trim_start()
                .trim_start_matches("pub(crate) ")
                .trim_start_matches("pub ");
            l.starts_with("mod ") && l.ends_with('{')
        });
        if let (true, Some(module)) = (lines[i].trim() == "#[cfg(test)]", module) {
            let close = format!("{}}}", &module[..module.len() - module.trim_start().len()]);
            let end = (i + 2..lines.len())
                .find(|&j| lines[j] == close)
                .expect("a #[cfg(test)] module closes at its own indentation");
            i = end + 1;
            continue;
        }
        out.push_str(lines[i]);
        out.push('\n');
        i += 1;
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// libm's `tanh`, banned from all production source.
const LIBM_TANH: [&str; 2] = [".tanh()", "f32::tanh"];

/// libm's f32 `exp` (and any `exp` spelled as a method), banned from the
/// production source of [`MODEL_CRATES`].
const LIBM_EXP: [&str; 2] = [".exp()", "f32::exp"];
const MODEL_CRATES: [&str; 2] = ["crates/cpt-nn/src", "crates/cpt-gpt/src"];

/// Names only the kernel file may mention: ISA dispatch, and the GELU
/// formulas beside their row kernels.
const KERNEL_ONLY: [&str; 5] = [
    "std::arch",
    "target_feature",
    "is_x86_feature_detected",
    "gelu_f",
    "gelu_df",
];
const KERNELS: &str = "crates/cpt-nn/src/tensor.rs";

/// Names only the client file may mention: writing the preamble is
/// opening a client connection.
const CLIENT_ONLY: [&str; 1] = ["write_preamble("];
const CLIENT: &str = "crates/cpt-serve/src/client.rs";

/// Names of the deleted serve-side trainer (its wire verb, job type and
/// counters), banned from [`NO_TRAINER`].
const TRAINER: [&str; 2] = ["finetune", "Finetune"];
const NO_TRAINER: [&str; 2] = ["crates/cpt-serve/src", "src/bin"];

/// The file whose `std::arch::asm` issues the `mmap` syscalls: the one
/// `std::arch` item allowed outside [`KERNELS`].
const SYSCALLS: &str = "crates/cpt-trace/src/mmap.rs";
const SYSCALL_ASM: &str = "std::arch::asm";

#[test]
fn deleted_decode_paths_do_not_reappear() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [
        "crates/cpt-nn/src",
        "crates/cpt-gpt/src",
        "crates/cpt-serve/src",
        "crates/cpt-metrics/src",
        "crates/cpt-bench/src",
        "crates/cpt-trace/src",
        "src/bin",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 20, "walked only {} files", files.len());
    let cli = root.join("src/bin/cptgen");
    assert!(
        files.iter().any(|f| f.starts_with(&cli)),
        "the walk no longer reaches the CLI's subcommand modules"
    );
    let no_trainer = NO_TRAINER.map(|dir| root.join(dir));
    assert!(
        files.iter().any(|f| f.starts_with(&no_trainer[0])),
        "the walk no longer reaches the serving crate"
    );
    let kernels = root.join(KERNELS);
    assert!(
        files.contains(&kernels),
        "the kernels moved; update KERNELS"
    );
    let client = root.join(CLIENT);
    let client_src = std::fs::read_to_string(&client).expect("the client moved; update CLIENT");
    assert!(
        files.contains(&client) && production_source(&client_src).contains(CLIENT_ONLY[0]),
        "the client no longer writes the preamble; update CLIENT"
    );
    let syscalls = root.join(SYSCALLS);
    let syscalls_src =
        std::fs::read_to_string(&syscalls).expect("the mmap file moved; update SYSCALLS");
    assert!(
        files.contains(&syscalls) && production_source(&syscalls_src).contains(SYSCALL_ASM),
        "the mmap syscalls moved; update SYSCALLS"
    );
    let kernel_src = std::fs::read_to_string(&kernels).expect("source file is readable");
    for libm in ["f32::tanh", "f32::exp"] {
        assert!(
            kernel_src.contains(libm) && !production_source(&kernel_src).contains(libm),
            "the walk no longer skips the kernel tests that compare with libm"
        );
    }
    let model_crates = MODEL_CRATES.map(|dir| root.join(dir));
    for file in files {
        let src =
            production_source(&std::fs::read_to_string(&file).expect("source file is readable"));
        let src = if file == syscalls {
            src.replace(SYSCALL_ASM, "")
        } else {
            src
        };
        if file != kernels {
            for needle in KERNEL_ONLY {
                assert!(
                    !src.contains(needle),
                    "{} mentions {needle:?}, which belongs to the kernel file alone",
                    file.strip_prefix(root).unwrap_or(&file).display()
                );
            }
        }
        if file != client {
            for needle in CLIENT_ONLY {
                assert!(
                    !src.contains(needle),
                    "{} mentions {needle:?}: a second wire client (connect through \
                     `cpt_serve::client::Client`)",
                    file.strip_prefix(root).unwrap_or(&file).display()
                );
            }
        }
        for needle in LIBM_TANH {
            assert!(
                !src.contains(needle),
                "{} calls {needle:?}: libm's tanh outside the tests",
                file.strip_prefix(root).unwrap_or(&file).display()
            );
        }
        if model_crates.iter().any(|dir| file.starts_with(dir)) {
            for needle in LIBM_EXP {
                assert!(
                    !src.contains(needle),
                    "{} calls {needle:?}: libm's f32 exp outside the tests (use `expf_glibc`, or \
                     `f64::exp(..)` for an f64)",
                    file.strip_prefix(root).unwrap_or(&file).display()
                );
            }
        }
        if no_trainer.iter().any(|dir| file.starts_with(dir)) {
            for needle in TRAINER {
                assert!(
                    !src.contains(needle),
                    "{} mentions {needle:?}: the server trains nothing (fine-tune with \
                     `cptgen train --from`, then publish)",
                    file.strip_prefix(root).unwrap_or(&file).display()
                );
            }
        }
        for needle in BANNED {
            assert!(
                !src.contains(needle),
                "{} mentions {needle:?}",
                file.strip_prefix(root).unwrap_or(&file).display()
            );
        }
    }
}
