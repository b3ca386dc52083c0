//! Source guard: the redundant decode paths stay deleted. There is one
//! gradient-free transformer step (`decode_step_multi`), one stream
//! generator (`SessionDecoder` under `BatchDecoder`) and one serve worker
//! loop; `batch_max = 1` is the sequential case and int8 is a weight
//! format, not a serving switch. A name from the list below reappearing in
//! production source means a second path came back.
//!
//! The same walk keeps libm out of the gradient-free path: the decode core
//! applies GELU through `cpt_nn::gelu_rows`, and only the autodiff tape
//! (`graph.rs`, whose training bits are pinned to libm) may call `tanh`.
//!
//! And it keeps ISA dispatch in one place: CPU-feature detection, feature-
//! gated functions and intrinsics live in `cpt-nn`'s `tensor.rs`, behind its
//! one `KernelLevel`, and the single-accumulator-chain tail kernel
//! (`micro1_*`) stays deleted.
//!
//! And the trace data plane stays single: one epoch plan
//! (`ShardSource::epoch_steps`), one train entry per behaviour, and no
//! caller of the JSONL-only `read_dataset` outside `cpt-trace` — a trace is
//! opened through `AnyTrace`, so `.ctb` works wherever JSONL does.

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

/// Names only the autodiff tape may mention.
const TAPE_ONLY: [&str; 2] = [".tanh()", "gelu_f"];
const TAPE: &str = "crates/cpt-nn/src/graph.rs";

/// Names only the kernel file may mention.
const KERNEL_ONLY: [&str; 3] = ["std::arch", "target_feature", "is_x86_feature_detected"];
const KERNELS: &str = "crates/cpt-nn/src/tensor.rs";

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
    let tape = root.join(TAPE);
    assert!(files.contains(&tape), "the tape moved; update TAPE");
    let kernels = root.join(KERNELS);
    assert!(files.contains(&kernels), "the kernels moved; update KERNELS");
    for file in files {
        let src = std::fs::read_to_string(&file).expect("source file is readable");
        if file != kernels {
            for needle in KERNEL_ONLY {
                assert!(
                    !src.contains(needle),
                    "{} mentions {needle:?}: ISA dispatch outside the one kernel level",
                    file.strip_prefix(root).unwrap_or(&file).display()
                );
            }
        }
        if file != tape {
            for needle in TAPE_ONLY {
                assert!(
                    !src.contains(needle),
                    "{} calls {needle:?}: scalar libm in the gradient-free path",
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
