#!/usr/bin/env bash
# The command BENCHMARK.json names: build the ledger inside the checkout,
# then run one workload. Arguments are passed to `cpt-ledger run` as given
# (--workload, --seed, --seconds, --trace).
#
# The build is hermetic: the workspace's external crates resolve to the
# functional stand-ins in devtools/offline-stubs (stub rayon runs
# sequentially), cargo's home and every scratch file live under the target
# directory, and nothing outside the checkout is read or written. To measure
# against the real crates, run `cargo run --release -p cpt-ledger` directly.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
stubs="$root/devtools/offline-stubs"
if [[ ! -f "$root/Cargo.toml" || ! -d "$stubs" ]]; then
    echo "bench.sh: $root is not a checkout of the workspace (no Cargo.toml / devtools/offline-stubs)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$PWD/$target"
mkdir -p "$target/tmp" "$target/cargo-home"
export CARGO_TARGET_DIR="$target"
export CARGO_HOME="$target/cargo-home"
export TMPDIR="$target/tmp"

cfg="$target/offline-stubs.toml"
{
    echo "[patch.crates-io]"
    for crate in serde serde_json rand rayon parking_lot proptest criterion; do
        echo "$crate = { path = \"$stubs/$crate\" }"
    done
    printf '\n[net]\noffline = true\n'
} > "$cfg"

cargo --config "$cfg" build --release --manifest-path "$root/Cargo.toml" -p cpt-ledger >&2
exec "$target/release/cpt-ledger" run "$@"
