#!/usr/bin/env bash
# Paired cpt-ledger runs of two commits: the "Comparing two commits" recipe
# of crates/cpt-ledger/README.md as one command.
#
#   scripts/ledger-pair.sh <base-ref> <head-ref> [workload] [pairs]
#
# Checks each ref out into its own `git worktree`, lets that checkout's
# bench.sh build its own ledger (hermetic, against devtools/offline-stubs),
# then runs `pairs` pairs (default 10, the README's minimum) of `workload`
# (default all), pair i on seed i, base first on odd pairs and head first on
# even ones so both sides see the same minutes of the host. Base results go
# to A/, head results to B/, and `cpt-ledger compare A B` gives the verdicts;
# its exit status is this script's.
#
# Everything lives under .bench_build/ledger-pair/ (ignored by git). The
# worktrees are removed on exit; A/ and B/ stay for inspection.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 <base-ref> <head-ref> [workload] [pairs]" >&2
    exit 2
fi
base_ref="$1"
head_ref="$2"
workload="${3:-all}"
pairs="${4:-10}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "$0: pairs must be a positive integer, got '$pairs'" >&2
    exit 2
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/ledger-pair"
base_sha="$(git -C "$root" rev-parse --verify "$base_ref^{commit}")"
head_sha="$(git -C "$root" rev-parse --verify "$head_ref^{commit}")"

cleanup() {
    for side in base head; do
        git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
    done
    git -C "$root" worktree prune
}
trap cleanup EXIT

cleanup
rm -rf "$work/A" "$work/B"
mkdir -p "$work/A" "$work/B"
git -C "$root" worktree add --detach "$work/base" "$base_sha" >&2
git -C "$root" worktree add --detach "$work/head" "$head_sha" >&2

# One run of one side. bench.sh builds first; after the first call that is
# a no-op, and it stays outside the measured phase either way.
run_side() {
    local side="$1" out="$2" seed="$3"
    (
        cd "$work/$side"
        CARGO_TARGET_DIR="$work/$side/.bench_build" \
            bash crates/cpt-ledger/bench.sh --workload "$workload" --seed "$seed" --out "$out"
    ) > /dev/null
}

echo "ledger-pair: base $base_sha -> A, head $head_sha -> B, workload $workload, $pairs pairs" >&2
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        order=(base head)
    else
        order=(head base)
    fi
    for side in "${order[@]}"; do
        if [[ "$side" == base ]]; then out="$work/A"; else out="$work/B"; fi
        echo "ledger-pair: pair $i/$pairs, $side" >&2
        run_side "$side" "$out" "$i"
    done
done

"$work/head/.bench_build/release/cpt-ledger" compare "$work/A" "$work/B"
