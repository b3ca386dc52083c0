#!/usr/bin/env bash
# Non-test Rust lines: the size instrument the simplicity aims are read by.
#
#   scripts/loc.sh [DIR...]
#
# For each DIR (default: every crates/*/src, then src) prints the lines of
# its .rs files, each file counted up to its top-level `#[cfg(test)]` +
# `mod` pair (the whole file when it has none), then the total. Paths are
# relative to the checkout this script lives in, so running it in two
# checkouts compares them: `scripts/loc.sh crates/cpt-serve/src
# src/bin/cptgen`.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ $# -eq 0 ]]; then
    set -- crates/*/src src
fi

# Lines before the first column-0 `#[cfg(test)]` directly followed by a
# column-0 `mod` line, summed over every .rs file under $1.
count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { total += n; n = 0; cut = 0; prev = "" }
        cut { next }
        prev == "#[cfg(test)]" && /^(pub(\(crate\))? )?mod / { n--; cut = 1; next }
        { n++; prev = $0 }
        END { print total + n }
    ' {} + | awk '{ s += $1 } END { print s + 0 }'
}

sum=0
for dir in "$@"; do
    n=$(count "$dir")
    sum=$((sum + n))
    printf '%-28s %7d\n' "$dir" "$n"
done
printf '%-28s %7d\n' total "$sum"
