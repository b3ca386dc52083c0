#!/usr/bin/env bash
# The paper's loop on the trace data plane at scale (DESIGN.md §17):
# synthesizes a >=1M-event trace straight to the `.ctb` columnar format,
# round-trips it through JSONL byte-identically, trains a smoke model out
# of core, generates 20 000 streams from it straight to `.ctb`, evaluates
# them against the real trace and computes streaming metrics — all
# without ever materializing a dataset, with the peak RSS of every step
# measured and capped.
#
#   scripts/trace-scale-demo.sh [outdir] [cptgen-binary]
#
# Exits non-zero if any step fails, the trace is smaller than 1M events,
# or any step's peak RSS exceeds the cap. A summary lands in
# <outdir>/report.txt.
set -euo pipefail

OUT="${1:-trace-scale}"
CPTGEN="${2:-target/release/cptgen}"
# Generous enough for runner-to-runner allocator noise, small enough that
# an accidentally-resident dataset (tens of MB of streams plus JSONL
# text) on a much larger trace would still be the thing that trips it.
RSS_CAP_MB=512
# ~6h of 5000 mixed-device UEs lands comfortably past 1M events
# (~37 events per UE-hour from the synthesizer).
UES=5000
HOURS=6

mkdir -p "$OUT"
REPORT="$OUT/report.txt"
: > "$REPORT"

# Runs one step, measures its peak RSS via getrusage(RUSAGE_CHILDREN),
# appends it to the report, and fails if it exceeds the cap. Children are
# measured fresh per step because each python3 process has its own
# RUSAGE_CHILDREN high-water mark.
run_bounded() {
  local label="$1"
  shift
  python3 - "$label" "$REPORT" "$RSS_CAP_MB" "$@" <<'PY'
import resource, subprocess, sys
label, report, cap_mb = sys.argv[1], sys.argv[2], int(sys.argv[3])
cmd = sys.argv[4:]
rc = subprocess.call(cmd)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
line = f"{label}: peak RSS {peak_mb:.0f} MiB (cap {cap_mb} MiB)"
print(line)
with open(report, "a") as f:
    f.write(line + "\n")
if rc != 0:
    sys.exit(rc)
if peak_mb > cap_mb:
    print(f"{label}: peak RSS exceeds the {cap_mb} MiB cap", file=sys.stderr)
    sys.exit(1)
PY
}

run_bounded "simulate->ctb" \
  "$CPTGEN" simulate --ues "$UES" --hours "$HOURS" --seed 11 -o "$OUT/big.ctb"
run_bounded "trace verify" "$CPTGEN" trace verify --input "$OUT/big.ctb"
"$CPTGEN" trace info --input "$OUT/big.ctb" | tee "$OUT/info.txt"
cat "$OUT/info.txt" >> "$REPORT"

EVENTS=$(sed -n 's/^ *\([0-9]*\) events in.*/\1/p' "$OUT/info.txt")
test -n "$EVENTS"
if [ "$EVENTS" -lt 1000000 ]; then
  echo "trace has only $EVENTS events (< 1M)" >&2
  exit 1
fi

# The columnar file is a lossless intermediate at scale: ctb -> JSONL ->
# ctb must reproduce the original file byte for byte.
run_bounded "ctb->jsonl" \
  "$CPTGEN" trace convert --input "$OUT/big.ctb" -o "$OUT/big.jsonl"
run_bounded "jsonl->ctb" \
  "$CPTGEN" trace convert --input "$OUT/big.jsonl" -o "$OUT/big2.ctb"
cmp "$OUT/big.ctb" "$OUT/big2.ctb"
echo "ctb -> jsonl -> ctb: byte-identical" >> "$REPORT"

# Out-of-core training smoke: streams are materialized per batch from the
# mmap'd file, never all at once.
run_bounded "train (out-of-core)" \
  "$CPTGEN" train --input "$OUT/big.ctb" --epochs 1 --d-model 16 \
  --max-len 16 --microbatch 8 -o "$OUT/model-scale.json"

# Generation streams into the columnar writer a bounded window at a time;
# evaluation folds both mapped traces one stream at a time.
run_bounded "generate->ctb" \
  "$CPTGEN" generate --model "$OUT/model-scale.json" --streams 20000 \
  --seed 11 -o "$OUT/synth.ctb"
run_bounded "evaluate (streaming)" \
  "$CPTGEN" evaluate --real "$OUT/big.ctb" --synth "$OUT/synth.ctb" \
  > "$OUT/evaluate.txt"
grep -v "peak RSS" "$OUT/evaluate.txt" >> "$REPORT"

# Single-pass streaming metrics over the mapped trace.
run_bounded "stats (streaming)" \
  "$CPTGEN" stats --input "$OUT/big.ctb" > "$OUT/stats.txt"
tail -n +1 "$OUT/stats.txt" | head -n 20 >> "$REPORT"

rm -f "$OUT/big.jsonl" "$OUT/big2.ctb" "$OUT/synth.ctb"
echo "scale demo ok: $EVENTS events, every step under ${RSS_CAP_MB} MiB" | tee -a "$REPORT"
