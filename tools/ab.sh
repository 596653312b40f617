#!/usr/bin/env bash
# Interleaved A/B timing of two revisions on one loombench workload.
#
#   tools/ab.sh REV_A REV_B WORKLOAD N [SECONDS]
#
# Exports each revision (git archive, so nothing is registered with the
# repository) into its own directory under $AB_DIR (default: a fresh
# mktemp -d), builds its benchmark there, then runs
#
#   python3 loombench/run.py --workload WORKLOAD --seed S --seconds SECONDS --trace 0
#
# N times per side (SECONDS defaults to 30, the repository benchmark's
# run length). Pair i runs both sides on seed i, and which side goes first
# alternates from pair to pair, so slow host phases hit both sides alike.
# Every run must pass the benchmark's output checks. At the end it prints,
# per side, the median and quartiles of each end-to-end metric, and how
# many of the N pairs B won on ingest_eps (higher is better).
#
# Example: tools/ab.sh HEAD~1 HEAD mb-bfs-loom 10

set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
  sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
REV_A=$1 REV_B=$2 WORKLOAD=$3 N=$4 SECONDS_PER_RUN=${5:-30}
if ! [[ $N =~ ^[1-9][0-9]*$ ]]; then
  echo "ab.sh: N must be a positive integer, got '$N'" >&2
  exit 2
fi

REPO=$(cd "$(dirname "$0")/.." && pwd)
AB_DIR=${AB_DIR:-$(mktemp -d)}
mkdir -p "$AB_DIR"
echo "ab.sh: working in $AB_DIR" >&2

# Export and build one side: a tree at $AB_DIR/<side>, its benchmark build
# at $AB_DIR/<side>/.bench_build (run.py's default).
prepare() {
  local side=$1 rev=$2
  local commit
  commit=$(git -C "$REPO" rev-parse --verify "$rev^{commit}")
  local tree=$AB_DIR/$side
  rm -rf "$tree"
  mkdir -p "$tree"
  git -C "$REPO" archive "$commit" | tar -x -C "$tree"
  echo "ab.sh: $side = $rev ($commit), building" >&2
  (cd "$tree" &&
   cmake -S loombench -B .bench_build -G Ninja -DCMAKE_BUILD_TYPE=Release \
     > "$AB_DIR/$side-build.log" 2>&1 &&
   cmake --build .bench_build -j "$(nproc)" --target loombench loom_serve \
     >> "$AB_DIR/$side-build.log" 2>&1) || {
    echo "ab.sh: building $side failed; see $AB_DIR/$side-build.log" >&2
    exit 1
  }
}

# One run: appends run.py's result line to $AB_DIR/<side>.jsonl.
run_one() {
  local side=$1 seed=$2
  local out
  if ! out=$(cd "$AB_DIR/$side" &&
             python3 loombench/run.py --workload "$WORKLOAD" --seed "$seed" \
               --seconds "$SECONDS_PER_RUN" --trace 0 2>>"$AB_DIR/$side-run.log"); then
    echo "ab.sh: $side seed $seed failed; see $AB_DIR/$side-run.log" >&2
    exit 1
  fi
  tail -n 1 <<< "$out" >> "$AB_DIR/$side.jsonl"
}

prepare A "$REV_A"
prepare B "$REV_B"
: > "$AB_DIR/A.jsonl"
: > "$AB_DIR/B.jsonl"

for ((i = 1; i <= N; i++)); do
  if (( i % 2 == 1 )); then order="A B"; else order="B A"; fi
  for side in $order; do run_one "$side" "$i"; done
  echo "ab.sh: pair $i/$N done ($order)" >&2
done

python3 - "$AB_DIR/A.jsonl" "$AB_DIR/B.jsonl" "$REV_A" "$REV_B" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

path_a, path_b, rev_a, rev_b, workload = sys.argv[1:]


def load(path):
    """One {metric: value} dict per run (run.py reports {value, unit})."""
    with open(path) as f:
        return [{name: m["value"] for name, m in json.loads(line)["metrics"].items()}
                for line in f if line.strip()]


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


a, b = load(path_a), load(path_b)
n = min(len(a), len(b))
print(f"workload {workload}, {n} interleaved pairs; A = {rev_a}, B = {rev_b}")
print(f"{'pair':>4} {'A ingest_eps':>14} {'B ingest_eps':>14} {'B/A':>7}")
for i in range(n):
    ea, eb = a[i]["ingest_eps"], b[i]["ingest_eps"]
    print(f"{i + 1:>4} {ea:>14.0f} {eb:>14.0f} {eb / ea:>7.3f}")
print()
print(f"{'metric':<16} {'side':<4} {'median':>14} {'q1':>14} {'q3':>14}")
for metric in sorted(a[0]):
    for side, runs in (("A", a), ("B", b)):
        xs = [r[metric] for r in runs[:n]]
        if len(xs) < 2:
            q1 = med = q3 = xs[0]
        else:
            q1, med, q3 = quartiles(xs)
        print(f"{metric:<16} {side:<4} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}")
wins = sum(1 for i in range(n) if b[i]["ingest_eps"] > a[i]["ingest_eps"])
med_a = statistics.median(r["ingest_eps"] for r in a[:n])
med_b = statistics.median(r["ingest_eps"] for r in b[:n])
print()
print(f"ingest_eps: B won {wins} of {n} pairs; median B/A = {med_b / med_a:.3f}")
EOF
