#!/usr/bin/env bash
# Produce a BENCH_<n>.json perf-trajectory snapshot.
#
#   ./scripts/bench_snapshot.sh 6        # writes BENCH_6.json
#
# Runs the trajectory bench targets (the `targets` list below, the one
# place they are named) in release mode with the
# vendored criterion stand-in's FBE_BENCH_JSON export enabled, then
# assembles one JSON document with machine/thread metadata. Medians
# are the headline statistic; mean/min ride along for context.
#
# Each target is run FBE_BENCH_RUNS times (default 3) and every
# numeric field is the per-case median across runs: on a shared box
# the dominant variance is minute-scale host load drift, which
# within-run sampling cannot average out but cross-run medians can.
#
# Snapshots are committed so ROADMAP re-anchors can compare numbers
# across PRs instead of trusting prose claims. They are measurements
# of *this* machine at *this* commit — compare trajectories, not
# absolute values across machines.

set -euo pipefail
cd "$(dirname "$0")/.."

n="${1:?usage: bench_snapshot.sh <snapshot-number>}"
out="BENCH_${n}.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

runs="${FBE_BENCH_RUNS:-3}"
targets=(micro substrate_compare parallel_scaling)
for r in $(seq 1 "$runs"); do
    for t in "${targets[@]}"; do
        echo "== bench $t (run $r/$runs) =="
        FBE_BENCH_JSON="$tmp/$t.$r.ndjson" cargo bench --bench "$t"
    done
done

SNAPSHOT_N="$n" TMPDIR_NDJSON="$tmp" OUT="$out" RUNS="$runs" TARGETS="${targets[*]}" \
    python3 - <<'EOF'
import json, os, platform, subprocess
from statistics import median

tmp = os.environ["TMPDIR_NDJSON"]
runs = int(os.environ["RUNS"])
doc = {
    "schema": "fbe-bench-snapshot/1",
    "snapshot": int(os.environ["SNAPSHOT_N"]),
    "commit": subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip(),
    "machine": {
        "os": platform.system().lower(),
        "release": platform.release(),
        "arch": platform.machine(),
        "cpus": os.cpu_count(),
        "rustc": subprocess.run(["rustc", "--version"],
                                capture_output=True, text=True).stdout.strip(),
    },
    "statistic": ("criterion rows: median_ns headline (mean_ns/min_ns for context); "
                  "table rows: the harness's native columns; "
                  f"every numeric field is the median across {runs} target runs"),
    "runs": runs,
    "benches": {},
}


def load(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


for t in os.environ["TARGETS"].split():
    per_run = [load(os.path.join(tmp, f"{t}.{r}.ndjson")) for r in range(1, runs + 1)]
    # Merge by case id: numeric fields take the cross-run median
    # (min_ns keeps the overall min), everything else the first run's
    # value. Run 1 defines the case list and order.
    merged = []
    for row in per_run[0]:
        peers = [r for rows in per_run for r in rows if r.get("id") == row.get("id")]
        out_row = {}
        for k, v in row.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                vals = [p[k] for p in peers if isinstance(p.get(k), (int, float))]
                out_row[k] = min(vals) if k == "min_ns" else median(vals)
            else:
                out_row[k] = v
        merged.append(out_row)
    doc["benches"][t] = merged

with open(os.environ["OUT"], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {os.environ['OUT']}: "
      + ", ".join(f"{k}={len(v)}" for k, v in doc["benches"].items()))
EOF
