#!/usr/bin/env bash
# Runs two full sets of the benchmark back to back on one build, each workload
# untraced and traced, and prints for each workload and end-to-end metric the
# relative difference between the two sets beside the metric's bound from
# BENCHMARK.json. Exits non-zero if any pair disagrees by more than its bound,
# or if a figure that is a function of the seed alone (step_time_s, the
# checksums, the traced run's devsim.events_per_eval) does not repeat exactly.
#
#   perf/repeat.sh [seed]          (from anywhere; default seed 1)
#
# If a metric fails here, lengthen its run; do not widen its bound.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
bin="${CARGO_TARGET_DIR:-perf/target}/release/perf"
mkdir -p perf/out
for set in 1 2; do
  for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for trace in 0 1; do
      echo "set $set: $w --trace $trace" >&2
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        > "perf/out/repeat_${set}_${w}_${trace}.txt"
    done
  done
done
python3 - <<'PY'
import json, re, sys
spec = json.load(open("BENCHMARK.json"))
bad = 0
print(f"{'workload':<12} {'metric':<22} {'set 1':>16} {'set 2':>16} {'rel diff':>9} {'bound':>6}")
for w in (w["name"] for w in spec["workloads"]):
    def runs(trace):
        return [open(f"perf/out/repeat_{s}_{w}_{trace}.txt").read() for s in (1, 2)]
    def metrics(text):
        return json.loads(text.strip().splitlines()[-1])["metrics"]
    plain = runs(0)
    a, b = (metrics(r) for r in plain)
    for m in spec["end_to_end"]:
        x, y = a[m["name"]]["value"], b[m["name"]]["value"]
        diff = abs(x - y) / abs(x)
        # The simulated figure is a function of the seed alone.
        ok = x == y if m["name"] == "step_time_s" else diff <= m["bound"]
        bad += not ok
        print(f"{w:<12} {m['name']:<22} {x:16.6f} {y:16.6f} {diff:9.4f} {m['bound']:6.2f}{'' if ok else '  DISAGREE'}")
    x, y = (metrics(r)["devsim.events_per_eval"]["value"] for r in runs(1))
    ok = x == y
    bad += not ok
    print(f"{w:<12} {'devsim.events_per_eval':<22} {x:16.6f} {y:16.6f} {'':>9} {'exact':>6}{'' if ok else '  DISAGREE'}")
    sums = [re.findall(r"checksum\(first \d+\) [0-9a-f]{16}", r) for r in plain]
    if sums[0] != sums[1]:
        bad += 1
        print(f"{w:<12} checksums differ: {sums[0]} vs {sums[1]}")
sys.exit(1 if bad else 0)
PY
