#!/usr/bin/env bash
# Tooling check of the benchmark, not a measurement: builds it, runs every
# workload at toy size (216 paper points, ~144 extended points, short serve
# steps) with tracing, and asserts that every metric BENCHMARK.json names is
# printed for every workload and that error_rate is 0. Smoke numbers are
# never used for claims.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/build/smoke.out"
mkdir -p "$here/build"
bash "$here/run.sh" --smoke --seed 1 --trace benchmark/build/smoke-traces > "$out"
python3 - "$here/../BENCHMARK.json" "$out" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
seen, errors = {}, []
for line in open(sys.argv[2]):
    parts = line.split()
    if len(parts) != 4:
        continue
    workload, metric, value, unit = parts
    seen.setdefault(workload, {})[metric] = float(value)
for w in (w["name"] for w in spec["workloads"]):
    got = seen.get(w, {})
    errors += [f"{w}: {n} not printed" for n in names if n not in got]
    if got.get("error_rate", 1.0) != 0.0:
        errors.append(f"{w}: error_rate {got.get('error_rate')}")
for e in errors:
    print("smoke:", e)
print("smoke:", "FAILED" if errors else "ok")
sys.exit(1 if errors else 0)
EOF
