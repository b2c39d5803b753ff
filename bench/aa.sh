#!/usr/bin/env bash
# A/A check of the benchmark against its own bounds (BENCHMARK.json).
#
#   bench/aa.sh            same build, same seed, the suite twice: fails
#                          if any end-to-end metric of the second run is
#                          worse than the first by more than its bound
#   bench/aa.sh spread [N] N runs (default 10) per workload, each with
#                          another seed, twice over: fails if a metric's
#                          inter-quartile range exceeds its bound
#                          (setup_s excepted) or the second set's median
#                          is worse than the first's by more than it
#
# Both are the checks the driver makes before it accepts the benchmark.
# Needs python3 for the arithmetic; builds offline like everything else.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-aa}"
runs="${2:-10}"
out="bench/out/aa"
rm -rf "$out"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/rkd-perfbench"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

run() { # set workload seed
    "$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 --out "$out" \
        | tail -n 1 >"$out/$1-$2-$3.json"
}

for set in 1 2; do
    for w in $workloads; do
        if [ "$mode" = spread ]; then
            for i in $(seq 1 "$runs"); do
                run "$set" "$w" "$((1000 * set + i))"
            done
        else
            run "$set" "$w" 2021
        fi
        echo "set $set: $w done" >&2
    done
done

python3 - "$out" "$mode" <<'EOF'
import glob, json, statistics, sys

out, mode = sys.argv[1:3]
spec = json.load(open("BENCHMARK.json"))
failed = False
for w in (w["name"] for w in spec["workloads"]):
    sets = []
    for s in (1, 2):
        runs = [json.load(open(p)) for p in sorted(glob.glob(f"{out}/{s}-{w}-*.json"))]
        assert runs and all(r["correct"] and r["failed"] == 0 for r in runs), f"{w}: a run failed"
        sets.append(runs)
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = ([r["metrics"][name]["value"] for r in s] for s in sets)
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
        verdict = "ok" if worse <= bound else "WORSE"
        line = f"{w:15} {name:22} {med_a:14.6g} {med_b:14.6g} {100 * worse:+7.2f}%"
        if mode == "spread":
            spreads = []
            for v in (a, b):
                q = statistics.quantiles(v, n=4)
                spreads.append((q[2] - q[0]) / statistics.median(v))
            line += "  iqr " + " ".join(f"{100 * s:6.2f}%" for s in spreads)
            if name != "setup_s" and max(spreads) > bound:
                verdict = "SPREAD"
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict += " (spread above a third of the bound)"
        failed |= verdict in ("WORSE", "SPREAD")
        print(f"{line}  bound {100 * bound:5.1f}%  {verdict}")
sys.exit(1 if failed else 0)
EOF
