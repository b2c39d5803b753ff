#!/usr/bin/env bash
# Order-alternated parent/change pairs of the repo benchmark — the table
# ROADMAP standing constraint (ii) asks every PR to report.
#
#   scripts/pairs.sh [parent-rev] [pairs] [seconds] [seed]
#
#   parent-rev  commit to compare the checkout against (default HEAD)
#   pairs       pairs per workload (default 10)
#   seconds     run length (default BENCHMARK.json's run_seconds)
#   seed        the benchmark's --seed (default: the benchmark's own)
#
# The parent is exported with `git archive` into $PAIRS_DIR (default
# target/pairs, already git-ignored) and both sides' bench/ binaries are
# built into target dirs of their own there; nothing under bench/ is
# written. Per workload and BENCHMARK.json end-to-end metric it prints
# both medians, how much worse the change's is, the parent's
# inter-quartile range, the pairs the change won (ties count for
# neither) and a verdict against the metric's bound; any run with
# failed operations or a failed output check is named. Every run's
# result line is kept in $PAIRS_DIR/runs.
# Needs python3 for the arithmetic; builds offline like everything else.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="$(git rev-parse --verify "${1:-HEAD}^{commit}")"
pairs="${2:-10}"
seconds="${3:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
seed="${4:-}"
dir="${PAIRS_DIR:-target/pairs}"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

rm -rf "$dir/parent-src" "$dir/runs"
mkdir -p "$dir/parent-src" "$dir/runs"
dir="$(cd "$dir" && pwd)"
git archive "$rev" | tar -x -C "$dir/parent-src"

echo "building parent $(git rev-parse --short "$rev") and the checkout" >&2
cargo build --release --offline --quiet \
    --manifest-path "$dir/parent-src/bench/Cargo.toml" --target-dir "$dir/parent-target"
cargo build --release --offline --quiet \
    --manifest-path bench/Cargo.toml --target-dir "$dir/change-target"

run() { # side pair workload
    "$dir/$1-target/release/rkd-perfbench" --workload "$3" --seconds "$seconds" --trace 0 \
        ${seed:+--seed "$seed"} --out "$dir/runs/out-$1" | tail -n 1 >"$dir/runs/$3-$2-$1.json"
}

for i in $(seq 1 "$pairs"); do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$i" "$w"
            run change "$i" "$w"
        else
            run change "$i" "$w"
            run parent "$i" "$w"
        fi
    done
    echo "pair $i/$pairs done" >&2
done

python3 - "$dir/runs" "$pairs" "$seconds" "$(git rev-parse --short "$rev")" "${seed:-default}" <<'EOF'
import json, statistics, sys

runs_dir, pairs, seconds, rev, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
spec = json.load(open("BENCHMARK.json"))
print(f"parent {rev} vs checkout: {pairs} order-alternated pairs of {seconds} s per workload, seed {seed}")
print(f"{'workload':15} {'metric':21} {'parent p50':>12} {'change p50':>12} {'worse by':>9} "
      f"{'parent iqr':>10} {'wins':>6} {'bound':>6}  verdict")
bad = False
for w in (w["name"] for w in spec["workloads"]):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = [json.load(open(f"{runs_dir}/{w}-{i}-{side}.json")) for i in range(1, pairs + 1)]
        for i, r in enumerate(sides[side], 1):
            if r["failed"] or not r["correct"]:
                bad = True
                print(f"{w:15} {side} run {i}: failed {r['failed']} of {r['attempted']}, correct={r['correct']}")
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        p, c = ([r["metrics"][name]["value"] for r in sides[s]] for s in ("parent", "change"))
        med_p, med_c = statistics.median(p), statistics.median(c)
        worse = (med_c - med_p) / med_p * (1 if lower else -1)
        iqr = 0.0
        if pairs >= 2:
            q = statistics.quantiles(p, n=4)
            iqr = (q[2] - q[0]) / med_p
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        separated = max(c) < min(p) if lower else min(c) > max(p)
        if name == "decision_quality_pct":
            verdict = "identical" if p == c else "DIFFERS"
        elif worse > bound:
            verdict = "WORSE"
        elif iqr > bound and not separated:
            verdict = "unresolved (parent spread above the bound)"
        else:
            verdict = "ok"
        bad |= verdict in ("WORSE", "DIFFERS")
        print(f"{w:15} {name:21} {med_p:12.6g} {med_c:12.6g} {100 * worse:+8.2f}% "
              f"{100 * iqr:9.2f}% {wins:3}/{pairs:<2} {100 * bound:5.1f}%  {verdict}")
sys.exit(1 if bad else 0)
EOF
