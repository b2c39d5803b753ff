#!/usr/bin/env bash
# Hermetic CI gate for the rkd workspace.
#
# The build is fully offline by policy: every dependency is a workspace
# member and the dependency closure must stay that way (see README.md
# "Hermetic build"). Each step below passes --offline so any accidental
# registry dependency fails fast instead of silently resolving on a
# networked machine.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> bench_obs smoke (observability overhead gate + BENCH_obs.json)"
RKD_BENCH_WARMUP_MS=5 RKD_BENCH_MEASURE_MS=20 RKD_BENCH_SAMPLES=5 \
    RKD_BENCH_OBS_JSON="$PWD/BENCH_obs.json" \
    cargo bench --offline -q -p rkd-bench --bench bench_obs | tee /tmp/rkd_bench_obs.out
if ! grep -q 'paired_default_vs_off.*PASS' /tmp/rkd_bench_obs.out; then
    echo "ERROR: observability overhead gate failed (default config > 5% on fire())" >&2
    exit 1
fi
if ! grep -q 'span_gate armed_vs_off.*PASS' /tmp/rkd_bench_obs.out; then
    echo "ERROR: span overhead gate failed (armed-but-unsampled spans > 1% on the 8-table pipeline)" >&2
    exit 1
fi
test -s BENCH_obs.json || { echo "ERROR: BENCH_obs.json was not written" >&2; exit 1; }
grep -q '"span_overhead"' BENCH_obs.json \
    || { echo "ERROR: BENCH_obs.json missing the span_overhead section" >&2; exit 1; }

echo "==> bench_tables smoke (indexed lookup scaling gates + BENCH_tables.json)"
RKD_BENCH_WARMUP_MS=5 RKD_BENCH_MEASURE_MS=20 RKD_BENCH_SAMPLES=5 \
    RKD_BENCH_TABLES_JSON="$PWD/BENCH_tables.json" \
    cargo bench --offline -q -p rkd-bench --bench bench_tables | tee /tmp/rkd_bench_tables.out
if ! grep -q 'speedup_gate lpm_4096.*PASS' /tmp/rkd_bench_tables.out; then
    echo "ERROR: LPM indexed lookup gate failed (< 5x over linear scan at 4096 entries)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate ternary_4096.*PASS' /tmp/rkd_bench_tables.out; then
    echo "ERROR: Ternary indexed lookup gate failed (< 5x over linear scan at 4096 entries)" >&2
    exit 1
fi
test -s BENCH_tables.json || { echo "ERROR: BENCH_tables.json was not written" >&2; exit 1; }

echo "==> bench_vm smoke (optimizer O0-vs-opt gate + BENCH_opt.json)"
RKD_BENCH_WARMUP_MS=5 RKD_BENCH_MEASURE_MS=20 RKD_BENCH_SAMPLES=5 \
    RKD_BENCH_OPT_JSON="$PWD/BENCH_opt.json" \
    cargo bench --offline -q -p rkd-bench --bench bench_vm | tee /tmp/rkd_bench_vm.out
if ! grep -q 'speedup_gate opt_const_pipeline.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: optimizer gate failed (< 1.2x median over O0 on the constant-heavy pipeline)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate chain_fuse_pipeline.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: chain-fusion gate failed (< 2x over O0 on the 8-table resolvable chain)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate chain_fuse_churn.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: adversarial churn floor failed (fusability-toggling churn cost exceeded the 0.1x bound)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate chain_fuse_reval.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: revalidation churn floor failed (same-dispatch entry churn pushed fused below O0)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate loop_fold.*PASS' /tmp/rkd_bench_vm.out; then
    echo "ERROR: loop-aware folding gate failed (< 1.2x over O0 on the invariant-heavy loop)" >&2
    exit 1
fi
test -s BENCH_opt.json || { echo "ERROR: BENCH_opt.json was not written" >&2; exit 1; }
for section in '"chain_fuse_pipeline"' '"chain_fuse_churn"' '"chain_fuse_reval"' '"loop_fold"'; do
    grep -q "$section" BENCH_opt.json \
        || { echo "ERROR: BENCH_opt.json missing the $section section" >&2; exit 1; }
done

echo "==> bench_train smoke (presorted trainer + O(1) page-cache LRU gates)"
RKD_BENCH_WARMUP_MS=5 RKD_BENCH_MEASURE_MS=20 RKD_BENCH_SAMPLES=5 \
    cargo bench --offline -q -p rkd-bench --bench bench_train | tee /tmp/rkd_bench_train.out
if ! grep -q 'speedup_gate tree_train_256x12.*PASS' /tmp/rkd_bench_train.out; then
    echo "ERROR: tree trainer gate failed (< 3x over the per-node-sort reference on a 256x12 window)" >&2
    exit 1
fi
if ! grep -q 'speedup_gate page_cache_512.*PASS' /tmp/rkd_bench_train.out; then
    echo "ERROR: page cache gate failed (< 10x over the scanning reference on a full 512-page cache)" >&2
    exit 1
fi

echo "==> bench_inference smoke (hoisted-scale i64 QMLP kernel gate)"
RKD_BENCH_WARMUP_MS=5 RKD_BENCH_MEASURE_MS=20 RKD_BENCH_SAMPLES=5 \
    cargo bench --offline -q -p rkd-bench --bench bench_inference | tee /tmp/rkd_bench_inference.out
if ! grep -q 'speedup_gate qmlp_predict.*PASS' /tmp/rkd_bench_inference.out; then
    echo "ERROR: QMLP inference gate failed (< 1.4x over the three-factor i128 reference on 15-16-16-2)" >&2
    exit 1
fi

echo "==> bench_parallel smoke (sharded scaling gate + BENCH_parallel.json)"
RKD_BENCH_PARALLEL_JSON="$PWD/BENCH_parallel.json" \
    cargo bench --offline -q -p rkd-bench --bench bench_parallel | tee /tmp/rkd_bench_parallel.out
# The 4-shard speedup gate is adaptive: enforced on hosts with >= 4
# CPUs, reported as SKIP(cpus=N) on smaller ones. Both are fine; a
# bare FAIL is not.
if ! grep -qE 'speedup_gate parallel_4x.*(PASS|SKIP)' /tmp/rkd_bench_parallel.out; then
    echo "ERROR: sharded scaling gate failed (< 2.5x at 4 shards on a >= 4 CPU host)" >&2
    exit 1
fi
# Skew smoke: the zipf balanced-vs-fixed gate is adaptive the same way
# (enforced with >= 4 CPUs, SKIP below), and the SPSC ingress handoff
# comparison must have run (its speedup line is informational).
if ! grep -qE 'skew_gate balanced_vs_fixed.*(PASS|SKIP)' /tmp/rkd_bench_parallel.out; then
    echo "ERROR: zipf skew gate failed (balanced replay regressed vs fixed partition)" >&2
    exit 1
fi
grep -q 'ingress_speedup' /tmp/rkd_bench_parallel.out \
    || { echo "ERROR: SPSC ingress handoff benchmark did not run" >&2; exit 1; }
test -s BENCH_parallel.json || { echo "ERROR: BENCH_parallel.json was not written" >&2; exit 1; }
for section in '"ingress"' '"skew"' '"stages"'; do
    grep -q "$section" BENCH_parallel.json \
        || { echo "ERROR: BENCH_parallel.json missing the $section section" >&2; exit 1; }
done

echo "==> example: lean_monitoring (end-to-end datapath observability)"
cargo run -q --release --offline --example lean_monitoring >/dev/null

echo "==> recovery smoke: kill-and-replay differential + journal edge cases"
cargo test -q --release --offline --test recovery \
    || { echo "ERROR: crash-recovery suite failed (snapshot/journal drifted from the live machine)" >&2; exit 1; }

echo "==> persistent-server smoke: one loop, 100+ sequential scrapes, clean stop"
cargo test -q --release --offline --test obs_export persistent_server \
    || { echo "ERROR: persistent metrics server loopback test failed" >&2; exit 1; }

echo "==> exporter smoke: loopback scrape serves the expected metric families"
cargo run -q --release --offline --example metrics_scrape | tee /tmp/rkd_metrics_scrape.out >/dev/null
for family in rkd_machine_events_total rkd_hook_fires_total rkd_hook_latency_ns_bucket \
    rkd_model_predictions_total rkd_model_outcomes_total rkd_model_window_accuracy_permille \
    rkd_model_drift_suspected; do
    if ! grep -q "^$family" /tmp/rkd_metrics_scrape.out; then
        echo "ERROR: metric family $family missing from the /metrics scrape" >&2
        exit 1
    fi
done
grep -q '^scrape ok$' /tmp/rkd_metrics_scrape.out \
    || { echo "ERROR: metrics_scrape example did not complete" >&2; exit 1; }

echo "==> example: online_drift (closed-loop drift detection via model telemetry)"
cargo run -q --release --offline --example online_drift >/dev/null

echo "==> trace smoke: span tracing end to end, Chrome trace dumped and non-empty"
RKD_TRACE_OUT=/tmp/rkd_trace_flight.json \
    cargo run -q --release --offline --example trace_flight | tee /tmp/rkd_trace_flight.out >/dev/null
grep -q '^trace ok$' /tmp/rkd_trace_flight.out \
    || { echo "ERROR: trace_flight example did not complete" >&2; exit 1; }
test -s /tmp/rkd_trace_flight.json \
    || { echo "ERROR: trace_flight wrote no Chrome trace JSON" >&2; exit 1; }

echo "==> repo benchmark (bench/) builds, passes its tests and --smoke against the current API"
cargo test -q --offline --manifest-path bench/Cargo.toml \
    || { echo "ERROR: bench/ no longer builds or passes its tests (public API drifted from bench/src/sut.rs)" >&2; exit 1; }
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- --smoke >/dev/null \
    || { echo "ERROR: repo benchmark --smoke failed" >&2; exit 1; }

echo "==> one execution engine: no jit.rs, no CompiledAction"
if [ -e crates/core/src/jit.rs ] || grep -rnE 'CompiledAction|core::jit' crates src tests examples; then
    echo "ERROR: a second execution engine crept back in (interp::run_action is the only dispatch loop)" >&2
    exit 1
fi

echo "==> one fire path: machine/ stays split, small, and free of the old forks"
if [ -e crates/core/src/machine.rs ]; then
    echo "ERROR: crates/core/src/machine.rs is back (the machine lives in crates/core/src/machine/)" >&2
    exit 1
fi
for f in crates/core/src/machine/*.rs; do
    if [ "$(basename "$f")" != tests.rs ] && [ "$(wc -l <"$f")" -gt 900 ]; then
        echo "ERROR: $f is over 900 lines" >&2
        exit 1
    fi
done
if grep -rnE 'too_many_arguments|enum Listeners|pipeline_scratch' crates/core/src/machine; then
    echo "ERROR: a deleted fire-path mechanism crept back into crates/core/src/machine/" >&2
    exit 1
fi

echo "==> one recency list: the decision cache and the maps keep no queue of their own"
if grep -nE 'VecDeque|fifo|lru_touch' crates/core/src/machine/cache.rs crates/core/src/maps.rs; then
    echo "ERROR: a second recency structure is back (both use rkd_core::recency::RecencyList)" >&2
    exit 1
fi

echo "==> one control log: sharded commands ride the shard ingress rings"
if grep -nE 'CtrlLog|Mutex<Vec<CtrlRequest>>|fn drain\(' crates/core/src/shard.rs; then
    echo "ERROR: a second command log is back in shard.rs (each shard's ingress ring orders its commands)" >&2
    exit 1
fi

echo "==> one analysis core: control flow and dataflow live in analysis.rs"
if grep -nE 'struct Cfg|fn leaders|let mut succs|let mut reachable|edge_blocks|let live_out' \
    crates/core/src/verifier.rs crates/core/src/opt.rs; then
    echo "ERROR: a hand-rolled CFG walk or solver is back in verifier.rs/opt.rs (use crates/core/src/analysis.rs)" >&2
    exit 1
fi

echo "==> dependency closure must be workspace-only"
external=$(cargo tree --offline --workspace --edges normal,build,dev \
    | grep -oE '[a-z0-9_-]+ v[0-9][0-9.]*' | sort -u | grep -v '^rkd' || true)
if [ -n "$external" ]; then
    echo "ERROR: external crates crept into the dependency tree:" >&2
    echo "$external" >&2
    exit 1
fi

echo "CI OK"
