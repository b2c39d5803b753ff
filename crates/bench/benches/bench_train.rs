//! Microbenchmark: the cost of the online-learning loop of case study
//! #1 — one tree, one page-cache fill, one full prefetcher retrain —
//! with the presorted trainer and the linked-list cache measured
//! against the implementations they replaced (`reference` modules,
//! kept as test oracles).
//!
//! Two gates, grepped by `scripts/ci.sh`: the trainer must be ≥ 3× the
//! reference on a 256 × 12 window, and a fill of a full 512-page cache
//! ≥ 10× the reference's scan.

use rkd_bench::harness::{BatchSize, Harness};
use rkd_bench::table1_video_params;
use rkd_ml::dataset::{Dataset, Sample};
use rkd_ml::fixed::Fix;
use rkd_ml::tree::{self, DecisionTree};
use rkd_sim::mem::cache::{self, PageCache};
use rkd_sim::mem::ml::{MlPrefetchConfig, MlPrefetcher};
use rkd_sim::mem::prefetcher::Prefetcher;
use rkd_testkit::rng::{Rng, SeedableRng, StdRng};
use rkd_workloads::mem::video_resize;
use std::cell::RefCell;

const TRAIN_GATE: f64 = 3.0;
const CACHE_GATE: f64 = 10.0;

/// A window shaped like the prefetcher's: six (class, position) pairs
/// of history, the label a noisy function of the newest two classes.
fn window(rows: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(12);
    let samples = (0..rows)
        .map(|_| {
            let features: Vec<i64> = (0..12)
                .map(|f| rng.gen_range(0..if f % 2 == 0 { 16 } else { 256 }))
                .collect();
            let label = if rng.gen_bool(0.1) {
                rng.gen_range(0..16)
            } else {
                (features[10] + features[8]) % 16
            };
            Sample {
                features: features.into_iter().map(Fix::from_int).collect(),
                label: label as usize,
            }
        })
        .collect();
    Dataset::from_samples(samples).expect("window is not empty")
}

/// Prints the speedup of `new` over `reference`, judged against
/// `budget` when there is one.
fn gate(name: &str, new: Option<f64>, reference: Option<f64>, budget: Option<f64>) {
    // Either side may have been filtered out.
    let (Some(new), Some(reference)) = (new, reference) else {
        return;
    };
    let speedup = reference / new.max(1e-9);
    match budget {
        Some(budget) => {
            let verdict = if speedup >= budget { "PASS" } else { "FAIL" };
            println!("speedup_gate {name} {speedup:6.1}x (budget {budget}x) {verdict}");
        }
        None => println!("speedup_gate {name} {speedup:6.1}x info"),
    }
}

fn bench_tree_train(c: &mut Harness) {
    let cfg = MlPrefetchConfig::default().tree;
    let mut group = c.benchmark_group("tree_train");
    for rows in [256usize, 4096] {
        let data = window(rows);
        assert_eq!(
            DecisionTree::train(&data, &cfg),
            tree::reference::train(&data, &cfg)
        );
        let new = group.bench_function(&format!("{rows}x12"), |b| {
            b.iter(|| DecisionTree::train(&data, &cfg))
        });
        let reference = group.bench_function(&format!("{rows}x12_reference"), |b| {
            b.iter(|| tree::reference::train(&data, &cfg))
        });
        gate(
            &format!("tree_train_{rows}x12"),
            new,
            reference,
            (rows == 256).then_some(TRAIN_GATE),
        );
    }
    group.finish();
}

fn bench_page_cache(c: &mut Harness) {
    // Every access faults in a page never seen before: on a full cache
    // each one evicts the least recently used page.
    let mut group = c.benchmark_group("page_cache");
    let new = group.bench_function("fill_512", |b| {
        let mut cache = PageCache::new(512);
        let mut page = 0u64;
        b.iter(|| {
            page += 1;
            cache.access(page)
        });
    });
    let reference = group.bench_function("fill_512_reference", |b| {
        let mut cache = cache::reference::PageCache::new(512);
        let mut page = 0u64;
        b.iter(|| {
            page += 1;
            cache.access(page)
        });
    });
    gate("page_cache_512", new, reference, Some(CACHE_GATE));
    group.finish();
}

fn bench_prefetch_retrain(c: &mut Harness) {
    let trace = video_resize(&table1_video_params());
    let window = MlPrefetchConfig::default().window;
    let mut group = c.benchmark_group("prefetch_retrain");
    group.bench_function("window_256", |b| {
        let state = RefCell::new((MlPrefetcher::new(MlPrefetchConfig::default()), 0usize));
        let access = |(p, i): &mut (MlPrefetcher, usize)| {
            *i = (*i + 1) % trace.accesses.len();
            p.on_access(trace.accesses[*i])
        };
        // The first access only sets the delta stream's origin.
        access(&mut state.borrow_mut());
        // Untimed: every access of a window but the last. Timed: the
        // last one, which retrains and pushes the cascade's models.
        b.iter_batched(
            || {
                let mut s = state.borrow_mut();
                for _ in 1..window {
                    access(&mut s);
                }
                s.0.retrains()
            },
            |before| {
                let mut s = state.borrow_mut();
                access(&mut s);
                assert_eq!(s.0.retrains(), before + 1);
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

rkd_bench::bench_main!(bench_tree_train, bench_page_cache, bench_prefetch_retrain);
