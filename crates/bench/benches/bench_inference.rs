//! Microbenchmark: kernel-side inference latency across the model zoo
//! (integer decision tree, integer SVM, quantized MLP) — the quantity
//! the verifier's latency-class budgets stand in for.
//!
//! One gate, grepped by `scripts/ci.sh`: `QuantMlp::predict` on the
//! case-study shape (15 → 16 → 16 → 2) must be ≥ 1.4× the
//! three-factor `i128`, `Vec`-per-layer loop it replaced, which lives
//! on below as `reference_predict` (and in `tests/ml_properties.rs` as
//! the differential oracle).

use rkd_bench::harness::Harness;
use rkd_ml::dataset::{Dataset, Sample};
use rkd_ml::fixed::Fix;
use rkd_ml::mlp::{Mlp, MlpConfig};
use rkd_ml::quant::QuantMlp;
use rkd_ml::svm::{LinearSvm, SvmConfig};
use rkd_ml::tree::{DecisionTree, TreeConfig};
use rkd_testkit::rng::StdRng;
use rkd_testkit::rng::{Rng, SeedableRng};

const QMLP_GATE: f64 = 1.4;

fn dataset(n: usize, dim: usize, rng: &mut StdRng) -> Dataset {
    let mut samples = Vec::new();
    for _ in 0..n {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 10.0).collect();
        let label = (x.iter().sum::<f64>() > 5.0 * dim as f64) as usize;
        samples.push(Sample::from_f64(&x, label));
    }
    Dataset::from_samples(samples).unwrap()
}

/// Inference as it was before the hoisted-scale kernel: per MAC a
/// three-factor `i128` product, per layer a fresh `Vec`.
fn reference_predict(q: &QuantMlp, features: &[Fix]) -> usize {
    let mut cur = features.to_vec();
    for (i, l) in q.layers().iter().enumerate() {
        let mut out = Vec::with_capacity(l.out_dim());
        for (row, bias) in l.weights().chunks_exact(l.in_dim()).zip(l.biases()) {
            let mut acc: i128 = 0;
            for ((w, v), s) in row.iter().zip(&cur).zip(l.col_scales_q32()) {
                acc += (*w as i128 * v.raw() as i128 * *s as i128) >> 32;
            }
            let sum = Fix::from_raw(acc.clamp(i32::MIN as i128, i32::MAX as i128) as i32);
            out.push(sum + *bias);
        }
        if i + 1 != q.layers().len() {
            out.iter_mut().for_each(|v| *v = v.relu());
        }
        cur = out;
    }
    let mut best = 0;
    for (i, v) in cur.iter().enumerate() {
        if *v > cur[best] {
            best = i;
        }
    }
    best
}

fn bench_models(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(1);
    let ds = dataset(2_000, 15, &mut rng);
    let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
    let svm = LinearSvm::train(&ds, &SvmConfig::default(), &mut rng)
        .unwrap()
        .quantize();
    let mlp = Mlp::train(
        &ds,
        &MlpConfig {
            hidden: vec![16, 16],
            epochs: 10,
            ..MlpConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let qmlp = QuantMlp::quantize(&mlp, 8).unwrap();
    let x: Vec<Fix> = (0..15).map(Fix::from_int).collect();
    assert_eq!(qmlp.predict(&x).unwrap(), reference_predict(&qmlp, &x));
    let mut group = c.benchmark_group("inference");
    group.bench_function("tree", |b| b.iter(|| tree.predict(&x).unwrap()));
    group.bench_function("svm", |b| b.iter(|| svm.predict(&x).unwrap()));
    let new = group.bench_function("qmlp_16x16", |b| b.iter(|| qmlp.predict(&x).unwrap()));
    let reference = group.bench_function("qmlp_16x16_ref", |b| {
        b.iter(|| reference_predict(&qmlp, &x))
    });
    // Either side may have been filtered out.
    if let (Some(new), Some(reference)) = (new, reference) {
        let speedup = reference / new.max(1e-9);
        let verdict = if speedup >= QMLP_GATE { "PASS" } else { "FAIL" };
        println!("speedup_gate qmlp_predict {speedup:6.1}x (budget {QMLP_GATE}x) {verdict}");
    }
    group.finish();
}

rkd_bench::bench_main!(bench_models);
