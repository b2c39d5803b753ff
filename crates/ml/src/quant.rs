//! Model quantization: userspace floats to kernel-side integers.
//!
//! §3.2: "ML training could be performed in real-time in userspace using
//! floating point operations, with models periodically quantized and
//! pushed to the kernel for inference." This module performs that
//! quantization. An [`Mlp`] trained in `f64` becomes a [`QuantMlp`]
//! whose weights are `b`-bit symmetric integers with a per-column
//! Q32.32 scale; inference is entirely integer ([`Fix`]) arithmetic and
//! is what the RMT VM's `CALL_ML` executes for "Quantized DNN" models.
//!
//! The bit-width is configurable (2..=16) so the `ablation_quant` bench
//! can sweep accuracy-vs-width, reproducing the design discussion.
//!
//! Inference runs inside scheduler-grade hooks, so it is one
//! allocation-free kernel ([`QuantMlp::predict`]): each layer hoists
//! the per-column product `input * scale` out of the row loop and
//! accumulates `(weight * product) >> 32` in `i64` when every product
//! is below `2^47`, in `i128` otherwise. Both widths are exact — the
//! result is bit for bit the three-factor product floored per term —
//! and the inputs alone select between them. The shape invariants the
//! kernel leans on are established when a model is constructed or
//! decoded, never per call (DESIGN.md §15).

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::fixed::Fix;
use crate::mlp::Mlp;
use core::ops::{Add, Mul, Shr};
use rkd_testkit::json::{FromJson, Json, JsonError, ToJson};

/// Widest layer (inputs or outputs) a quantized MLP may have: the
/// length of the RMT VM's vector registers, so no `CALL_ML` can feed
/// more, and the size of the inference kernel's stack scratch.
pub const MAX_WIDTH: usize = 256;

/// Largest weight magnitude any admissible bit-width (`<= 16`) allows.
const MAX_WEIGHT: u32 = (1 << 15) - 1;

/// Column products below this magnitude take the `i64` kernel:
/// `|w| < 2^15` and `|v * s| < 2^47` keep every `w * (v * s)` under
/// `2^62`, and a row sums at most [`MAX_WIDTH`] terms of `2^30`.
const NARROW_LIMIT: u64 = 1 << 47;

/// A dense layer with `b`-bit integer weights and per-input-column
/// (channel-wise) dequantization scales.
///
/// Per-column scales matter because normalization folding
/// ([`crate::mlp::Mlp::fold_input_normalization`]) leaves first-layer
/// columns with magnitudes spanning several orders of magnitude; a
/// single per-layer scale would quantize the small columns to zero.
/// Scales are stored in Q32.32 so even very small folded weights keep
/// relative precision, while all arithmetic stays integer.
///
/// Fields are private: [`QuantLayer::new`] (and with it JSON decoding)
/// establishes the shape and weight-range invariants the inference
/// kernel relies on, once, instead of every call re-checking them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantLayer {
    weights: Vec<i32>,
    biases: Vec<Fix>,
    col_scales_q32: Vec<i64>,
    in_dim: usize,
    out_dim: usize,
}

impl QuantLayer {
    /// Builds a layer from its parts: `weights` is `out_dim x in_dim`,
    /// row-major; `biases` are Q16.16 (the activation scale);
    /// `col_scales_q32[j]` is column `j`'s dequantization scale in
    /// Q32.32, i.e. real weight = `weights[o][j] * col_scales_q32[j] /
    /// 2^32`.
    ///
    /// Returns [`MlError::Malformed`] unless both dimensions are in
    /// `1..=MAX_WIDTH`, the three arrays have the lengths the
    /// dimensions imply, and every weight fits 16 signed bits.
    pub fn new(
        weights: Vec<i32>,
        biases: Vec<Fix>,
        col_scales_q32: Vec<i64>,
        in_dim: usize,
        out_dim: usize,
    ) -> Result<QuantLayer, MlError> {
        let layer = QuantLayer {
            weights,
            biases,
            col_scales_q32,
            in_dim,
            out_dim,
        };
        layer.validate(MAX_WEIGHT)?;
        Ok(layer)
    }

    /// Shape, and every weight's magnitude at most `qmax`.
    fn validate(&self, qmax: u32) -> Result<(), MlError> {
        let dims = 1..=MAX_WIDTH;
        if !dims.contains(&self.in_dim) || !dims.contains(&self.out_dim) {
            return Err(MlError::Malformed("qmlp layer width"));
        }
        if self.weights.len() != self.in_dim * self.out_dim {
            return Err(MlError::Malformed("qmlp weights length"));
        }
        if self.biases.len() != self.out_dim {
            return Err(MlError::Malformed("qmlp biases length"));
        }
        if self.col_scales_q32.len() != self.in_dim {
            return Err(MlError::Malformed("qmlp column scales length"));
        }
        if self.weights.iter().any(|w| w.unsigned_abs() > qmax) {
            return Err(MlError::Malformed("qmlp weight range"));
        }
        Ok(())
    }

    /// Quantized weights, `out_dim x in_dim`, row-major.
    pub fn weights(&self) -> &[i32] {
        &self.weights
    }

    /// Quantized biases (Q16.16).
    pub fn biases(&self) -> &[Fix] {
        &self.biases
    }

    /// Per-input-column dequantization scales (Q32.32).
    pub fn col_scales_q32(&self) -> &[i64] {
        &self.col_scales_q32
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Integer forward pass:
    /// `out[o] = sum_j (w[o][j] * s[j] * x[j] >> 32) + b[o]`,
    /// each term `int * Q32.32 * Q16.16 >> 32 = Q16.16`, floored per
    /// term and summed without intermediate saturation.
    ///
    /// Returns [`MlError::ShapeMismatch`] unless `x.len() == in_dim`.
    pub fn forward(&self, x: &[Fix]) -> Result<Vec<Fix>, MlError> {
        if x.len() != self.in_dim {
            return Err(MlError::ShapeMismatch {
                expected: self.in_dim,
                got: x.len(),
            });
        }
        let mut out = vec![Fix::ZERO; self.out_dim];
        self.forward_into(x, &mut [0; MAX_WIDTH], &mut out);
        Ok(out)
    }

    /// The kernel: `x.len() == in_dim`, `out.len() == out_dim`, and
    /// `prods` is scratch whose contents do not matter.
    ///
    /// The column product `x[j] * s[j]` is shared by every output row,
    /// so it is computed once per column. When all of them are below
    /// [`NARROW_LIMIT`] the rows accumulate in `i64`; otherwise the
    /// same loop runs at `i128`. Both are exact, so which one ran is
    /// not observable in the result.
    fn forward_into(&self, x: &[Fix], prods: &mut [i64; MAX_WIDTH], out: &mut [Fix]) {
        let prods = &mut prods[..self.in_dim];
        for ((p, v), s) in prods.iter_mut().zip(x).zip(&self.col_scales_q32) {
            match i64::from(v.raw()).checked_mul(*s) {
                Some(fits) if fits.unsigned_abs() < NARROW_LIMIT => *p = fits,
                _ => return self.forward_into_wide(x, out),
            }
        }
        accumulate(&self.weights, prods, &self.biases, out);
    }

    #[cold]
    #[inline(never)]
    fn forward_into_wide(&self, x: &[Fix], out: &mut [Fix]) {
        let mut prods = [0i128; MAX_WIDTH];
        let prods = &mut prods[..self.in_dim];
        for ((p, v), s) in prods.iter_mut().zip(x).zip(&self.col_scales_q32) {
            *p = i128::from(v.raw()) * i128::from(*s);
        }
        accumulate(&self.weights, prods, &self.biases, out);
    }
}

/// `out[o] = saturate(sum_j (w[o][j] * prods[j]) >> 32) + biases[o]`
/// over `prods.len()`-wide rows of `weights`, at accumulator width `T`.
fn accumulate<T>(weights: &[i32], prods: &[T], biases: &[Fix], out: &mut [Fix])
where
    T: Copy
        + From<i32>
        + Mul<Output = T>
        + Shr<u32, Output = T>
        + Add<Output = T>
        + PartialOrd
        + TryInto<i32>,
{
    let zero = T::from(0);
    let mut rows = weights;
    for (bias, o) in biases.iter().zip(out) {
        // Not `chunks_exact`: zipping it costs a division per call.
        let (row, rest) = rows.split_at(prods.len());
        rows = rest;
        let mut acc = zero;
        for (w, p) in row.iter().zip(prods) {
            acc = acc + ((T::from(*w) * *p) >> 32);
        }
        let sum = match acc.try_into() {
            Ok(raw) => Fix::from_raw(raw),
            Err(_) if acc > zero => Fix::MAX,
            Err(_) => Fix::MIN,
        };
        *o = sum + *bias;
    }
}

/// One inference's working memory, on the caller's stack.
struct Scratch {
    /// Activations: a layer reads one half and writes the other.
    acts: [[Fix; MAX_WIDTH]; 2],
    /// The current layer's column products.
    prods: [i64; MAX_WIDTH],
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            acts: [[Fix::ZERO; MAX_WIDTH]; 2],
            prods: [0; MAX_WIDTH],
        }
    }
}

/// A fully quantized MLP for kernel-side inference.
///
/// Only well-formed models exist: every constructor, and JSON
/// decoding, ends in [`QuantMlp::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantMlp {
    layers: Vec<QuantLayer>,
    bits: u32,
    n_features: usize,
    n_classes: usize,
}

impl QuantMlp {
    /// Assembles a model from layers in forward order (ReLU between
    /// all but the last) whose weights were quantized to `bits` bits.
    ///
    /// Returns [`MlError::InvalidHyperparameter`] unless `2 <= bits <=
    /// 16`, and [`MlError::Malformed`] if there is no layer, a layer's
    /// input width is not its predecessor's output width, or a weight
    /// lies outside `[-(2^(bits-1)-1), 2^(bits-1)-1]`.
    pub fn new(layers: Vec<QuantLayer>, bits: u32) -> Result<QuantMlp, MlError> {
        let model = QuantMlp {
            n_features: layers.first().map_or(0, |l| l.in_dim),
            n_classes: layers.last().map_or(0, |l| l.out_dim),
            layers,
            bits,
        };
        model.validate()?;
        Ok(model)
    }

    /// Re-checks the invariants every constructor establishes (see
    /// [`QuantMlp::new`]); model admission calls it so the datapath
    /// does not depend on how a model value came to be.
    pub fn validate(&self) -> Result<(), MlError> {
        if !(2..=16).contains(&self.bits) {
            return Err(MlError::InvalidHyperparameter("bits"));
        }
        let (Some(first), Some(last)) = (self.layers.first(), self.layers.last()) else {
            return Err(MlError::Malformed("qmlp has no layers"));
        };
        if self.n_features != first.in_dim || self.n_classes != last.out_dim {
            return Err(MlError::Malformed("qmlp declared shape"));
        }
        if self.layers.windows(2).any(|w| w[0].out_dim != w[1].in_dim) {
            return Err(MlError::Malformed("qmlp layer chaining"));
        }
        let qmax = (1u32 << (self.bits - 1)) - 1;
        self.layers.iter().try_for_each(|l| l.validate(qmax))
    }

    /// Quantizes a trained float MLP to `bits`-bit weights.
    ///
    /// Returns [`MlError::InvalidHyperparameter`] unless `2 <= bits <=
    /// 16`, and [`MlError::Malformed`] if a layer is wider than
    /// [`MAX_WIDTH`].
    #[allow(clippy::needless_range_loop)] // Parallel-array indexing is clearer here.
    pub fn quantize(mlp: &Mlp, bits: u32) -> Result<QuantMlp, MlError> {
        if !(2..=16).contains(&bits) {
            return Err(MlError::InvalidHyperparameter("bits"));
        }
        let qmax = (1i64 << (bits - 1)) - 1;
        let mut layers = Vec::with_capacity(mlp.layers.len());
        for l in &mlp.layers {
            // Channel-wise: one scale per input column.
            let mut col_scales = vec![0.0f64; l.in_dim];
            for o in 0..l.out_dim {
                for j in 0..l.in_dim {
                    col_scales[j] = col_scales[j].max(l.weights[o * l.in_dim + j].abs());
                }
            }
            for s in &mut col_scales {
                *s = (*s / qmax as f64).max(1e-15);
            }
            let mut weights = Vec::with_capacity(l.weights.len());
            for o in 0..l.out_dim {
                for j in 0..l.in_dim {
                    let w = l.weights[o * l.in_dim + j];
                    weights.push(((w / col_scales[j]).round() as i64).clamp(-qmax, qmax) as i32);
                }
            }
            let col_scales_q32 = col_scales
                .iter()
                .map(|&s| (s * (1u64 << 32) as f64).round() as i64)
                .collect();
            let biases = l.biases.iter().map(|&b| Fix::from_f64(b)).collect();
            layers.push(QuantLayer::new(
                weights,
                biases,
                col_scales_q32,
                l.in_dim,
                l.out_dim,
            )?);
        }
        QuantMlp::new(layers, bits)
    }

    /// Creates a zero-weight placeholder with the given shape
    /// (always predicts class 0).
    ///
    /// Program loaders use this to declare a model slot whose real
    /// weights arrive later via the control plane's model hot-swap.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are in `1..=MAX_WIDTH`.
    pub fn placeholder(n_features: usize, n_classes: usize) -> QuantMlp {
        QuantLayer::new(
            vec![0; n_features * n_classes],
            vec![Fix::ZERO; n_classes],
            vec![0; n_features],
            n_features,
            n_classes,
        )
        .and_then(|layer| QuantMlp::new(vec![layer], 8))
        .expect("placeholder shape")
    }

    /// Runs every layer, ping-ponging activations between the two
    /// halves of `scratch.acts`, and returns the logits (a slice of
    /// one of them).
    fn run<'a>(&self, features: &[Fix], scratch: &'a mut Scratch) -> Result<&'a [Fix], MlError> {
        if features.len() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: features.len(),
            });
        }
        let Scratch { acts, prods } = scratch;
        let [cur, next] = acts;
        let (mut cur, mut next) = (cur, next);
        let (first, rest) = self
            .layers
            .split_first()
            .expect("validated: at least one layer");
        first.forward_into(features, prods, &mut cur[..first.out_dim]);
        let mut width = first.out_dim;
        for layer in rest {
            for v in &mut cur[..width] {
                *v = v.relu();
            }
            layer.forward_into(&cur[..width], prods, &mut next[..layer.out_dim]);
            std::mem::swap(&mut cur, &mut next);
            width = layer.out_dim;
        }
        Ok(&cur[..width])
    }

    /// Integer-only forward pass returning pre-softmax logits.
    ///
    /// Returns [`MlError::ShapeMismatch`] on dimensionality mismatch.
    pub fn logits(&self, features: &[Fix]) -> Result<Vec<Fix>, MlError> {
        Ok(self.run(features, &mut Scratch::new())?.to_vec())
    }

    /// Predicts the argmax class (the first, on ties) using integer
    /// arithmetic only and no heap allocation.
    pub fn predict(&self, features: &[Fix]) -> Result<usize, MlError> {
        let mut scratch = Scratch::new();
        let logits = self.run(features, &mut scratch)?;
        let mut best = 0;
        for (i, v) in logits.iter().enumerate() {
            if *v > logits[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Accuracy over a fixed-point dataset.
    pub fn evaluate(&self, data: &Dataset) -> Result<f64, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let mut correct = 0;
        for s in data.samples() {
            if self.predict(&s.features)? == s.label {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len() as f64)
    }

    /// Layers in forward order; ReLU between all but the last.
    pub fn layers(&self) -> &[QuantLayer] {
        &self.layers
    }

    /// The bit-width weights were quantized to.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total multiply-accumulate operations per inference (the quantity
    /// the RMT verifier budgets, following the FLOP-counting rule the
    /// paper cites for conv layers).
    pub fn macs(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.in_dim * l.out_dim) as u64)
            .sum()
    }

    /// Model memory footprint in bytes (weights + biases + scales).
    pub fn memory_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.weights.len() * 4 + l.biases.len() * 4 + l.col_scales_q32.len() * 8) as u64)
            .sum()
    }
}

impl ToJson for QuantLayer {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("weights".to_string(), self.weights.to_json()),
            ("biases".to_string(), self.biases.to_json()),
            ("col_scales_q32".to_string(), self.col_scales_q32.to_json()),
            ("in_dim".to_string(), self.in_dim.to_json()),
            ("out_dim".to_string(), self.out_dim.to_json()),
        ])
    }
}

/// Decodes field `name` of `json`.
fn json_field<T: FromJson>(json: &Json, name: &str) -> Result<T, JsonError> {
    T::from_json(json.field(name)?).map_err(|e| e.context(name))
}

impl FromJson for QuantLayer {
    fn from_json(json: &Json) -> Result<QuantLayer, JsonError> {
        QuantLayer::new(
            json_field(json, "weights")?,
            json_field(json, "biases")?,
            json_field(json, "col_scales_q32")?,
            json_field(json, "in_dim")?,
            json_field(json, "out_dim")?,
        )
        .map_err(|e| JsonError::new(e.to_string()))
    }
}

impl ToJson for QuantMlp {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("layers".to_string(), self.layers.to_json()),
            ("bits".to_string(), self.bits.to_json()),
            ("n_features".to_string(), self.n_features.to_json()),
            ("n_classes".to_string(), self.n_classes.to_json()),
        ])
    }
}

impl FromJson for QuantMlp {
    fn from_json(json: &Json) -> Result<QuantMlp, JsonError> {
        let model = QuantMlp {
            layers: json_field(json, "layers")?,
            bits: json_field(json, "bits")?,
            n_features: json_field(json, "n_features")?,
            n_classes: json_field(json, "n_classes")?,
        };
        model
            .validate()
            .map_err(|e| JsonError::new(e.to_string()))?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::mlp::MlpConfig;
    use rkd_testkit::rng::StdRng;
    use rkd_testkit::rng::{Rng, SeedableRng};

    fn trained_pair() -> (Mlp, Dataset) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut samples = Vec::new();
        for _ in 0..300 {
            let x0: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let x1: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            samples.push(Sample::from_f64(&[x0, x1], (x0 + x1 > 0.0) as usize));
        }
        let ds = Dataset::from_samples(samples).unwrap();
        let cfg = MlpConfig {
            hidden: vec![8],
            epochs: 40,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg, &mut rng).unwrap();
        (mlp, ds)
    }

    #[test]
    fn quantized_model_tracks_float_accuracy() {
        let (mlp, ds) = trained_pair();
        let float_acc = mlp.evaluate(&ds).unwrap();
        let q = QuantMlp::quantize(&mlp, 8).unwrap();
        let q_acc = q.evaluate(&ds).unwrap();
        assert!(float_acc > 0.9);
        assert!(
            q_acc >= float_acc - 0.05,
            "quantized {q_acc} vs float {float_acc}"
        );
    }

    #[test]
    fn wider_bits_never_much_worse() {
        let (mlp, ds) = trained_pair();
        let acc4 = QuantMlp::quantize(&mlp, 4).unwrap().evaluate(&ds).unwrap();
        let acc12 = QuantMlp::quantize(&mlp, 12).unwrap().evaluate(&ds).unwrap();
        assert!(acc12 >= acc4 - 0.02, "12-bit {acc12} vs 4-bit {acc4}");
    }

    #[test]
    fn rejects_bad_bit_widths() {
        let (mlp, _) = trained_pair();
        assert!(QuantMlp::quantize(&mlp, 1).is_err());
        assert!(QuantMlp::quantize(&mlp, 17).is_err());
        assert!(QuantMlp::quantize(&mlp, 2).is_ok());
    }

    #[test]
    fn weights_respect_bit_range() {
        let (mlp, _) = trained_pair();
        for bits in [2u32, 4, 8] {
            let q = QuantMlp::quantize(&mlp, bits).unwrap();
            let qmax = (1i32 << (bits - 1)) - 1;
            for l in q.layers() {
                assert!(l.weights().iter().all(|&w| w.abs() <= qmax));
            }
        }
    }

    #[test]
    fn cost_accounting() {
        let (mlp, _) = trained_pair();
        let q = QuantMlp::quantize(&mlp, 8).unwrap();
        // 2 -> 8 -> 2: 16 + 16 = 32 MACs.
        assert_eq!(q.macs(), 32);
        assert!(q.memory_bytes() > 0);
    }

    #[test]
    fn shape_validation() {
        let (mlp, _) = trained_pair();
        let q = QuantMlp::quantize(&mlp, 8).unwrap();
        assert!(q.predict(&[Fix::ZERO]).is_err());
        assert!(q.evaluate(&Dataset::new()).is_err());
    }

    #[test]
    fn both_accumulator_widths_compute_the_same_rows() {
        // Products just inside the narrow limit, weights at the 16-bit
        // edge, and one row that saturates each way.
        let edge = (NARROW_LIMIT - 1) as i64;
        let prods = [edge, -edge, 12_345, -1, 0, edge];
        let w = MAX_WEIGHT as i32;
        let weights = [
            [w, -w, 7, -7, 1, w],
            [w, w, w, w, w, -w],
            [-w, w, 0, 0, 0, -w],
            [w, -w, 0, 0, 0, w],
            [1, 1, 1, 1, 1, 1],
        ]
        .concat();
        let biases = [Fix::ONE, Fix::ZERO, Fix::MIN, Fix::MAX, Fix::from_int(-3)];
        let wide_prods = prods.map(i128::from);
        let (mut narrow, mut wide) = ([Fix::ZERO; 5], [Fix::ZERO; 5]);
        accumulate(&weights, &prods, &biases, &mut narrow);
        accumulate(&weights, &wide_prods, &biases, &mut wide);
        assert_eq!(narrow, wide);
        assert_eq!(narrow[2], Fix::MIN);
        assert_eq!(narrow[3], Fix::MAX);
    }

    fn layer(in_dim: usize, out_dim: usize) -> QuantLayer {
        QuantLayer::new(
            vec![1; in_dim * out_dim],
            vec![Fix::ZERO; out_dim],
            vec![1 << 32; in_dim],
            in_dim,
            out_dim,
        )
        .unwrap()
    }

    #[test]
    fn constructors_reject_malformed_parts() {
        let malformed = |r: Result<QuantLayer, MlError>| matches!(r, Err(MlError::Malformed(_)));
        let (w, b, s) = (vec![0; 8], vec![Fix::ZERO; 2], vec![0; 4]);
        assert!(QuantLayer::new(w.clone(), b.clone(), s.clone(), 4, 2).is_ok());
        assert!(malformed(QuantLayer::new(
            vec![],
            b.clone(),
            s.clone(),
            4,
            2
        )));
        assert!(malformed(QuantLayer::new(
            w.clone(),
            vec![],
            s.clone(),
            4,
            2
        )));
        assert!(malformed(QuantLayer::new(
            w.clone(),
            b.clone(),
            vec![0; 3],
            4,
            2
        )));
        assert!(malformed(QuantLayer::new(vec![], vec![], s.clone(), 4, 0)));
        assert!(malformed(QuantLayer::new(vec![], b.clone(), vec![], 0, 2)));
        let too_wide = MAX_WIDTH + 1;
        assert!(malformed(QuantLayer::new(
            vec![0; too_wide],
            vec![Fix::ZERO],
            vec![0; too_wide],
            too_wide,
            1
        )));
        let mut heavy = w.clone();
        heavy[3] = 1 << 15;
        assert!(malformed(QuantLayer::new(heavy, b, s, 4, 2)));

        assert!(QuantMlp::new(vec![layer(3, 5), layer(5, 2)], 8).is_ok());
        assert_eq!(
            QuantMlp::new(vec![layer(3, 5), layer(4, 2)], 8),
            Err(MlError::Malformed("qmlp layer chaining"))
        );
        assert_eq!(
            QuantMlp::new(vec![], 8),
            Err(MlError::Malformed("qmlp has no layers"))
        );
        assert!(QuantMlp::new(vec![layer(3, 2)], 17).is_err());
        // Weight 3 needs 3 bits: 2-bit weights are -1..=1.
        let l = QuantLayer::new(vec![3], vec![Fix::ZERO], vec![0], 1, 1).unwrap();
        assert!(QuantMlp::new(vec![l.clone()], 3).is_ok());
        assert_eq!(
            QuantMlp::new(vec![l], 2),
            Err(MlError::Malformed("qmlp weight range"))
        );
    }

    #[test]
    fn decoding_rejects_what_the_constructors_reject() {
        let json = rkd_testkit::json::to_string(&QuantMlp::placeholder(4, 2));
        assert!(rkd_testkit::json::from_str::<QuantMlp>(&json).is_ok());
        for (from, to) in [
            // The reproducer: decoded fine, then panicked on first use.
            ("\"weights\":[0,0,0,0,0,0,0,0]", "\"weights\":[]"),
            ("\"biases\":[0,0]", "\"biases\":[0]"),
            ("\"col_scales_q32\":[0,0,0,0]", "\"col_scales_q32\":[0]"),
            ("\"in_dim\":4", "\"in_dim\":0"),
            ("\"n_features\":4", "\"n_features\":5"),
            ("\"n_classes\":2", "\"n_classes\":3"),
            ("\"bits\":8", "\"bits\":1"),
            ("\"weights\":[0,", "\"weights\":[128,"),
        ] {
            assert!(json.contains(from), "{from} not in {json}");
            let bad = json.replace(from, to);
            assert!(
                rkd_testkit::json::from_str::<QuantMlp>(&bad).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn logits_match_float_ordering_on_easy_points() {
        let (mlp, _) = trained_pair();
        let q = QuantMlp::quantize(&mlp, 10).unwrap();
        for &(x0, x1) in &[(0.8, 0.8), (-0.8, -0.8)] {
            let fp = mlp.predict(&[x0, x1]).unwrap();
            let qp = q.predict(&[Fix::from_f64(x0), Fix::from_f64(x1)]).unwrap();
            assert_eq!(fp, qp);
        }
    }
}
