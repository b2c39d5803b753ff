//! Integer decision trees with Gini-index splits.
//!
//! Case study #1 of the paper replaces the Linux readahead heuristic
//! with "an in-kernel integer decision tree that can capture more
//! complex access patterns" (§4), trained online and queried at the
//! `swap_cluster_readahead` hook. This module implements that model:
//! CART training with Gini impurity over fixed-point features, and a
//! branch-free-friendly inference path that uses only integer compares.
//!
//! Training is exact (no floating point is needed even for Gini: we
//! compare impurities via cross-multiplied integer arithmetic), so the
//! same code can run "in kernel" for online learning.
//!
//! The split search is a presorted CART: every feature column is sorted
//! once, before the root ([`FeatureMatrix`]), a node is the same
//! `[lo, hi)` range of every sorted column, and a split partitions
//! those ranges stably so both children stay sorted. A node then costs
//! one allocation-free sweep per feature instead of a sort. Threshold
//! subsampling (`max_thresholds`) bounds the candidates scored per
//! sweep, not the sweep itself: training a 256-sample window is linear
//! in `samples x features x depth`. DESIGN.md "Online training cost"
//! has the measured budget.

use crate::dataset::{key_row, key_value, Dataset, FeatureMatrix};
use crate::error::MlError;
use crate::fixed::Fix;

/// Hyperparameters for decision-tree training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0). Bounded so the verifier can
    /// compute a worst-case inference cost.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Candidate thresholds per feature and node: every
    /// `boundaries / max_thresholds`-th boundary between distinct
    /// values is scored.
    pub max_thresholds: usize,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            max_thresholds: 32,
        }
    }
}

/// A node of the trained tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// A leaf predicting `label`; `counts` records the training-class
    /// histogram that reached this leaf (used for confidence and
    /// distillation).
    Leaf {
        /// Majority class at this leaf.
        label: usize,
        /// Per-class sample counts that reached the leaf.
        counts: Vec<u64>,
    },
    /// An internal node testing `features[feature] <= threshold`.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Fixed-point split threshold (go left if `<=`).
        threshold: Fix,
        /// Subtree for `<= threshold`.
        left: Box<Node>,
        /// Subtree for `> threshold`.
        right: Box<Node>,
    },
}

/// A trained integer decision tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
    n_classes: usize,
}

impl DecisionTree {
    /// Trains a tree on `data` with the given configuration.
    ///
    /// Returns [`MlError::EmptyDataset`] for empty data and
    /// [`MlError::InvalidHyperparameter`] for a zero depth/threshold
    /// budget.
    pub fn train(data: &Dataset, cfg: &TreeConfig) -> Result<DecisionTree, MlError> {
        let (matrix, labels) = data.to_columns()?;
        DecisionTree::train_columns(&matrix, &labels, cfg)
    }

    /// Trains a tree on presorted feature columns and one label per
    /// row. The matrix is not consumed: train once per label vector.
    ///
    /// Returns [`MlError::ShapeMismatch`] when `labels` does not have
    /// one entry per row, and the errors of [`DecisionTree::train`].
    pub fn train_columns(
        matrix: &FeatureMatrix,
        labels: &[usize],
        cfg: &TreeConfig,
    ) -> Result<DecisionTree, MlError> {
        if labels.len() != matrix.n_rows() {
            return Err(MlError::ShapeMismatch {
                expected: matrix.n_rows(),
                got: labels.len(),
            });
        }
        if labels.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if cfg.max_thresholds == 0 {
            return Err(MlError::InvalidHyperparameter("max_thresholds"));
        }
        let n_classes = labels.iter().max().map_or(0, |&m| m + 1);
        let mut counts = vec![0u64; n_classes];
        for &label in labels {
            counts[label] += 1;
        }
        let mut trainer = Trainer {
            labels,
            cfg,
            n_rows: matrix.n_rows(),
            n_features: matrix.n_features(),
            keys: matrix.sorted_keys().to_vec(),
            goes_left: vec![false; matrix.n_rows()],
            spill: vec![0; matrix.n_rows()],
            left: vec![0; n_classes],
            bounds: Vec::new(),
        };
        Ok(DecisionTree {
            root: trainer.grow(0, matrix.n_rows(), 0, counts),
            n_features: matrix.n_features(),
            n_classes,
        })
    }

    /// Predicts the class for a feature vector.
    ///
    /// Returns [`MlError::ShapeMismatch`] on dimensionality mismatch.
    pub fn predict(&self, features: &[Fix]) -> Result<usize, MlError> {
        if features.len() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: features.len(),
            });
        }
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label, .. } => return Ok(*label),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predicts and also returns a Q16.16 confidence (leaf purity).
    pub fn predict_with_confidence(&self, features: &[Fix]) -> Result<(usize, Fix), MlError> {
        if features.len() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: features.len(),
            });
        }
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label, counts } => {
                    let total: u64 = counts.iter().sum();
                    let conf = if total == 0 {
                        Fix::ZERO
                    } else {
                        Fix::from_int(counts[*label] as i64) / Fix::from_int(total as i64)
                    };
                    return Ok((*label, conf));
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Accuracy over a labeled dataset (userspace-side evaluation).
    pub fn evaluate(&self, data: &Dataset) -> Result<f64, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let mut correct = 0usize;
        for s in data.samples() {
            if self.predict(&s.features)? == s.label {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len() as f64)
    }

    /// Checks the indices prediction follows without looking: every
    /// split tests a feature below `n_features`, every leaf's label is
    /// below `n_classes` and has a slot in the leaf's own histogram.
    /// Trained trees satisfy it; JSON decoding and model admission
    /// call it so a hand-edited one is refused instead of panicking
    /// the datapath.
    pub fn validate(&self) -> Result<(), MlError> {
        fn walk(n: &Node, n_features: usize, n_classes: usize) -> Result<(), MlError> {
            match n {
                Node::Leaf { label, counts } => {
                    if *label >= n_classes || *label >= counts.len() {
                        return Err(MlError::Malformed("tree leaf label"));
                    }
                    Ok(())
                }
                Node::Split {
                    feature,
                    left,
                    right,
                    ..
                } => {
                    if *feature >= n_features {
                        return Err(MlError::Malformed("tree split feature"));
                    }
                    walk(left, n_features, n_classes)?;
                    walk(right, n_features, n_classes)
                }
            }
        }
        walk(&self.root, self.n_features, self.n_classes)
    }

    /// Root node (read-only; used by distillation and feature ranking).
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Feature dimensionality the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes the tree can predict.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total node count (split + leaf).
    pub fn node_count(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + walk(left) + walk(right),
            }
        }
        walk(&self.root)
    }

    /// Maximum depth (root = 0).
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }

    /// Gini-based feature importance: total impurity decrease attributed
    /// to each feature, normalized to sum to 1 (as Q16.16 is too coarse
    /// for this, the result is `f64`; ranking is a userspace activity).
    pub fn gini_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0f64; self.n_features];
        fn node_total(n: &Node) -> u64 {
            match n {
                Node::Leaf { counts, .. } => counts.iter().sum(),
                Node::Split { left, right, .. } => node_total(left) + node_total(right),
            }
        }
        fn node_gini(n: &Node) -> f64 {
            // Aggregate class histogram under this node.
            fn hist(n: &Node, acc: &mut Vec<u64>) {
                match n {
                    Node::Leaf { counts, .. } => {
                        if acc.len() < counts.len() {
                            acc.resize(counts.len(), 0);
                        }
                        for (a, c) in acc.iter_mut().zip(counts.iter()) {
                            *a += c;
                        }
                    }
                    Node::Split { left, right, .. } => {
                        hist(left, acc);
                        hist(right, acc);
                    }
                }
            }
            let mut h = Vec::new();
            hist(n, &mut h);
            let total: u64 = h.iter().sum();
            if total == 0 {
                return 0.0;
            }
            1.0 - h
                .iter()
                .map(|&c| {
                    let p = c as f64 / total as f64;
                    p * p
                })
                .sum::<f64>()
        }
        fn walk(n: &Node, imp: &mut [f64]) {
            if let Node::Split {
                feature,
                left,
                right,
                ..
            } = n
            {
                let nl = node_total(left) as f64;
                let nr = node_total(right) as f64;
                let nt = nl + nr;
                if nt > 0.0 {
                    let decrease =
                        node_gini(n) - (nl / nt) * node_gini(left) - (nr / nt) * node_gini(right);
                    imp[*feature] += decrease.max(0.0) * nt;
                }
                walk(left, imp);
                walk(right, imp);
            }
        }
        walk(&self.root, &mut imp);
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }
}

fn argmax_u64(counts: &[u64]) -> usize {
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

/// Weighted Gini impurity numerator, scaled so comparisons can be done
/// in integers: for a partition into sides with class counts `c[s][k]`
/// and sizes `n[s]`, minimizing weighted Gini is equivalent to
/// maximizing `sum_s (sum_k c[s][k]^2) / n[s]`. We compare candidate
/// splits by that score in u128 cross-multiplication.
struct SplitScore {
    /// `sum_k left[k]^2 * n_right + sum_k right[k]^2 * n_left`, the
    /// cross-multiplied score with common denominator `n_left*n_right`.
    num: u128,
    den: u128,
}

impl SplitScore {
    fn better_than(&self, other: &SplitScore) -> bool {
        // Compare num/den > other.num/other.den without division.
        self.num * other.den > other.num * self.den
    }
}

/// A sweep position where the feature value changes: the first `cut`
/// samples of the node (in this feature's order) would go left.
struct Boundary {
    cut: usize,
    /// `sum_k left[k]^2` over the class counts left of the cut.
    left_sq: u64,
    /// `sum_k total[k] * left[k]`; with the node's `sum_k total[k]^2`
    /// it gives the right side's sum of squares without a second
    /// count table.
    cross: u64,
}

/// Working state of one training run.
struct Trainer<'a> {
    labels: &'a [usize],
    cfg: &'a TreeConfig,
    n_rows: usize,
    n_features: usize,
    /// The matrix's sorted columns, partitioned in place as the tree
    /// grows: a node owns the same `[lo, hi)` range of every column,
    /// each still ascending.
    keys: Vec<u64>,
    /// By row: which side of the split being applied the row takes.
    goes_left: Vec<bool>,
    /// Right-hand keys of the column being partitioned.
    spill: Vec<u64>,
    /// Running class counts of the current sweep.
    left: Vec<u64>,
    /// Boundaries of the current sweep.
    bounds: Vec<Boundary>,
}

impl Trainer<'_> {
    /// Where rows `[lo, hi)` of column `feature` sit in `keys`.
    fn span(&self, feature: usize, lo: usize, hi: usize) -> std::ops::Range<usize> {
        feature * self.n_rows + lo..feature * self.n_rows + hi
    }

    /// Whether a node of `n` samples with these class counts is a leaf
    /// before any split is searched.
    fn stops(&self, n: usize, depth: usize, counts: &[u64]) -> bool {
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        pure || depth >= self.cfg.max_depth || n < self.cfg.min_samples_split
    }

    /// Builds the subtree over rows `[lo, hi)` of every column.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize, counts: Vec<u64>) -> Node {
        let split = if self.stops(hi - lo, depth, &counts) {
            None
        } else {
            self.best_split(lo, hi, &counts)
        };
        let Some((feature, cut)) = split else {
            return Node::Leaf {
                label: argmax_u64(&counts),
                counts,
            };
        };
        // The first `cut` keys of the split feature's range go left.
        let column = &self.keys[self.span(feature, lo, hi)];
        let threshold = key_value(column[cut - 1]);
        let mut left_counts = vec![0u64; counts.len()];
        for &key in &column[..cut] {
            left_counts[self.labels[key_row(key)]] += 1;
        }
        let mut right_counts = counts;
        for (r, l) in right_counts.iter_mut().zip(&left_counts) {
            *r -= l;
        }
        // Children that are both leaves never read their columns.
        if !(self.stops(cut, depth + 1, &left_counts)
            && self.stops(hi - lo - cut, depth + 1, &right_counts))
        {
            self.partition(lo, hi, feature, cut);
        }
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.grow(lo, lo + cut, depth + 1, left_counts)),
            right: Box::new(self.grow(lo + cut, hi, depth + 1, right_counts)),
        }
    }

    /// Finds the best `(feature, cut)` for the node `[lo, hi)` whose
    /// class counts are `total`: the first `cut` samples in `feature`'s
    /// order go left. Candidates are visited in feature order, then
    /// ascending threshold, and a later one must be strictly better.
    fn best_split(&mut self, lo: usize, hi: usize, total: &[u64]) -> Option<(usize, usize)> {
        let n = hi - lo;
        let total_sq: u128 = total.iter().map(|&c| (c as u128) * (c as u128)).sum();
        let mut best: Option<(usize, usize, SplitScore)> = None;
        for f in 0..self.n_features {
            let column = &self.keys[self.span(f, lo, hi)];
            // Sorted: equal ends mean the column has no boundary.
            let mut prev = key_value(column[0]);
            if prev == key_value(column[n - 1]) {
                continue;
            }
            self.left.fill(0);
            self.bounds.clear();
            let (mut left_sq, mut cross) = (0u64, 0u64);
            for (w, &key) in column.iter().enumerate() {
                if key_value(key) != prev {
                    prev = key_value(key);
                    self.bounds.push(Boundary {
                        cut: w,
                        left_sq,
                        cross,
                    });
                }
                let k = self.labels[key_row(key)];
                // (l + 1)^2 - l^2
                left_sq += 2 * self.left[k] + 1;
                self.left[k] += 1;
                cross += total[k];
            }
            let step = (self.bounds.len() / self.cfg.max_thresholds).max(1);
            for b in self.bounds.iter().step_by(step) {
                let left_sq = b.left_sq as u128;
                // sum_k (total[k] - left[k])^2
                let right_sq = total_sq + left_sq - 2 * b.cross as u128;
                let (n_left, n_right) = (b.cut as u128, (n - b.cut) as u128);
                let score = SplitScore {
                    num: left_sq * n_right + right_sq * n_left,
                    den: n_left * n_right,
                };
                match &best {
                    Some((_, _, s)) if !score.better_than(s) => {}
                    _ => best = Some((f, b.cut, score)),
                }
            }
        }
        best.map(|(f, cut, _)| (f, cut))
    }

    /// Applies the split "the first `cut` keys of `feature`'s range go
    /// left" to every other column: a stable partition of `[lo, hi)`,
    /// so both halves stay sorted. `feature`'s own range already is
    /// that partition.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, cut: usize) {
        for (w, &key) in self.keys[self.span(feature, lo, hi)].iter().enumerate() {
            self.goes_left[key_row(key)] = w < cut;
        }
        for g in (0..self.n_features).filter(|&g| g != feature) {
            let span = self.span(g, lo, hi);
            let column = &mut self.keys[span];
            let spill = &mut self.spill[..hi - lo];
            let (mut l, mut r) = (0, 0);
            for i in 0..column.len() {
                let key = column[i];
                let left = self.goes_left[key_row(key)] as usize;
                // Both stores, one kept: no branch on the side.
                column[l] = key;
                spill[r] = key;
                l += left;
                r += 1 - left;
            }
            column[l..].copy_from_slice(&spill[..r]);
        }
    }
}

/// The trainer this module had before the presorted one: it re-sorts
/// every feature at every node. Kept as the oracle the differential
/// tests and `bench_train` compare against; nothing else may call it.
#[doc(hidden)]
pub mod reference {
    use super::{argmax_u64, DecisionTree, Node, SplitScore, TreeConfig};
    use crate::dataset::Dataset;
    use crate::error::MlError;
    use crate::fixed::Fix;

    /// [`DecisionTree::train`] as it was.
    pub fn train(data: &Dataset, cfg: &TreeConfig) -> Result<DecisionTree, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if cfg.max_thresholds == 0 {
            return Err(MlError::InvalidHyperparameter("max_thresholds"));
        }
        let idx: Vec<usize> = (0..data.len()).collect();
        let root = build(data, &idx, cfg, 0);
        Ok(DecisionTree {
            root,
            n_features: data.n_features(),
            n_classes: data.n_classes(),
        })
    }

    /// Builds a subtree over the sample indices `idx`.
    fn build(data: &Dataset, idx: &[usize], cfg: &TreeConfig, depth: usize) -> Node {
        let counts = class_counts(data, idx);
        let majority = argmax_u64(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= cfg.max_depth || idx.len() < cfg.min_samples_split {
            return Node::Leaf {
                label: majority,
                counts,
            };
        }
        match best_split(data, idx, cfg) {
            Some((feature, threshold)) => {
                let (li, ri): (Vec<usize>, Vec<usize>) = idx
                    .iter()
                    .partition(|&&i| data.samples()[i].features[feature] <= threshold);
                if li.is_empty() || ri.is_empty() {
                    return Node::Leaf {
                        label: majority,
                        counts,
                    };
                }
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(build(data, &li, cfg, depth + 1)),
                    right: Box::new(build(data, &ri, cfg, depth + 1)),
                }
            }
            None => Node::Leaf {
                label: majority,
                counts,
            },
        }
    }

    fn class_counts(data: &Dataset, idx: &[usize]) -> Vec<u64> {
        let mut counts = vec![0u64; data.n_classes().max(1)];
        for &i in idx {
            counts[data.samples()[i].label] += 1;
        }
        counts
    }

    fn best_split(data: &Dataset, idx: &[usize], cfg: &TreeConfig) -> Option<(usize, Fix)> {
        let n_classes = data.n_classes().max(1);
        let mut best: Option<(usize, Fix, SplitScore)> = None;
        for f in 0..data.n_features() {
            // Gather sorted (value, label) pairs for this feature.
            let mut vals: Vec<(Fix, usize)> = idx
                .iter()
                .map(|&i| (data.samples()[i].features[f], data.samples()[i].label))
                .collect();
            vals.sort_by_key(|&(v, _)| v);
            // Candidate thresholds: boundaries between distinct values,
            // subsampled down to max_thresholds.
            let mut boundaries: Vec<usize> = Vec::new();
            for w in 1..vals.len() {
                if vals[w].0 != vals[w - 1].0 {
                    boundaries.push(w);
                }
            }
            if boundaries.is_empty() {
                continue;
            }
            let step = (boundaries.len() / cfg.max_thresholds).max(1);
            // Prefix class counts let each candidate be scored in O(classes).
            let mut prefix = vec![0u64; n_classes];
            let mut prefixes: Vec<Vec<u64>> = Vec::with_capacity(vals.len() + 1);
            prefixes.push(prefix.clone());
            for &(_, label) in &vals {
                prefix[label] += 1;
                prefixes.push(prefix.clone());
            }
            let total = &prefixes[vals.len()];
            for bi in (0..boundaries.len()).step_by(step) {
                let cut = boundaries[bi];
                let left = &prefixes[cut];
                let n_left = cut as u128;
                let n_right = (vals.len() - cut) as u128;
                let mut left_sq: u128 = 0;
                let mut right_sq: u128 = 0;
                for k in 0..n_classes {
                    let l = left[k] as u128;
                    let r = (total[k] - left[k]) as u128;
                    left_sq += l * l;
                    right_sq += r * r;
                }
                let score = SplitScore {
                    num: left_sq * n_right + right_sq * n_left,
                    den: n_left * n_right,
                };
                let threshold = vals[cut - 1].0;
                match &best {
                    Some((_, _, b)) if !score.better_than(b) => {}
                    _ => best = Some((f, threshold, score)),
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    fn xor_dataset() -> Dataset {
        // XOR is not linearly separable; a depth-2 tree handles it.
        let mut samples = Vec::new();
        for &(a, b) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let label = ((a as i32) ^ (b as i32)) as usize;
            for _ in 0..5 {
                samples.push(Sample::from_f64(&[a, b], label));
            }
        }
        Dataset::from_samples(samples).unwrap()
    }

    #[test]
    fn learns_xor_exactly() {
        let ds = xor_dataset();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.evaluate(&ds).unwrap(), 1.0);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn respects_max_depth() {
        let ds = xor_dataset();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::train(&ds, &cfg).unwrap();
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn rejects_empty_and_bad_config() {
        let empty = Dataset::new();
        assert!(DecisionTree::train(&empty, &TreeConfig::default()).is_err());
        let ds = xor_dataset();
        let cfg = TreeConfig {
            max_thresholds: 0,
            ..TreeConfig::default()
        };
        assert!(matches!(
            DecisionTree::train(&ds, &cfg),
            Err(MlError::InvalidHyperparameter("max_thresholds"))
        ));
    }

    #[test]
    fn predict_shape_checked() {
        let ds = xor_dataset();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        assert!(tree.predict(&[Fix::ZERO]).is_err());
        assert!(tree.predict_with_confidence(&[Fix::ZERO]).is_err());
    }

    #[test]
    fn confidence_is_purity() {
        let ds = xor_dataset();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        let (label, conf) = tree
            .predict_with_confidence(&[Fix::ZERO, Fix::ZERO])
            .unwrap();
        assert_eq!(label, 0);
        assert_eq!(conf, Fix::ONE); // Pure leaves on a noiseless dataset.
    }

    #[test]
    fn single_class_dataset_is_a_leaf() {
        let ds = Dataset::from_samples(vec![
            Sample::from_f64(&[1.0], 0),
            Sample::from_f64(&[2.0], 0),
        ])
        .unwrap();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[Fix::from_int(99)]).unwrap(), 0);
    }

    #[test]
    fn gini_importance_identifies_informative_feature() {
        // Feature 0 decides the label; feature 1 is constant noise.
        let mut samples = Vec::new();
        for i in 0..40 {
            let x = i as f64;
            samples.push(Sample::from_f64(&[x, 1.0], (x >= 20.0) as usize));
        }
        let ds = Dataset::from_samples(samples).unwrap();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        let imp = tree.gini_importance();
        assert!(imp[0] > 0.99, "importance {imp:?}");
        assert!(imp[1] < 0.01);
    }

    /// A dataset of `n` samples whose feature values are drawn from
    /// `0..spread`: a small `spread` makes the columns duplicate-heavy.
    fn random_dataset(
        g: &mut rkd_testkit::prop::Gen,
        n: usize,
        n_features: usize,
        n_classes: usize,
        spread: i64,
    ) -> Dataset {
        use rkd_testkit::rng::Rng;
        let samples = (0..n)
            .map(|_| Sample {
                features: (0..n_features)
                    .map(|_| Fix::from_int(g.gen_range(0..spread) - spread / 2))
                    .collect(),
                label: g.gen_range(0..n_classes),
            })
            .collect();
        Dataset::from_samples(samples).unwrap()
    }

    rkd_testkit::prop_check!(matches_reference_trainer, cases = 1200, |g| {
        use rkd_testkit::rng::Rng;
        let n = g.gen_range(1..300usize);
        let n_features = g.gen_range(1..12usize);
        let n_classes = g.gen_range(1..16usize);
        let spread = [2, 4, 17, 400][g.gen_range(0..4usize)];
        let ds = random_dataset(g, n, n_features, n_classes, spread);
        let cfg = TreeConfig {
            max_depth: g.gen_range(0..10),
            min_samples_split: g.gen_range(2..6),
            max_thresholds: g.gen_range(1..33),
        };
        let tree = DecisionTree::train(&ds, &cfg).unwrap();
        assert_eq!(tree, reference::train(&ds, &cfg).unwrap());
    });

    /// One matrix, several label vectors: each tree equals the one
    /// trained from a dataset carrying those labels.
    #[test]
    fn one_matrix_serves_many_label_vectors() {
        let mut g = rkd_testkit::prop::Gen::new(7, 1.0);
        let ds = random_dataset(&mut g, 200, 6, 5, 9);
        let (matrix, labels) = ds.to_columns().unwrap();
        let cfg = TreeConfig::default();
        for shift in 0..3 {
            let shifted: Vec<usize> = labels.iter().map(|&l| (l + shift) % 5).collect();
            let relabeled = Dataset::from_samples(
                ds.samples()
                    .iter()
                    .zip(&shifted)
                    .map(|(s, &label)| Sample {
                        features: s.features.clone(),
                        label,
                    })
                    .collect(),
            )
            .unwrap();
            assert_eq!(
                DecisionTree::train_columns(&matrix, &shifted, &cfg).unwrap(),
                reference::train(&relabeled, &cfg).unwrap()
            );
        }
        assert!(matches!(
            DecisionTree::train_columns(&matrix, &labels[1..], &cfg),
            Err(MlError::ShapeMismatch {
                expected: 200,
                got: 199
            })
        ));
    }

    /// The shapes a range-and-sweep trainer gets wrong first.
    #[test]
    fn edge_shapes_match_reference() {
        let both = |ds: &Dataset, cfg: &TreeConfig| {
            let tree = DecisionTree::train(ds, cfg).unwrap();
            assert_eq!(tree, reference::train(ds, cfg).unwrap());
            tree
        };
        let eager = TreeConfig {
            max_depth: 10,
            min_samples_split: 2,
            max_thresholds: 32,
        };
        // Single sample.
        let one = Dataset::from_samples(vec![Sample::from_f64(&[3.0, -1.0], 2)]).unwrap();
        let tree = both(&one, &eager);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.n_classes(), 3);
        // Zero-feature samples: nothing to split on.
        let bare = Dataset::from_samples(
            (0..6)
                .map(|i| Sample {
                    features: Vec::new(),
                    label: i % 2,
                })
                .collect(),
        )
        .unwrap();
        let tree = both(&bare, &eager);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[]).unwrap(), 0);
        // An all-equal column beside an informative one.
        let flat = Dataset::from_samples(
            (0..20)
                .map(|i| Sample::from_f64(&[5.0, i as f64], (i >= 10) as usize))
                .collect(),
        )
        .unwrap();
        let tree = both(&flat, &eager);
        assert!(matches!(tree.root(), Node::Split { feature: 1, .. }));
        // Only all-equal columns, mixed labels: an impure leaf.
        let stuck =
            Dataset::from_samples((0..8).map(|i| Sample::from_f64(&[1.0], i % 2)).collect())
                .unwrap();
        assert_eq!(both(&stuck, &eager).node_count(), 1);
        // More thresholds allowed than boundaries exist (step = 1).
        let sparse = Dataset::from_samples(
            (0..9)
                .map(|i| Sample::from_f64(&[(i / 3) as f64], i % 3))
                .collect(),
        )
        .unwrap();
        both(
            &sparse,
            &TreeConfig {
                max_thresholds: 1000,
                ..eager
            },
        );
        // Fewer thresholds than boundaries (step > 1), negative values.
        let dense = Dataset::from_samples(
            (0..64)
                .map(|i| Sample::from_f64(&[(i as f64) - 32.0], (i * 7 % 5 == 0) as usize))
                .collect(),
        )
        .unwrap();
        both(
            &dense,
            &TreeConfig {
                max_thresholds: 5,
                ..eager
            },
        );
    }

    #[test]
    fn decoding_rejects_out_of_range_indices() {
        use rkd_testkit::json::{from_str, to_string};
        let tree = DecisionTree::train(&xor_dataset(), &TreeConfig::default()).unwrap();
        assert_eq!(tree.validate(), Ok(()));
        let json = to_string(&tree);
        assert_eq!(from_str::<DecisionTree>(&json).unwrap(), tree);
        // Each of these decoded before and then indexed out of bounds
        // in `predict_with_confidence`.
        for (from, to) in [
            ("\"feature\":0", "\"feature\":2"),
            ("\"label\":1", "\"label\":2"),
            ("\"n_features\":2", "\"n_features\":1"),
            ("\"n_classes\":2", "\"n_classes\":1"),
        ] {
            assert!(json.contains(from), "{from} not in {json}");
            let bad = json.replacen(from, to, 1);
            assert!(from_str::<DecisionTree>(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn deeper_trees_never_increase_training_error() {
        let ds = xor_dataset();
        let mut prev = 0.0;
        for d in 0..4 {
            let cfg = TreeConfig {
                max_depth: d,
                min_samples_split: 2,
                max_thresholds: 16,
            };
            let acc = DecisionTree::train(&ds, &cfg)
                .unwrap()
                .evaluate(&ds)
                .unwrap();
            assert!(acc >= prev - 1e-12, "depth {d}: {acc} < {prev}");
            prev = acc;
        }
    }
}

rkd_testkit::impl_json_enum!(Node {
    Leaf { label, counts },
    Split {
        feature,
        threshold,
        left,
        right
    },
});

impl rkd_testkit::json::ToJson for DecisionTree {
    fn to_json(&self) -> rkd_testkit::json::Json {
        rkd_testkit::json::Json::Obj(vec![
            (
                "root".to_string(),
                rkd_testkit::json::ToJson::to_json(&self.root),
            ),
            (
                "n_features".to_string(),
                rkd_testkit::json::ToJson::to_json(&self.n_features),
            ),
            (
                "n_classes".to_string(),
                rkd_testkit::json::ToJson::to_json(&self.n_classes),
            ),
        ])
    }
}

impl rkd_testkit::json::FromJson for DecisionTree {
    fn from_json(
        json: &rkd_testkit::json::Json,
    ) -> Result<DecisionTree, rkd_testkit::json::JsonError> {
        let tree = DecisionTree {
            root: Node::from_json(json.field("root")?).map_err(|e| e.context("root"))?,
            n_features: usize::from_json(json.field("n_features")?)
                .map_err(|e| e.context("n_features"))?,
            n_classes: usize::from_json(json.field("n_classes")?)
                .map_err(|e| e.context("n_classes"))?,
        };
        tree.validate()
            .map_err(|e| rkd_testkit::json::JsonError::new(e.to_string()))?;
        Ok(tree)
    }
}
