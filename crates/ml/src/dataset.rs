//! Labeled datasets of fixed-point feature vectors.
//!
//! Kernel-side training data is collected by RMT table actions
//! (`data_collection()` in the paper's Figure 1) as fixed-point feature
//! vectors with small-integer class labels. This module holds that data
//! and provides the splits and normalization used by the trainers.

use crate::error::MlError;
use crate::fixed::Fix;
use rkd_testkit::rng::Rng;
use rkd_testkit::rng::SliceRandom;

/// One labeled training sample: a feature vector and a class label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Fixed-point feature values.
    pub features: Vec<Fix>,
    /// Class label in `[0, n_classes)`.
    pub label: usize,
}

impl Sample {
    /// Creates a sample from `f64` features (userspace convenience).
    pub fn from_f64(features: &[f64], label: usize) -> Sample {
        Sample {
            features: features.iter().map(|&v| Fix::from_f64(v)).collect(),
            label,
        }
    }
}

/// A labeled dataset with consistent feature dimensionality.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    samples: Vec<Sample>,
    n_features: usize,
    n_classes: usize,
}

impl Dataset {
    /// Creates an empty dataset; dimensionality is fixed by the first
    /// pushed sample.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Builds a dataset from samples, validating consistency.
    pub fn from_samples(samples: Vec<Sample>) -> Result<Dataset, MlError> {
        let mut ds = Dataset::new();
        for s in samples {
            ds.push(s)?;
        }
        Ok(ds)
    }

    /// Appends a sample, checking feature dimensionality.
    pub fn push(&mut self, sample: Sample) -> Result<(), MlError> {
        if self.samples.is_empty() {
            self.n_features = sample.features.len();
        } else if sample.features.len() != self.n_features {
            return Err(MlError::InconsistentFeatures {
                expected: self.n_features,
                got: sample.features.len(),
            });
        }
        self.n_classes = self.n_classes.max(sample.label + 1);
        self.samples.push(sample);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Feature dimensionality (0 if empty).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes (`max label + 1`; 0 if empty).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// All samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Shuffles and splits into `(train, test)` with `train_frac` of the
    /// samples (at least one each side when possible) going to train.
    ///
    /// Returns [`MlError::EmptyDataset`] on an empty dataset and
    /// [`MlError::InvalidHyperparameter`] if `train_frac` is not in
    /// `(0, 1)`.
    pub fn split(
        &self,
        train_frac: f64,
        rng: &mut impl Rng,
    ) -> Result<(Dataset, Dataset), MlError> {
        if self.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if !(train_frac > 0.0 && train_frac < 1.0) {
            return Err(MlError::InvalidHyperparameter("train_frac"));
        }
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let cut = ((self.len() as f64 * train_frac).round() as usize).clamp(1, self.len() - 1);
        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for (i, &s) in idx.iter().enumerate() {
            let sample = self.samples[s].clone();
            if i < cut {
                train.push(sample)?;
            } else {
                test.push(sample)?;
            }
        }
        Ok((train, test))
    }

    /// Projects the dataset onto a subset of feature columns — the
    /// mechanism behind "lean monitoring": after feature-importance
    /// ranking selects the key features, retraining uses only those
    /// columns.
    ///
    /// Returns [`MlError::ShapeMismatch`] if any index is out of range.
    pub fn select_features(&self, indices: &[usize]) -> Result<Dataset, MlError> {
        for &i in indices {
            if i >= self.n_features {
                return Err(MlError::ShapeMismatch {
                    expected: self.n_features,
                    got: i,
                });
            }
        }
        let mut out = Dataset::new();
        for s in &self.samples {
            out.push(Sample {
                features: indices.iter().map(|&i| s.features[i]).collect(),
                label: s.label,
            })?;
        }
        Ok(out)
    }

    /// Per-feature min/max normalization to `[0, 1]`, returning the new
    /// dataset and the `(min, max)` per feature so the same transform can
    /// be applied at inference time.
    pub fn normalize(&self) -> Result<(Dataset, Vec<(Fix, Fix)>), MlError> {
        if self.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let mut ranges = vec![(Fix::MAX, Fix::MIN); self.n_features];
        for s in &self.samples {
            for (j, &v) in s.features.iter().enumerate() {
                ranges[j].0 = ranges[j].0.min(v);
                ranges[j].1 = ranges[j].1.max(v);
            }
        }
        let mut out = Dataset::new();
        for s in &self.samples {
            out.push(Sample {
                features: s
                    .features
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| apply_norm(v, ranges[j]))
                    .collect(),
                label: s.label,
            })?;
        }
        Ok((out, ranges))
    }

    /// The presorted column view of the features, and the labels
    /// beside it.
    pub fn to_columns(&self) -> Result<(FeatureMatrix, Vec<usize>), MlError> {
        let matrix = FeatureMatrix::from_fn(self.len(), self.n_features, |r, f| {
            self.samples[r].features[f]
        })?;
        Ok((matrix, self.samples.iter().map(|s| s.label).collect()))
    }

    /// Counts samples per class label.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for s in &self.samples {
            counts[s.label] += 1;
        }
        counts
    }
}

/// Column-major, presorted view of a feature table — what the tree
/// trainer consumes ([`crate::tree::DecisionTree::train_columns`]).
///
/// Every feature column is stored once, sorted by value, as packed
/// `(value, row)` keys. The sort is paid when the matrix is built, so
/// one matrix serves any number of label vectors: the prefetcher's
/// cascade trains one tree per lookahead depth over the same features.
#[derive(Clone, Debug)]
pub struct FeatureMatrix {
    n_rows: usize,
    n_features: usize,
    /// `n_features` runs of `n_rows` keys, each run ascending.
    sorted: Vec<u64>,
}

impl FeatureMatrix {
    /// Builds the matrix from `value(row, feature)`.
    ///
    /// Returns [`MlError::ShapeMismatch`] when `n_rows` does not fit the
    /// 32-bit row id of a key.
    pub fn from_fn(
        n_rows: usize,
        n_features: usize,
        mut value: impl FnMut(usize, usize) -> Fix,
    ) -> Result<FeatureMatrix, MlError> {
        if u32::try_from(n_rows).is_err() {
            return Err(MlError::ShapeMismatch {
                expected: u32::MAX as usize,
                got: n_rows,
            });
        }
        let mut sorted = Vec::with_capacity(n_rows * n_features);
        for f in 0..n_features {
            sorted.extend((0..n_rows).map(|r| pack_key(value(r, f), r as u32)));
            // Keys are distinct (the row id breaks ties), so the
            // unstable sort yields the stable order.
            sorted[f * n_rows..].sort_unstable();
        }
        Ok(FeatureMatrix {
            n_rows,
            n_features,
            sorted,
        })
    }

    /// Number of rows (samples).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The presorted columns, feature-major.
    pub(crate) fn sorted_keys(&self) -> &[u64] {
        &self.sorted
    }
}

/// Packs a feature value and its row id so that `u64` order is
/// `(value, row)` order: the value's sign bit is flipped into offset
/// binary and takes the high half.
fn pack_key(value: Fix, row: u32) -> u64 {
    (((value.raw() as u32) ^ 0x8000_0000) as u64) << 32 | row as u64
}

/// The feature value of a packed key.
pub(crate) fn key_value(key: u64) -> Fix {
    Fix::from_raw(((key >> 32) as u32 ^ 0x8000_0000) as i32)
}

/// The row id of a packed key.
pub(crate) fn key_row(key: u64) -> usize {
    key as u32 as usize
}

/// Applies the min/max normalization transform computed by
/// [`Dataset::normalize`] to a single value.
pub fn apply_norm(v: Fix, (lo, hi): (Fix, Fix)) -> Fix {
    let span = hi - lo;
    if span == Fix::ZERO {
        Fix::ZERO
    } else {
        ((v - lo) / span).clamp(Fix::ZERO, Fix::ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkd_testkit::rng::SeedableRng;
    use rkd_testkit::rng::StdRng;

    fn toy() -> Dataset {
        Dataset::from_samples(vec![
            Sample::from_f64(&[0.0, 10.0], 0),
            Sample::from_f64(&[1.0, 20.0], 1),
            Sample::from_f64(&[2.0, 30.0], 0),
            Sample::from_f64(&[3.0, 40.0], 1),
        ])
        .unwrap()
    }

    #[test]
    fn push_tracks_shape_and_classes() {
        let ds = toy();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.class_counts(), vec![2, 2]);
    }

    #[test]
    fn push_rejects_inconsistent_features() {
        let mut ds = toy();
        let err = ds.push(Sample::from_f64(&[1.0], 0)).unwrap_err();
        assert!(matches!(
            err,
            MlError::InconsistentFeatures {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn split_partitions_all_samples() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(7);
        let (train, test) = ds.split(0.5, &mut rng).unwrap();
        assert_eq!(train.len() + test.len(), ds.len());
        assert!(!train.is_empty() && !test.is_empty());
    }

    #[test]
    fn split_validates_inputs() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(ds.split(0.0, &mut rng).is_err());
        assert!(ds.split(1.0, &mut rng).is_err());
        assert!(Dataset::new().split(0.5, &mut rng).is_err());
    }

    #[test]
    fn select_features_projects_columns() {
        let ds = toy();
        let lean = ds.select_features(&[1]).unwrap();
        assert_eq!(lean.n_features(), 1);
        assert_eq!(lean.samples()[0].features[0].to_f64(), 10.0);
        assert!(ds.select_features(&[2]).is_err());
    }

    #[test]
    fn normalize_maps_to_unit_range() {
        let ds = toy();
        let (norm, ranges) = ds.normalize().unwrap();
        for s in norm.samples() {
            for &v in &s.features {
                assert!(v >= Fix::ZERO && v <= Fix::ONE);
            }
        }
        assert_eq!(norm.samples()[0].features[0], Fix::ZERO);
        assert_eq!(norm.samples()[3].features[0], Fix::ONE);
        // Re-applying the stored transform reproduces the training-side
        // normalization.
        assert_eq!(
            apply_norm(Fix::from_f64(1.5), ranges[0]),
            Fix::from_f64(0.5)
        );
    }

    #[test]
    fn normalize_constant_feature_is_zero() {
        let ds = Dataset::from_samples(vec![
            Sample::from_f64(&[5.0], 0),
            Sample::from_f64(&[5.0], 1),
        ])
        .unwrap();
        let (norm, _) = ds.normalize().unwrap();
        assert!(norm.samples().iter().all(|s| s.features[0] == Fix::ZERO));
    }
}
