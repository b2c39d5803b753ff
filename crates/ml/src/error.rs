//! Error types for the ML library.

use core::fmt;

/// Errors produced by ML training, inference, and model admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// A tensor or feature-vector shape did not match what the operation
    /// required.
    ShapeMismatch {
        /// The length/dimension the operation expected.
        expected: usize,
        /// The length/dimension it received.
        got: usize,
    },
    /// A dataset was empty or otherwise unusable for training.
    EmptyDataset,
    /// Training data had inconsistent feature dimensionality.
    InconsistentFeatures {
        /// Dimensionality of the first sample.
        expected: usize,
        /// Dimensionality of the offending sample.
        got: usize,
    },
    /// A label was outside the model's class range.
    InvalidLabel {
        /// The offending label.
        label: usize,
        /// Number of classes the model supports.
        classes: usize,
    },
    /// A hyperparameter was outside its valid range.
    InvalidHyperparameter(&'static str),
    /// A model's stored structure is inconsistent (array lengths that
    /// disagree with its dimensions, layers that do not chain, an index
    /// or weight out of range) — what decoding and admission reject so
    /// that inference never has to.
    Malformed(&'static str),
    /// A model exceeded the admission budget computed by the verifier.
    OverBudget {
        /// The cost metric that was exceeded (e.g. "macs", "memory").
        metric: &'static str,
        /// The computed cost.
        cost: u64,
        /// The admissible budget.
        budget: u64,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            MlError::EmptyDataset => write!(f, "empty dataset"),
            MlError::InconsistentFeatures { expected, got } => {
                write!(
                    f,
                    "inconsistent feature count: expected {expected}, got {got}"
                )
            }
            MlError::InvalidLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            MlError::InvalidHyperparameter(name) => {
                write!(f, "invalid hyperparameter: {name}")
            }
            MlError::Malformed(what) => write!(f, "malformed model: {what}"),
            MlError::OverBudget {
                metric,
                cost,
                budget,
            } => write!(f, "model over budget: {metric} = {cost} > {budget}"),
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = MlError::ShapeMismatch {
            expected: 4,
            got: 3,
        };
        assert_eq!(e.to_string(), "shape mismatch: expected 4, got 3");
        assert_eq!(MlError::EmptyDataset.to_string(), "empty dataset");
        let e = MlError::OverBudget {
            metric: "macs",
            cost: 100,
            budget: 50,
        };
        assert!(e.to_string().contains("macs = 100 > 50"));
        let e = MlError::InvalidLabel {
            label: 7,
            classes: 2,
        };
        assert!(e.to_string().contains("label 7"));
        assert!(MlError::InvalidHyperparameter("depth")
            .to_string()
            .contains("depth"));
        assert!(MlError::Malformed("qmlp layer chaining")
            .to_string()
            .contains("layer chaining"));
        let e = MlError::InconsistentFeatures {
            expected: 2,
            got: 5,
        };
        assert!(e.to_string().contains("expected 2"));
    }
}
