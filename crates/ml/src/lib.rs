//! # rkd-ml — lightweight in-kernel machine learning
//!
//! The ML substrate of the reconfigurable-kernel-datapaths architecture
//! (HotOS '21). Everything a "kernel side" component executes is
//! integer-only — Q16.16 fixed point ([`fixed::Fix`]) and integer
//! tensors ([`tensor::Tensor`]) — because the paper rules out in-kernel
//! FPU use (§3.2). Floating point appears only on the "userspace"
//! training side ([`mlp`], [`svm::LinearSvm`]) and is frozen into
//! integer models by [`quant`] before being pushed into the VM.
//!
//! The model zoo matches the paper's Figure 1: integer decision trees
//! ([`tree`]), integer SVMs ([`svm`]), and quantized DNNs ([`quant`]).
//! Supporting machinery implements the paper's stated techniques:
//! knowledge distillation ([`distill`]), feature-importance ranking
//! for lean monitoring ([`feature`]), and static cost estimation for
//! verifier admission ([`cost`]).
//!
//! # Examples
//!
//! Train a decision tree and check it fits a scheduler-grade budget:
//!
//! ```
//! use rkd_ml::cost::{CostBudget, Costed, LatencyClass};
//! use rkd_ml::dataset::{Dataset, Sample};
//! use rkd_ml::tree::{DecisionTree, TreeConfig};
//!
//! let data = Dataset::from_samples(vec![
//!     Sample::from_f64(&[1.0], 0),
//!     Sample::from_f64(&[9.0], 1),
//! ]).unwrap();
//! let tree = DecisionTree::train(&data, &TreeConfig::default()).unwrap();
//! CostBudget::for_class(LatencyClass::Scheduler)
//!     .admit(&tree.cost())
//!     .unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod dataset;
pub mod distill;
pub mod error;
pub mod feature;
pub mod fixed;
pub mod metrics;
pub mod mlp;
pub mod quant;
pub mod search;
pub mod svm;
pub mod tensor;
pub mod tree;

pub use error::MlError;
pub use fixed::Fix;
