//! Static model cost estimation for verifier admission.
//!
//! §3.2: "Models can be added to this library, but they must satisfy a
//! set of performance requirements (e.g., the number of NN layers,
//! memory accesses, or floating point operations). The RMT verifier will
//! statically check the model — e.g., by computing the number of
//! floating point operations for a convolutional layer using the height,
//! width and number of channels of the input feature map — before
//! JIT-compiling it."
//!
//! Budgets are expressed per [`LatencyClass`], reflecting the paper's
//! observation that CPU-scheduling hooks need microsecond-scale
//! inference while prefetch hooks tolerate more.

use crate::error::MlError;
use crate::quant::QuantMlp;
use crate::svm::IntSvm;
use crate::tree::DecisionTree;

/// Statically computed cost of one inference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelCost {
    /// Multiply-accumulate operations (0 for pure-compare models).
    pub macs: u64,
    /// Worst-case branch/compare operations (tree depth, etc.).
    pub compares: u64,
    /// Model memory footprint in bytes.
    pub memory_bytes: u64,
    /// Number of layers (NNs) or 1 for flat models.
    pub layers: u64,
}

impl ModelCost {
    /// A coarse single-number cost used for budget comparison: each MAC
    /// counts 2 ops (multiply + add), each compare 1.
    pub fn total_ops(&self) -> u64 {
        self.macs * 2 + self.compares
    }
}

/// Latency class of the kernel hook a model is being admitted into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// Scheduler-grade hooks: microsecond budget (`can_migrate_task`).
    Scheduler,
    /// Memory-management hooks: tens of microseconds (prefetch decision).
    MemoryManagement,
    /// Background / control-plane paths: effectively unconstrained.
    Background,
}

/// Per-class admission budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostBudget {
    /// Maximum `total_ops` per inference.
    pub max_ops: u64,
    /// Maximum model memory in bytes.
    pub max_memory_bytes: u64,
    /// Maximum NN layer count.
    pub max_layers: u64,
}

impl CostBudget {
    /// The default budget for a latency class.
    pub fn for_class(class: LatencyClass) -> CostBudget {
        match class {
            LatencyClass::Scheduler => CostBudget {
                max_ops: 2_000,
                max_memory_bytes: 16 * 1024,
                max_layers: 4,
            },
            LatencyClass::MemoryManagement => CostBudget {
                max_ops: 50_000,
                max_memory_bytes: 256 * 1024,
                max_layers: 8,
            },
            LatencyClass::Background => CostBudget {
                max_ops: u64::MAX,
                max_memory_bytes: u64::MAX,
                max_layers: u64::MAX,
            },
        }
    }

    /// Checks a cost against this budget.
    ///
    /// Returns [`MlError::OverBudget`] naming the first violated metric.
    pub fn admit(&self, cost: &ModelCost) -> Result<(), MlError> {
        if cost.total_ops() > self.max_ops {
            return Err(MlError::OverBudget {
                metric: "ops",
                cost: cost.total_ops(),
                budget: self.max_ops,
            });
        }
        if cost.memory_bytes > self.max_memory_bytes {
            return Err(MlError::OverBudget {
                metric: "memory",
                cost: cost.memory_bytes,
                budget: self.max_memory_bytes,
            });
        }
        if cost.layers > self.max_layers {
            return Err(MlError::OverBudget {
                metric: "layers",
                cost: cost.layers,
                budget: self.max_layers,
            });
        }
        Ok(())
    }
}

/// Anything whose inference cost the verifier can compute statically.
pub trait Costed {
    /// Computes the static per-inference cost.
    fn cost(&self) -> ModelCost;
}

impl Costed for DecisionTree {
    fn cost(&self) -> ModelCost {
        ModelCost {
            macs: 0,
            compares: self.depth() as u64,
            // Each node: ~2 words of payload + 2 child pointers.
            memory_bytes: self.node_count() as u64 * 32,
            layers: 1,
        }
    }
}

impl Costed for QuantMlp {
    fn cost(&self) -> ModelCost {
        ModelCost {
            macs: self.macs(),
            // One ReLU compare per hidden activation.
            compares: self
                .layers()
                .iter()
                .take(self.layers().len().saturating_sub(1))
                .map(|l| l.out_dim() as u64)
                .sum(),
            memory_bytes: self.memory_bytes(),
            layers: self.layers().len() as u64,
        }
    }
}

impl Costed for IntSvm {
    fn cost(&self) -> ModelCost {
        ModelCost {
            macs: self.macs(),
            compares: 1,
            memory_bytes: self.weights.len() as u64 * 4 + 4,
            layers: 1,
        }
    }
}

/// MACs of a 2-D convolution layer, the formula the paper cites
/// (Molchanov et al.): `H_out * W_out * K_h * K_w * C_in * C_out`.
pub fn conv2d_macs(
    in_h: u64,
    in_w: u64,
    k_h: u64,
    k_w: u64,
    c_in: u64,
    c_out: u64,
) -> Result<u64, MlError> {
    if k_h == 0 || k_w == 0 || k_h > in_h || k_w > in_w || c_in == 0 || c_out == 0 {
        return Err(MlError::InvalidHyperparameter("conv2d shape"));
    }
    let out_h = in_h - k_h + 1;
    let out_w = in_w - k_w + 1;
    Ok(out_h * out_w * k_h * k_w * c_in * c_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Sample};
    use crate::fixed::Fix;
    use crate::tree::TreeConfig;

    fn small_tree() -> DecisionTree {
        let ds = Dataset::from_samples(vec![
            Sample::from_f64(&[0.0], 0),
            Sample::from_f64(&[1.0], 1),
            Sample::from_f64(&[0.1], 0),
            Sample::from_f64(&[0.9], 1),
        ])
        .unwrap();
        DecisionTree::train(&ds, &TreeConfig::default()).unwrap()
    }

    #[test]
    fn tree_cost_reflects_shape() {
        let t = small_tree();
        let c = t.cost();
        assert_eq!(c.compares, t.depth() as u64);
        assert_eq!(c.memory_bytes, t.node_count() as u64 * 32);
        assert_eq!(c.macs, 0);
        assert_eq!(c.total_ops(), c.compares);
    }

    #[test]
    fn svm_cost() {
        let svm = IntSvm {
            weights: vec![Fix::ONE; 10],
            bias: Fix::ZERO,
        };
        let c = svm.cost();
        assert_eq!(c.macs, 10);
        assert_eq!(c.total_ops(), 21);
        assert_eq!(c.memory_bytes, 44);
    }

    #[test]
    fn scheduler_budget_is_tighter_than_mm() {
        let sched = CostBudget::for_class(LatencyClass::Scheduler);
        let mm = CostBudget::for_class(LatencyClass::MemoryManagement);
        assert!(sched.max_ops < mm.max_ops);
        assert!(sched.max_memory_bytes < mm.max_memory_bytes);
    }

    #[test]
    fn admission_rejects_over_budget() {
        let budget = CostBudget::for_class(LatencyClass::Scheduler);
        let ok = ModelCost {
            macs: 100,
            compares: 10,
            memory_bytes: 1024,
            layers: 2,
        };
        assert!(budget.admit(&ok).is_ok());
        let too_many_ops = ModelCost { macs: 10_000, ..ok };
        assert!(matches!(
            budget.admit(&too_many_ops),
            Err(MlError::OverBudget { metric: "ops", .. })
        ));
        let too_big = ModelCost {
            memory_bytes: 1 << 30,
            ..ok
        };
        assert!(matches!(
            budget.admit(&too_big),
            Err(MlError::OverBudget {
                metric: "memory",
                ..
            })
        ));
        let too_deep = ModelCost { layers: 100, ..ok };
        assert!(matches!(
            budget.admit(&too_deep),
            Err(MlError::OverBudget {
                metric: "layers",
                ..
            })
        ));
    }

    #[test]
    fn background_admits_anything() {
        let budget = CostBudget::for_class(LatencyClass::Background);
        let huge = ModelCost {
            macs: u64::MAX / 4,
            compares: 0,
            memory_bytes: u64::MAX,
            layers: u64::MAX,
        };
        assert!(budget.admit(&huge).is_ok());
    }

    #[test]
    fn conv2d_flop_formula() {
        // 28x28 input, 3x3 kernel, 1 -> 8 channels:
        // 26*26*3*3*1*8 = 48,672 MACs.
        assert_eq!(conv2d_macs(28, 28, 3, 3, 1, 8).unwrap(), 48_672);
        assert!(conv2d_macs(2, 2, 3, 3, 1, 1).is_err());
        assert!(conv2d_macs(8, 8, 0, 1, 1, 1).is_err());
        assert!(conv2d_macs(8, 8, 1, 1, 0, 1).is_err());
    }
}

rkd_testkit::impl_json_unit_enum!(LatencyClass {
    Scheduler,
    MemoryManagement,
    Background,
});
