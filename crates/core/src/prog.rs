//! RMT program definition and builder.
//!
//! An [`RmtProgram`] is the unit of installation: context schema,
//! match/action tables, bytecode actions, maps, weight tensors, ML
//! models, and the safety policies (rate limits, privacy) the verifier
//! enforces. Programs are produced either through [`ProgramBuilder`]
//! (the "constrained C" API) or by compiling the DSL (`rkd-lang`), and
//! must pass [`crate::verifier::verify`] before
//! [`crate::machine::RmtMachine::install`] accepts them.

use crate::bytecode::Action;
use crate::ctxt::CtxtSchema;
use crate::maps::{MapDef, MapId, MapKind};
use crate::opt::OptLevel;
use crate::table::{Entry, TableDef, TableId};
use rkd_ml::cost::{Costed, LatencyClass, ModelCost};
use rkd_ml::fixed::Fix;
use rkd_ml::quant::QuantMlp;
use rkd_ml::svm::IntSvm;
use rkd_ml::tensor::Tensor;
use rkd_ml::tree::DecisionTree;
use rkd_ml::MlError;

/// A kernel-admissible ML model (the Figure 1 model zoo).
#[derive(Clone, Debug)]
pub enum ModelSpec {
    /// Integer decision tree.
    Tree(DecisionTree),
    /// Integer linear SVM (binary).
    Svm(IntSvm),
    /// Quantized MLP.
    Qmlp(QuantMlp),
}

impl ModelSpec {
    /// Feature arity the model expects.
    pub fn n_features(&self) -> usize {
        match self {
            ModelSpec::Tree(t) => t.n_features(),
            ModelSpec::Svm(s) => s.weights.len(),
            ModelSpec::Qmlp(q) => q.n_features(),
        }
    }

    /// Runs inference: predicted class plus a Q16.16 confidence.
    ///
    /// Confidence is leaf purity for trees, `sigmoid(|decision|)` for
    /// SVMs, and 1.0 for quantized MLPs (whose logits are not
    /// calibrated).
    pub fn predict(&self, features: &[Fix]) -> Result<(usize, Fix), MlError> {
        match self {
            ModelSpec::Tree(t) => t.predict_with_confidence(features),
            ModelSpec::Svm(s) => {
                let d = s.decision(features)?;
                Ok(((d > Fix::ZERO) as usize, d.abs().sigmoid()))
            }
            ModelSpec::Qmlp(q) => Ok((q.predict(features)?, Fix::ONE)),
        }
    }

    /// Checks the structural invariants inference relies on without
    /// re-checking: quantized-MLP array lengths, layer chaining and
    /// weight range; tree feature and label indices; an SVM that has
    /// weights at all. O(model size). The verifier (install, restore)
    /// and model hot-swap call it, so no malformed model reaches a hook
    /// however it was built.
    pub fn validate(&self) -> Result<(), MlError> {
        match self {
            ModelSpec::Tree(t) => t.validate(),
            ModelSpec::Svm(s) if s.weights.is_empty() => {
                Err(MlError::Malformed("svm has no weights"))
            }
            ModelSpec::Svm(_) => Ok(()),
            ModelSpec::Qmlp(q) => q.validate(),
        }
    }

    /// Static inference cost, for verifier admission.
    pub fn cost(&self) -> ModelCost {
        match self {
            ModelSpec::Tree(t) => t.cost(),
            ModelSpec::Svm(s) => s.cost(),
            ModelSpec::Qmlp(q) => q.cost(),
        }
    }

    /// Short kind name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ModelSpec::Tree(_) => "tree",
            ModelSpec::Svm(_) => "svm",
            ModelSpec::Qmlp(_) => "qmlp",
        }
    }
}

/// A named model plus the latency class of the hook it serves.
#[derive(Clone, Debug)]
pub struct ModelDef {
    /// Model name.
    pub name: String,
    /// The model.
    pub spec: ModelSpec,
    /// Latency class whose budget the verifier applies.
    pub latency_class: LatencyClass,
    /// Optional safety guardrails applied to every inference (§3.3
    /// model safety); survives model hot-swaps.
    pub guard: Option<crate::guard::ModelGuard>,
}

/// Token-bucket rate limit applied to resource-emitting actions
/// (§3.3 performance interference).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateLimitCfg {
    /// Maximum tokens in the bucket (burst size).
    pub capacity: u64,
    /// Tokens refilled per machine tick.
    pub refill_per_tick: u64,
}

/// Privacy policy for cross-application programs (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrivacyPolicy {
    /// Total privacy budget in milli-epsilon.
    pub budget_milli_eps: u64,
    /// Charge per `DpAggregate` query in milli-epsilon.
    pub per_query_milli_eps: u64,
    /// Query sensitivity (max change one record can cause), used to
    /// scale the noise.
    pub sensitivity: u64,
}

impl Default for PrivacyPolicy {
    fn default() -> PrivacyPolicy {
        PrivacyPolicy {
            budget_milli_eps: 10_000, // epsilon = 10 total.
            per_query_milli_eps: 100, // epsilon = 0.1 per query.
            sensitivity: 1,
        }
    }
}

/// A complete, not-yet-verified RMT program.
#[derive(Clone, Debug)]
pub struct RmtProgram {
    /// Program name.
    pub name: String,
    /// Context field schema.
    pub schema: CtxtSchema,
    /// Table definitions, indexed by [`TableId`].
    pub tables: Vec<TableDef>,
    /// Entries statically encoded in the program.
    pub initial_entries: Vec<(TableId, Entry)>,
    /// Action bodies, indexed by [`crate::table::ActionId`].
    pub actions: Vec<Action>,
    /// Map declarations, indexed by [`MapId`].
    pub maps: Vec<MapDef>,
    /// Weight tensors for `RMT_MAT_MUL`, indexed by
    /// [`crate::bytecode::TensorSlot`].
    pub tensors: Vec<Tensor>,
    /// ML models, indexed by [`crate::bytecode::ModelSlot`].
    pub models: Vec<ModelDef>,
    /// Rate-limit configuration for resource-emitting actions; `None`
    /// means the verifier must insert the default guard.
    pub rate_limit: Option<RateLimitCfg>,
    /// Privacy policy (meaningful when any map is shared).
    pub privacy: PrivacyPolicy,
    /// Optimization level for this program's actions — the only
    /// selector of what the machine executes. Defaults to
    /// [`OptLevel::O2`]; [`OptLevel::O0`] is the oracle path that
    /// executes exactly the verified bytecode, unfused.
    pub opt_level: OptLevel,
}

impl RmtProgram {
    /// Creates an empty program with the given name.
    pub fn new(name: &str) -> RmtProgram {
        RmtProgram {
            name: name.to_string(),
            schema: CtxtSchema::new(),
            tables: Vec::new(),
            initial_entries: Vec::new(),
            actions: Vec::new(),
            maps: Vec::new(),
            tensors: Vec::new(),
            models: Vec::new(),
            rate_limit: None,
            privacy: PrivacyPolicy::default(),
            opt_level: OptLevel::default(),
        }
    }
}

/// Fluent builder for [`RmtProgram`].
///
/// # Examples
///
/// ```
/// use rkd_core::prog::ProgramBuilder;
/// use rkd_core::table::MatchKind;
/// use rkd_core::bytecode::{Action, Insn, Reg};
///
/// let mut b = ProgramBuilder::new("demo");
/// let pid = b.field_readonly("pid");
/// let act = b.action(Action::new("noop", vec![Insn::Exit]));
/// let _tab = b.table("t", "hook", &[pid], MatchKind::Exact, Some(act), 16);
/// let prog = b.build();
/// assert_eq!(prog.tables.len(), 1);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    prog: RmtProgram,
}

impl ProgramBuilder {
    /// Starts a new program.
    pub fn new(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            prog: RmtProgram::new(name),
        }
    }

    /// Declares a read-only (kernel-provided) context field.
    pub fn field_readonly(&mut self, name: &str) -> crate::ctxt::FieldId {
        self.prog.schema.add_readonly(name)
    }

    /// Declares a writable scratch context field.
    pub fn field_scratch(&mut self, name: &str) -> crate::ctxt::FieldId {
        self.prog.schema.add_scratch(name)
    }

    /// Adds an action, returning its id.
    pub fn action(&mut self, action: Action) -> crate::table::ActionId {
        self.prog.actions.push(action);
        crate::table::ActionId((self.prog.actions.len() - 1) as u16)
    }

    /// Adds a table, returning its id.
    pub fn table(
        &mut self,
        name: &str,
        hook: &str,
        key_fields: &[crate::ctxt::FieldId],
        kind: MatchKind,
        default_action: Option<crate::table::ActionId>,
        max_entries: usize,
    ) -> TableId {
        self.prog.tables.push(TableDef {
            name: name.to_string(),
            hook: hook.to_string(),
            key_fields: key_fields.to_vec(),
            kind,
            default_action,
            max_entries,
        });
        TableId((self.prog.tables.len() - 1) as u16)
    }

    /// Adds a statically encoded entry.
    pub fn entry(&mut self, table: TableId, entry: Entry) -> &mut Self {
        self.prog.initial_entries.push((table, entry));
        self
    }

    /// Declares a map, returning its id.
    pub fn map(&mut self, name: &str, kind: MapKind, capacity: usize) -> MapId {
        self.prog.maps.push(MapDef {
            name: name.to_string(),
            kind,
            capacity,
            shared: false,
            per_cpu: false,
        });
        MapId((self.prog.maps.len() - 1) as u16)
    }

    /// Declares a cross-application (shared) map; reads must go through
    /// `DpAggregate`.
    pub fn shared_map(&mut self, name: &str, kind: MapKind, capacity: usize) -> MapId {
        self.prog.maps.push(MapDef {
            name: name.to_string(),
            kind,
            capacity,
            shared: true,
            per_cpu: false,
        });
        MapId((self.prog.maps.len() - 1) as u16)
    }

    /// Declares a per-CPU map (eBPF `PERCPU_HASH`/`PERCPU_ARRAY`
    /// analogue): each shard of a [`crate::shard::ShardedMachine`]
    /// writes its own replica; control-plane reads sum across shards.
    /// The verifier restricts the flag to [`MapKind::Hash`] and
    /// [`MapKind::Array`].
    pub fn per_cpu_map(&mut self, name: &str, kind: MapKind, capacity: usize) -> MapId {
        self.prog.maps.push(MapDef {
            name: name.to_string(),
            kind,
            capacity,
            shared: false,
            per_cpu: true,
        });
        MapId((self.prog.maps.len() - 1) as u16)
    }

    /// Adds a weight tensor to the pool.
    pub fn tensor(&mut self, t: Tensor) -> crate::bytecode::TensorSlot {
        self.prog.tensors.push(t);
        crate::bytecode::TensorSlot((self.prog.tensors.len() - 1) as u16)
    }

    /// Adds a model to the zoo.
    pub fn model(
        &mut self,
        name: &str,
        spec: ModelSpec,
        latency_class: LatencyClass,
    ) -> crate::bytecode::ModelSlot {
        self.prog.models.push(ModelDef {
            name: name.to_string(),
            spec,
            latency_class,
            guard: None,
        });
        crate::bytecode::ModelSlot((self.prog.models.len() - 1) as u16)
    }

    /// Adds a model with safety guardrails (§3.3): out-of-range or
    /// low-confidence predictions fall back to the guard's safe class.
    pub fn model_guarded(
        &mut self,
        name: &str,
        spec: ModelSpec,
        latency_class: LatencyClass,
        guard: crate::guard::ModelGuard,
    ) -> crate::bytecode::ModelSlot {
        self.prog.models.push(ModelDef {
            name: name.to_string(),
            spec,
            latency_class,
            guard: Some(guard),
        });
        crate::bytecode::ModelSlot((self.prog.models.len() - 1) as u16)
    }

    /// Sets the rate-limit configuration.
    pub fn rate_limit(&mut self, cfg: RateLimitCfg) -> &mut Self {
        self.prog.rate_limit = Some(cfg);
        self
    }

    /// Sets the privacy policy.
    pub fn privacy(&mut self, policy: PrivacyPolicy) -> &mut Self {
        self.prog.privacy = policy;
        self
    }

    /// Sets the optimization level (defaults to [`OptLevel::O2`];
    /// [`OptLevel::O0`] executes the verified bytecode unchanged).
    pub fn opt_level(&mut self, level: OptLevel) -> &mut Self {
        self.prog.opt_level = level;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> RmtProgram {
        self.prog
    }
}

pub use crate::table::MatchKind;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Insn;
    use rkd_ml::dataset::{Dataset, Sample};
    use rkd_ml::tree::TreeConfig;

    fn tree() -> DecisionTree {
        let ds = Dataset::from_samples(vec![
            Sample::from_f64(&[0.0], 0),
            Sample::from_f64(&[0.1], 0),
            Sample::from_f64(&[0.9], 1),
            Sample::from_f64(&[1.0], 1),
        ])
        .unwrap();
        DecisionTree::train(&ds, &TreeConfig::default()).unwrap()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = ProgramBuilder::new("p");
        let f0 = b.field_readonly("a");
        let f1 = b.field_scratch("b");
        assert_eq!(f0.0, 0);
        assert_eq!(f1.0, 1);
        let a0 = b.action(Action::new("x", vec![Insn::Exit]));
        let a1 = b.action(Action::new("y", vec![Insn::Exit]));
        assert_eq!(a0.0, 0);
        assert_eq!(a1.0, 1);
        let t0 = b.table("t", "h", &[f0], MatchKind::Exact, None, 4);
        assert_eq!(t0.0, 0);
        let m0 = b.map("m", MapKind::Hash, 8);
        let m1 = b.shared_map("s", MapKind::Histogram, 4);
        assert_eq!(m0.0, 0);
        assert_eq!(m1.0, 1);
        let prog = b.build();
        assert!(!prog.maps[0].shared);
        assert!(prog.maps[1].shared);
        assert_eq!(prog.name, "p");
    }

    #[test]
    fn model_spec_predict_and_cost() {
        let spec = ModelSpec::Tree(tree());
        assert_eq!(spec.n_features(), 1);
        assert_eq!(spec.kind_name(), "tree");
        let (label, conf) = spec.predict(&[Fix::from_f64(0.9)]).unwrap();
        assert_eq!(label, 1);
        assert_eq!(conf, Fix::ONE);
        assert!(spec.cost().compares >= 1);

        let svm = ModelSpec::Svm(IntSvm {
            weights: vec![Fix::ONE],
            bias: Fix::ZERO,
        });
        let (label, conf) = svm.predict(&[Fix::from_int(3)]).unwrap();
        assert_eq!(label, 1);
        assert!(conf > Fix::HALF);
        assert_eq!(svm.kind_name(), "svm");
    }

    #[test]
    fn model_spec_shape_errors_propagate() {
        let spec = ModelSpec::Tree(tree());
        assert!(spec.predict(&[Fix::ZERO, Fix::ZERO]).is_err());
    }

    #[test]
    fn privacy_default_is_sane() {
        let p = PrivacyPolicy::default();
        assert!(p.per_query_milli_eps <= p.budget_milli_eps);
        assert!(p.sensitivity >= 1);
    }
}

rkd_testkit::impl_json_enum!(ModelSpec {
    Tree(tree),
    Svm(svm),
    Qmlp(qmlp),
});

rkd_testkit::impl_json_struct!(ModelDef {
    name,
    spec,
    latency_class,
    guard
});

rkd_testkit::impl_json_struct!(RateLimitCfg {
    capacity,
    refill_per_tick
});

rkd_testkit::impl_json_struct!(PrivacyPolicy {
    budget_milli_eps,
    per_query_milli_eps,
    sensitivity
});

rkd_testkit::impl_json_struct!(RmtProgram {
    name,
    schema,
    tables,
    initial_entries,
    actions,
    maps,
    tensors,
    models,
    rate_limit,
    privacy,
    opt_level
});
