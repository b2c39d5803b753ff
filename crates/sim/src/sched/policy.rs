//! Migration policies: the CFS heuristic, decision recording, and the
//! RMT/ML policy of case study #2.
//!
//! §4: "The `can_migrate_task` function in CFS calls into RMT to query
//! the ML model to predict whether or not a task should be migrated."
//! [`CfsPolicy`] is the native heuristic (the label source);
//! [`MlPolicy`] routes the decision through an installed RMT program
//! holding a quantized MLP; [`RecordingPolicy`] logs `(features,
//! decision)` pairs for training; [`ShadowPolicy`] runs ML decisions
//! while scoring agreement against the heuristic online — exactly how
//! Table 2's accuracy column is produced.

use crate::sched::features::{MigrationFeatures, N_FEATURES};
use rkd_core::bytecode::{Action, Insn, ModelSlot, VReg};
use rkd_core::ctxt::{Ctxt, FieldId};
use rkd_core::machine::{ExecMode, ProgId, RmtMachine};
use rkd_core::prog::{ModelSpec, ProgramBuilder};
use rkd_core::table::MatchKind;
use rkd_core::verifier::verify;
use rkd_ml::cost::{Costed, LatencyClass};
use rkd_ml::quant::QuantMlp;

/// A `can_migrate_task` decision policy.
pub trait MigrationPolicy {
    /// Policy name for reporting.
    fn name(&self) -> &'static str;

    /// Decides whether the candidate task may migrate.
    fn can_migrate(&mut self, f: &MigrationFeatures) -> bool;

    /// Per-decision overhead in nanoseconds (inference cost charged by
    /// the simulator).
    fn overhead_ns(&self) -> u64 {
        0
    }

    /// Feeds ground truth for an earlier decision back to the policy —
    /// the closing half of §3.1's prediction-accuracy loop. Heuristic
    /// policies have no accuracy to track; the default is a no-op.
    fn report_outcome(&mut self, _predicted: bool, _actual: bool) {}
}

/// The native CFS-like heuristic.
///
/// A deterministic function of the feature vector, mirroring the
/// dominant `can_migrate_task` rules: respect significant imbalance,
/// and refuse to move cache-hot tasks (recently ran with a large
/// footprint).
#[derive(Clone, Copy, Debug)]
pub struct CfsPolicy {
    /// Tasks that ran within this window are cache-hot, in ms.
    pub hot_window_ms: i64,
    /// Footprints above this are expensive to move, in MiB.
    pub hot_footprint_mb: i64,
    /// Minimum imbalance (percent) that justifies migration.
    pub min_imbalance_pct: i64,
    /// Tasks with less remaining work than this never amortize the
    /// migration cost, in ms.
    pub min_remaining_ms: i64,
}

impl Default for CfsPolicy {
    fn default() -> CfsPolicy {
        CfsPolicy {
            hot_window_ms: 2,
            hot_footprint_mb: 2,
            min_imbalance_pct: 25,
            min_remaining_ms: 200,
        }
    }
}

impl MigrationPolicy for CfsPolicy {
    fn name(&self) -> &'static str {
        "cfs"
    }

    fn can_migrate(&mut self, f: &MigrationFeatures) -> bool {
        // Rule 1: the imbalance must be worth it.
        if f.imbalance_pct < self.min_imbalance_pct {
            return false;
        }
        // Rule 2: a fully idle destination is always worth feeding
        // (CFS's idle-balance fast path overrides everything else).
        if f.dst_nr_running == 0 {
            return true;
        }
        // Rule 3: a nearly finished task never amortizes the move.
        if f.remaining_ms < self.min_remaining_ms {
            return false;
        }
        // Rule 4: don't move cache-hot tasks with big footprints.
        let cache_hot = f.time_since_ran_ms < self.hot_window_ms
            && f.cache_footprint_mb >= self.hot_footprint_mb;
        if cache_hot {
            return false;
        }
        true
    }
}

/// Wraps a policy and records every decision for offline training.
#[derive(Debug, Default)]
pub struct RecordingPolicy<P> {
    /// The wrapped policy.
    pub inner: P,
    /// Logged `(features, decision)` pairs.
    pub log: Vec<(MigrationFeatures, bool)>,
}

impl<P: MigrationPolicy> RecordingPolicy<P> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: P) -> RecordingPolicy<P> {
        RecordingPolicy {
            inner,
            log: Vec::new(),
        }
    }
}

impl<P: MigrationPolicy> MigrationPolicy for RecordingPolicy<P> {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn can_migrate(&mut self, f: &MigrationFeatures) -> bool {
        let d = self.inner.can_migrate(f);
        self.log.push((*f, d));
        d
    }

    fn overhead_ns(&self) -> u64 {
        self.inner.overhead_ns()
    }
}

/// The RMT-backed ML policy: a quantized MLP installed at the
/// `can_migrate_task` hook, consulted per candidate migration.
pub struct MlPolicy {
    machine: RmtMachine,
    /// Installed program id (exposed for stats queries).
    pub prog: ProgId,
    slot: ModelSlot,
    selected: Vec<usize>,
    /// The hook's context, one field per selected feature, overwritten
    /// in place by every query.
    ctxt: Ctxt,
    overhead_ns: u64,
    queries: u64,
    aborted_fallbacks: u64,
}

impl MlPolicy {
    /// Builds and installs the policy program for a quantized MLP over
    /// the feature subset `selected` (use `0..N_FEATURES` for the
    /// full-featured model). `mode` is the machine's inert install tag
    /// (see [`ExecMode`]).
    ///
    /// # Panics
    ///
    /// Panics if the model arity does not match `selected.len()` or if
    /// program generation fails verification (builder bugs).
    pub fn new(model: QuantMlp, selected: Vec<usize>, mode: ExecMode) -> MlPolicy {
        assert!(
            !selected.is_empty() && selected.len() <= N_FEATURES,
            "feature subset must be within 1..=15"
        );
        assert_eq!(
            model.n_features(),
            selected.len(),
            "model arity must match selected features"
        );
        // Charge overhead for both inference (op count) and monitoring
        // (per-feature collection cost): the lean model is cheaper on
        // both axes, which is the paper's lean-monitoring argument made
        // quantitative in Table 2's JCT columns.
        const MONITOR_NS_PER_FEATURE: u64 = 40;
        let overhead_ns =
            20 + model.cost().total_ops() + MONITOR_NS_PER_FEATURE * selected.len() as u64;
        let mut b = ProgramBuilder::new("can_migrate.rmt");
        let fields: Vec<_> = (0..selected.len())
            .map(|i| b.field_readonly(&format!("f{i}")))
            .collect();
        let slot = b.model("mlp", ModelSpec::Qmlp(model), LatencyClass::Scheduler);
        let act = b.action(Action::new(
            "ml_can_migrate",
            vec![
                Insn::VectorLdCtxt {
                    dst: VReg(0),
                    base: fields[0],
                    len: selected.len() as u16,
                },
                Insn::CallMl {
                    model: slot,
                    src: VReg(0),
                },
                Insn::Exit,
            ],
        ));
        b.table(
            "can_migrate_tab",
            "can_migrate_task",
            &[fields[0]],
            MatchKind::Exact,
            Some(act),
            8,
        );
        let verified = verify(b.build()).expect("generated policy program must verify");
        let mut machine = RmtMachine::new();
        let prog = machine.install(verified, mode).expect("install policy");
        MlPolicy {
            machine,
            prog,
            slot,
            ctxt: Ctxt::from_values(vec![0; selected.len()]),
            selected,
            overhead_ns,
            queries: 0,
            aborted_fallbacks: 0,
        }
    }

    /// Hot-swaps the model (e.g. after a retrain).
    pub fn update_model(&mut self, model: QuantMlp) -> Result<(), rkd_core::VmError> {
        self.machine
            .update_model(self.prog, self.slot, ModelSpec::Qmlp(model))
    }

    /// Queries answered so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Queries that fell back to "don't migrate" because the datapath
    /// aborted (should stay 0).
    pub fn aborted_fallbacks(&self) -> u64 {
        self.aborted_fallbacks
    }

    /// Observability snapshot of the embedded datapath (hook latency
    /// histograms, machine counters, per-model telemetry).
    pub fn obs_snapshot(&self) -> rkd_core::obs::ObsSnapshot {
        self.machine.obs_snapshot()
    }

    /// Model telemetry of the installed MLP (confusion matrix, rolling
    /// prequential accuracy, drift flag), straight from the machine.
    pub fn model_stats(&self) -> rkd_core::obs::ModelStatsSnapshot {
        self.machine
            .model_stats(self.prog, self.slot)
            .expect("policy model installed")
    }
}

impl MigrationPolicy for MlPolicy {
    fn name(&self) -> &'static str {
        "rmt_ml"
    }

    fn can_migrate(&mut self, f: &MigrationFeatures) -> bool {
        self.queries += 1;
        self.machine.advance_tick(1);
        let all = f.to_array();
        for (field, &i) in self.selected.iter().enumerate() {
            self.ctxt.set(FieldId(field as u16), all[i]);
        }
        let r = self.machine.fire("can_migrate_task", &mut self.ctxt);
        match r.verdict() {
            Some(v) => v == 1,
            None => {
                // Fail closed: an aborted action means no migration.
                self.aborted_fallbacks += 1;
                false
            }
        }
    }

    fn overhead_ns(&self) -> u64 {
        self.overhead_ns
    }

    fn report_outcome(&mut self, predicted: bool, actual: bool) {
        let _ = self
            .machine
            .report_outcome(self.prog, self.slot, predicted as i64, actual as i64);
    }
}

/// Acts on one policy's decisions while scoring agreement against a
/// reference policy — the accuracy column of Table 2.
pub struct ShadowPolicy<A, R> {
    /// The acting policy (its decisions take effect).
    pub acting: A,
    /// The reference policy (consulted but not obeyed).
    pub reference: R,
    /// Decisions where both agreed.
    pub agreements: u64,
    /// Total decisions.
    pub total: u64,
}

impl<A: MigrationPolicy, R: MigrationPolicy> ShadowPolicy<A, R> {
    /// Pairs an acting policy with a reference.
    pub fn new(acting: A, reference: R) -> ShadowPolicy<A, R> {
        ShadowPolicy {
            acting,
            reference,
            agreements: 0,
            total: 0,
        }
    }

    /// Agreement rate in percent (100 if no decisions were made).
    pub fn agreement_pct(&self) -> f64 {
        if self.total == 0 {
            return 100.0;
        }
        100.0 * self.agreements as f64 / self.total as f64
    }
}

impl<A: MigrationPolicy, R: MigrationPolicy> MigrationPolicy for ShadowPolicy<A, R> {
    fn name(&self) -> &'static str {
        "shadow"
    }

    fn can_migrate(&mut self, f: &MigrationFeatures) -> bool {
        let act = self.acting.can_migrate(f);
        let reference = self.reference.can_migrate(f);
        self.total += 1;
        if act == reference {
            self.agreements += 1;
        }
        // The reference heuristic is the label source (§4): close the
        // loop so the acting policy's own machine can track accuracy.
        self.acting.report_outcome(act, reference);
        act
    }

    fn overhead_ns(&self) -> u64 {
        self.acting.overhead_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkd_ml::dataset::{Dataset, Sample};
    use rkd_ml::mlp::{Mlp, MlpConfig};
    use rkd_testkit::rng::SeedableRng;
    use rkd_testkit::rng::StdRng;

    fn features(imbalance: i64, since_ran: i64, footprint: i64) -> MigrationFeatures {
        MigrationFeatures {
            imbalance_pct: imbalance,
            time_since_ran_ms: since_ran,
            cache_footprint_mb: footprint,
            remaining_ms: 5_000,
            ..MigrationFeatures::default()
        }
    }

    #[test]
    fn cfs_rules() {
        let mut p = CfsPolicy::default();
        // Low imbalance: no.
        assert!(!p.can_migrate(&features(10, 100, 0)));
        // High imbalance, cold task: yes.
        assert!(p.can_migrate(&features(50, 100, 0)));
        // Cache-hot big task with a busy destination: no.
        let mut f = features(50, 0, 8);
        f.dst_nr_running = 2;
        assert!(!p.can_migrate(&f));
        // Same task toward an idle destination: yes (idle-balance).
        let mut f = features(50, 0, 8);
        f.dst_nr_running = 0;
        assert!(p.can_migrate(&f));
        // Hot but tiny footprint: yes.
        let mut f = features(50, 0, 0);
        f.dst_nr_running = 2;
        assert!(p.can_migrate(&f));
        // Nearly finished toward a busy destination: no.
        let mut f = features(50, 100, 0);
        f.dst_nr_running = 2;
        f.remaining_ms = 50;
        assert!(!p.can_migrate(&f));
    }

    #[test]
    fn recording_logs_everything() {
        let mut p = RecordingPolicy::new(CfsPolicy::default());
        p.can_migrate(&features(50, 100, 0));
        p.can_migrate(&features(0, 100, 0));
        assert_eq!(p.log.len(), 2);
        assert!(p.log[0].1);
        assert!(!p.log[1].1);
    }

    /// Trains a small MLP that mimics "imbalance >= 25" on one feature.
    fn tiny_model(rng: &mut StdRng) -> QuantMlp {
        let mut samples = Vec::new();
        for i in 0..200 {
            let imb = (i % 100) as f64;
            // Train on normalized inputs; the fold below restores the
            // raw-feature interface.
            samples.push(Sample::from_f64(&[imb / 100.0], (imb >= 25.0) as usize));
        }
        let ds = Dataset::from_samples(samples).unwrap();
        let cfg = MlpConfig {
            hidden: vec![4],
            epochs: 150,
            learning_rate: 0.1,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg, rng).unwrap();
        let folded = mlp.fold_input_normalization(&[(0.0, 100.0)]).unwrap();
        QuantMlp::quantize(&folded, 8).unwrap()
    }

    #[test]
    fn ml_policy_runs_through_rmt() {
        let mut rng = StdRng::seed_from_u64(91);
        let model = tiny_model(&mut rng);
        let mut p = MlPolicy::new(model, vec![4], ExecMode::Jit);
        assert!(p.can_migrate(&features(80, 0, 0)));
        assert!(!p.can_migrate(&features(5, 0, 0)));
        assert_eq!(p.queries(), 2);
        assert_eq!(p.aborted_fallbacks(), 0);
        assert!(p.overhead_ns() > 0);
    }

    #[test]
    fn shadow_scores_agreement() {
        let mut rng = StdRng::seed_from_u64(92);
        let model = tiny_model(&mut rng);
        let ml = MlPolicy::new(model, vec![4], ExecMode::Interp);
        let mut shadow = ShadowPolicy::new(ml, CfsPolicy::default());
        // On cold small tasks the CFS rule reduces to the imbalance
        // check, which the model mimics.
        for imb in [0, 10, 20, 30, 40, 80, 24, 26] {
            shadow.can_migrate(&features(imb, 100, 0));
        }
        assert!(shadow.agreement_pct() > 80.0, "{}", shadow.agreement_pct());
        assert_eq!(shadow.total, 8);
        // The shadow fed every reference decision back as ground
        // truth, so the machine's own telemetry mirrors the agreement
        // score.
        let ms = shadow.acting.model_stats();
        assert_eq!(ms.outcomes, 8);
        assert_eq!(
            ms.hits, shadow.agreements,
            "machine accuracy mirrors shadow agreement"
        );
        assert_eq!(ms.served, 8);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn ml_policy_arity_checked() {
        let mut rng = StdRng::seed_from_u64(93);
        let model = tiny_model(&mut rng); // arity 1
        let _ = MlPolicy::new(model, vec![4, 7], ExecMode::Interp);
    }
}
