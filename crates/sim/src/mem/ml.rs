//! The learned prefetcher: case study #1 through the RMT VM.
//!
//! §4: "Our RMT pipeline collects page access traces for each process
//! for online training and inference. It trains a new decision tree
//! periodically in the background for each time window, while
//! discarding the old ones. Upon prefetching, another RMT table queries
//! the ML model to predict the next pages to fetch."
//!
//! The datapath is a real RMT program (Figure 1's `prefetch.rmt`):
//!
//! - `page_access_tab` at hook `lookup_swap_cache`: the collection
//!   action computes the access delta, classifies it via a hash map
//!   maintained by the control plane, and pushes the class into a ring
//!   buffer (the per-process access history).
//! - `page_prefetch_tab` at hook `swap_cluster_readahead`: the
//!   prediction action loads the class-history window with
//!   `RMT_VECTOR_LD`, consults an integer decision tree with `CALL`,
//!   maps the predicted class to a page offset, and emits a prefetch.
//!   Deeper lookahead cascades through `TAIL_CALL`ed tables, one tree
//!   per lookahead depth (§3.2: "models can also be cascaded using
//!   TAIL_CALL").
//!
//! The control plane ([`MlPrefetcher`]'s Rust side) mirrors the delta
//! stream, retrains the per-window trees in the background, and pushes
//! models and class maps into the running program — the paper's
//! train-in-background / infer-in-datapath split.

use crate::mem::prefetcher::Prefetcher;
use rkd_core::bytecode::{Action, AluOp, CmpOp, Helper, Insn, ModelSlot, Reg, VReg};
use rkd_core::ctxt::Ctxt;
use rkd_core::interp::Effect;
use rkd_core::machine::{ExecMode, ProgId, ProgStats, RmtMachine};
use rkd_core::maps::{MapId, MapKind};
use rkd_core::prog::{ModelSpec, ProgramBuilder, RateLimitCfg};
use rkd_core::table::{MatchKind, TableId};
use rkd_core::verifier::verify;
use rkd_ml::cost::LatencyClass;
use rkd_ml::dataset::{Dataset, FeatureMatrix, Sample};
use rkd_ml::fixed::Fix;
use rkd_ml::tree::{DecisionTree, TreeConfig};
use std::collections::{HashMap, VecDeque};

/// Class id meaning "unknown / no prefetch" (offset 0).
const CLASS_NONE: u16 = 0;

/// Modulus for the page-position feature pushed alongside each delta
/// class (page offsets within power-of-two allocations are stable).
const POS_MOD: i64 = 256;

/// Configuration for the learned prefetcher.
#[derive(Clone, Copy, Debug)]
pub struct MlPrefetchConfig {
    /// Delta-class history window length (tree feature arity).
    pub history: usize,
    /// Lookahead depth: number of cascaded trees / prefetches per
    /// decision.
    pub depth: usize,
    /// Maximum distinct delta classes (per vocabulary).
    pub max_classes: usize,
    /// Training window: retrain after this many new samples.
    pub window: usize,
    /// Tree hyperparameters.
    pub tree: TreeConfig,
}

impl Default for MlPrefetchConfig {
    fn default() -> MlPrefetchConfig {
        MlPrefetchConfig {
            history: 6,
            depth: 3,
            max_classes: 16,
            window: 256,
            tree: TreeConfig {
                max_depth: 10,
                min_samples_split: 4,
                max_thresholds: 32,
            },
        }
    }
}

/// One datapath decision awaiting ground truth: the access page it was
/// made at, the class each cascade depth predicted (the fire's
/// verdicts), and how many accesses have passed since.
struct PendingPrediction {
    page: u64,
    classes: Vec<i64>,
    age: usize,
}

/// The RMT-backed learned prefetcher.
pub struct MlPrefetcher {
    machine: RmtMachine,
    prog: ProgId,
    slots: Vec<ModelSlot>,
    m_classmap: MapId,
    m_offsets: MapId,
    cfg: MlPrefetchConfig,
    // Control-plane mirrors.
    last_page: Option<u64>,
    deltas: Vec<i64>,
    classes: Vec<u16>,
    positions: Vec<u16>,
    delta_vocab: HashMap<i64, u16>,
    offset_vocabs: Vec<HashMap<i64, u16>>,
    samples_since_train: usize,
    retrains: u64,
    rejected_pushes: u64,
    /// Predictions whose ground truth is still in the future; entry at
    /// age `k` resolves depth `k-1` against the next access.
    pending: VecDeque<PendingPrediction>,
}

impl MlPrefetcher {
    /// Builds, verifies, and installs the prefetch program.
    ///
    /// # Panics
    ///
    /// Panics if the generated program fails verification — that would
    /// be a bug in this builder, not in user input.
    #[allow(clippy::needless_range_loop)] // Slot/table ids mirror loop indices.
    pub fn new(cfg: MlPrefetchConfig) -> MlPrefetcher {
        let mut b = ProgramBuilder::new("prefetch.rmt");
        let f_pid = b.field_readonly("pid");
        let f_page = b.field_readonly("page");
        let m_last = b.map("last_page", MapKind::Hash, 64);
        // The ring holds (delta-class, page-position) pairs: position
        // context (page mod 256) disambiguates where in a structured
        // run the stream currently is — context stride detectors lack.
        let m_ring = b.map("class_history", MapKind::RingBuf, 2 * cfg.history);
        // One key per live delta class; retired deltas are deleted.
        let m_classmap = b.map("delta_class", MapKind::Hash, cfg.max_classes);
        let m_offsets = b.map("class_offset", MapKind::Array, cfg.depth * cfg.max_classes);
        // Placeholder single-leaf trees (predict CLASS_NONE) until the
        // first window trains; arity must already match.
        let mut slots = Vec::with_capacity(cfg.depth);
        for i in 0..cfg.depth {
            let placeholder = placeholder_tree(2 * cfg.history);
            slots.push(b.model(
                &format!("dt_depth{i}"),
                ModelSpec::Tree(placeholder),
                LatencyClass::MemoryManagement,
            ));
        }

        // Collection action (page_access_tab): delta -> class -> ring.
        let a_collect = b.action(Action::new(
            "data_collection",
            vec![
                // r2 = pid, r3 = page.
                Insn::LdCtxt {
                    dst: Reg(2),
                    field: f_pid,
                },
                Insn::LdCtxt {
                    dst: Reg(3),
                    field: f_page,
                },
                // r4 = last_page[pid] (default -1).
                Insn::MapLookup {
                    dst: Reg(4),
                    map: m_last,
                    key: Reg(2),
                    default: -1,
                },
                // last_page[pid] = page.
                Insn::MapUpdate {
                    map: m_last,
                    key: Reg(2),
                    value: Reg(3),
                },
                // First access: nothing to record.
                Insn::JmpIfImm {
                    cmp: CmpOp::Eq,
                    lhs: Reg(4),
                    imm: -1,
                    target: 12,
                },
                // r5 = delta = page - last.
                Insn::Mov {
                    dst: Reg(5),
                    src: Reg(3),
                },
                Insn::Alu {
                    op: AluOp::Sub,
                    dst: Reg(5),
                    src: Reg(4),
                },
                // r6 = class of delta (default CLASS_NONE).
                Insn::MapLookup {
                    dst: Reg(6),
                    map: m_classmap,
                    key: Reg(5),
                    default: CLASS_NONE as i64,
                },
                // Push (class, page mod 256) into the history ring.
                Insn::MapUpdate {
                    map: m_ring,
                    key: Reg(2),
                    value: Reg(6),
                },
                Insn::Mov {
                    dst: Reg(7),
                    src: Reg(3),
                }, // 9
                Insn::AluImm {
                    op: AluOp::Mod,
                    dst: Reg(7),
                    imm: POS_MOD,
                }, // 10
                Insn::MapUpdate {
                    map: m_ring,
                    key: Reg(2),
                    value: Reg(7),
                }, // 11
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                }, // 12 (branch target)
                Insn::Exit, // 13
            ],
        ));

        // Prediction actions, one per lookahead depth, cascaded by
        // TAIL_CALL. Depth i's table id is 1 + i (table 0 collects).
        let mut pred_actions = Vec::with_capacity(cfg.depth);
        for i in 0..cfg.depth {
            let mut code = vec![
                // v0 = class history window.
                Insn::VectorLdMap {
                    dst: VReg(0),
                    map: m_ring,
                },
                // r0 = predicted class, r1 = confidence.
                Insn::CallMl {
                    model: slots[i],
                    src: VReg(0),
                },
                // r4 = saved class: the EmitPrefetch helper clobbers
                // r0, and the verdict must carry the prediction so the
                // control plane can report ground truth against it.
                Insn::Mov {
                    dst: Reg(4),
                    src: Reg(0),
                },
                // r2 = offset index = i * max_classes + class.
                Insn::Mov {
                    dst: Reg(2),
                    src: Reg(0),
                },
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg(2),
                    imm: (i * cfg.max_classes) as i64,
                },
                // r3 = offset (0 = none).
                Insn::MapLookup {
                    dst: Reg(3),
                    map: m_offsets,
                    key: Reg(2),
                    default: 0,
                },
                // Skip emit when offset == 0.
                Insn::JmpIfImm {
                    cmp: CmpOp::Eq,
                    lhs: Reg(3),
                    imm: 0,
                    target: 11,
                },
                // r2 = base page = ctxt.page + offset; r3 = 1 page.
                Insn::LdCtxt {
                    dst: Reg(2),
                    field: f_page,
                },
                Insn::Alu {
                    op: AluOp::Add,
                    dst: Reg(2),
                    src: Reg(3),
                },
                Insn::LdImm {
                    dst: Reg(3),
                    imm: 1,
                },
                Insn::Call {
                    helper: Helper::EmitPrefetch,
                },
                // 11 (branch target): verdict = predicted class.
                Insn::Mov {
                    dst: Reg(0),
                    src: Reg(4),
                },
            ];
            if i + 1 < cfg.depth {
                code.push(Insn::TailCall {
                    table: TableId((2 + i) as u16),
                });
            } else {
                code.push(Insn::Exit);
            }
            pred_actions.push(b.action(Action::new(&format!("ml_prediction_{i}"), code)));
        }

        // Tables: collection at the access hook, first prediction at
        // the readahead hook, deeper predictions reachable only by
        // tail call.
        b.table(
            "page_access_tab",
            "lookup_swap_cache",
            &[f_pid],
            MatchKind::Exact,
            Some(a_collect),
            64,
        );
        b.table(
            "page_prefetch_tab",
            "swap_cluster_readahead",
            &[f_pid],
            MatchKind::Exact,
            Some(pred_actions[0]),
            64,
        );
        for i in 1..cfg.depth {
            b.table(
                &format!("page_prefetch_cascade_{i}"),
                "rmt_cascade",
                &[f_pid],
                MatchKind::Exact,
                Some(pred_actions[i]),
                64,
            );
        }
        b.rate_limit(RateLimitCfg {
            capacity: 1_000_000,
            refill_per_tick: 1_000,
        });
        let prog = b.build();
        let verified = verify(prog).expect("generated prefetch program must verify");
        let mut machine = RmtMachine::new();
        let prog_id = machine
            .install(verified, ExecMode::Jit)
            .expect("install verified program");
        MlPrefetcher {
            machine,
            prog: prog_id,
            slots,
            m_classmap,
            m_offsets,
            cfg,
            last_page: None,
            deltas: Vec::new(),
            classes: Vec::new(),
            positions: Vec::new(),
            delta_vocab: HashMap::new(),
            offset_vocabs: vec![HashMap::new(); cfg.depth],
            samples_since_train: 0,
            retrains: 0,
            rejected_pushes: 0,
            pending: VecDeque::new(),
        }
    }

    /// Number of background retrains performed.
    pub fn retrains(&self) -> u64 {
        self.retrains
    }

    /// Retrains whose models the machine refused (over the slot's cost
    /// budget): the datapath kept the previous window's trees.
    pub fn rejected_pushes(&self) -> u64 {
        self.rejected_pushes
    }

    /// Datapath statistics of the installed program.
    pub fn prog_stats(&self) -> ProgStats {
        self.machine.stats(self.prog).expect("program installed")
    }

    /// Optimizer statistics of the installed program (pass fire
    /// counts, instruction before/after, chain-fusion footprint).
    pub fn opt_stats(&self) -> rkd_core::opt::OptStats {
        self.machine
            .opt_stats(self.prog)
            .expect("program installed")
    }

    /// Observability snapshot of the embedded datapath (hook latency
    /// histograms, machine counters, per-model telemetry).
    pub fn obs_snapshot(&self) -> rkd_core::obs::ObsSnapshot {
        self.machine.obs_snapshot()
    }

    /// Flight-recorder frames of the embedded datapath.
    pub fn flight_snapshot(&self) -> rkd_core::obs::FlightSnapshot {
        self.machine.flight_snapshot()
    }

    /// Model telemetry for one cascade depth (confusion matrix, rolling
    /// prequential accuracy, drift flag), straight from the machine.
    pub fn model_stats(&self, depth: usize) -> Option<rkd_core::obs::ModelStatsSnapshot> {
        self.slots
            .get(depth)
            .and_then(|&s| self.machine.model_stats(self.prog, s).ok())
    }

    /// Resolves ground truth for earlier datapath predictions now that
    /// `page` is known: the entry made `k` accesses ago predicted (at
    /// depth `k-1`) the cumulative offset class of exactly this access,
    /// so report predicted-vs-actual to the machine's model telemetry.
    fn resolve_outcomes(&mut self, page: u64) {
        for e in &mut self.pending {
            e.age += 1;
            let depth = e.age - 1;
            if depth >= self.cfg.depth {
                continue;
            }
            let cum = page as i64 - e.page as i64;
            let actual = self.offset_vocabs[depth]
                .get(&cum)
                .copied()
                .unwrap_or(CLASS_NONE) as i64;
            if let Some(&predicted) = e.classes.get(depth) {
                let _ =
                    self.machine
                        .report_outcome(self.prog, self.slots[depth], predicted, actual);
            }
        }
        while self
            .pending
            .front()
            .is_some_and(|e| e.age >= self.cfg.depth)
        {
            self.pending.pop_front();
        }
    }

    /// Control-plane mirror: record the delta stream and retrain when a
    /// window completes.
    fn observe(&mut self, page: u64) {
        if let Some(last) = self.last_page {
            let delta = page as i64 - last as i64;
            let class = self.class_for_delta(delta);
            self.deltas.push(delta);
            self.classes.push(class);
            self.positions.push((page % POS_MOD as u64) as u16);
            self.samples_since_train += 1;
            if self.samples_since_train >= self.cfg.window {
                self.retrain();
                self.samples_since_train = 0;
            }
        }
        self.last_page = Some(page);
    }

    fn class_for_delta(&self, delta: i64) -> u16 {
        self.delta_vocab.get(&delta).copied().unwrap_or(CLASS_NONE)
    }

    /// Rebuilds a vocabulary from the most frequent values of the
    /// current window — the vocab is windowed exactly like the trees,
    /// so a workload switch retires stale symbols instead of going
    /// permanently blind once the table fills.
    fn windowed_vocab(values: &[i64], max_classes: usize) -> HashMap<i64, u16> {
        let mut freq: HashMap<i64, usize> = HashMap::new();
        for &v in values {
            if v != 0 {
                *freq.entry(v).or_default() += 1;
            }
        }
        let mut by_count: Vec<(i64, usize)> = freq.into_iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_count
            .into_iter()
            .take(max_classes.saturating_sub(1))
            .enumerate()
            .map(|(i, (v, _))| (v, (i + 1) as u16))
            .collect()
    }

    /// Publishes a rebuilt delta vocabulary to the kernel-side
    /// classifier map. Retired deltas are deleted, not overwritten: a
    /// key kept as a `CLASS_NONE` tombstone would hold its slot for
    /// good, and once the map had filled with them no new delta could
    /// be classified.
    fn publish_delta_vocab(&mut self, new_vocab: HashMap<i64, u16>) {
        for old_delta in self.delta_vocab.keys() {
            if !new_vocab.contains_key(old_delta) {
                self.machine
                    .map_delete(self.prog, self.m_classmap, *old_delta as u64)
                    .expect("delta_class map exists");
            }
        }
        for (&delta, &class) in &new_vocab {
            if self.delta_vocab.get(&delta) != Some(&class) {
                // At most `max_classes - 1` live keys after the deletes.
                self.machine
                    .map_update(self.prog, self.m_classmap, delta as u64, class as i64)
                    .expect("delta_class map has room for one vocabulary");
            }
        }
        self.delta_vocab = new_vocab;
    }

    /// Trains one tree per lookahead depth on the recent window and hot-
    /// swaps them into the datapath. Vocabularies (delta classes and
    /// per-depth offset classes) are rebuilt from this window too, so
    /// drifted workloads retire stale symbols (§3.1: new trees per
    /// window "while discarding the old ones").
    fn retrain(&mut self) {
        let h = self.cfg.history;
        let d = self.cfg.depth;
        let n = self.deltas.len();
        if n < h + d + 1 {
            return;
        }
        let start = n.saturating_sub(self.cfg.window + h + d);
        // Rebuild the delta vocabulary from this window and recompute
        // the mirrored class stream against it.
        let new_vocab = Self::windowed_vocab(&self.deltas[start..], self.cfg.max_classes);
        self.publish_delta_vocab(new_vocab);
        for t in 0..n {
            self.classes[t] = self.class_for_delta(self.deltas[t]);
        }
        // One sample per access `t` of the window: its features are the
        // `h` (class, position) pairs before it, interleaved exactly as
        // the ring buffer stores them, oldest first. The cascade's
        // trees differ only in their labels, so the columns are built
        // and sorted once.
        let samples = (start + h)..(n - d);
        let matrix = FeatureMatrix::from_fn(samples.len(), 2 * h, |row, feature| {
            let j = start + row + feature / 2;
            let v = if feature % 2 == 0 {
                self.classes[j]
            } else {
                self.positions[j]
            };
            Fix::from_int(v as i64)
        })
        .expect("a training window has far fewer than 2^32 samples");
        let mut pushes = Vec::with_capacity(d);
        for i in 0..d {
            // Depth i predicts the cumulative offset i + 1 accesses
            // ahead; its vocabulary comes from this window's offsets
            // and is published with stale slots zeroed.
            let offsets: Vec<i64> = samples
                .clone()
                .map(|t| self.deltas[t..=t + i].iter().sum())
                .collect();
            let vocab = Self::windowed_vocab(&offsets, self.cfg.max_classes);
            let mut by_class = vec![0i64; self.cfg.max_classes];
            for (&offset, &class) in &vocab {
                by_class[class as usize] = offset;
            }
            for (c, &offset) in by_class.iter().enumerate() {
                let index = i * self.cfg.max_classes + c;
                self.machine
                    .map_update(self.prog, self.m_offsets, index as u64, offset)
                    .expect("class_offset has depth x max_classes slots");
            }
            let labels: Vec<usize> = offsets
                .iter()
                .map(|cum| vocab.get(cum).copied().unwrap_or(CLASS_NONE) as usize)
                .collect();
            self.offset_vocabs[i] = vocab;
            if let Ok(tree) = DecisionTree::train_columns(&matrix, &labels, &self.cfg.tree) {
                pushes.push((self.slots[i], ModelSpec::Tree(tree)));
            }
        }
        // Hot swap through the verified control-plane path, the whole
        // cascade as one reconfiguration; an over-budget tree rejects
        // it and the old models stay (fail-safe).
        if self.machine.update_models(self.prog, pushes).is_err() {
            self.rejected_pushes += 1;
        }
        self.retrains += 1;
        // Keep only the tail needed for sample continuity.
        let keep = h + d;
        if self.classes.len() > keep {
            let cut = self.classes.len() - keep;
            self.classes.drain(..cut);
            self.positions.drain(..cut);
            self.deltas.drain(..cut);
        }
    }
}

fn placeholder_tree(arity: usize) -> DecisionTree {
    let ds = Dataset::from_samples(vec![Sample {
        features: vec![Fix::ZERO; arity],
        label: CLASS_NONE as usize,
    }])
    .expect("placeholder dataset");
    DecisionTree::train(&ds, &TreeConfig::default()).expect("placeholder tree")
}

impl Prefetcher for MlPrefetcher {
    fn name(&self) -> &'static str {
        "rmt_ml"
    }

    fn on_access(&mut self, page: u64) -> Vec<u64> {
        self.machine.advance_tick(1);
        // This access is the ground truth for earlier predictions —
        // close the loop before making new ones.
        self.resolve_outcomes(page);
        // Kernel datapath: collection hook, then prediction hook.
        let mut ctxt = Ctxt::from_values(vec![1, page as i64]);
        self.machine.fire("lookup_swap_cache", &mut ctxt);
        let result = self.machine.fire("swap_cluster_readahead", &mut ctxt);
        let mut pages = Vec::new();
        // The cascade's verdicts are the per-depth predicted classes
        // (see the prediction action); queue them for outcome
        // resolution as the next accesses arrive.
        self.pending.push_back(PendingPrediction {
            page,
            classes: result.verdicts.iter().map(|&(_, v)| v).collect(),
            age: 0,
        });
        for e in result.effects {
            if let Effect::Prefetch { base, count } = e {
                for i in 0..count {
                    pages.push(base + i);
                }
            }
        }
        // Background control plane.
        self.observe(page);
        pages
    }

    fn decision_overhead_ns(&self) -> u64 {
        // Tree traversal + table dispatch: costlier than the heuristics.
        600
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::prefetcher::{Leap, Readahead};
    use crate::mem::sim::{run, MemSimConfig};
    use rkd_workloads::mem::{matrix_conv, video_resize, MatrixConvParams, VideoResizeParams};

    #[test]
    fn program_installs_and_runs() {
        let mut p = MlPrefetcher::new(MlPrefetchConfig::default());
        // Warmup accesses run the datapath without panicking.
        for i in 0..50 {
            let _ = p.on_access(i * 3);
        }
        let stats = p.prog_stats();
        assert!(stats.invocations >= 100, "both hooks fire per access");
    }

    #[test]
    fn learns_constant_stride() {
        let mut p = MlPrefetcher::new(MlPrefetchConfig::default());
        let mut last_prefetches = Vec::new();
        for i in 0..1500u64 {
            last_prefetches = p.on_access(i * 7);
        }
        assert!(p.retrains() >= 1, "at least one window trained");
        // After training, a stride-7 stream should prefetch ahead along
        // the stride (depths 1..3 -> +7, +14, +21).
        let page = 1499 * 7;
        assert!(
            last_prefetches.contains(&(page + 7)),
            "prefetches {last_prefetches:?}"
        );
    }

    #[test]
    fn beats_baselines_on_video_resize() {
        let trace = video_resize(&VideoResizeParams::default());
        let cfg = MemSimConfig::default();
        let ra = run(&trace, &mut Readahead::default(), &cfg);
        let leap = run(&trace, &mut Leap::default(), &cfg);
        let mut ml_p = MlPrefetcher::new(MlPrefetchConfig::default());
        let ml = run(&trace, &mut ml_p, &cfg);
        assert!(
            ml.stats.coverage_pct() > leap.stats.coverage_pct(),
            "ml cov {} vs leap {}",
            ml.stats.coverage_pct(),
            leap.stats.coverage_pct()
        );
        assert!(
            ml.stats.coverage_pct() > ra.stats.coverage_pct(),
            "ml cov {} vs readahead {}",
            ml.stats.coverage_pct(),
            ra.stats.coverage_pct()
        );
        assert!(ml.completion_ns < leap.completion_ns);
        assert!(ml.completion_ns < ra.completion_ns);
    }

    #[test]
    fn beats_baselines_on_matrix_conv() {
        let trace = matrix_conv(&MatrixConvParams::default());
        let cfg = MemSimConfig::default();
        let ra = run(&trace, &mut Readahead::default(), &cfg);
        let leap = run(&trace, &mut Leap::default(), &cfg);
        let mut ml_p = MlPrefetcher::new(MlPrefetchConfig::default());
        let ml = run(&trace, &mut ml_p, &cfg);
        assert!(
            ml.stats.accuracy_pct() > leap.stats.accuracy_pct(),
            "ml acc {} vs leap {}",
            ml.stats.accuracy_pct(),
            leap.stats.accuracy_pct()
        );
        assert!(ml.completion_ns < ra.completion_ns);
        assert!(ml.completion_ns < leap.completion_ns);
    }

    #[test]
    fn closed_loop_feeds_machine_model_telemetry() {
        let mut p = MlPrefetcher::new(MlPrefetchConfig::default());
        for i in 0..1500u64 {
            let _ = p.on_access(i * 7);
        }
        assert!(p.retrains() >= 1);
        // Every cascade depth served predictions and received ground
        // truth through ReportOutcome.
        for depth in 0..3 {
            let ms = p.model_stats(depth).expect("slot exists");
            assert!(ms.served > 1000, "depth {depth} served {}", ms.served);
            assert!(ms.outcomes > 1000, "depth {depth} outcomes {}", ms.outcomes);
            assert!(ms.acc_permille >= 0);
        }
        // A learnable constant stride ends with high rolling accuracy
        // at depth 0 and no drift suspicion.
        let ms = p.model_stats(0).unwrap();
        assert!(
            ms.acc_permille > 800,
            "stride stream should be predictable, got {}",
            ms.acc_permille
        );
        // Model telemetry also flows into the machine-wide snapshot.
        let snap = p.obs_snapshot();
        assert_eq!(snap.models.len(), 3);
        // And the flight recorder saw the run (default interval 1024
        // fires; two hooks fire per access).
        assert!(!p.flight_snapshot().frames.is_empty());
    }

    /// The control plane's delta vocabulary and the datapath's
    /// `delta_class` map must agree however many deltas the stream has
    /// gone through: a retired delta leaves the map, so the map never
    /// fills (it used to, after 64 distinct deltas, and every later
    /// class insert was dropped).
    #[test]
    fn delta_class_map_tracks_the_vocabulary_across_drift() {
        let mut p = MlPrefetcher::new(MlPrefetchConfig::default());
        let mut seen = std::collections::BTreeSet::new();
        let mut page = 1u64 << 20;
        for phase in 0..12u64 {
            for i in 0..600u64 {
                // Eight strides of its own per phase.
                let stride = 1 + phase * 8 + i % 8;
                page += stride;
                seen.insert(stride as i64);
                let _ = p.on_access(page);
            }
        }
        assert!(seen.len() > 64, "{} distinct deltas", seen.len());
        assert!(p.retrains() >= 24);
        assert_eq!(p.rejected_pushes(), 0);
        assert_eq!(p.delta_vocab.len(), 8, "the last phase's strides");
        for &delta in &seen {
            let datapath = p
                .machine
                .map_peek(p.prog, p.m_classmap, delta as u64)
                .unwrap();
            let mirror = p.delta_vocab.get(&delta).map(|&c| c as i64);
            assert_eq!(datapath, mirror, "delta {delta}");
        }
    }
}
