//! The adapter between the four workloads and the system under test.
//!
//! Every call a workload makes into an `rkd-*` crate goes through this
//! file, and the workload files import nothing from those crates. Later
//! changes may not edit `bench/`, so when an API below is removed or
//! renamed the follow-up is this one file. Symbols depended on:
//!
//! - `rkd_core::prog::{ProgramBuilder, RmtProgram, ModelSpec}`
//! - `rkd_core::bytecode::{Action, Insn, Reg, AluOp, ModelSlot, ARG_REG}`
//! - `rkd_core::table::{Entry, MatchKey, MatchKind, TableId, ActionId}`
//! - `rkd_core::ctxt::Ctxt`
//! - `rkd_core::verifier::{verify, VerifiedProgram}`
//! - `rkd_core::machine::{RmtMachine::{new, install, fire,
//!   machine_counters, opt_stats}, ExecMode, ProgId, HookResult}`
//! - `rkd_core::opt::OptLevel` (only to state the default, O2)
//! - `rkd_core::ctrl::{syscall_rmt, CtrlRequest, CtrlResponse}`
//! - `rkd_core::shard::{ShardedMachine::{new, ctrl, sync, fire_batch_on,
//!   machine_counters, ingress_stats, stage_profile}, BatchTicket}`
//! - `rkd_core::obs::{MachineCounters, span::{Stage, StageProfile}}`
//! - `rkd_sim::mem::{ml::{MlPrefetcher::{new, on_access, retrains,
//!   prog_stats, obs_snapshot}, MlPrefetchConfig},
//!   prefetcher::Prefetcher, sim::{run, MemSimConfig}}`
//! - `rkd_sim::sched::{policy::{MlPolicy::{new, can_migrate,
//!   aborted_fallbacks, obs_snapshot}, MigrationPolicy, CfsPolicy,
//!   RecordingPolicy}, features::{MigrationFeatures, N_FEATURES},
//!   sim::{run, SchedSimConfig}}`
//! - `rkd_workloads::{mem::{video_resize, VideoResizeParams},
//!   sched::streamcluster, zipf::ZipfFlows, PageTrace}`
//! - `rkd_ml::{dataset::{Dataset, Sample}, mlp::{Mlp, MlpConfig},
//!   quant::QuantMlp, tree::{DecisionTree, TreeConfig}, fixed::Fix,
//!   metrics::PrefetchStats}`
//! - `rkd_lang::{compile, FIGURE1_PREFETCH}`
//! - `rkd_testkit::rng::{Rng, SliceRandom, StdRng}` (support code)
//!
//! Nothing engine-specific (`ExecEnv`, `CompiledAction`, `run_action`)
//! is imported; `ExecMode` is named only in [`Engine::mode`].

use crate::inputs::{self, ChurnPlan, Rules, VideoShape, CHAIN_STAGES};
use crate::rec::{ns_since, Rec};
use crate::trace::{Name, Tracer};
use rkd_core::bytecode::{Action, AluOp, Insn, ModelSlot, Reg, ARG_REG};
use rkd_core::ctrl::{syscall_rmt, CtrlRequest, CtrlResponse};
use rkd_core::ctxt::Ctxt;
use rkd_core::machine::{ExecMode, HookResult, ProgId, RmtMachine};
use rkd_core::obs::span::{Stage, StageProfile};
use rkd_core::obs::MachineCounters;
use rkd_core::opt::OptLevel;
use rkd_core::prog::{ModelSpec, ProgramBuilder, RmtProgram};
use rkd_core::shard::{BatchTicket, ShardedMachine};
use rkd_core::table::{ActionId, Entry, MatchKey, MatchKind, TableId};
use rkd_core::verifier::{verify, VerifiedProgram};
use rkd_ml::dataset::{Dataset, Sample};
use rkd_ml::fixed::Fix;
use rkd_ml::metrics::PrefetchStats;
use rkd_ml::mlp::{Mlp, MlpConfig};
use rkd_ml::quant::QuantMlp;
use rkd_ml::tree::{DecisionTree, TreeConfig};
use rkd_sim::mem::ml::{MlPrefetchConfig, MlPrefetcher};
use rkd_sim::mem::prefetcher::Prefetcher;
use rkd_sim::mem::sim::MemSimConfig;
use rkd_sim::sched::features::{MigrationFeatures, N_FEATURES};
use rkd_sim::sched::policy::{CfsPolicy, MigrationPolicy, MlPolicy, RecordingPolicy};
use rkd_sim::sched::sim::SchedSimConfig;
use rkd_testkit::rng::{Rng, SliceRandom, StdRng};
use rkd_workloads::mem::{video_resize, VideoResizeParams};
use rkd_workloads::zipf::ZipfFlows;
use rkd_workloads::PageTrace;
use std::time::Instant;

/// The execution engine a program is installed under. The workloads use
/// [`Engine::Default`]; `probes.rs` compares the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Default,
    Interp,
}

impl Engine {
    fn mode(self) -> ExecMode {
        match self {
            Engine::Default => ExecMode::Jit,
            Engine::Interp => ExecMode::Interp,
        }
    }
}

/// Optimizer setting of a program built here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opt {
    /// The machine's default (O2).
    Default,
    /// Unoptimized bodies.
    Off,
}

impl Opt {
    pub fn level(self) -> OptLevel {
        match self {
            Opt::Default => OptLevel::default(),
            Opt::Off => OptLevel::O0,
        }
    }
}

/// Result of one hook firing, opaque to the workloads.
pub type FireResult = HookResult;

/// `(table, verdict)` pairs of a firing, in execution order.
pub fn verdicts(r: &FireResult) -> impl Iterator<Item = (u16, i64)> + '_ {
    r.verdicts.iter().map(|&(t, v)| (t.0, v))
}

/// Machine-wide datapath counters as plain numbers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub fires: u64,
    pub table_hits: u64,
    pub table_misses: u64,
    pub aborts: u64,
    pub tail_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub cache_evictions: u64,
}

impl From<MachineCounters> for Counters {
    fn from(c: MachineCounters) -> Counters {
        Counters {
            fires: c.fires,
            table_hits: c.table_hits,
            table_misses: c.table_misses,
            aborts: c.aborts,
            tail_calls: c.tail_calls,
            cache_hits: c.decision_cache_hits,
            cache_misses: c.decision_cache_misses,
            cache_invalidations: c.decision_cache_invalidations,
            cache_evictions: c.decision_cache_evictions,
        }
    }
}

// ---------------------------------------------------------------------
// prefetch_video — paper case study #1
// ---------------------------------------------------------------------

/// One pass of the video-resize trace.
pub struct VideoTrace(PageTrace);

impl VideoTrace {
    pub fn generate(shape: &VideoShape) -> VideoTrace {
        let t = video_resize(&VideoResizeParams {
            frames: shape.frames,
            src_rows: shape.src_rows,
            pages_per_row: shape.pages_per_row,
        });
        let pages = t.accesses.iter().map(|p| p + shape.base_page).collect();
        VideoTrace(PageTrace::new("video_resize", pages))
    }

    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    pub fn pages(&self) -> &[u64] {
        &self.0.accesses
    }
}

/// What one replayed pass produced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassOutcome {
    stats: PrefetchStats,
    pub prefetches_issued: u64,
}

impl PassOutcome {
    pub fn merge(&mut self, other: &PassOutcome) {
        self.stats.merge(&other.stats);
        self.prefetches_issued += other.prefetches_issued;
    }

    /// Faults avoided ÷ faults that would have happened, in percent.
    pub fn coverage_pct(&self) -> f64 {
        self.stats.coverage_pct()
    }
}

/// The learned prefetcher behind the memory simulator.
pub struct PrefetchSut {
    prefetcher: MlPrefetcher,
    sim: MemSimConfig,
    /// Accesses replayed so far: the span trace id.
    accesses: u64,
}

impl PrefetchSut {
    /// Builds, verifies and installs `prefetch.rmt` on a fresh machine.
    pub fn install() -> PrefetchSut {
        PrefetchSut {
            prefetcher: MlPrefetcher::new(MlPrefetchConfig::default()),
            sim: MemSimConfig::default(),
            accesses: 0,
        }
    }

    /// Replays one pass through `rkd_sim::mem::sim::run`, timing the
    /// prefetcher from outside.
    pub fn run_pass(&mut self, trace: &VideoTrace, rec: &mut Rec) -> PassOutcome {
        rec.tracer.enter(Name::SimMemRun, self.accesses);
        let mut timed = TimedPrefetcher {
            inner: &mut self.prefetcher,
            rec,
            access: self.accesses,
        };
        let r = rkd_sim::mem::sim::run(&trace.0, &mut timed, &self.sim);
        self.accesses = timed.access;
        rec.tracer.exit();
        rec.events += r.accesses;
        rec.attempted += r.accesses;
        PassOutcome {
            stats: r.stats,
            prefetches_issued: r.prefetches_issued,
        }
    }

    pub fn retrains(&self) -> u64 {
        self.prefetcher.retrains()
    }

    /// Actions the datapath aborted (fires before the first model push).
    pub fn aborts(&self) -> u64 {
        self.prefetcher.prog_stats().actions_aborted
    }

    pub fn counters(&self) -> Counters {
        self.prefetcher.obs_snapshot().counters.into()
    }
}

/// Times every `on_access` of the wrapped prefetcher. The start stamp is
/// always taken (25 ns on a 10 µs mean event) because a retrain can only
/// be recognised after the call returns.
struct TimedPrefetcher<'a> {
    inner: &'a mut MlPrefetcher,
    rec: &'a mut Rec,
    access: u64,
}

impl Prefetcher for TimedPrefetcher<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, page: u64) -> Vec<u64> {
        let retrains = self.inner.retrains();
        self.rec.tracer.enter(Name::PrefetcherOnAccess, self.access);
        let t = Instant::now();
        let pages = self.inner.on_access(page);
        if self.inner.retrains() != retrains {
            self.rec.reconfig_ns.record(ns_since(t));
            self.rec.attempted += 1;
        } else if self.rec.stamp_events {
            self.rec.event_ns.record(ns_since(t));
        }
        self.rec.tracer.exit();
        self.access += 1;
        pages
    }

    fn decision_overhead_ns(&self) -> u64 {
        self.inner.decision_overhead_ns()
    }
}

// ---------------------------------------------------------------------
// sched_mlp — paper case study #2
// ---------------------------------------------------------------------

/// One recorded `can_migrate_task` decision.
#[derive(Clone, Copy)]
pub struct Decision {
    features: MigrationFeatures,
    /// What CFS decided: the label.
    pub cfs: bool,
}

impl Decision {
    pub fn words(&self) -> impl Iterator<Item = u64> {
        self.features
            .to_vec()
            .into_iter()
            .map(|v| v as u64)
            .chain([self.cfs as u64])
    }
}

/// Runs streamcluster(8) under native CFS and logs every decision.
pub fn record_cfs_log(rng: &mut StdRng) -> Vec<Decision> {
    let workload = rkd_workloads::sched::streamcluster(8, rng);
    let mut recorder = RecordingPolicy::new(CfsPolicy::default());
    rkd_sim::sched::sim::run(&workload, &mut recorder, &SchedSimConfig::default());
    recorder
        .log
        .into_iter()
        .map(|(features, cfs)| Decision { features, cfs })
        .collect()
}

/// Seeded permutation (`rkd_testkit`'s Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    items.shuffle(rng);
}

/// The model the scheduler hook consults.
pub struct SchedModel(QuantMlp);

/// Table 2's hyper-parameters (`CaseStudyConfig::default()`, whose
/// training helpers are private to `rkd-sim`).
fn sched_mlp_config() -> MlpConfig {
    MlpConfig {
        hidden: vec![16, 16],
        learning_rate: 0.08,
        epochs: 60,
        batch_size: 32,
        weight_decay: 1e-5,
    }
}

const SCHED_TRAIN_SAMPLES: usize = 6_000;
const SCHED_QUANT_BITS: u32 = 8;

/// The shuffled, capped training set Table 2 draws from a log.
pub fn sched_dataset(log: &[Decision], rng: &mut StdRng) -> Dataset {
    let mut idx: Vec<usize> = (0..log.len()).collect();
    idx.shuffle(rng);
    idx.truncate(SCHED_TRAIN_SAMPLES);
    let mut ds = Dataset::new();
    for i in idx {
        let d = &log[i];
        ds.push(Sample {
            features: fix_features(&d.features),
            label: d.cfs as usize,
        })
        .expect("uniform feature arity");
    }
    ds
}

/// Float training on min/max-normalised features (`Mlp::train`).
pub fn sched_train_float(ds: &Dataset, rng: &mut StdRng) -> (Mlp, Vec<(f64, f64)>) {
    let (norm, ranges) = ds.normalize().expect("non-empty log");
    let mlp = Mlp::train(&norm, &sched_mlp_config(), rng).expect("trainable log");
    let ranges = ranges
        .iter()
        .map(|(lo, hi)| (lo.to_f64(), hi.to_f64()))
        .collect();
    (mlp, ranges)
}

/// Folds the normalisation into layer one and quantizes to 8 bits.
pub fn sched_quantize(mlp: &Mlp, ranges: &[(f64, f64)]) -> SchedModel {
    let folded = mlp.fold_input_normalization(ranges).expect("arity");
    SchedModel(QuantMlp::quantize(&folded, SCHED_QUANT_BITS).expect("quantizable"))
}

/// The userspace-to-kernel model path: sample, train, fold, quantize.
pub fn sched_train(log: &[Decision], rng: &mut StdRng) -> SchedModel {
    let ds = sched_dataset(log, rng);
    let (mlp, ranges) = sched_train_float(&ds, rng);
    sched_quantize(&mlp, &ranges)
}

fn fix_features(f: &MigrationFeatures) -> Vec<Fix> {
    f.to_vec().into_iter().map(Fix::from_int).collect()
}

impl SchedModel {
    /// `QuantMlp::predict` on a decision's features: what the datapath
    /// must answer.
    pub fn predict(&self, d: &Decision) -> bool {
        self.0.predict(&fix_features(&d.features)).expect("arity") == 1
    }

    /// Feature vectors in the form `QuantMlp::predict` takes (probes).
    pub fn probe_inputs(log: &[Decision]) -> Vec<Vec<Fix>> {
        log.iter().map(|d| fix_features(&d.features)).collect()
    }

    pub fn predict_raw(&self, features: &[Fix]) -> usize {
        self.0.predict(features).expect("arity")
    }
}

/// The RMT-backed migration policy.
pub struct PolicySut(MlPolicy);

impl PolicySut {
    /// Builds, verifies and installs `can_migrate.rmt` holding `model`.
    pub fn install(model: &SchedModel) -> PolicySut {
        PolicySut(MlPolicy::new(
            model.0.clone(),
            (0..N_FEATURES).collect(),
            Engine::Default.mode(),
        ))
    }

    #[inline]
    pub fn can_migrate(&mut self, d: &Decision) -> bool {
        self.0.can_migrate(&d.features)
    }

    /// Queries that got no verdict because the datapath aborted.
    pub fn aborted(&self) -> u64 {
        self.0.aborted_fallbacks()
    }

    pub fn counters(&self) -> Counters {
        self.0.obs_snapshot().counters.into()
    }
}

// ---------------------------------------------------------------------
// zipf_flows — sharded ingress, match and decision cache
// ---------------------------------------------------------------------

pub const FLOW_HOOK: &str = "ingress";

/// The flow ids by popularity rank and a seeded event stream over them.
pub fn zipf_population_and_stream(n_events: usize, rng: &mut StdRng) -> (Vec<u64>, Vec<u64>) {
    let z = ZipfFlows::new(inputs::FLOW_POPULATION, inputs::ZIPF_EXPONENT);
    let population = (0..z.population()).map(|r| z.flow_at_rank(r)).collect();
    (population, z.stream(n_events, rng))
}

/// The 4-table pipeline at one hook: Exact over `flow`, LPM over `addr`,
/// Ternary over `(addr, port)`, Range over `port`; a four-instruction
/// hit action (`arg ^ flow`) and default action (`(flow & 0xFF) + 1000`).
pub fn pipeline_program(rules: &Rules) -> RmtProgram {
    let mut b = ProgramBuilder::new("zipf_pipeline");
    let flow = b.field_readonly("flow");
    let addr = b.field_readonly("addr");
    let port = b.field_readonly("port");
    let hit = b.action(Action::new(
        "hit",
        vec![
            Insn::LdCtxt {
                dst: Reg(1),
                field: flow,
            },
            Insn::Mov {
                dst: Reg(0),
                src: ARG_REG,
            },
            Insn::Alu {
                op: AluOp::Xor,
                dst: Reg(0),
                src: Reg(1),
            },
            Insn::Exit,
        ],
    ));
    let miss = b.action(Action::new(
        "miss",
        vec![
            Insn::LdCtxt {
                dst: Reg(0),
                field: flow,
            },
            Insn::AluImm {
                op: AluOp::And,
                dst: Reg(0),
                imm: 0xFF,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(0),
                imm: 1_000,
            },
            Insn::Exit,
        ],
    ));
    let entry = |key, priority, arg| Entry {
        key,
        priority,
        action: hit,
        arg,
    };
    let t = b.table(
        "exact_flow",
        FLOW_HOOK,
        &[flow],
        MatchKind::Exact,
        Some(miss),
        rules.exact.len(),
    );
    for &(f, arg) in &rules.exact {
        b.entry(t, entry(MatchKey::Exact(vec![f]), 0, arg));
    }
    let t = b.table(
        "lpm_addr",
        FLOW_HOOK,
        &[addr],
        MatchKind::Lpm,
        Some(miss),
        rules.lpm.len(),
    );
    for l in &rules.lpm {
        let key = MatchKey::Lpm {
            value: l.value,
            prefix_len: l.len,
        };
        b.entry(t, entry(key, l.priority, l.arg));
    }
    let t = b.table(
        "ternary_addr_port",
        FLOW_HOOK,
        &[addr, port],
        MatchKind::Ternary,
        Some(miss),
        rules.ternary.len(),
    );
    for r in &rules.ternary {
        b.entry(
            t,
            entry(MatchKey::Ternary(r.parts.to_vec()), r.priority, r.arg),
        );
    }
    let t = b.table(
        "range_port",
        FLOW_HOOK,
        &[port],
        MatchKind::Range,
        Some(miss),
        rules.range.len(),
    );
    for g in &rules.range {
        b.entry(
            t,
            entry(MatchKey::Range(vec![(g.lo, g.hi)]), g.priority, g.arg),
        );
    }
    b.build()
}

const EXACT_TABLE: TableId = TableId(0);
/// Action 0 of [`pipeline_program`] is `hit`.
const HIT_ACTION: ActionId = ActionId(0);

/// A submitted batch.
pub struct Ticket(BatchTicket);

impl Ticket {
    /// Blocks until the shard has run the batch.
    pub fn wait(self) -> (Vec<Ctxt>, Vec<FireResult>) {
        self.0.wait()
    }
}

/// An execution context, opaque to the workloads.
pub type Context = Ctxt;

pub fn context(fields: [i64; 3]) -> Context {
    Ctxt::from_values(fields.to_vec())
}

pub fn context_fields(c: &Context) -> [i64; 3] {
    let v = c.values();
    [v[0], v[1], v[2]]
}

/// One shard (driver + one worker = the host's two CPUs).
pub struct FlowsSut {
    machine: ShardedMachine,
    prog: ProgId,
}

/// Per-stage means of the machine's own stage profiler, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageMeans {
    pub ingress_wait: f64,
    pub shard_run: f64,
    pub fire: f64,
    pub cache_probe: f64,
    pub run_pipeline: f64,
    pub table_lookup: f64,
    pub cache_finish: f64,
    /// Spans of each kind per `fire` span (a fire has one probe, one
    /// pipeline, up to four lookups and one finish).
    pub lookups_per_fire: f64,
}

impl FlowsSut {
    pub fn new() -> FlowsSut {
        let machine = ShardedMachine::new(1);
        FlowsSut {
            machine,
            prog: ProgId(0),
        }
    }

    /// Sets the machine's own span sampling: `shift` 0 samples every
    /// event (the traced run), 64 disarms it (every other run).
    pub fn span_sampling(&self, shift: u32) -> bool {
        self.machine
            .ctrl(CtrlRequest::SpanConfig {
                sample_shift: shift,
                capacity: 4_096,
            })
            .is_ok()
    }

    /// Builds the pipeline, verifies and installs it on the control plane
    /// and waits until the worker has it armed.
    pub fn install(&mut self, rules: &Rules) -> bool {
        let r = self.machine.ctrl(CtrlRequest::Install {
            prog: Box::new(pipeline_program(rules)),
            mode: Engine::Default.mode(),
            seed: 0x5EED,
        });
        self.machine.sync();
        match r {
            Ok(CtrlResponse::Installed(id)) => {
                self.prog = id;
                true
            }
            _ => false,
        }
    }

    #[inline]
    pub fn submit(&self, ctxts: Vec<Context>) -> Ticket {
        Ticket(self.machine.fire_batch_on(0, FLOW_HOOK, ctxts))
    }

    /// Publishes an exact-table entry again, unchanged, and waits until
    /// the worker has applied it (the `shard.ctrl_publish_us` probe;
    /// no workload reconfigures the sharded machine).
    pub fn republish(&self, (flow, arg): (u64, i64)) -> bool {
        let r = self.machine.ctrl(CtrlRequest::InsertEntry {
            prog: self.prog,
            table: EXACT_TABLE,
            entry: Entry {
                key: MatchKey::Exact(vec![flow]),
                priority: 0,
                action: HIT_ACTION,
                arg,
            },
        });
        self.machine.sync();
        r.is_ok()
    }

    pub fn counters(&self) -> Counters {
        self.machine.machine_counters().into()
    }

    /// `(full_stalls, parks)` of the ingress ring.
    pub fn ingress(&self) -> (u64, u64) {
        let s = self.machine.ingress_stats();
        (
            s.iter().map(|i| i.full_stalls).sum(),
            s.iter().map(|i| i.parks).sum(),
        )
    }

    /// `total_ns ÷ count` per stage of `ShardedMachine::stage_profile()`.
    pub fn stage_means(&self) -> StageMeans {
        let p: StageProfile = self.machine.stage_profile();
        let get = |stage: Stage| {
            p.stages
                .iter()
                .find(|s| s.stage == stage)
                .map_or((0.0, 0.0), |s| {
                    (s.total_ns as f64 / s.count.max(1) as f64, s.count as f64)
                })
        };
        let (fire, fires) = get(Stage::Fire);
        let (table_lookup, lookups) = get(Stage::TableLookup);
        StageMeans {
            ingress_wait: get(Stage::IngressWait).0,
            shard_run: get(Stage::ShardRun).0,
            fire,
            cache_probe: get(Stage::CacheProbe).0,
            run_pipeline: get(Stage::RunPipeline).0,
            table_lookup,
            cache_finish: get(Stage::CacheFinish).0,
            lookups_per_fire: if fires > 0.0 { lookups / fires } else { 0.0 },
        }
    }
}

// ---------------------------------------------------------------------
// ctrl_churn — reconfiguration under fire
// ---------------------------------------------------------------------

pub const CHAIN_HOOK: &str = "hook";

/// The 8-stage keyed tail-call chain (the `bench_vm` `keyed_chain`
/// shape): link `i` stores the next stage's key into a scratch field and
/// tail-calls table `i + 1`, which matches it. Statically resolvable,
/// so the optimizer fuses it at O2.
pub fn chain_program(plan: &ChurnPlan, opt: Opt) -> RmtProgram {
    let mut b = ProgramBuilder::new("bench_chain_keyed");
    let pid = b.field_readonly("pid");
    let k = b.field_scratch("k");
    for i in 0..CHAIN_STAGES {
        let mut code = vec![
            Insn::LdImm {
                dst: Reg(1),
                imm: plan.keys[(i + 1) % CHAIN_STAGES],
            },
            Insn::StCtxt {
                field: k,
                src: Reg(1),
            },
            Insn::LdImm {
                dst: Reg(2),
                imm: 3,
            },
        ];
        for j in 0..7i64 {
            code.push(Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(1),
                imm: j,
            });
            code.push(Insn::Alu {
                op: AluOp::Xor,
                dst: Reg(1),
                src: Reg(2),
            });
        }
        code.push(Insn::LdImm {
            dst: Reg(0),
            imm: 10 + i as i64,
        });
        code.push(if i + 1 == CHAIN_STAGES {
            Insn::Exit
        } else {
            Insn::TailCall {
                table: TableId((i + 1) as u16),
            }
        });
        b.action(Action::new(&format!("klink{i}"), code));
    }
    b.table(
        "t0",
        CHAIN_HOOK,
        &[pid],
        MatchKind::Exact,
        Some(ActionId(0)),
        8,
    );
    for i in 1..CHAIN_STAGES {
        let t = b.table(&format!("t{i}"), "stage", &[k], MatchKind::Exact, None, 8);
        b.entry(t, chain_entry(i as u16, plan.keys[i] as u64));
    }
    b.opt_level(opt.level());
    b.build()
}

fn chain_entry(stage: u16, key: u64) -> Entry {
    Entry {
        key: MatchKey::Exact(vec![key]),
        priority: 0,
        action: ActionId(stage),
        arg: 0,
    }
}

/// A 12-feature tree for Figure 1's `dt_1` slot.
pub fn figure1_tree(rng: &mut StdRng) -> DecisionTree {
    let samples = (0..256)
        .map(|_| {
            let features: Vec<Fix> = (0..12)
                .map(|_| Fix::from_int(rng.gen_range(0..16i64)))
                .collect();
            let label = (features[0] > features[5]) as usize;
            Sample { features, label }
        })
        .collect();
    let ds = Dataset::from_samples(samples).expect("non-empty");
    let cfg = TreeConfig {
        max_depth: 8,
        min_samples_split: 4,
        max_thresholds: 32,
    };
    DecisionTree::train(&ds, &cfg).expect("trainable")
}

/// One machine holding the chain and the Figure 1 DSL program.
pub struct ChurnSut {
    machine: RmtMachine,
    chain: ProgId,
    figure1: ProgId,
    dt_1: ModelSlot,
    tree: DecisionTree,
}

impl ChurnSut {
    pub fn install(plan: &ChurnPlan, tree: DecisionTree) -> ChurnSut {
        let mut machine = RmtMachine::new();
        let verified = verify(chain_program(plan, Opt::Default)).expect("chain verifies");
        let chain = machine
            .install(verified, Engine::Default.mode())
            .expect("chain installs");
        let mut sut = ChurnSut {
            machine,
            chain,
            figure1: ProgId(0),
            dt_1: ModelSlot(0),
            tree,
        };
        assert!(
            sut.install_figure1(&mut Tracer::new(false), 0),
            "figure 1 installs"
        );
        sut
    }

    #[inline]
    pub fn fire(&mut self, pid: i64) -> FireResult {
        let mut c = Ctxt::from_values(vec![pid, 0]);
        self.machine.fire(CHAIN_HOOK, &mut c)
    }

    pub fn insert_entry(&mut self, table: u16, key: u64) -> bool {
        syscall_rmt(
            &mut self.machine,
            CtrlRequest::InsertEntry {
                prog: self.chain,
                table: TableId(table),
                entry: chain_entry(table, key),
            },
        )
        .is_ok()
    }

    pub fn remove_entry(&mut self, table: u16, key: u64) -> bool {
        matches!(
            syscall_rmt(
                &mut self.machine,
                CtrlRequest::RemoveEntry {
                    prog: self.chain,
                    table: TableId(table),
                    key: MatchKey::Exact(vec![key]),
                },
            ),
            Ok(CtrlResponse::Removed(true))
        )
    }

    /// The request is built by the caller's clock: cloning the tree is
    /// the operator's cost, not the machine's.
    pub fn model_push_request(&self) -> ModelPush {
        ModelPush(CtrlRequest::UpdateModel {
            prog: self.figure1,
            slot: self.dt_1,
            spec: Box::new(ModelSpec::Tree(self.tree.clone())),
        })
    }

    pub fn update_model(&mut self, push: ModelPush) -> bool {
        syscall_rmt(&mut self.machine, push.0).is_ok()
    }

    pub fn remove_figure1(&mut self) -> bool {
        syscall_rmt(
            &mut self.machine,
            CtrlRequest::Remove { prog: self.figure1 },
        )
        .is_ok()
    }

    /// DSL text → `compile` → `verify` → installed and armed, each step
    /// in a span of its own under trace id `id`.
    pub fn install_figure1(&mut self, tracer: &mut Tracer, id: u64) -> bool {
        tracer.enter(Name::LangCompile, id);
        let compiled = rkd_lang::compile(rkd_lang::FIGURE1_PREFETCH);
        tracer.exit();
        let Ok(compiled) = compiled else { return false };
        tracer.enter(Name::VerifierVerify, id);
        let verified = verify(compiled.program);
        tracer.exit();
        let Ok(verified) = verified else { return false };
        tracer.enter(Name::MachineInstall, id);
        let installed = self.machine.install(verified, Engine::Default.mode());
        tracer.exit();
        let (Ok(prog), Some(&slot)) = (installed, compiled.models.get("dt_1")) else {
            return false;
        };
        self.figure1 = prog;
        self.dt_1 = slot;
        true
    }

    pub fn counters(&self) -> Counters {
        self.machine.machine_counters().into()
    }

    /// Chain links the optimizer has fused right now: the workload is
    /// only what README.md says it is while this stays above zero.
    pub fn chain_fused_links(&self) -> u64 {
        self.machine
            .opt_stats(self.chain)
            .expect("chain installed")
            .fused_links
    }
}

/// A prepared `UpdateModel` request.
pub struct ModelPush(CtrlRequest);

/// Verifies a program built in this file (probes share the builders).
pub fn verified(prog: RmtProgram) -> VerifiedProgram {
    verify(prog).expect("bench-built program verifies")
}

/// Installs under an explicit engine (probes only).
pub fn install_on(machine: &mut RmtMachine, vp: VerifiedProgram, engine: Engine) -> ProgId {
    machine
        .install(vp, engine.mode())
        .expect("verified program installs")
}
