//! The in-kernel RMT virtual machine.
//!
//! [`RmtMachine`] owns installed programs and dispatches kernel hook
//! events through their table pipelines (Figure 1's runtime): a hook
//! fires with a populated [`crate::ctxt::Ctxt`]; each table installed at that hook
//! extracts its match key (`RMT_MATCH_CTXT`), looks up the best entry,
//! and runs the bound action — its verified, optimized, possibly
//! chain-fused body — through the one interpreter
//! ([`crate::interp::run_action`]); `TAIL_CALL`s cascade across tables
//! (bounded); resource effects pass through the
//! program's token-bucket rate limiter before reaching the kernel.
//!
//! A faulting or privacy-exhausted action is absorbed as a no-op — a
//! learned optimization may fail closed, but it must never take the
//! (simulated) kernel down with it.

//!
//! This file declares the machine's types; the submodules hold what it
//! does, one budget line of a firing per function:
//!
//! - `install`: the control plane — install, remove, re-optimize,
//!   entry/model/map updates and the per-program read-backs.
//! - `fusion`: fused tail-call chain bodies and their three-tier
//!   invalidation (restamp / revalidate / re-fuse).
//! - `cache`: the per-hook decision cache — probe, per-step replay
//!   validation, finish — and the hook's cache metadata.
//! - `fire`: `fire`/`fire_batch` and the listener walk: resolve a
//!   step (replay or lookup) → dispatch the action → apply its outcome.
//! - `snapshot`: observability read-out, flight frames, and
//!   [`MachineSnapshot`] capture/restore.

use crate::bytecode::Action;
use crate::ctxt::FieldId;
use crate::dp::PrivacyLedger;
use crate::error::VmError;
use crate::interp::Effect;
use crate::maps::MapInstance;
use crate::obs::{Log2Hist, ModelStats, Obs, ObsConfig};
use crate::opt::OptStats;
use crate::prog::RmtProgram;
use crate::table::{Table, TableId};
use rkd_testkit::rng::StdRng;
use std::collections::{BTreeMap, HashMap};

mod cache;
mod fire;
mod fusion;
mod install;
mod snapshot;
#[cfg(test)]
mod tests;

pub use snapshot::{HookState, MachineSnapshot, ProgramState, TableState};

use cache::DecisionCache;
use fire::TokenBucket;
use fusion::FusedAction;

/// Identifies an installed program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgId(pub u32);

/// An inert compatibility tag. There is one execution engine —
/// [`crate::interp::run_action`] over the bodies [`crate::opt`]
/// produced — and [`crate::opt::OptLevel`] is the only selector of what executes;
/// the machine stores this tag with the program and round-trips it
/// through snapshot and journal JSON (so both on-disk formats keep
/// their shape) but never reads it. It survives only because the
/// frozen repo benchmark names it (`bench/src/sut.rs`, `Engine::mode`)
/// on the signatures it calls: [`RmtMachine::install`],
/// [`RmtMachine::install_seeded`], `CtrlRequest::Install { mode }` and
/// `MlPolicy::new`. Removing it is that one-file follow-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Historical "interpreted" tag; no behavioural meaning.
    Interp,
    /// Historical "JIT" tag; no behavioural meaning.
    Jit,
}

/// Maximum dynamic tail-call chain length per hook firing (matches the
/// verifier's static bound as defense in depth).
pub const MAX_TAIL_CHAIN: usize = 8;

/// Default per-hook decision-cache capacity (cached flow keys).
pub const DEFAULT_DECISION_CACHE_CAP: usize = 1024;

/// Per-program runtime statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgStats {
    /// Hook firings routed to this program.
    pub invocations: u64,
    /// Actions executed.
    pub actions_run: u64,
    /// Dynamic instructions executed.
    pub insns_executed: u64,
    /// Effects delivered to the kernel.
    pub effects_emitted: u64,
    /// Resource effects dropped by the rate limiter.
    pub effects_rate_limited: u64,
    /// Actions absorbed after a fault or privacy exhaustion.
    pub actions_aborted: u64,
    /// Tail-call cascades followed.
    pub tail_calls: u64,
    /// Pipelines terminated because the dynamic tail-call chain
    /// exceeded [`MAX_TAIL_CHAIN`] (§3.1: a tail call redirects and
    /// ends the pipeline; an over-long chain must not keep executing).
    pub tail_chain_overflows: u64,
    /// Model-guard rails tripped (§3.3 model safety).
    pub guard_trips: u64,
}

impl ProgStats {
    /// Adds another stats set into this one, field by field — the
    /// cross-shard aggregation for a program replicated across a
    /// [`crate::shard::ShardedMachine`]'s workers.
    pub fn merge(&mut self, other: &ProgStats) {
        self.invocations = self.invocations.saturating_add(other.invocations);
        self.actions_run = self.actions_run.saturating_add(other.actions_run);
        self.insns_executed = self.insns_executed.saturating_add(other.insns_executed);
        self.effects_emitted = self.effects_emitted.saturating_add(other.effects_emitted);
        self.effects_rate_limited = self
            .effects_rate_limited
            .saturating_add(other.effects_rate_limited);
        self.actions_aborted = self.actions_aborted.saturating_add(other.actions_aborted);
        self.tail_calls = self.tail_calls.saturating_add(other.tail_calls);
        self.tail_chain_overflows = self
            .tail_chain_overflows
            .saturating_add(other.tail_chain_overflows);
        self.guard_trips = self.guard_trips.saturating_add(other.guard_trips);
    }
}

/// The result of firing one hook.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HookResult {
    /// Verdicts of the actions that ran, in execution order, tagged by
    /// the table that produced them.
    pub verdicts: Vec<(TableId, i64)>,
    /// Effects that survived rate limiting, in order.
    pub effects: Vec<Effect>,
}

impl HookResult {
    /// The last verdict, if any action ran (the common single-table
    /// query pattern).
    pub fn verdict(&self) -> Option<i64> {
        self.verdicts.last().map(|(_, v)| *v)
    }
}

/// One installed program with its runtime state.
struct Installed {
    prog: RmtProgram,
    worst_case: Vec<u64>,
    /// Stored for [`ProgramState::mode`] only; see [`ExecMode`].
    mode: ExecMode,
    tables: Vec<Table>,
    maps: Vec<MapInstance>,
    /// `compiled[i]` = what executes for action `i`: the re-verified
    /// body [`crate::opt`] produced from `prog.actions[i]` at
    /// `prog.opt_level` (at `O0`, the verified body as written).
    compiled: Vec<Action>,
    /// `fused[i]` = fused chain body for action `i`, when its tail
    /// call resolved statically (see [`FusedAction`]).
    fused: Vec<Option<FusedAction>>,
    /// Per-program optimizer statistics: pass pipeline totals from the
    /// last full compile plus the current fusion outcome.
    opt_stats: OptStats,
    /// Union of the ctxt fields any of this program's actions can
    /// store to (computed at install). Hooks use this to decide
    /// whether cached decisions can replay without re-extracting
    /// match keys — see [`HookSlot::key_stable`].
    ctxt_writes: Vec<FieldId>,
    rng: StdRng,
    ledger: PrivacyLedger,
    bucket: Option<TokenBucket>,
    stats: ProgStats,
    /// Per-pipeline-run latency histogram (ns), fed by `fire` when
    /// observability timing is on.
    hist: Log2Hist,
    /// Per-model-slot prediction telemetry (`model_stats[i]` tracks
    /// `prog.models[i]`): serving counters fed by the datapath,
    /// confusion/accuracy fed by control-plane `ReportOutcome`.
    model_stats: Vec<ModelStats>,
}

/// Everything the machine keeps per hook name: the listener list plus
/// this hook's observability state (stored here so the hot path pays a
/// single hash lookup for both).
#[derive(Default)]
struct HookSlot {
    /// (program, its table pipeline at this hook: the indices of its
    /// tables registered here, in declaration order), in installation
    /// order. Resolved at install so a firing neither hashes the hook
    /// name again nor re-scans the program's tables.
    listeners: Vec<(u32, Vec<usize>)>,
    /// Armed firings of this hook since the last obs reset.
    fires: u64,
    /// Whole-fire latency histogram (ns).
    hist: Log2Hist,
    /// Union of the key fields of every *non-empty* table at this
    /// hook — the decision-cache probe key. Empty tables contribute
    /// nothing: their (key-independent) default decision is memoized
    /// as a `key: None` step instead.
    consumed: Vec<FieldId>,
    /// Whether firings of this hook probe the cache at all. `false`
    /// when every non-empty table is exact-match: the pipeline already
    /// pays one hash probe per table, so the cache cannot win.
    eligible: bool,
    /// Per-hook specialization (the optimizer's install-time half):
    /// `true` when, for every listener program, (a) no action writes a
    /// consumed field and (b) every non-empty table's key fields are a
    /// subset of `consumed`. Then a probe-key match pins every
    /// reachable match key for the whole firing — tables are immutable
    /// within a generation — so cached steps replay without
    /// re-extracting and re-comparing per-table keys.
    key_stable: bool,
    /// Memoized decisions for this hook, keyed on `consumed` values.
    cache: DecisionCache,
}

/// The RMT virtual machine.
pub struct RmtMachine {
    tick: u64,
    next_id: u32,
    programs: BTreeMap<u32, Installed>,
    /// hook name -> listeners + per-hook observability.
    hook_index: HashMap<String, HookSlot>,
    /// Observability layer (always on; see [`ObsConfig`] for knobs).
    obs: Obs,
    /// Reusable pipeline queue — `fire` is allocation-free once this
    /// has grown to the deepest pipeline seen.
    scratch_queue: Vec<usize>,
    /// Reusable decision-cache probe-key buffer — every flow hashes
    /// its consumed fields without allocating (an inserted key is
    /// copied into the hook's slab).
    key_scratch: Vec<u64>,
    /// Reusable table match-key buffer — a live lookup extracts its
    /// key here instead of allocating one.
    lookup_scratch: Vec<u64>,
    /// Table generation: bumped on every control-plane table/model
    /// mutation; cached decisions recorded under an older generation
    /// are stale and never replayed.
    table_gen: u64,
    /// Per-hook decision-cache capacity (0 disables caching).
    decision_cache_cap: usize,
}

impl Default for RmtMachine {
    fn default() -> RmtMachine {
        RmtMachine::new()
    }
}

impl RmtMachine {
    /// Creates an empty machine at tick 0 with default observability.
    pub fn new() -> RmtMachine {
        RmtMachine::with_obs_config(ObsConfig::default())
    }

    /// Creates an empty machine with an explicit observability
    /// configuration.
    pub fn with_obs_config(cfg: ObsConfig) -> RmtMachine {
        RmtMachine {
            tick: 0,
            next_id: 1,
            programs: BTreeMap::new(),
            hook_index: HashMap::new(),
            obs: Obs::new(cfg),
            scratch_queue: Vec::new(),
            key_scratch: Vec::new(),
            lookup_scratch: Vec::new(),
            table_gen: 0,
            decision_cache_cap: DEFAULT_DECISION_CACHE_CAP,
        }
    }

    /// Current monotonic tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the clock (the embedding kernel drives this).
    pub fn advance_tick(&mut self, by: u64) {
        self.tick = self.tick.saturating_add(by);
    }

    fn installed(&self, id: ProgId) -> Result<&Installed, VmError> {
        self.programs.get(&id.0).ok_or(VmError::NoSuchProgram(id.0))
    }

    fn installed_mut(&mut self, id: ProgId) -> Result<&mut Installed, VmError> {
        self.programs
            .get_mut(&id.0)
            .ok_or(VmError::NoSuchProgram(id.0))
    }
}

rkd_testkit::impl_json_newtype!(ProgId(u32));

rkd_testkit::impl_json_unit_enum!(ExecMode { Interp, Jit });

rkd_testkit::impl_json_struct!(ProgStats {
    invocations,
    actions_run,
    insns_executed,
    effects_emitted,
    effects_rate_limited,
    actions_aborted,
    tail_calls,
    tail_chain_overflows,
    guard_trips
});
