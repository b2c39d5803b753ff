//! The in-kernel RMT virtual machine.
//!
//! [`RmtMachine`] owns installed programs and dispatches kernel hook
//! events through their table pipelines (Figure 1's runtime): a hook
//! fires with a populated [`Ctxt`]; each table installed at that hook
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

use crate::bytecode::Action;
use crate::ctxt::{Ctxt, FieldId};
use crate::dp::PrivacyLedger;
use crate::error::VmError;
use crate::interp::{run_action, ActionOutcome, Effect, ExecEnv};
use crate::maps::{MapId, MapInstance, MapState};
use crate::obs::span::{self, SpanCollector, SpanSnapshot, Stage, StageProfile};
use crate::obs::{
    FlightFrame, FlightHookPoint, FlightModelPoint, FlightSnapshot, HookStats, Log2Hist,
    MachineCounters, ModelStats, ModelStatsSnapshot, ModelStatsState, Obs, ObsConfig, ObsSnapshot,
    ObsState, ProgHist, TraceEvent, TraceKind, TraceSnapshot,
};
use crate::opt::{
    fuse_chain, optimize_reverified, optimize_reverified_with, FusedStepPlan, OptLevel, OptStats,
};
use crate::prog::{ModelSpec, RmtProgram};
use crate::table::{ActionId, Entry, MatchKind, Table, TableId, TableStats};
use crate::verifier::{verify_with, VerifiedProgram, VerifierConfig};
use rkd_testkit::rng::SeedableRng;
use rkd_testkit::rng::StdRng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::ControlFlow;
use std::time::Instant;

/// An open span of a sampled firing: identity and start fixed when it
/// opens, recorded by [`FireCtx::close_span`].
#[derive(Clone, Copy)]
struct OpenSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    start_ns: u64,
}

/// Identifies an installed program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgId(pub u32);

/// An inert compatibility tag. There is one execution engine —
/// [`crate::interp::run_action`] over the bodies [`crate::opt`]
/// produced — and [`OptLevel`] is the only selector of what executes;
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

/// One memoized table step of a hook firing: which table the pipeline
/// visited and how its match resolved. Replay re-validates each step
/// (and always re-executes the action) — only the match resolution is
/// memoized.
#[derive(Clone, Debug)]
struct CachedStep {
    prog: u32,
    table: u16,
    /// The key values the table extracted, re-checked on replay — or
    /// `None` for a key-independent decision (the table was empty, so
    /// the default action fired without extracting a key). `None`
    /// revalidates via `is_empty()`, letting replay skip the per-table
    /// key allocation entirely on default-action-only pipelines.
    key: Option<Vec<u64>>,
    /// Matched entry slot (`None` = miss / default action).
    entry: Option<u32>,
}

/// Cheap deterministic hasher for decision-cache flow keys. Flow keys
/// are short `u64` words extracted from ctxt fields; SipHash's
/// flood-resistance buys nothing here (the cache is bounded and
/// kernel-internal) and costs a large fraction of the replay budget.
#[derive(Default)]
struct FlowKeyHasher(u64);

impl std::hash::Hasher for FlowKeyHasher {
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: full avalanche over the mixed words.
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FlowKeyMap = HashMap<Vec<u64>, CachedDecision, std::hash::BuildHasherDefault<FlowKeyHasher>>;

/// A memoized pipeline decision for one flow key.
#[derive(Clone, Debug)]
struct CachedDecision {
    /// [`RmtMachine`] table generation this decision was recorded
    /// under; any control-plane table/model mutation bumps the
    /// machine's counter, making the decision stale.
    generation: u64,
    steps: Vec<CachedStep>,
}

/// Bounded FIFO map of flow key -> memoized decision for one hook
/// (the megaflow-style cache in front of the full pipeline walk).
#[derive(Default)]
struct DecisionCache {
    map: FlowKeyMap,
    fifo: VecDeque<Vec<u64>>,
    /// Degenerate megaflow: when the hook consumes no ctxt fields
    /// (every non-empty table is gone — default-action pipelines),
    /// every flow shares one decision. Kept out of `map` so the hot
    /// path is an `Option` move instead of a hash probe.
    flowless: Option<CachedDecision>,
}

impl DecisionCache {
    /// Inserts (or overwrites) a decision, evicting oldest-inserted
    /// keys past `cap`; returns how many were evicted.
    fn insert(&mut self, key: Vec<u64>, dec: CachedDecision, cap: usize) -> u64 {
        let mut evicted = 0;
        if self.map.insert(key.clone(), dec).is_none() {
            self.fifo.push_back(key);
            while self.map.len() > cap {
                let Some(old) = self.fifo.pop_front() else {
                    break;
                };
                if self.map.remove(&old).is_some() {
                    evicted += 1;
                }
            }
        }
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.fifo.clear();
        self.flowless = None;
    }
}

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

/// Token bucket guarding resource-emitting actions.
#[derive(Clone, Debug)]
struct TokenBucket {
    capacity: u64,
    tokens: u64,
    refill_per_tick: u64,
    last_tick: u64,
}

impl TokenBucket {
    fn new(capacity: u64, refill_per_tick: u64) -> TokenBucket {
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_tick,
            last_tick: 0,
        }
    }

    /// Current fill level as `(tokens, last_tick)` for snapshotting.
    fn level(&self) -> (u64, u64) {
        (self.tokens, self.last_tick)
    }

    /// Overlays a snapshotted fill level; `tokens` is clamped to the
    /// capacity so a hand-edited snapshot cannot mint extra budget.
    fn restore_level(&mut self, tokens: u64, last_tick: u64) {
        self.tokens = tokens.min(self.capacity);
        self.last_tick = last_tick;
    }

    fn try_take(&mut self, n: u64, now: u64) -> bool {
        if now > self.last_tick {
            let refill = (now - self.last_tick).saturating_mul(self.refill_per_tick);
            self.tokens = (self.tokens + refill).min(self.capacity);
            self.last_tick = now;
        }
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }
}

/// A fused tail-call chain body installed for one action
/// (`OptLevel >= O1`): the caller plus its statically resolved callees
/// collapsed into one re-verified body.
///
/// Validity is generation-stamped: resolution baked the table
/// contents in, so any control-plane mutation that bumps the table
/// generation makes the stamp stale and dispatch falls back to the
/// unfused body until [`RmtMachine::refresh_fused`] re-specializes.
/// This is the same invalidation clock the decision cache uses, so
/// cached chains and fused bodies can never disagree about table
/// state within a generation.
struct FusedAction {
    compiled: Action,
    /// Re-verified worst case of the fused body — the runtime fuel.
    /// Install-time checked to fit the unfused chain's combined
    /// budget, so fusion never buys extra fuel.
    worst_case: u64,
    /// The collapsed links, for synthesized per-table bookkeeping.
    steps: Box<[FusedStepPlan]>,
    /// Table generation the chain was resolved against.
    generation: u64,
    /// Bitmask of the table indices this plan's resolution routed
    /// through: every collapsed link's table plus any trailing
    /// (unresolved) `TailCall` target — the only tables whose entry
    /// churn can change this plan. `u64::MAX` (every bit set) when any
    /// index is ≥ 64: depend on everything, always re-fuse. Entry
    /// mutations on other tables restamp instead of re-planning, which
    /// is what keeps control-plane churn from paying a full
    /// re-specialization per mutation.
    deps: u64,
    /// The subset of `deps` reachable only through a trailing
    /// (unresolved) `TailCall` left in the fused body. Churn there can
    /// extend or reshape the chain, so it always forces a full
    /// re-fuse — the cheap revalidation below never applies.
    trailing: u64,
    /// Per collapsed link, the constant key its lookup resolved with
    /// (`None` = resolved by table emptiness). See
    /// [`RmtMachine::revalidate_fused_plan`].
    step_keys: Box<[Option<Vec<u64>>]>,
}

impl FusedAction {
    /// The fused body collapsed a statically resolved match chain into
    /// one execution that started at table `first` and ended with
    /// `verdict`; synthesize the per-table observability the chain no
    /// longer performs live. Verdicts are the fusion-time constants,
    /// bit-identical to the unfused chain's; only `insns_executed`
    /// legitimately differs (that's the win). Returns the tail calls
    /// the chain followed.
    fn account(
        &self,
        tables: &[Table],
        stats: &mut ProgStats,
        counters: &mut MachineCounters,
        first: TableId,
        verdict: i64,
        result: &mut HookResult,
    ) -> usize {
        result.verdicts.push((first, self.steps[0].caller_verdict));
        for (si, step) in self.steps.iter().enumerate() {
            stats.tail_calls += 1;
            counters.tail_calls += 1;
            note_lookup(&tables[step.table as usize], counters, step.entry.is_some());
            if step.action.is_some() {
                stats.actions_run += 1;
                let v = self
                    .steps
                    .get(si + 1)
                    .map_or(verdict, |next| next.caller_verdict);
                result.verdicts.push((TableId(step.table), v));
            }
        }
        self.steps.len()
    }
}

/// Counts one table lookup's outcome in the table's own statistics and
/// the machine counters.
fn note_lookup(t: &Table, counters: &mut MachineCounters, hit: bool) {
    if hit {
        t.note_hit();
        counters.table_hits += 1;
    } else {
        t.note_miss();
        counters.table_misses += 1;
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
    /// Reusable decision-cache probe-key buffer — repeat flows hash
    /// their consumed fields without allocating (the key is cloned
    /// only when a miss inserts a new cache entry).
    key_scratch: Vec<u64>,
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

/// Decision-cache state for one firing, threaded between the probe
/// ([`FireCtx::cache_probe`]), the per-listener pipeline walk
/// ([`FireCtx::run_pipeline`]) and the publish
/// ([`FireCtx::cache_finish`]). The cached step chain is *moved*
/// out of the map for the duration of the firing (and restored on a
/// clean hit) rather than borrowed: a live borrow into the hook slot
/// would pin the whole listener loop, and the moves are pointer
/// swaps.
struct CacheRun {
    /// Caching is on for this firing (capacity > 0, hook eligible).
    enabled: bool,
    /// The hook consumes no ctxt fields: one shared decision slot,
    /// no key extraction, no hash probe.
    flowless: bool,
    /// The probe found a stale-generation entry (counted on miss).
    invalidated: bool,
    /// Recording a fresh step chain (probe missed or replay
    /// diverged).
    recording: bool,
    /// Steps recorded so far while `recording`.
    recorded: Vec<CachedStep>,
    /// Step chain moved out of the cache on a current-generation
    /// probe hit.
    replay: Option<Vec<CachedStep>>,
    /// Next replay step to validate.
    cursor: usize,
    /// A replayed step failed validation mid-firing.
    diverged: bool,
    /// The hook's [`HookSlot::key_stable`]: replayed steps skip
    /// per-table key re-extraction.
    key_stable: bool,
}

/// How the decision cache answered for one pipeline step
/// ([`CacheRun::replay_next`]).
enum Replayed {
    /// The next memoized step validated against the live table: the
    /// matched entry slot (`None` = miss / default action).
    Step(Option<usize>),
    /// Resolve live — carrying the table's match key when validation
    /// already extracted it.
    Live(Option<Vec<u64>>),
}

impl CacheRun {
    /// Validates the next memoized step for table `ti` of program
    /// `pid`, or — on the first step that fails, or when the live
    /// pipeline outruns the memo (e.g. a tail call fires now that
    /// didn't before) — turns the validated prefix into the start of
    /// a fresh recording.
    fn replay_next(&mut self, pid: u32, ti: usize, t: &Table, ctxt: &Ctxt) -> Replayed {
        if !self.enabled || self.recording {
            return Replayed::Live(None);
        }
        let mut fresh_key = None;
        if let Some(st) = self.replay.as_deref().unwrap_or(&[]).get(self.cursor) {
            let ok = st.prog == pid
                && st.table as usize == ti
                && match &st.key {
                    // Key-independent decision: still valid iff the
                    // table is still empty (no key extraction).
                    None => t.is_empty(),
                    // Key-stable hook: the probe-key match already
                    // pinned every reachable match key for this
                    // firing, so skip re-extraction.
                    Some(_) if self.key_stable => true,
                    Some(mk) => {
                        let k = ctxt.key(&t.def().key_fields);
                        let same = *mk == k;
                        fresh_key = Some(k);
                        same
                    }
                }
                && match st.entry {
                    Some(ei) => (ei as usize) < t.entries().len(),
                    None => true,
                };
            if ok {
                let entry = st.entry.map(|ei| ei as usize);
                self.cursor += 1;
                return Replayed::Step(entry);
            }
        }
        let mut prefix = self.replay.take().unwrap_or_default();
        prefix.truncate(self.cursor);
        self.recorded = prefix;
        self.recording = true;
        self.diverged = true;
        Replayed::Live(fresh_key)
    }

    /// Memoizes one live-resolved step while recording.
    fn record(&mut self, pid: u32, ti: usize, key: Option<Vec<u64>>, entry: Option<usize>) {
        if self.recording {
            self.recorded.push(CachedStep {
                prog: pid,
                table: ti as u16,
                key,
                entry: entry.map(|ei| ei as u32),
            });
        }
    }
}

/// Where one listener's pipeline walk stands.
struct Walk {
    pid: u32,
    /// The table being visited.
    ti: usize,
    /// Queue position after `ti`: a redirect truncates the queue here.
    qi: usize,
    /// Tail calls followed so far (bounded by [`MAX_TAIL_CHAIN`]).
    chain: usize,
    /// The open `RunPipeline` span, when this firing is traced.
    span: Option<OpenSpan>,
}

/// Everything one firing borrows from the machine besides the hook
/// slot and the programs, plus its own timing and span state. The hook
/// slot is a live `&mut` into `hook_index`, so the fire path cannot
/// take `&mut RmtMachine`; this is the disjoint remainder, built once
/// per [`RmtMachine::fire`] and once per batch
/// ([`RmtMachine::fire_parts`]).
struct FireCtx<'a> {
    obs: &'a mut Obs,
    /// Reusable pipeline queue (see [`RmtMachine::scratch_queue`]).
    scratch_queue: &'a mut Vec<usize>,
    /// Reusable probe-key buffer (see [`RmtMachine::key_scratch`]).
    key_scratch: &'a mut Vec<u64>,
    tick: u64,
    table_gen: u64,
    cache_cap: usize,
    /// Latency-sampling mask: a firing is timed when
    /// `(slot.fires - 1) & sample_mask == 0`.
    sample_mask: u64,
    /// This firing is latency-sampled. Reset per firing, like the two
    /// fields below.
    timed: bool,
    /// End of the previous listener's pipeline (start of the firing
    /// for the first), when `timed`.
    prev: Option<Instant>,
    /// The open `Fire` span, when this firing is traced.
    fire_span: Option<OpenSpan>,
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
            table_gen: 0,
            decision_cache_cap: DEFAULT_DECISION_CACHE_CAP,
        }
    }

    /// Resizes the per-hook decision caches (0 disables caching).
    /// Existing cached decisions are dropped.
    pub fn set_decision_cache_capacity(&mut self, cap: usize) {
        self.decision_cache_cap = cap;
        for slot in self.hook_index.values_mut() {
            slot.cache.clear();
        }
    }

    /// Current per-hook decision-cache capacity.
    pub fn decision_cache_capacity(&self) -> usize {
        self.decision_cache_cap
    }

    /// Current table generation (bumped on every control-plane
    /// table/model mutation; exposed for invalidation tests).
    pub fn table_generation(&self) -> u64 {
        self.table_gen
    }

    /// Current monotonic tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the clock (the embedding kernel drives this).
    pub fn advance_tick(&mut self, by: u64) {
        self.tick = self.tick.saturating_add(by);
    }

    /// Installs a verified program (`syscall_rmt()` in Figure 1),
    /// returning its id. Every action is optimized at the program's
    /// [`OptLevel`] and re-verified up front; `mode` is an inert tag
    /// (see [`ExecMode`]).
    pub fn install(&mut self, vp: VerifiedProgram, mode: ExecMode) -> Result<ProgId, VmError> {
        self.install_seeded(vp, mode, 0x5EED)
    }

    /// Installs with an explicit RNG seed (reproducible DP noise and
    /// `rand` helper streams).
    pub fn install_seeded(
        &mut self,
        vp: VerifiedProgram,
        mode: ExecMode,
        seed: u64,
    ) -> Result<ProgId, VmError> {
        let (prog, worst_case) = vp.into_parts();
        let mut tables: Vec<Table> = prog.tables.iter().cloned().map(Table::new).collect();
        for (tid, entry) in &prog.initial_entries {
            tables[tid.0 as usize].insert(entry.clone())?;
        }
        let mut maps = Vec::with_capacity(prog.maps.len());
        for def in &prog.maps {
            maps.push(MapInstance::new(def)?);
        }
        let (compiled, opt_stats) = Self::optimize_actions(&prog, prog.opt_level, &worst_case)?;
        self.obs.counters.opt_fixpoint_cap_hits += opt_stats.fixpoint_cap_hits;
        let mut ctxt_writes: Vec<FieldId> = Vec::new();
        for action in &prog.actions {
            for f in crate::opt::ctxt_writes(action) {
                if !ctxt_writes.contains(&f) {
                    ctxt_writes.push(f);
                }
            }
        }
        let bucket = prog
            .rate_limit
            .map(|rl| TokenBucket::new(rl.capacity, rl.refill_per_tick));
        let ledger = PrivacyLedger::new(prog.privacy.budget_milli_eps);
        let id = self.next_id;
        self.next_id += 1;
        // Register one listener per hook this program has tables at,
        // in first-appearance order, each with its table pipeline.
        let mut hook_names: Vec<String> = Vec::new();
        for t in &prog.tables {
            if !hook_names.contains(&t.hook) {
                hook_names.push(t.hook.clone());
            }
        }
        let n_models = prog.models.len();
        for hook in &hook_names {
            let pipeline = (0..prog.tables.len())
                .filter(|&i| prog.tables[i].hook == *hook)
                .collect();
            self.hook_index
                .entry(hook.clone())
                .or_insert_with(|| HookSlot {
                    listeners: Vec::new(),
                    fires: 0,
                    hist: Log2Hist::new(),
                    consumed: Vec::new(),
                    eligible: true,
                    key_stable: false,
                    cache: DecisionCache::default(),
                })
                .listeners
                .push((id, pipeline));
        }
        self.programs.insert(
            id,
            Installed {
                prog,
                worst_case,
                mode,
                tables,
                maps,
                compiled,
                fused: Vec::new(),
                opt_stats,
                ctxt_writes,
                rng: StdRng::seed_from_u64(seed),
                ledger,
                bucket,
                stats: ProgStats::default(),
                hist: Log2Hist::new(),
                model_stats: std::iter::repeat_with(ModelStats::new)
                    .take(n_models)
                    .collect(),
            },
        );
        self.obs.ring.push(TraceEvent {
            tick: self.tick,
            prog: id,
            kind: TraceKind::Install,
            info: id as i64,
        });
        self.table_gen += 1;
        for hook in &hook_names {
            self.refresh_hook_cache_meta(hook);
        }
        // Fuse this program's tail-call chains against its freshly
        // installed tables; other programs just restamp (tail calls
        // never cross programs, so their plans are unaffected).
        self.refresh_fused(Some(id), None);
        Ok(ProgId(id))
    }

    /// Optimizes and re-verifies every action of `prog` at `level`:
    /// the bodies the machine executes plus their pipeline statistics.
    /// `worst_case` stays the verifier's bound for the bodies as
    /// written: it remains a sound fuel cap for the (never-larger)
    /// optimized bodies and keeps fuel accounting identical across
    /// levels.
    fn optimize_actions(
        prog: &RmtProgram,
        level: OptLevel,
        worst_case: &[u64],
    ) -> Result<(Vec<Action>, OptStats), VmError> {
        let mut bodies = Vec::with_capacity(prog.actions.len());
        let mut opt_stats = OptStats::default();
        for (i, action) in prog.actions.iter().enumerate() {
            let (report, _wc) = optimize_reverified(i as u16, action, prog, level, worst_case[i])?;
            opt_stats.record(action.code.len(), &report);
            bodies.push(report.action);
        }
        Ok((bodies, opt_stats))
    }

    /// Changes an installed program's optimization level, rebuilding
    /// every action through the optimize → re-verify path (a
    /// re-verification failure aborts the switch and leaves the
    /// previous level, bodies and statistics installed).
    ///
    /// The switch is epoch-published like any other table mutation:
    /// the table generation is bumped, which simultaneously invalidates
    /// the decision cache (decisions memoized under the old bodies) and
    /// every fused chain stamped under the old level, then chains are
    /// re-specialized for the new level. Without the bump, a replica
    /// that recompiled could keep serving verdicts memoized or fused
    /// under the previous level.
    pub fn set_opt_level(&mut self, id: ProgId, level: OptLevel) -> Result<(), VmError> {
        let inst = self
            .programs
            .get_mut(&id.0)
            .ok_or(VmError::NoSuchProgram(id.0))?;
        let (compiled, opt_stats) = Self::optimize_actions(&inst.prog, level, &inst.worst_case)?;
        inst.prog.opt_level = level;
        inst.compiled = compiled;
        inst.opt_stats = opt_stats;
        self.obs.counters.opt_fixpoint_cap_hits += opt_stats.fixpoint_cap_hits;
        self.table_gen += 1;
        self.refresh_fused(Some(id.0), None);
        Ok(())
    }

    /// Per-program optimizer statistics: pass-pipeline totals from the
    /// last full compile plus the current chain-fusion outcome.
    pub fn opt_stats(&self, id: ProgId) -> Result<OptStats, VmError> {
        self.programs
            .get(&id.0)
            .map(|inst| inst.opt_stats)
            .ok_or(VmError::NoSuchProgram(id.0))
    }

    /// An installed program's current optimization level.
    pub fn opt_level(&self, id: ProgId) -> Result<OptLevel, VmError> {
        self.programs
            .get(&id.0)
            .map(|inst| inst.prog.opt_level)
            .ok_or(VmError::NoSuchProgram(id.0))
    }

    /// Removes a program and unhooks its tables.
    pub fn remove(&mut self, id: ProgId) -> Result<(), VmError> {
        if self.programs.remove(&id.0).is_none() {
            return Err(VmError::NoSuchProgram(id.0));
        }
        for slot in self.hook_index.values_mut() {
            slot.listeners.retain(|(p, _)| *p != id.0);
        }
        self.obs.ring.push(TraceEvent {
            tick: self.tick,
            prog: id.0,
            kind: TraceKind::Remove,
            info: id.0 as i64,
        });
        self.table_gen += 1;
        let hooks: Vec<String> = self.hook_index.keys().cloned().collect();
        for hook in &hooks {
            self.refresh_hook_cache_meta(hook);
        }
        // Surviving programs' plans are untouched by the removal (tail
        // calls never cross programs): restamp to the new generation.
        self.refresh_fused(None, None);
        Ok(())
    }

    /// Re-specializes fused tail-call chains after a generation bump.
    ///
    /// `recompute = Some(pid)` recomputes `pid`'s plans from its live
    /// tables (the mutation touched that program) and restamps every
    /// other program's existing plans to the current generation —
    /// sound because a `TailCall` can only target a table of its own
    /// program, so another program's mutation can never change this
    /// program's resolution. `recompute = None` restamps everything
    /// (the mutation — e.g. a program removal — touched no surviving
    /// program's tables).
    ///
    /// `touched = Some(table)` narrows an entry mutation to one table:
    /// within the recomputed program, only plans whose [`FusedAction::
    /// deps`] include that table — plus actions with no current plan,
    /// whose resolution the mutation may have newly enabled — are
    /// re-fused; everything else restamps. A plan that never routed
    /// through the table cannot be changed by its entries, so the
    /// restamp is exact, not an approximation. `touched = None` means
    /// the mutation's reach is structural (install, opt-level change,
    /// model swap, restore): recompute every plan.
    ///
    /// Eager re-specialization keeps the invalidation window at zero:
    /// the stale-generation check in the dispatch path is defense in
    /// depth (it is what protects a snapshot-restored machine between
    /// entry overlay and the final refresh), not the primary protocol.
    fn refresh_fused(&mut self, recompute: Option<u32>, touched: Option<TableId>) {
        let generation = self.table_gen;
        // A touched index ≥ 64 has no bit of its own: plans that route
        // through such tables carry `deps == u64::MAX` and a full mask
        // re-fuses exactly those (plus everything else — conservative,
        // and only reachable on 64+-table programs).
        let mask = match touched {
            Some(t) if (t.0 as usize) < 64 => 1u64 << t.0,
            Some(_) => u64::MAX,
            None => u64::MAX,
        };
        let partial = touched.is_some();
        for (&pid, inst) in self.programs.iter_mut() {
            if recompute != Some(pid) {
                for f in inst.fused.iter_mut().flatten() {
                    f.generation = generation;
                }
                continue;
            }
            if !partial {
                inst.fused = Self::fuse_actions(
                    &inst.prog,
                    &inst.tables,
                    &inst.worst_case,
                    generation,
                    &mut inst.opt_stats,
                );
                continue;
            }
            let t = touched.expect("partial refresh implies a touched table");
            for i in 0..inst.prog.actions.len() {
                let slot = &mut inst.fused[i];
                let refuse = match slot {
                    Some(f) if f.deps & mask == 0 => {
                        f.generation = generation;
                        false
                    }
                    // The mutation hit a routed-through table: try the
                    // cheap dispatch-identity revalidation before
                    // paying a full re-plan + re-verify.
                    Some(f) => !Self::revalidate_fused_plan(f, &inst.tables, t, generation),
                    None => true,
                };
                if refuse {
                    *slot =
                        Self::fuse_one(&inst.prog, &inst.tables, &inst.worst_case, i, generation);
                }
            }
            Self::recount_fusion_stats(&inst.fused, &mut inst.opt_stats);
        }
    }

    /// Computes the fused chain bodies for one program against its
    /// live tables. Per action: plan the fusion, re-verify the fused
    /// body (lifted size budget, same dataflow/CFG rules — see
    /// [`crate::verifier::reverify_action`]), and enforce the fuel
    /// argument — the fused body's re-verified worst case must fit the
    /// sum of the unfused links' budgets, so a fused chain can never
    /// burn more fuel than the chain it replaced. Any failure skips
    /// fusion for that action (the unfused body is always installed).
    fn fuse_actions(
        prog: &RmtProgram,
        tables: &[Table],
        worst_case: &[u64],
        generation: u64,
        opt_stats: &mut OptStats,
    ) -> Vec<Option<FusedAction>> {
        // At `O0` every plan is `None`: `fuse_chain` refuses to fuse.
        let fused: Vec<Option<FusedAction>> = (0..prog.actions.len())
            .map(|i| Self::fuse_one(prog, tables, worst_case, i, generation))
            .collect();
        Self::recount_fusion_stats(&fused, opt_stats);
        fused
    }

    /// Plans and re-verifies the fused chain body for one action (see
    /// [`RmtMachine::fuse_actions`] for the contract).
    fn fuse_one(
        prog: &RmtProgram,
        tables: &[Table],
        worst_case: &[u64],
        i: usize,
        generation: u64,
    ) -> Option<FusedAction> {
        let action = prog.actions.get(i)?;
        let plan = fuse_chain(action, &prog.actions, tables, prog.opt_level)?;
        let mut fuel_cap = worst_case.get(i).copied().unwrap_or(0);
        for st in &plan.steps {
            if let Some(a) = st.action {
                fuel_cap =
                    fuel_cap.saturating_add(worst_case.get(a as usize).copied().unwrap_or(0));
            }
        }
        // `fuse_chain` already optimized the spliced body; the empty
        // pass list sends it through the re-verification gate as is.
        let (report, wc) =
            optimize_reverified_with(i as u16, &plan.action, prog, &[], u64::MAX).ok()?;
        if wc > fuel_cap {
            return None;
        }
        let compiled = report.action;
        let mut deps = 0u64;
        for st in &plan.steps {
            deps |= Self::dep_bit(st.table as usize);
        }
        let mut trailing = 0u64;
        for insn in &compiled.code {
            if let crate::bytecode::Insn::TailCall { table } = insn {
                trailing |= Self::dep_bit(table.0 as usize);
            }
        }
        deps |= trailing;
        Some(FusedAction {
            compiled,
            worst_case: wc,
            steps: plan.steps.into_boxed_slice(),
            generation,
            deps,
            trailing,
            step_keys: plan.step_keys.into_boxed_slice(),
        })
    }

    /// The dependency-mask bit for a table index (`u64::MAX` for
    /// indices past the mask width: depend on everything).
    fn dep_bit(ti: usize) -> u64 {
        if ti < 64 {
            1u64 << ti
        } else {
            u64::MAX
        }
    }

    /// Cheap post-churn revalidation of one fused plan: re-resolve
    /// every collapsed link that routed through the touched table
    /// using the constant key the plan stored at fusion time. When
    /// each such link still dispatches the same `(action, arg)`, the
    /// fused body is byte-for-byte still exact — only the recorded
    /// entry index (the hit/miss bookkeeping the dispatch path
    /// synthesizes) may have moved — so the plan updates those indices
    /// and restamps instead of paying a full re-fuse. Returns `false`
    /// (the caller must re-fuse from scratch) when the dispatch
    /// identity changed, when an emptiness-resolved link's table is no
    /// longer empty (there is no stored key to re-resolve with), or
    /// when the touched table is a trailing `TailCall` target (churn
    /// there can extend or reshape the chain).
    fn revalidate_fused_plan(
        f: &mut FusedAction,
        tables: &[Table],
        touched: TableId,
        generation: u64,
    ) -> bool {
        if f.trailing & Self::dep_bit(touched.0 as usize) != 0 {
            return false;
        }
        let Some(t) = tables.get(touched.0 as usize) else {
            return false;
        };
        let mut entries: Vec<(usize, Option<u32>)> = Vec::new();
        for (i, st) in f.steps.iter().enumerate() {
            if st.table != touched.0 {
                continue;
            }
            let (entry, dispatch) = if t.is_empty() {
                (None, t.def().default_action.map(|a| (a.0, 0i64)))
            } else {
                let Some(key) = f.step_keys.get(i).and_then(|k| k.as_ref()) else {
                    return false; // Resolved by emptiness; table grew.
                };
                match t.resolve_indexed(key) {
                    Some((ei, e)) => (Some(ei as u32), Some((e.action.0, e.arg))),
                    None => (None, t.def().default_action.map(|a| (a.0, 0i64))),
                }
            };
            if dispatch != st.action.map(|a| (a, st.arg)) {
                return false;
            }
            entries.push((i, entry));
        }
        for (i, entry) in entries {
            f.steps[i].entry = entry;
        }
        f.generation = generation;
        true
    }

    /// Refreshes the fusion half of a program's optimizer statistics
    /// from its live plan set.
    fn recount_fusion_stats(fused: &[Option<FusedAction>], opt_stats: &mut OptStats) {
        opt_stats.fused_chains = fused.iter().flatten().count() as u64;
        opt_stats.fused_links = fused.iter().flatten().map(|f| f.steps.len() as u64).sum();
    }

    /// Recomputes a hook's decision-cache metadata (probe-key field
    /// union and eligibility) after a structural change. Cached
    /// decisions are not dropped here — the generation bump already
    /// made them stale, and counting them as invalidations at probe
    /// time keeps the obs story faithful; they are overwritten or
    /// FIFO-evicted lazily.
    fn refresh_hook_cache_meta(&mut self, hook: &str) {
        let Some(slot) = self.hook_index.get_mut(hook) else {
            return;
        };
        let mut consumed: Vec<FieldId> = Vec::new();
        let mut nonempty = 0usize;
        let mut non_exact = false;
        for (pid, pipeline) in &slot.listeners {
            let Some(inst) = self.programs.get(pid) else {
                continue;
            };
            for &ti in pipeline {
                let t = &inst.tables[ti];
                if t.is_empty() {
                    continue;
                }
                nonempty += 1;
                if t.def().kind != MatchKind::Exact {
                    non_exact = true;
                }
                for f in &t.def().key_fields {
                    if !consumed.contains(f) {
                        consumed.push(*f);
                    }
                }
            }
        }
        // Per-hook specialization: decide whether cached decisions can
        // replay without per-step key re-extraction. Requires, for
        // every listener program, that (a) no action writes a consumed
        // field (so the probe key pins those fields for the whole
        // firing) and (b) every non-empty table of the program — tail
        // calls can reach tables registered at other hooks — keys only
        // consumed fields. Empty tables memoize key-independent steps
        // and keep their cheap is-still-empty validation.
        let mut key_stable = true;
        for (pid, _) in &slot.listeners {
            let Some(inst) = self.programs.get(pid) else {
                continue;
            };
            if inst.ctxt_writes.iter().any(|f| consumed.contains(f)) {
                key_stable = false;
                break;
            }
            let all_keys_consumed = inst
                .tables
                .iter()
                .all(|t| t.is_empty() || t.def().key_fields.iter().all(|f| consumed.contains(f)));
            if !all_keys_consumed {
                key_stable = false;
                break;
            }
        }
        slot.consumed = consumed;
        slot.key_stable = key_stable;
        // A hook whose live tables are all exact-match already costs
        // one hash probe per table; the cache would only add overhead.
        slot.eligible = nonempty == 0 || non_exact;
    }

    /// Whether any program listens on a hook (lets the embedding kernel
    /// skip context assembly on cold hooks — "lean monitoring").
    pub fn hook_armed(&self, hook: &str) -> bool {
        self.hook_index
            .get(hook)
            .is_some_and(|s| !s.listeners.is_empty())
    }

    /// Fires a kernel hook: every program with tables at `hook` runs its
    /// pipeline over `ctxt`. Faulting actions are absorbed (counted in
    /// [`ProgStats::actions_aborted`]).
    ///
    /// The observability layer sees every firing: machine counters
    /// always, latency histograms when [`ObsConfig::timing`] is on
    /// (subject to sampling), trace events for notable outcomes. The
    /// path itself is allocation-free in steady state — the pipeline
    /// queue is a reusable per-machine scratch buffer and the listener
    /// list is iterated in place.
    ///
    /// A megaflow-style decision cache fronts the pipeline walk: the
    /// consumed ctxt fields key a memo of the resolved (table, entry)
    /// chain, so repeat flows skip match resolution (actions still
    /// re-execute, and every replayed step is revalidated against the
    /// live tables). Control-plane mutations bump a generation counter
    /// that invalidates all cached decisions.
    pub fn fire(&mut self, hook: &str, ctxt: &mut Ctxt) -> HookResult {
        let (hooks, programs, mut fx) = self.fire_parts();
        let Some(slot) = hooks.get_mut(hook) else {
            fx.obs.counters.fires_unarmed += 1;
            return HookResult::default();
        };
        let result = fx.fire_in_slot(programs, slot, ctxt);
        if self.obs.flight.due(self.obs.counters.fires) {
            self.capture_flight_frame();
        }
        result
    }

    /// Fires `hook` once per context, amortizing the per-fire fixed
    /// costs across the batch: one hook-index lookup, one
    /// sampling-mask computation, and one flight-recorder due-check
    /// (at most one frame captured per batch, even when the batch
    /// crosses several capture intervals) instead of one each per
    /// firing. Per-firing semantics are otherwise identical to
    /// [`RmtMachine::fire`] — each context still gets its own
    /// decision-cache probe (flows differ) and its own [`HookResult`].
    ///
    /// This is the inner loop of every
    /// [`crate::shard::ShardedMachine`] worker, and pays off on a
    /// single machine too.
    pub fn fire_batch(&mut self, hook: &str, ctxts: &mut [Ctxt]) -> Vec<HookResult> {
        let mut results = Vec::with_capacity(ctxts.len());
        let (hooks, programs, mut fx) = self.fire_parts();
        let Some(slot) = hooks.get_mut(hook) else {
            fx.obs.counters.fires_unarmed += ctxts.len() as u64;
            results.resize_with(ctxts.len(), HookResult::default);
            return results;
        };
        let fires_before = fx.obs.counters.fires;
        for ctxt in ctxts.iter_mut() {
            results.push(fx.fire_in_slot(programs, slot, ctxt));
        }
        if self
            .obs
            .flight
            .due_span(fires_before, self.obs.counters.fires)
        {
            self.capture_flight_frame();
        }
        results
    }

    /// Splits the machine into the three disjoint borrows a firing
    /// needs: the hook index, the programs, and everything else as a
    /// [`FireCtx`].
    fn fire_parts(
        &mut self,
    ) -> (
        &mut HashMap<String, HookSlot>,
        &mut BTreeMap<u32, Installed>,
        FireCtx<'_>,
    ) {
        let shift = self.obs.cfg.sample_shift;
        let fx = FireCtx {
            sample_mask: if shift >= 64 {
                u64::MAX
            } else {
                (1u64 << shift) - 1
            },
            obs: &mut self.obs,
            scratch_queue: &mut self.scratch_queue,
            key_scratch: &mut self.key_scratch,
            tick: self.tick,
            table_gen: self.table_gen,
            cache_cap: self.decision_cache_cap,
            timed: false,
            prev: None,
            fire_span: None,
        };
        (&mut self.hook_index, &mut self.programs, fx)
    }
}

impl FireCtx<'_> {
    /// Opens the `Fire` span for one firing if the sampling layer
    /// says so: consumes an ingress-injected decision, or (when
    /// self-sampled) derives the trace id from the hook's consumed
    /// flow-key fields. `None` — the overwhelmingly common case — is
    /// one branch, no allocation, no clock read.
    fn span_begin_fire(&mut self, consumed: &[FieldId], ctxt: &Ctxt) -> Option<OpenSpan> {
        let active = self.obs.spans.fire_ctx()?;
        let trace_id = if active.trace_id != 0 {
            active.trace_id
        } else {
            ctxt.key_into(consumed, self.key_scratch);
            span::trace_id_from_key(self.key_scratch.iter().copied())
        };
        let span_id = self.obs.spans.alloc_id();
        Some(OpenSpan {
            trace_id,
            span_id,
            parent_id: active.parent_id,
            start_ns: self.obs.spans.now_ns(),
        })
    }

    /// Opens a child of `parent` — `None` in, `None` out, so untraced
    /// firings pay one branch per span site.
    fn open_span(&mut self, parent: Option<OpenSpan>) -> Option<OpenSpan> {
        let parent = parent?;
        Some(OpenSpan {
            trace_id: parent.trace_id,
            span_id: self.obs.spans.alloc_id(),
            parent_id: parent.span_id,
            start_ns: self.obs.spans.now_ns(),
        })
    }

    /// Records `span` as one `stage` ending now.
    fn close_span(&mut self, span: Option<OpenSpan>, stage: Stage) {
        if let Some(s) = span {
            let end = self.obs.spans.now_ns();
            self.obs
                .spans
                .record(s.trace_id, s.span_id, s.parent_id, stage, s.start_ns, end);
        }
    }

    /// Pushes one datapath trace event; for the three kinds that cut a
    /// step short it also bumps the program stat and machine counter
    /// that count them.
    fn trace(&mut self, stats: &mut ProgStats, pid: u32, kind: TraceKind, info: i64) {
        let counters = &mut self.obs.counters;
        match kind {
            TraceKind::Abort => {
                stats.actions_aborted += 1;
                counters.aborts += 1;
            }
            TraceKind::TailChainOverflow => {
                stats.tail_chain_overflows += 1;
                counters.tail_chain_overflows += 1;
            }
            TraceKind::RateLimitDrop => {
                stats.effects_rate_limited += 1;
                counters.rate_limit_drops += 1;
            }
            _ => {}
        }
        self.obs.ring.push(TraceEvent {
            tick: self.tick,
            prog: pid,
            kind,
            info,
        });
    }

    /// One firing of an armed hook: latency-sampling decision, `Fire`
    /// span, decision-cache probe and publish (each under its own
    /// span), whole-fire histogram, around the walk over every
    /// listener's pipeline. Flight-recorder capture stays with the
    /// callers: it needs the whole machine.
    fn fire_in_slot(
        &mut self,
        programs: &mut BTreeMap<u32, Installed>,
        slot: &mut HookSlot,
        ctxt: &mut Ctxt,
    ) -> HookResult {
        let mut result = HookResult::default();

        slot.fires += 1;
        self.obs.counters.fires += 1;
        self.timed = self.obs.cfg.timing && (slot.fires - 1) & self.sample_mask == 0;
        let t0 = self.timed.then(Instant::now);
        self.prev = t0;
        self.fire_span = self.span_begin_fire(&slot.consumed, ctxt);
        let probe_span = self.open_span(self.fire_span);
        let mut cache = self.cache_probe(slot, ctxt);
        self.close_span(probe_span, Stage::CacheProbe);
        for (pid, pipeline) in &slot.listeners {
            let Some(inst) = programs.get_mut(pid) else {
                continue;
            };
            inst.stats.invocations += 1;
            self.run_pipeline(inst, *pid, pipeline, &mut cache, ctxt, &mut result);
        }
        let finish_span = self.open_span(self.fire_span);
        self.cache_finish(slot, cache);
        self.close_span(finish_span, Stage::CacheFinish);
        self.close_span(self.fire_span, Stage::Fire);
        if let (Some(start), Some(end)) = (t0, self.prev) {
            slot.hist
                .record(end.duration_since(start).as_nanos() as u64);
        }
        result
    }

    /// Decision-cache probe for one firing: hash the consumed ctxt
    /// fields (into the machine's reusable key scratch — no
    /// allocation on repeat flows) and, if a current-generation
    /// decision is cached, move its step chain out for replay
    /// (validated per table in [`FireCtx::run_pipeline`]; actions
    /// always re-execute).
    fn cache_probe(&mut self, slot: &mut HookSlot, ctxt: &Ctxt) -> CacheRun {
        let enabled = self.cache_cap > 0 && slot.eligible;
        if self.cache_cap > 0 && !slot.eligible {
            self.obs.counters.decision_cache_bypasses += 1;
        }
        let mut cache = CacheRun {
            enabled,
            // Flow-independent hooks (no consumed fields) share a
            // single decision slot: no key extraction, no hash probe.
            flowless: slot.consumed.is_empty(),
            invalidated: false,
            recording: false,
            recorded: Vec::new(),
            replay: None,
            cursor: 0,
            diverged: false,
            key_stable: slot.key_stable,
        };
        if enabled && cache.flowless {
            match slot.cache.flowless.take() {
                Some(c) if c.generation == self.table_gen => cache.replay = Some(c.steps),
                Some(_) => cache.invalidated = true,
                None => {}
            }
        } else if enabled {
            ctxt.key_into(&slot.consumed, self.key_scratch);
            match slot.cache.map.get_mut(self.key_scratch.as_slice()) {
                Some(c) if c.generation == self.table_gen => {
                    cache.replay = Some(std::mem::take(&mut c.steps));
                }
                Some(_) => cache.invalidated = true,
                None => {}
            }
        }
        cache.recording = enabled && cache.replay.is_none();
        cache
    }

    /// One listener's pipeline walk: the program's tables registered
    /// at the hook (pre-resolved by the caller into `pipeline`), in
    /// declaration order; a tail call redirects and then ends the
    /// pipeline.
    fn run_pipeline(
        &mut self,
        inst: &mut Installed,
        pid: u32,
        pipeline: &[usize],
        cache: &mut CacheRun,
        ctxt: &mut Ctxt,
        result: &mut HookResult,
    ) {
        let mut walk = Walk {
            pid,
            ti: 0,
            qi: 0,
            chain: 0,
            span: self.open_span(self.fire_span),
        };
        let verdicts_before = result.verdicts.len();
        self.scratch_queue.clear();
        self.scratch_queue.extend_from_slice(pipeline);
        while walk.qi < self.scratch_queue.len() {
            walk.ti = self.scratch_queue[walk.qi];
            walk.qi += 1;
            let (action_id, arg) = self.resolve_step(&inst.tables[walk.ti], &walk, cache, ctxt);
            let Some(action_id) = action_id else {
                continue; // Miss with no default: next table.
            };
            let (outcome, fused) = self.dispatch(inst, action_id, arg, walk.chain, ctxt);
            match outcome {
                Ok(outcome) => {
                    let fused = fused.then_some(action_id);
                    if self
                        .apply_outcome(inst, &mut walk, fused, outcome, result)
                        .is_break()
                    {
                        break;
                    }
                }
                Err(_) => self.trace(&mut inst.stats, pid, TraceKind::Abort, walk.ti as i64),
            }
        }
        if let Some(start) = self.prev {
            let now = Instant::now();
            inst.hist
                .record(now.duration_since(start).as_nanos() as u64);
            self.prev = Some(now);
        }
        if self.obs.cfg.trace_fires {
            let verdict = result.verdicts[verdicts_before..]
                .last()
                .map_or(i64::MIN, |&(_, v)| v);
            self.trace(&mut inst.stats, pid, TraceKind::Fire, verdict);
        }
        self.close_span(walk.span, Stage::RunPipeline);
    }

    /// Match phase of one step: replay a validated cached step or
    /// resolve live (recording if the cache missed), count the hit or
    /// miss, and return the action to run with its argument (`None` =
    /// miss with no default action).
    fn resolve_step(
        &mut self,
        t: &Table,
        walk: &Walk,
        cache: &mut CacheRun,
        ctxt: &Ctxt,
    ) -> (Option<ActionId>, i64) {
        let entry = match cache.replay_next(walk.pid, walk.ti, t, ctxt) {
            Replayed::Step(entry) => entry,
            // Empty table: the default action fires regardless of the
            // key — skip extraction and memoize a key-independent step.
            Replayed::Live(_) if cache.enabled && t.is_empty() => {
                cache.record(walk.pid, walk.ti, None, None);
                None
            }
            Replayed::Live(key) => {
                let key = key.unwrap_or_else(|| ctxt.key(&t.def().key_fields));
                let span = self.open_span(walk.span);
                let entry = t.resolve_indexed(&key).map(|(ei, _)| ei);
                self.close_span(span, Stage::TableLookup);
                cache.record(walk.pid, walk.ti, Some(key), entry);
                entry
            }
        };
        note_lookup(t, &mut self.obs.counters, entry.is_some());
        match entry {
            Some(ei) => {
                let e = &t.entries()[ei];
                (Some(e.action), e.arg)
            }
            None => (t.def().default_action, 0),
        }
    }

    /// Runs the body bound to `action_id`; the flag says the fused
    /// chain body ran. That body replaces the unfused action when its
    /// resolution stamp matches the live table generation; a stale
    /// stamp (mutation since the last re-specialization) falls back to
    /// the unfused body — same verdicts, unfused cost — until
    /// `refresh_fused` catches up. The collapsed links must also fit
    /// the remaining dynamic tail-chain budget: a fused dispatch
    /// reached through a prior (unresolved) redirect would otherwise
    /// execute links the unfused chain's per-redirect
    /// `MAX_TAIL_CHAIN` check refuses.
    fn dispatch(
        &mut self,
        inst: &mut Installed,
        action_id: ActionId,
        arg: i64,
        chain: usize,
        ctxt: &mut Ctxt,
    ) -> (Result<ActionOutcome, VmError>, bool) {
        let ai = action_id.0 as usize;
        let fused =
            inst.fused.get(ai).and_then(|f| f.as_ref()).filter(|f| {
                f.generation == self.table_gen && chain + f.steps.len() <= MAX_TAIL_CHAIN
            });
        let (body, fuel) = match fused {
            Some(f) => (&f.compiled, f.worst_case),
            None => (
                &inst.compiled[ai],
                inst.worst_case.get(ai).copied().unwrap_or(1),
            ),
        };
        let mut env = ExecEnv {
            ctxt,
            maps: &mut inst.maps,
            tensors: &inst.prog.tensors,
            models: &inst.prog.models,
            tick: self.tick,
            rng: &mut inst.rng,
            ledger: &mut inst.ledger,
            privacy: inst.prog.privacy,
            ml_stats: &mut inst.model_stats,
            time_ml: self.timed,
        };
        (run_action(body, fuel, arg, &mut env), fused.is_some())
    }

    /// Lands one action's outcome: stats, verdicts (`fused` names the
    /// action whose fused body produced them), rate-limited effects,
    /// and the tail-call redirect. `Break` ends the pipeline.
    fn apply_outcome(
        &mut self,
        inst: &mut Installed,
        walk: &mut Walk,
        fused: Option<ActionId>,
        outcome: ActionOutcome,
        result: &mut HookResult,
    ) -> ControlFlow<()> {
        let (pid, ti) = (walk.pid, walk.ti);
        inst.stats.actions_run += 1;
        inst.stats.insns_executed += outcome.insns_executed;
        inst.stats.guard_trips += outcome.guard_trips;
        if outcome.guard_trips > 0 {
            self.obs.counters.guard_trips += outcome.guard_trips;
            let trips = outcome.guard_trips as i64;
            self.trace(&mut inst.stats, pid, TraceKind::GuardTrip, trips);
        }
        match fused.and_then(|a| inst.fused[a.0 as usize].as_ref()) {
            Some(fa) => {
                walk.chain += fa.account(
                    &inst.tables,
                    &mut inst.stats,
                    &mut self.obs.counters,
                    TableId(ti as u16),
                    outcome.verdict,
                    result,
                );
                // The chain redirected away from the rest of the queue
                // at its first (collapsed) tail call, exactly as the
                // unfused redirect truncates below.
                self.scratch_queue.truncate(walk.qi);
            }
            None => result.verdicts.push((TableId(ti as u16), outcome.verdict)),
        }
        for e in outcome.effects {
            if e.is_resource() {
                if let Some(bucket) = &mut inst.bucket {
                    let cost = match e {
                        Effect::Prefetch { count, .. } => count.max(1),
                        _ => 1,
                    };
                    if !bucket.try_take(cost, self.tick) {
                        self.trace(&mut inst.stats, pid, TraceKind::RateLimitDrop, ti as i64);
                        continue;
                    }
                }
            }
            inst.stats.effects_emitted += 1;
            result.effects.push(e);
        }
        if let Some(target) = outcome.tail_call {
            walk.chain += 1;
            if walk.chain > MAX_TAIL_CHAIN {
                // §3.1: a tail call redirects and ends the pipeline —
                // an over-long chain terminates it instead of letting
                // the remaining queue run.
                self.trace(
                    &mut inst.stats,
                    pid,
                    TraceKind::TailChainOverflow,
                    ti as i64,
                );
                return ControlFlow::Break(());
            } else if target.0 as usize >= inst.tables.len() {
                self.trace(&mut inst.stats, pid, TraceKind::Abort, ti as i64);
            } else {
                inst.stats.tail_calls += 1;
                self.obs.counters.tail_calls += 1;
                // Redirect: the chain replaces the rest of the
                // pipeline.
                self.scratch_queue.truncate(walk.qi);
                self.scratch_queue.push(target.0 as usize);
            }
        }
        ControlFlow::Continue(())
    }

    /// Publishes the firing's decision-cache outcome: restore the
    /// step chain on a clean hit, or insert the recorded chain on a
    /// miss. The probe key is cloned out of the machine scratch only
    /// on insert — the hot hit path never allocates.
    fn cache_finish(&mut self, slot: &mut HookSlot, mut cache: CacheRun) {
        if !cache.enabled {
            return;
        }
        let hit = !cache.diverged
            && cache
                .replay
                .as_deref()
                .is_some_and(|s| s.len() == cache.cursor);
        if hit {
            self.obs.counters.decision_cache_hits += 1;
            // Restore the step chain taken at probe time; nothing
            // evicts mid-firing.
            let steps = cache.replay.take().unwrap_or_default();
            if cache.flowless {
                slot.cache.flowless = Some(CachedDecision {
                    generation: self.table_gen,
                    steps,
                });
            } else if let Some(c) = slot.cache.map.get_mut(self.key_scratch.as_slice()) {
                c.steps = steps;
            }
        } else {
            self.obs.counters.decision_cache_misses += 1;
            if cache.invalidated {
                self.obs.counters.decision_cache_invalidations += 1;
            }
            if !cache.recording {
                // Every replayed step validated but the live
                // pipeline ended early: memoize what actually ran.
                cache.recorded = cache.replay.take().map_or_else(Vec::new, |mut s| {
                    s.truncate(cache.cursor);
                    s
                });
            }
            let dec = CachedDecision {
                generation: self.table_gen,
                steps: cache.recorded,
            };
            if cache.flowless {
                slot.cache.flowless = Some(dec);
            } else {
                let evicted = slot
                    .cache
                    .insert(self.key_scratch.to_vec(), dec, self.cache_cap);
                self.obs.counters.decision_cache_evictions += evicted;
            }
        }
    }
}

impl RmtMachine {
    /// Captures one flight-recorder frame from current obs state.
    fn capture_flight_frame(&mut self) {
        let mut hooks: Vec<FlightHookPoint> = self
            .hook_index
            .iter()
            .map(|(name, s)| FlightHookPoint {
                hook: name.clone(),
                fires: s.fires,
                p50: s.hist.percentile(50),
                p99: s.hist.percentile(99),
            })
            .collect();
        hooks.sort_by(|a, b| a.hook.cmp(&b.hook));
        let mut models = Vec::new();
        for (&id, inst) in &self.programs {
            for (slot, ms) in inst.model_stats.iter().enumerate() {
                models.push(FlightModelPoint {
                    prog: id,
                    slot: slot as u16,
                    served: ms.served(),
                    outcomes: ms.outcomes(),
                    acc_permille: ms.rolling_accuracy_permille().map_or(-1, |v| v as i64),
                    drift_suspected: ms.drift_suspected(),
                });
            }
        }
        let frame = FlightFrame {
            seq: 0, // stamped by the recorder
            tick: self.tick,
            fires: self.obs.counters.fires,
            counters: self.obs.counters,
            hooks,
            models,
        };
        self.obs.flight.push(frame);
    }

    /// Inserts or replaces a runtime entry (control-plane API).
    pub fn insert_entry(
        &mut self,
        prog: ProgId,
        table: TableId,
        entry: Entry,
    ) -> Result<(), VmError> {
        let inst = self
            .programs
            .get_mut(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        if entry.action.0 as usize >= inst.prog.actions.len() {
            return Err(VmError::BadEntry(format!(
                "action {} does not exist",
                entry.action.0
            )));
        }
        let t = inst
            .tables
            .get_mut(table.0 as usize)
            .ok_or(VmError::NoSuchTable(table.0))?;
        let hook = t.def().hook.clone();
        t.insert(entry)?;
        self.table_gen += 1;
        self.refresh_hook_cache_meta(&hook);
        // The new entry may change (or newly enable) chain resolution
        // in plans that route through this table; everything else —
        // including other programs, whose tables a tail call can never
        // target — just restamps to the new generation.
        self.refresh_fused(Some(prog.0), Some(table));
        Ok(())
    }

    /// Removes a runtime entry by key.
    pub fn remove_entry(
        &mut self,
        prog: ProgId,
        table: TableId,
        key: &crate::table::MatchKey,
    ) -> Result<bool, VmError> {
        let inst = self
            .programs
            .get_mut(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        let t = inst
            .tables
            .get_mut(table.0 as usize)
            .ok_or(VmError::NoSuchTable(table.0))?;
        let hook = t.def().hook.clone();
        let removed = t.remove(key);
        if removed {
            self.table_gen += 1;
            self.refresh_hook_cache_meta(&hook);
            self.refresh_fused(Some(prog.0), Some(table));
        }
        Ok(removed)
    }

    /// Replaces an ML model at runtime (the periodic "quantize and push
    /// to the kernel" update). The replacement is re-verified: same
    /// feature arity, structurally valid ([`ModelSpec::validate`]) and
    /// within the slot's latency-class budget.
    pub fn update_model(
        &mut self,
        prog: ProgId,
        slot: crate::bytecode::ModelSlot,
        spec: ModelSpec,
    ) -> Result<(), VmError> {
        self.update_models(prog, vec![(slot, spec)])
    }

    /// Replaces several of a program's models as one reconfiguration:
    /// every replacement is re-verified (see
    /// [`RmtMachine::update_model`]) before any is swapped in, so a
    /// rejected push leaves every slot as it was, and an accepted one
    /// costs one generation bump and one fusion re-plan however many
    /// models it carries.
    pub fn update_models(
        &mut self,
        prog: ProgId,
        pushes: Vec<(crate::bytecode::ModelSlot, ModelSpec)>,
    ) -> Result<(), VmError> {
        let inst = self
            .programs
            .get_mut(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        for (slot, spec) in &pushes {
            let def = inst
                .prog
                .models
                .get(slot.0 as usize)
                .ok_or(VmError::NoSuchModel(slot.0))?;
            if spec.n_features() != def.spec.n_features() {
                return Err(VmError::BadEntry(format!(
                    "model arity {} != {}",
                    spec.n_features(),
                    def.spec.n_features()
                )));
            }
            crate::verifier::admit_model(slot.0, spec, def.latency_class)
                .map_err(VmError::Verify)?;
        }
        for (slot, spec) in pushes {
            inst.prog.models[slot.0 as usize].spec = spec;
            // The swapped-in model starts with a clean prequential
            // window and drift latch — the old model's recent accuracy
            // says nothing about its replacement. Cumulative counters
            // (served, confusion, latency) survive: they describe the
            // slot's lifetime, and obs_reset is the explicit way to
            // clear them.
            if let Some(ms) = inst.model_stats.get_mut(slot.0 as usize) {
                ms.reset_windows();
            }
            self.obs.ring.push(TraceEvent {
                tick: self.tick,
                prog: prog.0,
                kind: TraceKind::ModelSwap,
                info: slot.0 as i64,
            });
        }
        // Model behavior feeds tail-call decisions; cached chains
        // recorded against the old model must not replay, and fused
        // bodies must be re-planned (fusion already refuses CallMl
        // callees, but the caller's constant state can change).
        self.table_gen += 1;
        self.refresh_fused(Some(prog.0), None);
        Ok(())
    }

    /// Reports the ground-truth outcome of one earlier model
    /// prediction (control-plane `ReportOutcome`): updates the slot's
    /// confusion matrix and prequential-accuracy window, latching
    /// `drift_suspected` on a threshold crossing — §3.1's "past
    /// prediction accuracy" feedback loop.
    pub fn report_outcome(
        &mut self,
        prog: ProgId,
        slot: crate::bytecode::ModelSlot,
        predicted: i64,
        actual: i64,
    ) -> Result<(), VmError> {
        let cfg = self.obs.cfg;
        let inst = self
            .programs
            .get_mut(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        let ms = inst
            .model_stats
            .get_mut(slot.0 as usize)
            .ok_or(VmError::NoSuchModel(slot.0))?;
        ms.record_outcome(predicted, actual, &cfg);
        Ok(())
    }

    /// Reads one model slot's prediction telemetry (control-plane
    /// `QueryModelStats`).
    pub fn model_stats(
        &self,
        prog: ProgId,
        slot: crate::bytecode::ModelSlot,
    ) -> Result<ModelStatsSnapshot, VmError> {
        let inst = self
            .programs
            .get(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        let ms = inst
            .model_stats
            .get(slot.0 as usize)
            .ok_or(VmError::NoSuchModel(slot.0))?;
        let name = inst
            .prog
            .models
            .get(slot.0 as usize)
            .map(|d| d.name.clone())
            .unwrap_or_default();
        Ok(ms.snapshot(prog.0, slot.0, name))
    }

    /// Reads a program's statistics.
    pub fn stats(&self, prog: ProgId) -> Result<ProgStats, VmError> {
        self.programs
            .get(&prog.0)
            .map(|i| i.stats)
            .ok_or(VmError::NoSuchProgram(prog.0))
    }

    /// Reads a table's hit/miss statistics.
    pub fn table_stats(&self, prog: ProgId, table: TableId) -> Result<TableStats, VmError> {
        let inst = self
            .programs
            .get(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        inst.tables
            .get(table.0 as usize)
            .map(|t| t.stats())
            .ok_or(VmError::NoSuchTable(table.0))
    }

    /// Remaining privacy budget in milli-epsilon.
    pub fn privacy_remaining(&self, prog: ProgId) -> Result<u64, VmError> {
        self.programs
            .get(&prog.0)
            .map(|i| i.ledger.remaining_milli_eps())
            .ok_or(VmError::NoSuchProgram(prog.0))
    }

    /// Control-plane map write (e.g. seeding monitoring state).
    pub fn map_update(
        &mut self,
        prog: ProgId,
        map: MapId,
        key: u64,
        value: i64,
    ) -> Result<(), VmError> {
        let inst = self
            .programs
            .get_mut(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        inst.maps
            .get_mut(map.0 as usize)
            .ok_or(VmError::MapError("no such map"))?
            .update(key, value)
    }

    /// Control-plane map delete, with the kind-specific meaning of
    /// [`crate::maps::MapInstance::delete`]; returns whether anything
    /// was removed.
    pub fn map_delete(&mut self, prog: ProgId, map: MapId, key: u64) -> Result<bool, VmError> {
        let inst = self
            .programs
            .get_mut(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        Ok(inst
            .maps
            .get_mut(map.0 as usize)
            .ok_or(VmError::MapError("no such map"))?
            .delete(key))
    }

    /// Control-plane map read. Reads of shared maps go through DP and
    /// charge the program ledger, enforcing §3.3 on the control path
    /// too.
    pub fn map_lookup(
        &mut self,
        prog: ProgId,
        map: MapId,
        key: u64,
    ) -> Result<Option<i64>, VmError> {
        let inst = self
            .programs
            .get_mut(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        let shared = inst
            .prog
            .maps
            .get(map.0 as usize)
            .ok_or(VmError::MapError("no such map"))?
            .shared;
        let m = inst
            .maps
            .get_mut(map.0 as usize)
            .ok_or(VmError::MapError("no such map"))?;
        if shared {
            let sum = m.aggregate_sum();
            let noised = crate::dp::noised_query(
                sum,
                &mut inst.ledger,
                inst.prog.privacy.per_query_milli_eps,
                inst.prog.privacy.sensitivity,
                &mut inst.rng,
            )?;
            Ok(Some(noised))
        } else {
            Ok(m.lookup(key))
        }
    }

    /// The declaration of one of a program's maps.
    pub fn map_def(&self, prog: ProgId, map: MapId) -> Result<&crate::maps::MapDef, VmError> {
        self.programs
            .get(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?
            .prog
            .maps
            .get(map.0 as usize)
            .ok_or(VmError::MapError("no such map"))
    }

    /// Shared-borrow control-plane map read: same value as
    /// [`RmtMachine::map_lookup`] for non-shared maps, but without
    /// `&mut self` and without refreshing LRU recency — the read the
    /// sharded control plane uses to aggregate per-CPU replicas
    /// without perturbing datapath state. Shared maps are refused:
    /// their only legal read is the DP-noised one, which must charge
    /// the ledger (and therefore needs `&mut`).
    pub fn map_peek(&self, prog: ProgId, map: MapId, key: u64) -> Result<Option<i64>, VmError> {
        let inst = self
            .programs
            .get(&prog.0)
            .ok_or(VmError::NoSuchProgram(prog.0))?;
        let def = inst
            .prog
            .maps
            .get(map.0 as usize)
            .ok_or(VmError::MapError("no such map"))?;
        if def.shared {
            return Err(VmError::MapError(
                "shared map reads must go through the DP path (map_lookup)",
            ));
        }
        Ok(inst.maps[map.0 as usize].peek(key))
    }

    /// Number of installed programs.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Installed program ids.
    pub fn program_ids(&self) -> Vec<ProgId> {
        self.programs.keys().map(|&k| ProgId(k)).collect()
    }

    /// Current observability configuration.
    pub fn obs_config(&self) -> ObsConfig {
        self.obs.cfg
    }

    /// Reconfigures the observability layer at runtime. Counters and
    /// histograms are kept; the trace ring and flight recorder are
    /// resized (evicting — and counting — oldest entries if they
    /// shrink).
    pub fn set_obs_config(&mut self, cfg: ObsConfig) {
        self.obs.cfg = cfg;
        self.obs.ring.set_capacity(cfg.trace_capacity);
        self.obs
            .flight
            .configure(cfg.flight_interval, cfg.flight_capacity);
    }

    /// Machine-wide datapath counters.
    pub fn machine_counters(&self) -> crate::obs::MachineCounters {
        self.obs.counters
    }

    /// Per-hook statistics (fires + latency histogram). Errors on a
    /// hook the machine has never had a table installed at.
    pub fn hook_stats(&self, hook: &str) -> Result<HookStats, VmError> {
        self.hook_index
            .get(hook)
            .map(|s| HookStats {
                hook: hook.to_string(),
                fires: s.fires,
                hist: s.hist.clone(),
            })
            .ok_or_else(|| VmError::BadRequest(format!("unknown hook {hook:?}")))
    }

    /// Drains up to `max` trace events (oldest first) along with the
    /// cumulative dropped count — the control-plane consumer side of
    /// the trace ring.
    pub fn trace_read(&mut self, max: usize) -> TraceSnapshot {
        TraceSnapshot {
            events: self.obs.ring.drain(max),
            dropped: self.obs.ring.dropped(),
        }
    }

    /// Reconfigures span tracing: sample 1-in-2^`sample_shift` fires
    /// (>= 64 disables sampling entirely) into a ring bounded at
    /// `capacity` spans — the `SpanConfig` control verb.
    pub fn set_span_config(&mut self, sample_shift: u32, capacity: usize) {
        self.obs.spans.configure(sample_shift, capacity);
    }

    /// Drains up to `max` recorded spans (oldest first) plus the
    /// evict count — the `SpanRead` control verb.
    pub fn span_read(&mut self, max: usize) -> SpanSnapshot {
        self.obs.spans.drain(max)
    }

    /// Clears recorded spans and the stage profile — the `SpanReset`
    /// control verb. Sampling configuration survives.
    pub fn span_reset(&mut self) {
        self.obs.spans.reset();
    }

    /// The aggregated per-stage span profile (non-draining).
    pub fn stage_profile(&self) -> StageProfile {
        self.obs.spans.profile()
    }

    /// Direct access to the span collector for in-crate
    /// instrumentation sites (shard workers, the journal).
    pub(crate) fn spans_mut(&mut self) -> &mut SpanCollector {
        &mut self.obs.spans
    }

    /// Nanoseconds since this machine's span epoch.
    pub(crate) fn span_now_ns(&self) -> u64 {
        self.obs.spans.now_ns()
    }

    /// Aligns the span collector into a sharded deployment: shared
    /// epoch, per-replica id namespace, ingress-owned sampling.
    pub(crate) fn align_span_identity(&mut self, shard: u64, epoch: Instant, self_sample: bool) {
        self.obs.spans.set_identity(shard, epoch, self_sample);
    }

    /// Resets the observability layer: counters (including the
    /// decision-cache hit/miss/invalidation/eviction/bypass counters —
    /// they are observations *about* the cache, owned by the obs
    /// layer), per-hook and per-program histograms, per-model
    /// prediction telemetry (confusion matrices, prequential windows,
    /// the drift latch), the trace ring, and the flight recorder.
    ///
    /// The reset is observational only: cached decisions themselves
    /// survive, so a warm flow still hits the cache on its next firing
    /// — resetting telemetry must not change datapath behavior or
    /// performance. [`ProgStats`] and [`TableStats`] are likewise not
    /// touched — they belong to the programs, not the obs layer.
    pub fn obs_reset(&mut self) {
        self.obs.counters = crate::obs::MachineCounters::default();
        self.obs.ring.reset();
        self.obs.flight.reset();
        for slot in self.hook_index.values_mut() {
            slot.fires = 0;
            slot.hist.reset();
        }
        for inst in self.programs.values_mut() {
            inst.hist.reset();
            for ms in &mut inst.model_stats {
                ms.reset();
            }
        }
    }

    /// Full observability snapshot (counters, per-hook and per-program
    /// histograms, trace-ring occupancy), serializable via
    /// [`crate::snapshot::to_json_string`] for offline analysis. Does
    /// not drain the trace ring.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut hooks: Vec<HookStats> = self
            .hook_index
            .iter()
            .map(|(name, s)| HookStats {
                hook: name.clone(),
                fires: s.fires,
                hist: s.hist.clone(),
            })
            .collect();
        hooks.sort_by(|a, b| a.hook.cmp(&b.hook));
        let programs = self
            .programs
            .iter()
            .map(|(&id, inst)| ProgHist {
                prog: id,
                hist: inst.hist.clone(),
            })
            .collect();
        let mut models = Vec::new();
        for (&id, inst) in &self.programs {
            for (slot, ms) in inst.model_stats.iter().enumerate() {
                let name = inst
                    .prog
                    .models
                    .get(slot)
                    .map(|d| d.name.clone())
                    .unwrap_or_default();
                models.push(ms.snapshot(id, slot as u16, name));
            }
        }
        ObsSnapshot {
            tick: self.tick,
            counters: self.obs.counters,
            hooks,
            programs,
            models,
            trace_dropped: self.obs.ring.dropped(),
            trace_pending: self.obs.ring.len() as u64,
            ingress: Vec::new(),
            // A lone machine has no skew balancer to consult.
            ingress_should_rebalance: -1,
        }
    }

    /// Serializable copy of the flight recorder (control-plane
    /// `FlightRead`). Non-draining: frames stay buffered until evicted
    /// by newer frames, a reconfigure, or an obs reset.
    pub fn flight_snapshot(&self) -> FlightSnapshot {
        self.obs.flight.snapshot()
    }

    /// Serves metrics scrapes (`GET /metrics` Prometheus text,
    /// `GET /metrics.json` the JSON rendering of the same
    /// [`ObsSnapshot`]) and read-only `/ctrl/*` queries from `listener`
    /// until `stop` flips (see [`crate::obs::export::serve_until`]).
    /// Blocking by design — the embedding decides when to donate a
    /// thread; the machine itself never spawns one. Returns the number
    /// of connections answered.
    pub fn serve_metrics_until(
        &mut self,
        listener: &std::net::TcpListener,
        stop: &std::sync::atomic::AtomicBool,
    ) -> std::io::Result<u64> {
        crate::obs::export::serve_until(
            listener,
            self,
            stop,
            crate::obs::export::ServeOptions::default(),
        )
    }
}

impl crate::obs::export::MetricsSource for RmtMachine {
    fn obs(&mut self) -> ObsSnapshot {
        self.obs_snapshot()
    }

    fn ctrl_query(&mut self, path: &str) -> Option<String> {
        match path {
            "/ctrl/counters" => Some(rkd_testkit::json::to_string(&self.machine_counters())),
            "/ctrl/models" => Some(rkd_testkit::json::to_string(&self.obs_snapshot().models)),
            "/ctrl/stages" => Some(rkd_testkit::json::to_string(&self.stage_profile())),
            _ => None,
        }
    }

    fn trace_json(&mut self) -> Option<String> {
        Some(span::chrome_trace_json(&self.span_read(usize::MAX)))
    }
}

/// Serialized state of one table: entries in insertion order (the
/// order that reproduces seq-based tie-breaks on re-insert) plus
/// hit/miss statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableState {
    /// Live entries, oldest insertion first.
    pub entries: Vec<Entry>,
    /// Hit/miss counters.
    pub stats: TableStats,
}

/// Serialized runtime state of one installed program: the program
/// itself (re-verified on restore) plus everything the machine mutates
/// after install.
#[derive(Clone, Debug)]
pub struct ProgramState {
    /// Installed program id.
    pub id: u32,
    /// The full program, including its opt level. Restore re-runs the
    /// verifier over this — a snapshot is control-plane input, not
    /// trusted state.
    pub prog: RmtProgram,
    /// The install's inert [`ExecMode`] tag, carried so the snapshot
    /// format keeps its shape. Executable bodies are never serialized:
    /// restore re-optimizes them from the re-verified program.
    pub mode: ExecMode,
    /// Per-table runtime entries and stats, in table declaration order.
    pub tables: Vec<TableState>,
    /// Per-map contents, in map declaration order.
    pub maps: Vec<MapState>,
    /// Exact PRNG position, so restored DP noise continues the stream.
    pub rng_state: [u64; 4],
    /// Privacy budget already spent, in milli-epsilon.
    pub ledger_spent_milli_eps: u64,
    /// Rate-limiter fill as `(tokens, last_tick)`, if the program has
    /// a rate limit.
    pub bucket: Option<(u64, u64)>,
    /// Per-program runtime counters.
    pub stats: ProgStats,
    /// Per-pipeline-run latency histogram.
    pub hist: Log2Hist,
    /// Per-model-slot telemetry (confusion matrices, windows, drift
    /// latch), in model-slot order.
    pub model_stats: Vec<ModelStatsState>,
    /// Optimizer telemetry from the program's last (re)compile: pass
    /// fire counts, instruction before/after, fused-chain footprint.
    pub opt_stats: OptStats,
}

/// Per-hook observability carried across snapshot/restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HookState {
    /// Hook name.
    pub hook: String,
    /// Armed firings since the last obs reset.
    pub fires: u64,
    /// Whole-fire latency histogram (ns).
    pub hist: Log2Hist,
}

/// Complete serializable state of an [`RmtMachine`]: installed
/// programs with their runtime state, per-hook observability, and the
/// observability layer. Produced by [`RmtMachine::snapshot`], consumed
/// by [`RmtMachine::restore`]; serializes through
/// [`crate::snapshot::to_json_string`].
///
/// Decision caches are deliberately absent: they are memoization, not
/// state — a restored machine rebuilds them on first firings and
/// produces bit-identical verdicts either way.
#[derive(Clone, Debug)]
pub struct MachineSnapshot {
    /// Monotonic tick at snapshot time.
    pub tick: u64,
    /// Next program id the machine would assign.
    pub next_id: u32,
    /// Table generation (cache-invalidation counter).
    pub table_generation: u64,
    /// Per-hook decision-cache capacity.
    pub decision_cache_cap: usize,
    /// Installed programs, ascending id order.
    pub programs: Vec<ProgramState>,
    /// Per-hook fires/latency, sorted by hook name.
    pub hooks: Vec<HookState>,
    /// Observability layer (counters, trace backlog, flight recorder).
    pub obs: ObsState,
}

impl RmtMachine {
    /// Captures the machine's complete state as a serializable
    /// [`MachineSnapshot`]. Lossless for everything that affects
    /// behavior or telemetry: a [`RmtMachine::restore`] of the result
    /// fires identically to this machine from here on.
    pub fn snapshot(&self) -> MachineSnapshot {
        let programs = self
            .programs
            .iter()
            .map(|(&id, inst)| ProgramState {
                id,
                prog: inst.prog.clone(),
                mode: inst.mode,
                tables: inst
                    .tables
                    .iter()
                    .map(|t| TableState {
                        entries: t.entries_in_insertion_order(),
                        stats: t.stats(),
                    })
                    .collect(),
                maps: inst.maps.iter().map(MapInstance::export_state).collect(),
                rng_state: inst.rng.state(),
                ledger_spent_milli_eps: inst.ledger.spent_milli_eps(),
                bucket: inst.bucket.as_ref().map(TokenBucket::level),
                stats: inst.stats,
                hist: inst.hist.clone(),
                model_stats: inst
                    .model_stats
                    .iter()
                    .map(ModelStats::export_state)
                    .collect(),
                opt_stats: inst.opt_stats,
            })
            .collect();
        let mut hooks: Vec<HookState> = self
            .hook_index
            .iter()
            .map(|(name, s)| HookState {
                hook: name.clone(),
                fires: s.fires,
                hist: s.hist.clone(),
            })
            .collect();
        hooks.sort_by(|a, b| a.hook.cmp(&b.hook));
        MachineSnapshot {
            tick: self.tick,
            next_id: self.next_id,
            table_generation: self.table_gen,
            decision_cache_cap: self.decision_cache_cap,
            programs,
            hooks,
            obs: self.obs.export_state(),
        }
    }

    /// Rebuilds a machine from a snapshot. Every program **re-passes
    /// the verifier** (against `vcfg`) before installation — a snapshot
    /// is untrusted control-plane input, so recovery stays outside the
    /// trusted base; a program that no longer verifies rejects the
    /// whole snapshot. Runtime state (table entries, map contents, RNG
    /// position, ledgers, rate-limiter fill, telemetry) is overlaid
    /// after installation, and the executable bodies are re-optimized
    /// from the verified program rather than deserialized.
    pub fn restore(snap: MachineSnapshot, vcfg: &VerifierConfig) -> Result<RmtMachine, VmError> {
        let mut m = RmtMachine::new();
        let mut last_id = 0u32;
        for ps in snap.programs {
            if ps.id <= last_id {
                return Err(VmError::BadRequest(format!(
                    "snapshot program ids must be ascending and nonzero (saw {} after {})",
                    ps.id, last_id
                )));
            }
            // The trust boundary: nothing from the snapshot executes
            // unless the program passes the same verifier gate a fresh
            // install would.
            let vp = verify_with(ps.prog.clone(), vcfg).map_err(VmError::Verify)?;
            m.next_id = ps.id;
            let got = m.install_seeded(vp, ps.mode, 0)?;
            debug_assert_eq!(got.0, ps.id);
            let inst = m.programs.get_mut(&ps.id).expect("just installed");
            if inst.tables.len() != ps.tables.len() {
                return Err(VmError::BadRequest(format!(
                    "snapshot of program {} has {} table states for {} tables",
                    ps.id,
                    ps.tables.len(),
                    inst.tables.len()
                )));
            }
            for (t, ts) in inst.tables.iter_mut().zip(ps.tables) {
                // Install populated `initial_entries`; the snapshot's
                // runtime entry set replaces it wholesale, re-inserted
                // in insertion order so seq tie-breaks reproduce.
                t.clear();
                for e in ts.entries {
                    t.insert(e)?;
                }
                t.restore_stats(ts.stats);
            }
            if inst.maps.len() != ps.maps.len() {
                return Err(VmError::BadRequest(format!(
                    "snapshot of program {} has {} map states for {} maps",
                    ps.id,
                    ps.maps.len(),
                    inst.maps.len()
                )));
            }
            for (slot, state) in inst.maps.iter_mut().zip(ps.maps) {
                let imported = MapInstance::import_state(state)?;
                if std::mem::discriminant(&imported) != std::mem::discriminant(&*slot)
                    || imported.capacity() != slot.capacity()
                {
                    return Err(VmError::MapError("snapshot map kind/capacity mismatch"));
                }
                *slot = imported;
            }
            inst.rng = StdRng::from_state(ps.rng_state);
            inst.ledger = PrivacyLedger::restore(
                inst.prog.privacy.budget_milli_eps,
                ps.ledger_spent_milli_eps,
            );
            if let (Some(b), Some((tokens, last_tick))) = (inst.bucket.as_mut(), ps.bucket) {
                b.restore_level(tokens, last_tick);
            }
            inst.stats = ps.stats;
            inst.hist = ps.hist;
            if inst.model_stats.len() != ps.model_stats.len() {
                return Err(VmError::BadRequest(format!(
                    "snapshot of program {} has {} model-stat states for {} model slots",
                    ps.id,
                    ps.model_stats.len(),
                    inst.model_stats.len()
                )));
            }
            inst.model_stats = ps
                .model_stats
                .into_iter()
                .map(ModelStats::import_state)
                .collect();
            inst.opt_stats = ps.opt_stats;
            last_id = ps.id;
        }
        // Entry overlay may have changed which tables are empty —
        // recompute cache probe keys and eligibility per hook.
        let hooks: Vec<String> = m.hook_index.keys().cloned().collect();
        for hook in &hooks {
            m.refresh_hook_cache_meta(hook);
        }
        // Machine-level state goes last: the installs above pushed
        // Install trace events and bumped the generation counter, all
        // of which the snapshot overwrites.
        for hs in snap.hooks {
            let slot = m.hook_index.get_mut(&hs.hook).ok_or_else(|| {
                VmError::BadRequest(format!(
                    "snapshot hook {:?} has no installed table",
                    hs.hook
                ))
            })?;
            slot.fires = hs.fires;
            slot.hist = hs.hist;
        }
        m.tick = snap.tick;
        m.next_id = snap.next_id.max(last_id.saturating_add(1)).max(1);
        m.table_gen = snap.table_generation;
        m.decision_cache_cap = snap.decision_cache_cap;
        m.obs = Obs::import_state(snap.obs);
        // Fused chain bodies were specialized during install against
        // each program's seed entries and stamped before the snapshot
        // overlaid live entries and the generation counter; until this
        // re-specialization they are stale (and correctly dormant — the
        // generation check at dispatch refuses them). Recompute every
        // program against the restored tables so fusion is live from
        // the first fire.
        let ids: Vec<u32> = m.programs.keys().copied().collect();
        for id in ids {
            m.refresh_fused(Some(id), None);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Action, AluOp, Helper, Insn, Reg};
    use crate::prog::ProgramBuilder;
    use crate::table::{ActionId, MatchKey, MatchKind};
    use crate::verifier::verify;

    /// Program: one exact-match table on field "pid"; matched entries
    /// double the entry arg into the verdict; default action returns -1.
    fn doubling_program() -> VerifiedProgram {
        let mut b = ProgramBuilder::new("double");
        let pid = b.field_readonly("pid");
        let double = b.action(Action::new(
            "double",
            vec![
                Insn::Mov {
                    dst: Reg(0),
                    src: crate::bytecode::ARG_REG,
                },
                Insn::AluImm {
                    op: AluOp::Mul,
                    dst: Reg(0),
                    imm: 2,
                },
                Insn::Exit,
            ],
        ));
        let fallback = b.action(Action::new(
            "fallback",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: -1,
                },
                Insn::Exit,
            ],
        ));
        let t = b.table(
            "t",
            "test_hook",
            &[pid],
            MatchKind::Exact,
            Some(fallback),
            16,
        );
        b.entry(
            t,
            Entry {
                key: MatchKey::Exact(vec![7]),
                priority: 0,
                action: double,
                arg: 21,
            },
        );
        verify(b.build()).unwrap()
    }

    fn ctxt_with_pid(pid: i64) -> Ctxt {
        Ctxt::from_values(vec![pid])
    }

    #[test]
    fn install_fire_and_verdicts() {
        let mut m = RmtMachine::new();
        let id = m.install(doubling_program(), ExecMode::Jit).unwrap();
        let mut ctxt = ctxt_with_pid(7);
        let r = m.fire("test_hook", &mut ctxt);
        assert_eq!(r.verdict(), Some(42));
        let mut miss = ctxt_with_pid(8);
        let r = m.fire("test_hook", &mut miss);
        assert_eq!(r.verdict(), Some(-1), "default action on miss");
        let stats = m.stats(id).unwrap();
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.actions_run, 2);
        assert!(stats.insns_executed >= 5);
    }

    #[test]
    fn unarmed_hook_is_a_noop() {
        let mut m = RmtMachine::new();
        assert!(!m.hook_armed("test_hook"));
        let mut ctxt = ctxt_with_pid(1);
        let r = m.fire("test_hook", &mut ctxt);
        assert!(r.verdicts.is_empty());
        m.install(doubling_program(), ExecMode::Interp).unwrap();
        assert!(m.hook_armed("test_hook"));
        assert!(!m.hook_armed("other_hook"));
    }

    #[test]
    fn remove_unhooks() {
        let mut m = RmtMachine::new();
        let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
        assert_eq!(m.program_count(), 1);
        m.remove(id).unwrap();
        assert_eq!(m.program_count(), 0);
        assert!(!m.hook_armed("test_hook"));
        assert!(matches!(m.remove(id), Err(VmError::NoSuchProgram(_))));
    }

    #[test]
    fn runtime_entry_management() {
        let mut m = RmtMachine::new();
        let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
        m.insert_entry(
            id,
            TableId(0),
            Entry {
                key: MatchKey::Exact(vec![100]),
                priority: 0,
                action: ActionId(0),
                arg: 50,
            },
        )
        .unwrap();
        let mut ctxt = ctxt_with_pid(100);
        assert_eq!(m.fire("test_hook", &mut ctxt).verdict(), Some(100));
        assert!(m
            .remove_entry(id, TableId(0), &MatchKey::Exact(vec![100]))
            .unwrap());
        let mut ctxt = ctxt_with_pid(100);
        assert_eq!(m.fire("test_hook", &mut ctxt).verdict(), Some(-1));
        // Invalid action id rejected.
        assert!(m
            .insert_entry(
                id,
                TableId(0),
                Entry {
                    key: MatchKey::Exact(vec![1]),
                    priority: 0,
                    action: ActionId(99),
                    arg: 0,
                },
            )
            .is_err());
    }

    #[test]
    fn rate_limiter_drops_excess_prefetches() {
        let mut b = ProgramBuilder::new("p");
        let pid = b.field_readonly("pid");
        let emit = b.action(Action::new(
            "emit",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 0,
                },
                Insn::LdImm {
                    dst: Reg(3),
                    imm: 8,
                },
                Insn::Call {
                    helper: Helper::EmitPrefetch,
                },
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                Insn::Exit,
            ],
        ));
        b.table("t", "h", &[pid], MatchKind::Exact, Some(emit), 4);
        b.rate_limit(crate::prog::RateLimitCfg {
            capacity: 16,
            refill_per_tick: 8,
        });
        let vp = verify(b.build()).unwrap();
        let mut m = RmtMachine::new();
        let id = m.install(vp, ExecMode::Interp).unwrap();
        // Bucket = 16 tokens; each firing asks for 8 pages.
        let mut ctxt = ctxt_with_pid(0);
        assert_eq!(m.fire("h", &mut ctxt).effects.len(), 1);
        assert_eq!(m.fire("h", &mut ctxt).effects.len(), 1);
        assert_eq!(m.fire("h", &mut ctxt).effects.len(), 0, "bucket empty");
        let stats = m.stats(id).unwrap();
        assert_eq!(stats.effects_emitted, 2);
        assert_eq!(stats.effects_rate_limited, 1);
        // Refill after a tick.
        m.advance_tick(1);
        assert_eq!(m.fire("h", &mut ctxt).effects.len(), 1);
    }

    #[test]
    fn tail_call_cascades_and_is_bounded() {
        let mut b = ProgramBuilder::new("p");
        let pid = b.field_readonly("pid");
        // Action 0: tail-call table 1. Action 1: verdict 99.
        let a0 = b.action(Action::new(
            "tc",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 1,
                },
                Insn::TailCall { table: TableId(1) },
            ],
        ));
        let a1 = b.action(Action::new(
            "leaf",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 99,
                },
                Insn::Exit,
            ],
        ));
        b.table("t0", "h", &[pid], MatchKind::Exact, Some(a0), 4);
        b.table("t1", "other_hook", &[pid], MatchKind::Exact, Some(a1), 4);
        let vp = verify(b.build()).unwrap();
        let mut m = RmtMachine::new();
        let id = m.install(vp, ExecMode::Jit).unwrap();
        let mut ctxt = ctxt_with_pid(5);
        let r = m.fire("h", &mut ctxt);
        assert_eq!(r.verdicts.len(), 2);
        assert_eq!(r.verdict(), Some(99));
        assert_eq!(m.stats(id).unwrap().tail_calls, 1);
    }

    /// Three-link chain for fusion tests. `t0` ("h") defaults to `a0`,
    /// which stores constant 3 into scratch field `k` and tail-calls
    /// `t1`; `t1` (keyed on `k`) holds an entry for key 3 whose action
    /// `a1` tail-calls `t2`; `t2` is empty and defaults to `a2`
    /// (verdict = arg + 40). Every link resolves statically, so at O1
    /// and above the whole chain fuses; O0 is the unfused reference.
    fn chain_program(level: OptLevel) -> VerifiedProgram {
        let mut b = ProgramBuilder::new("chain");
        b.opt_level(level);
        let pid = b.field_readonly("pid");
        let k = b.field_scratch("k");
        let a0 = b.action(Action::new(
            "root",
            vec![
                Insn::LdImm {
                    dst: Reg(1),
                    imm: 3,
                },
                Insn::StCtxt {
                    field: k,
                    src: Reg(1),
                },
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 10,
                },
                Insn::TailCall { table: TableId(1) },
            ],
        ));
        let a1 = b.action(Action::new(
            "mid",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 20,
                },
                Insn::TailCall { table: TableId(2) },
            ],
        ));
        let a2 = b.action(Action::new(
            "leaf",
            vec![
                Insn::Mov {
                    dst: Reg(0),
                    src: crate::bytecode::ARG_REG,
                },
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg(0),
                    imm: 40,
                },
                Insn::Exit,
            ],
        ));
        b.table("t0", "h", &[pid], MatchKind::Exact, Some(a0), 4);
        b.table("t1", "stage", &[k], MatchKind::Exact, None, 4);
        b.table("t2", "stage", &[k], MatchKind::Exact, Some(a2), 4);
        b.entry(
            TableId(1),
            Entry {
                key: MatchKey::Exact(vec![3]),
                priority: 0,
                action: a1,
                arg: 5,
            },
        );
        verify(b.build()).unwrap()
    }

    fn chain_ctxt(pid: i64) -> Ctxt {
        Ctxt::from_values(vec![pid, 0])
    }

    /// The tentpole's correctness contract: a fused chain produces the
    /// same verdict stream, effects, and per-table bookkeeping as the
    /// unfused chain, and the fusion actually happened (this is not a
    /// vacuous comparison).
    #[test]
    fn fused_chain_matches_unfused_execution() {
        let mut fused = RmtMachine::new();
        let fid = fused
            .install(chain_program(OptLevel::O2), ExecMode::Jit)
            .unwrap();
        let os = fused.opt_stats(fid).unwrap();
        // `root` fuses both links; `mid` independently fuses its one.
        assert_eq!(os.fused_chains, 2, "{os:?}");
        assert_eq!(os.fused_links, 3, "{os:?}");
        let mut unfused = RmtMachine::new();
        let uid = unfused
            .install(chain_program(OptLevel::O0), ExecMode::Jit)
            .unwrap();
        for pid in 0..4 {
            let rf = fused.fire("h", &mut chain_ctxt(pid));
            let ru = unfused.fire("h", &mut chain_ctxt(pid));
            assert_eq!(rf.verdicts, ru.verdicts);
            assert_eq!(rf.effects, ru.effects);
        }
        let pinned = fused.fire("h", &mut chain_ctxt(9)).verdicts;
        assert_eq!(
            pinned,
            vec![(TableId(0), 10), (TableId(1), 20), (TableId(2), 40)]
        );
        assert_eq!(unfused.fire("h", &mut chain_ctxt(9)).verdicts, pinned);
        let (sf, su) = (fused.stats(fid).unwrap(), unfused.stats(uid).unwrap());
        assert_eq!(sf.actions_run, su.actions_run);
        assert_eq!(sf.tail_calls, su.tail_calls);
        assert_eq!(sf.guard_trips, su.guard_trips);
        for t in 0..3 {
            assert_eq!(
                fused.table_stats(fid, TableId(t)).unwrap(),
                unfused.table_stats(uid, TableId(t)).unwrap(),
                "table {t} hit/miss bookkeeping must survive fusion"
            );
        }
        // The fused body runs fewer instructions — that is the win.
        assert!(
            sf.insns_executed < su.insns_executed,
            "fused {} !< unfused {}",
            sf.insns_executed,
            su.insns_executed
        );
    }

    /// Control-plane churn on a table a fused chain resolved through
    /// must re-specialize the plan (eagerly — the generation check is
    /// only a backstop), and verdicts must track the live entries
    /// exactly as the unfused O0 install's do.
    #[test]
    fn entry_churn_respecializes_fused_chains() {
        let mut fused = RmtMachine::new();
        let fid = fused
            .install(chain_program(OptLevel::O2), ExecMode::Jit)
            .unwrap();
        let mut unfused = RmtMachine::new();
        let uid = unfused
            .install(chain_program(OptLevel::O0), ExecMode::Jit)
            .unwrap();
        let key = MatchKey::Exact(vec![3]);
        let fire_both = |fused: &mut RmtMachine, unfused: &mut RmtMachine| {
            let rf = fused.fire("h", &mut chain_ctxt(1));
            let ru = unfused.fire("h", &mut chain_ctxt(1));
            assert_eq!(rf.verdicts, ru.verdicts);
            rf.verdicts
        };
        assert_eq!(fire_both(&mut fused, &mut unfused).len(), 3);
        // Remove the mid link's entry: t1 goes empty with no default,
        // so the chain now ends there.
        assert!(fused.remove_entry(fid, TableId(1), &key).unwrap());
        assert!(unfused.remove_entry(uid, TableId(1), &key).unwrap());
        assert_eq!(
            fire_both(&mut fused, &mut unfused),
            vec![(TableId(0), 10)],
            "chain must end at the miss with no default"
        );
        // Re-point key 3 straight at the leaf with a live arg.
        let e = Entry {
            key: key.clone(),
            priority: 0,
            action: ActionId(2),
            arg: 100,
        };
        fused.insert_entry(fid, TableId(1), e.clone()).unwrap();
        unfused.insert_entry(uid, TableId(1), e).unwrap();
        assert_eq!(
            fire_both(&mut fused, &mut unfused),
            vec![(TableId(0), 10), (TableId(1), 140)],
            "re-specialization must bake the new entry (arg 100)"
        );
        // Still fused after all the churn, not silently degraded.
        assert!(fused.opt_stats(fid).unwrap().fused_chains >= 1);
    }

    /// [`ExecMode`] is an inert tag: the same program under either tag
    /// is optimized, fused and executed identically.
    #[test]
    fn exec_mode_tag_does_not_select_what_executes() {
        let run = |mode: ExecMode| {
            let mut m = RmtMachine::new();
            let id = m.install(chain_program(OptLevel::O2), mode).unwrap();
            let verdicts: Vec<_> = (0..4)
                .map(|pid| m.fire("h", &mut chain_ctxt(pid)).verdicts)
                .collect();
            let insns = m.stats(id).unwrap().insns_executed;
            (verdicts, insns, m.opt_stats(id).unwrap())
        };
        let (interp, jit) = (run(ExecMode::Interp), run(ExecMode::Jit));
        assert_eq!(interp, jit);
        assert!(interp.2.fused_chains >= 1, "{:?}", interp.2);
    }

    /// The sharded `SetOptLevel` bugfix at machine level: switching
    /// levels restamps/recomputes fused plans and bumps the table
    /// generation so stale cached or fused decisions cannot serve.
    #[test]
    fn set_opt_level_recomputes_fusion_and_bumps_generation() {
        use crate::opt::OptLevel;
        let mut m = RmtMachine::new();
        let id = m
            .install(chain_program(OptLevel::O2), ExecMode::Jit)
            .unwrap();
        assert_eq!(m.opt_stats(id).unwrap().fused_chains, 2);
        let baseline = m.fire("h", &mut chain_ctxt(1)).verdicts;
        m.set_opt_level(id, OptLevel::O0).unwrap();
        assert_eq!(
            m.opt_stats(id).unwrap().fused_chains,
            0,
            "O0 must drop every fused body"
        );
        assert_eq!(m.fire("h", &mut chain_ctxt(1)).verdicts, baseline);
        m.set_opt_level(id, OptLevel::O2).unwrap();
        assert_eq!(m.opt_stats(id).unwrap().fused_chains, 2);
        assert_eq!(m.fire("h", &mut chain_ctxt(1)).verdicts, baseline);
    }

    /// Restore must re-specialize fused chains against the *restored*
    /// entries (which may differ from the program's seed entries), and
    /// optimizer stats must round-trip through the snapshot.
    #[test]
    fn restore_respecializes_fused_chains_against_restored_entries() {
        let mut m = RmtMachine::new();
        let id = m
            .install(chain_program(OptLevel::O2), ExecMode::Jit)
            .unwrap();
        // Diverge runtime entries from the seed: key 3 now routes to
        // the leaf with arg 7.
        let key = MatchKey::Exact(vec![3]);
        assert!(m.remove_entry(id, TableId(1), &key).unwrap());
        m.insert_entry(
            id,
            TableId(1),
            Entry {
                key,
                priority: 0,
                action: ActionId(2),
                arg: 7,
            },
        )
        .unwrap();
        let want = m.fire("h", &mut chain_ctxt(1)).verdicts;
        assert_eq!(want, vec![(TableId(0), 10), (TableId(1), 47)]);
        let snap = m.snapshot();
        let mut r = RmtMachine::restore(snap, &VerifierConfig::default()).unwrap();
        assert_eq!(r.opt_stats(id).unwrap(), m.opt_stats(id).unwrap());
        assert!(r.opt_stats(id).unwrap().fused_chains >= 1);
        assert_eq!(r.fire("h", &mut chain_ctxt(1)).verdicts, want);
    }

    #[test]
    fn model_hot_swap_validates() {
        use rkd_ml::cost::LatencyClass;
        use rkd_ml::dataset::{Dataset, Sample};
        use rkd_ml::fixed::Fix;
        use rkd_ml::svm::IntSvm;
        use rkd_ml::tree::{DecisionTree, TreeConfig};
        let ds = Dataset::from_samples(vec![
            Sample::from_f64(&[0.0], 0),
            Sample::from_f64(&[1.0], 0),
            Sample::from_f64(&[8.0], 1),
            Sample::from_f64(&[9.0], 1),
        ])
        .unwrap();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        let mut b = ProgramBuilder::new("p");
        let f = b.field_readonly("x");
        let slot = b.model("m", ModelSpec::Tree(tree), LatencyClass::Scheduler);
        let act = b.action(Action::new(
            "ml",
            vec![
                Insn::VectorLdCtxt {
                    dst: crate::bytecode::VReg(0),
                    base: f,
                    len: 1,
                },
                Insn::CallMl {
                    model: slot,
                    src: crate::bytecode::VReg(0),
                },
                Insn::Exit,
            ],
        ));
        b.table("t", "h", &[f], MatchKind::Exact, Some(act), 4);
        let vp = verify(b.build()).unwrap();
        let mut m = RmtMachine::new();
        let id = m.install(vp, ExecMode::Interp).unwrap();
        let mut ctxt = Ctxt::from_values(vec![9]);
        assert_eq!(m.fire("h", &mut ctxt).verdict(), Some(1));
        // Swap in an SVM that always predicts 0 for x >= 0 w = -1.
        let svm = IntSvm {
            weights: vec![Fix::NEG_ONE],
            bias: Fix::ZERO,
        };
        m.update_model(id, slot, ModelSpec::Svm(svm)).unwrap();
        let mut ctxt = Ctxt::from_values(vec![9]);
        assert_eq!(m.fire("h", &mut ctxt).verdict(), Some(0));
        // Wrong arity rejected.
        let bad = IntSvm {
            weights: vec![Fix::ONE, Fix::ONE],
            bias: Fix::ZERO,
        };
        assert!(m.update_model(id, slot, ModelSpec::Svm(bad)).is_err());
        // Over-budget model rejected (scheduler class).
        let huge = IntSvm {
            weights: vec![Fix::ONE; 1],
            bias: Fix::ZERO,
        };
        // 1 weight is fine; build a huge tree instead via many weights.
        let too_big = IntSvm {
            weights: vec![Fix::ONE; 4096],
            bias: Fix::ZERO,
        };
        assert!(m.update_model(id, slot, ModelSpec::Svm(huge)).is_ok());
        assert!(matches!(
            m.update_model(id, slot, ModelSpec::Svm(too_big)),
            Err(VmError::BadEntry(_)) | Err(VmError::Verify(_))
        ));
    }

    /// Builds a one-model program (tree: x<4 -> class 0, else 1)
    /// whose single table default-action runs `CallMl` on ctxt field
    /// "x", and installs it.
    fn ml_machine() -> (RmtMachine, ProgId, crate::bytecode::ModelSlot) {
        use rkd_ml::cost::LatencyClass;
        use rkd_ml::dataset::{Dataset, Sample};
        use rkd_ml::tree::{DecisionTree, TreeConfig};
        let ds = Dataset::from_samples(vec![
            Sample::from_f64(&[0.0], 0),
            Sample::from_f64(&[1.0], 0),
            Sample::from_f64(&[8.0], 1),
            Sample::from_f64(&[9.0], 1),
        ])
        .unwrap();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        let mut b = ProgramBuilder::new("mlprog");
        let f = b.field_readonly("x");
        let slot = b.model("clf", ModelSpec::Tree(tree), LatencyClass::Scheduler);
        let act = b.action(Action::new(
            "ml",
            vec![
                Insn::VectorLdCtxt {
                    dst: crate::bytecode::VReg(0),
                    base: f,
                    len: 1,
                },
                Insn::CallMl {
                    model: slot,
                    src: crate::bytecode::VReg(0),
                },
                Insn::Exit,
            ],
        ));
        b.table("t", "h", &[f], MatchKind::Exact, Some(act), 4);
        let vp = verify(b.build()).unwrap();
        let mut m = RmtMachine::new();
        let id = m.install(vp, ExecMode::Jit).unwrap();
        (m, id, slot)
    }

    #[test]
    fn model_telemetry_counts_served_predictions() {
        let (mut m, id, slot) = ml_machine();
        for x in [0i64, 1, 9, 9, 9] {
            let mut ctxt = Ctxt::from_values(vec![x]);
            m.fire("h", &mut ctxt);
        }
        let ms = m.model_stats(id, slot).unwrap();
        assert_eq!(ms.served, 5);
        assert_eq!(ms.class_counts[0], 2);
        assert_eq!(ms.class_counts[1], 3);
        assert_eq!(ms.name, "clf");
        assert_eq!(ms.outcomes, 0, "no ground truth reported yet");
        assert_eq!(ms.acc_permille, -1);
        // Default config times 1-in-8 fires: exactly the first fire
        // of this cold hook is sampled.
        assert_eq!(ms.latency.count(), 1);
    }

    #[test]
    fn update_models_is_one_all_or_nothing_reconfiguration() {
        use rkd_ml::cost::LatencyClass;
        use rkd_ml::fixed::Fix;
        use rkd_ml::svm::IntSvm;
        // sign(w * x): class 1 for x > 0 when w = 1, class 0 when w = -1.
        let svm = |w: Fix| {
            ModelSpec::Svm(IntSvm {
                weights: vec![w],
                bias: Fix::ZERO,
            })
        };
        let mut b = ProgramBuilder::new("two_models");
        let f = b.field_readonly("x");
        let mut slots = Vec::new();
        for i in 0..2 {
            let slot = b.model(&format!("m{i}"), svm(Fix::ONE), LatencyClass::Scheduler);
            let act = b.action(Action::new(
                &format!("ml{i}"),
                vec![
                    Insn::VectorLdCtxt {
                        dst: crate::bytecode::VReg(0),
                        base: f,
                        len: 1,
                    },
                    Insn::CallMl {
                        model: slot,
                        src: crate::bytecode::VReg(0),
                    },
                    Insn::Exit,
                ],
            ));
            b.table(
                &format!("t{i}"),
                &format!("h{i}"),
                &[f],
                MatchKind::Exact,
                Some(act),
                4,
            );
            slots.push(slot);
        }
        let mut m = RmtMachine::new();
        let id = m
            .install(verify(b.build()).unwrap(), ExecMode::Interp)
            .unwrap();
        let verdicts = |m: &mut RmtMachine| {
            ["h0", "h1"].map(|h| m.fire(h, &mut Ctxt::from_values(vec![9])).verdict())
        };
        assert_eq!(verdicts(&mut m), [Some(1), Some(1)]);
        // One bad spec (wrong arity) rejects the whole push: the good
        // one is not swapped in and the generation does not move.
        let gen = m.table_generation();
        let wide = ModelSpec::Svm(IntSvm {
            weights: vec![Fix::ONE; 2],
            bias: Fix::ZERO,
        });
        assert!(m
            .update_models(id, vec![(slots[0], svm(Fix::NEG_ONE)), (slots[1], wide)])
            .is_err());
        assert!(m
            .update_models(id, vec![(crate::bytecode::ModelSlot(9), svm(Fix::ONE))])
            .is_err());
        assert_eq!(m.table_generation(), gen);
        assert_eq!(verdicts(&mut m), [Some(1), Some(1)]);
        // Both good: both swapped, one bump.
        m.update_models(
            id,
            vec![(slots[0], svm(Fix::NEG_ONE)), (slots[1], svm(Fix::NEG_ONE))],
        )
        .unwrap();
        assert_eq!(m.table_generation(), gen + 1);
        assert_eq!(verdicts(&mut m), [Some(0), Some(0)]);
    }

    #[test]
    fn model_outcomes_drive_drift_latch_and_swap_clears_it() {
        let (mut m, id, slot) = ml_machine();
        m.set_obs_config(ObsConfig {
            accuracy_window: 4,
            accuracy_windows: 2,
            drift_threshold_permille: 500,
            ..ObsConfig::default()
        });
        for _ in 0..4 {
            m.report_outcome(id, slot, 1, 1).unwrap();
        }
        let ms = m.model_stats(id, slot).unwrap();
        assert_eq!(ms.acc_permille, 1000);
        assert!(!ms.drift_suspected);
        for _ in 0..8 {
            m.report_outcome(id, slot, 1, 0).unwrap();
        }
        let ms = m.model_stats(id, slot).unwrap();
        assert!(ms.drift_suspected);
        assert_eq!(ms.confusion[0][1], 8);
        // Hot-swap clears the prequential windows and the latch but
        // keeps cumulative counters.
        let svm = rkd_ml::svm::IntSvm {
            weights: vec![rkd_ml::fixed::Fix::ONE],
            bias: rkd_ml::fixed::Fix::ZERO,
        };
        m.update_model(id, slot, ModelSpec::Svm(svm)).unwrap();
        let ms = m.model_stats(id, slot).unwrap();
        assert!(!ms.drift_suspected);
        assert_eq!(ms.acc_permille, -1, "windows cleared");
        assert_eq!(ms.outcomes, 12, "cumulative counters survive swap");
        // Bad slot / program errors.
        assert!(m
            .report_outcome(id, crate::bytecode::ModelSlot(9), 0, 0)
            .is_err());
        assert!(m.model_stats(ProgId(999), slot).is_err());
        // obs_reset clears everything.
        m.obs_reset();
        let ms = m.model_stats(id, slot).unwrap();
        assert_eq!((ms.served, ms.outcomes, ms.hits), (0, 0, 0));
    }

    #[test]
    fn flight_recorder_captures_periodic_frames() {
        let (mut m, id, slot) = ml_machine();
        m.set_obs_config(ObsConfig {
            flight_interval: 4,
            flight_capacity: 2,
            ..ObsConfig::default()
        });
        for i in 0..10 {
            if i == 5 {
                m.report_outcome(id, slot, 1, 1).unwrap();
            }
            let mut ctxt = Ctxt::from_values(vec![9]);
            m.fire("h", &mut ctxt);
        }
        let fs = m.flight_snapshot();
        assert_eq!(fs.interval, 4);
        // Frames due at fires 4 and 8; capacity 2 keeps both.
        assert_eq!(fs.frames.len(), 2);
        assert_eq!(fs.dropped, 0);
        assert_eq!(fs.frames[0].fires, 4);
        assert_eq!(fs.frames[1].fires, 8);
        assert_eq!(fs.frames[1].counters.fires, 8);
        assert_eq!(fs.frames[1].hooks.len(), 1);
        assert_eq!(fs.frames[1].hooks[0].hook, "h");
        assert_eq!(fs.frames[1].models.len(), 1);
        assert_eq!(fs.frames[1].models[0].served, 8);
        assert_eq!(fs.frames[0].models[0].outcomes, 0);
        assert_eq!(fs.frames[1].models[0].outcomes, 1);
        // Reset clears the ring.
        m.obs_reset();
        assert!(m.flight_snapshot().frames.is_empty());
    }

    #[test]
    fn obs_snapshot_includes_model_stats() {
        let (mut m, id, _slot) = ml_machine();
        let mut ctxt = Ctxt::from_values(vec![9]);
        m.fire("h", &mut ctxt);
        let snap = m.obs_snapshot();
        assert_eq!(snap.models.len(), 1);
        assert_eq!(snap.models[0].prog, id.0);
        assert_eq!(snap.models[0].served, 1);
        // And it still round-trips through JSON with models attached.
        let json = crate::snapshot::to_json_string(&snap);
        let back: ObsSnapshot = crate::snapshot::from_json_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn control_plane_map_access_and_privacy() {
        use crate::maps::MapKind;
        let mut b = ProgramBuilder::new("p");
        let m_priv = b.map("local", MapKind::Hash, 8);
        let m_shared = b.shared_map("agg", MapKind::Histogram, 4);
        b.action(Action::new(
            "noop",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                Insn::Exit,
            ],
        ));
        let vp = verify(b.build()).unwrap();
        let mut m = RmtMachine::new();
        let id = m.install(vp, ExecMode::Interp).unwrap();
        m.map_update(id, m_priv, 5, 123).unwrap();
        assert_eq!(m.map_lookup(id, m_priv, 5).unwrap(), Some(123));
        assert_eq!(m.map_lookup(id, m_priv, 6).unwrap(), None);
        // Delete frees the key's slot; a second delete finds nothing.
        assert!(m.map_delete(id, m_priv, 5).unwrap());
        assert!(!m.map_delete(id, m_priv, 5).unwrap());
        assert_eq!(m.map_lookup(id, m_priv, 5).unwrap(), None);
        assert!(m.map_delete(id, MapId(9), 5).is_err());
        // Shared map reads are noised and charge the ledger.
        m.map_update(id, m_shared, 0, 1000).unwrap();
        let before = m.privacy_remaining(id).unwrap();
        let v = m.map_lookup(id, m_shared, 0).unwrap().unwrap();
        assert!((v - 1000).abs() < 500, "noised {v}");
        assert!(m.privacy_remaining(id).unwrap() < before);
    }

    #[test]
    fn two_programs_share_a_hook() {
        let mut m = RmtMachine::new();
        m.install(doubling_program(), ExecMode::Interp).unwrap();
        m.install(doubling_program(), ExecMode::Jit).unwrap();
        let mut ctxt = ctxt_with_pid(7);
        let r = m.fire("test_hook", &mut ctxt);
        assert_eq!(r.verdicts.len(), 2);
        assert!(r.verdicts.iter().all(|(_, v)| *v == 42));
        assert_eq!(m.program_ids().len(), 2);
    }

    #[test]
    fn obs_counters_track_fires_hits_and_misses() {
        let mut m = RmtMachine::new();
        m.install(doubling_program(), ExecMode::Interp).unwrap();
        m.fire("test_hook", &mut ctxt_with_pid(7)); // Hit.
        m.fire("test_hook", &mut ctxt_with_pid(8)); // Miss -> default.
        m.fire("nobody_home", &mut ctxt_with_pid(7)); // Unarmed.
        let c = m.machine_counters();
        assert_eq!(c.fires, 2);
        assert_eq!(c.fires_unarmed, 1);
        assert_eq!(c.table_hits, 1);
        assert_eq!(c.table_misses, 1);
        assert_eq!(c.aborts, 0);
    }

    #[test]
    fn hook_stats_report_fires_and_latency() {
        let mut m = RmtMachine::with_obs_config(crate::obs::ObsConfig {
            sample_shift: 0, // Time every firing.
            ..crate::obs::ObsConfig::default()
        });
        m.install(doubling_program(), ExecMode::Interp).unwrap();
        for _ in 0..5 {
            m.fire("test_hook", &mut ctxt_with_pid(7));
        }
        let hs = m.hook_stats("test_hook").unwrap();
        assert_eq!(hs.fires, 5);
        // With sample_shift 0, every fire is recorded.
        assert_eq!(hs.hist.count(), 5);
        assert!(hs.hist.sum() > 0, "monotonic clock should advance");
        assert!(matches!(
            m.hook_stats("unknown"),
            Err(VmError::BadRequest(_))
        ));
    }

    #[test]
    fn timing_sampling_and_disable() {
        let mut m = RmtMachine::new();
        m.set_obs_config(crate::obs::ObsConfig {
            sample_shift: 2, // 1 in 4 firings timed.
            ..crate::obs::ObsConfig::default()
        });
        m.install(doubling_program(), ExecMode::Interp).unwrap();
        for _ in 0..8 {
            m.fire("test_hook", &mut ctxt_with_pid(7));
        }
        assert_eq!(m.hook_stats("test_hook").unwrap().hist.count(), 2);
        m.set_obs_config(crate::obs::ObsConfig {
            timing: false,
            ..crate::obs::ObsConfig::default()
        });
        m.fire("test_hook", &mut ctxt_with_pid(7));
        let hs = m.hook_stats("test_hook").unwrap();
        assert_eq!(hs.fires, 9, "fires counted even with timing off");
        assert_eq!(hs.hist.count(), 2, "no new samples with timing off");
    }

    /// Acceptance criterion: overflowing the trace ring must be counted
    /// in `dropped`, never silently lost.
    #[test]
    fn trace_ring_overflow_counts_dropped() {
        let mut m = RmtMachine::new();
        m.set_obs_config(crate::obs::ObsConfig {
            trace_fires: true,
            trace_capacity: 4,
            ..crate::obs::ObsConfig::default()
        });
        m.install(doubling_program(), ExecMode::Interp).unwrap();
        // 1 Install event + 10 Fire events into a 4-slot ring.
        for _ in 0..10 {
            m.fire("test_hook", &mut ctxt_with_pid(7));
        }
        let snap = m.trace_read(usize::MAX);
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 7, "11 events - 4 kept = 7 dropped");
        assert!(snap
            .events
            .iter()
            .all(|e| e.kind == crate::obs::TraceKind::Fire));
        assert_eq!(snap.events[3].info, 42, "Fire event carries verdict");
        // Drained: a second read is empty but keeps the dropped count.
        let again = m.trace_read(usize::MAX);
        assert!(again.events.is_empty());
        assert_eq!(again.dropped, 7);
        m.obs_reset();
        assert_eq!(m.trace_read(usize::MAX).dropped, 0);
    }

    /// Satellite 3: an over-long dynamic tail-call chain terminates the
    /// pipeline instead of falling through to the rest of the queue,
    /// and is counted as `tail_chain_overflows`, not a plain abort.
    #[test]
    fn tail_chain_overflow_terminates_pipeline() {
        use crate::verifier::{verify_with, VerifierConfig};
        // Tables t0..=t11; t_i's default action tail-calls t_{i+1},
        // t11's exits. Static depth 12 needs a relaxed verifier bound;
        // the dynamic MAX_TAIL_CHAIN (8) is what trips.
        let mut b = ProgramBuilder::new("chain");
        let pid = b.field_readonly("pid");
        let mut actions = Vec::new();
        for i in 0..12u16 {
            let code = if i < 11 {
                vec![
                    Insn::LdImm {
                        dst: Reg(0),
                        imm: i as i64,
                    },
                    Insn::TailCall {
                        table: TableId(i + 1),
                    },
                ]
            } else {
                vec![
                    Insn::LdImm {
                        dst: Reg(0),
                        imm: 11,
                    },
                    Insn::Exit,
                ]
            };
            actions.push(b.action(Action::new(&format!("a{i}"), code)));
        }
        for (i, &act) in actions.iter().enumerate() {
            b.table(
                &format!("t{i}"),
                "chain_hook",
                &[pid],
                MatchKind::Exact,
                Some(act),
                4,
            );
        }
        let vp = verify_with(
            b.build(),
            &VerifierConfig {
                max_tail_depth: 16,
                ..VerifierConfig::default()
            },
        )
        .unwrap();
        let mut m = RmtMachine::new();
        let id = m.install(vp, ExecMode::Interp).unwrap();
        let r = m.fire("chain_hook", &mut ctxt_with_pid(1));
        // t0 runs, then 8 successful redirects (t1..=t8); t8's call to
        // t9 is chain hop 9 > MAX_TAIL_CHAIN, terminating the pipeline.
        assert_eq!(r.verdicts.len(), 9, "t0..=t8 only: {:?}", r.verdicts);
        assert_eq!(r.verdicts.last().unwrap().1, 8);
        let stats = m.stats(id).unwrap();
        assert_eq!(stats.tail_calls, 8);
        assert_eq!(stats.tail_chain_overflows, 1);
        assert_eq!(stats.actions_aborted, 0, "overflow is not an abort");
        let c = m.machine_counters();
        assert_eq!(c.tail_calls, 8);
        assert_eq!(c.tail_chain_overflows, 1);
        let snap = m.trace_read(usize::MAX);
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == crate::obs::TraceKind::TailChainOverflow));
    }

    #[test]
    fn obs_reset_preserves_program_stats() {
        let mut m = RmtMachine::new();
        let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
        m.fire("test_hook", &mut ctxt_with_pid(7));
        m.obs_reset();
        assert_eq!(m.machine_counters().fires, 0);
        assert_eq!(m.hook_stats("test_hook").unwrap().fires, 0);
        let stats = m.stats(id).unwrap();
        assert_eq!(stats.invocations, 1, "ProgStats survive an obs reset");
    }

    /// Program: one range table on "pid" matching 0..=100 (priority 1,
    /// doubles arg 21 -> 42); default action returns -1.
    fn range_program() -> VerifiedProgram {
        let mut b = ProgramBuilder::new("range");
        let pid = b.field_readonly("pid");
        let double = b.action(Action::new(
            "double",
            vec![
                Insn::Mov {
                    dst: Reg(0),
                    src: crate::bytecode::ARG_REG,
                },
                Insn::AluImm {
                    op: AluOp::Mul,
                    dst: Reg(0),
                    imm: 2,
                },
                Insn::Exit,
            ],
        ));
        let fallback = b.action(Action::new(
            "fallback",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: -1,
                },
                Insn::Exit,
            ],
        ));
        let t = b.table(
            "t",
            "range_hook",
            &[pid],
            MatchKind::Range,
            Some(fallback),
            16,
        );
        b.entry(
            t,
            Entry {
                key: MatchKey::Range(vec![(0, 100)]),
                priority: 1,
                action: double,
                arg: 21,
            },
        );
        verify(b.build()).unwrap()
    }

    #[test]
    fn decision_cache_replays_stable_flows() {
        let mut m = RmtMachine::new();
        m.install(range_program(), ExecMode::Interp).unwrap();
        for _ in 0..10 {
            let r = m.fire("range_hook", &mut ctxt_with_pid(50));
            assert_eq!(r.verdict(), Some(42));
        }
        let c = m.machine_counters();
        assert_eq!(c.decision_cache_misses, 1, "first firing records");
        assert_eq!(c.decision_cache_hits, 9, "repeat flows replay");
        assert_eq!(c.decision_cache_bypasses, 0);
        // A different flow key is its own cache line.
        assert_eq!(
            m.fire("range_hook", &mut ctxt_with_pid(200)).verdict(),
            Some(-1)
        );
        assert_eq!(
            m.fire("range_hook", &mut ctxt_with_pid(200)).verdict(),
            Some(-1)
        );
        let c = m.machine_counters();
        assert_eq!(c.decision_cache_misses, 2);
        assert_eq!(c.decision_cache_hits, 10);
        // Replayed firings keep TableStats faithful: 10 in-range hits,
        // 2 out-of-range misses.
        let ts = m.table_stats(ProgId(1), TableId(0)).unwrap();
        assert_eq!(
            ts,
            TableStats {
                hits: 10,
                misses: 2
            }
        );
    }

    #[test]
    fn decision_cache_invalidated_by_control_plane_mutations() {
        let mut m = RmtMachine::new();
        let id = m.install(range_program(), ExecMode::Interp).unwrap();
        assert_eq!(
            m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
            Some(42)
        );
        assert_eq!(
            m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
            Some(42)
        );
        // A higher-priority entry shadows the cached decision; the
        // generation bump must force a live re-resolve.
        m.insert_entry(
            id,
            TableId(0),
            Entry {
                key: MatchKey::Range(vec![(40, 60)]),
                priority: 9,
                action: ActionId(0),
                arg: 100,
            },
        )
        .unwrap();
        assert_eq!(
            m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
            Some(200),
            "no stale decision after insert_entry"
        );
        assert!(m.machine_counters().decision_cache_invalidations >= 1);
        // Removing it must invalidate again.
        assert!(m
            .remove_entry(id, TableId(0), &MatchKey::Range(vec![(40, 60)]))
            .unwrap());
        assert_eq!(
            m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
            Some(42),
            "no stale decision after remove_entry"
        );
        assert!(m.machine_counters().decision_cache_invalidations >= 2);
    }

    /// A hook whose only live tables are exact-match bypasses the
    /// cache (a lookup is already one hash probe), while an entry-less
    /// exact table stays eligible — its key-independent default
    /// decision replays without any key extraction.
    #[test]
    fn decision_cache_bypasses_exact_only_hooks() {
        let mut m = RmtMachine::new();
        let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
        m.fire("test_hook", &mut ctxt_with_pid(7));
        m.fire("test_hook", &mut ctxt_with_pid(7));
        let c = m.machine_counters();
        assert_eq!(c.decision_cache_bypasses, 2);
        assert_eq!(c.decision_cache_hits + c.decision_cache_misses, 0);
        // Empty the exact table: the hook becomes cache-eligible and
        // repeat firings replay the default-action decision.
        assert!(m
            .remove_entry(id, TableId(0), &MatchKey::Exact(vec![7]))
            .unwrap());
        m.fire("test_hook", &mut ctxt_with_pid(7));
        m.fire("test_hook", &mut ctxt_with_pid(7));
        let c = m.machine_counters();
        assert_eq!(c.decision_cache_misses, 1);
        assert_eq!(c.decision_cache_hits, 1);
    }

    #[test]
    fn decision_cache_capacity_bounds_and_disable() {
        let mut m = RmtMachine::new();
        m.install(range_program(), ExecMode::Interp).unwrap();
        m.set_decision_cache_capacity(4);
        for pid in 0..8 {
            m.fire("range_hook", &mut ctxt_with_pid(pid));
        }
        let c = m.machine_counters();
        assert_eq!(c.decision_cache_misses, 8);
        assert_eq!(c.decision_cache_evictions, 4, "FIFO bound enforced");
        // Capacity 0 disables probing entirely.
        m.set_decision_cache_capacity(0);
        let before = m.machine_counters();
        m.fire("range_hook", &mut ctxt_with_pid(1));
        m.fire("range_hook", &mut ctxt_with_pid(1));
        let after = m.machine_counters();
        assert_eq!(after.decision_cache_hits, before.decision_cache_hits);
        assert_eq!(after.decision_cache_misses, before.decision_cache_misses);
        assert_eq!(
            after.decision_cache_bypasses,
            before.decision_cache_bypasses
        );
    }

    #[test]
    fn obs_snapshot_aggregates_hooks_and_programs() {
        let mut m = RmtMachine::new();
        let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
        m.fire("test_hook", &mut ctxt_with_pid(7));
        let snap = m.obs_snapshot();
        assert_eq!(snap.counters.fires, 1);
        assert_eq!(snap.hooks.len(), 1);
        assert_eq!(snap.hooks[0].hook, "test_hook");
        assert_eq!(snap.hooks[0].fires, 1);
        assert_eq!(snap.programs.len(), 1);
        assert_eq!(snap.programs[0].prog, id.0);
        assert_eq!(snap.programs[0].hist.count(), 1);
        assert_eq!(snap.trace_dropped, 0);
    }

    /// A hook whose listeners never write consumed fields and whose
    /// non-empty tables key only consumed fields is key-stable: cached
    /// decisions replay without per-step key re-extraction, and
    /// distinct flows still resolve their own cache lines.
    #[test]
    fn key_stable_hook_replays_without_key_reextraction() {
        let mut m = RmtMachine::new();
        m.install(range_program(), ExecMode::Interp).unwrap();
        assert!(
            m.hook_index["range_hook"].key_stable,
            "no ctxt writes + keys within consumed => key-stable"
        );
        for _ in 0..3 {
            assert_eq!(
                m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
                Some(42)
            );
            assert_eq!(
                m.fire("range_hook", &mut ctxt_with_pid(200)).verdict(),
                Some(-1)
            );
        }
        let c = m.machine_counters();
        assert_eq!(c.decision_cache_misses, 2, "one recording per flow");
        assert_eq!(c.decision_cache_hits, 4, "fast-path replays");
    }

    /// Cross-hook tail-call counterexample: the tail-call target keys
    /// a field the origin hook does not consume, so two flows with the
    /// same probe key can resolve different entries at the target. The
    /// hook must not be key-stable, and the per-step validation must
    /// catch the divergence.
    #[test]
    fn tail_call_to_unconsumed_key_defeats_key_stability() {
        let mut b = ProgramBuilder::new("xhook");
        let f0 = b.field_readonly("f0");
        let f1 = b.field_readonly("f1");
        let hit2 = b.action(Action::new(
            "hit2",
            vec![
                Insn::Mov {
                    dst: Reg(0),
                    src: crate::bytecode::ARG_REG,
                },
                Insn::Exit,
            ],
        ));
        let fallback = b.action(Action::new(
            "fallback",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: -1,
                },
                Insn::Exit,
            ],
        ));
        // t2 is declared first so the redirect action can name it.
        let t2 = b.table("t2", "h2", &[f1], MatchKind::Exact, Some(fallback), 16);
        let redirect = b.action(Action::new(
            "redirect",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                Insn::TailCall { table: t2 },
            ],
        ));
        let t1 = b.table("t1", "h1", &[f0], MatchKind::Range, Some(fallback), 16);
        b.entry(
            t1,
            Entry {
                key: MatchKey::Range(vec![(0, 100)]),
                priority: 1,
                action: redirect,
                arg: 0,
            },
        );
        b.entry(
            t2,
            Entry {
                key: MatchKey::Exact(vec![5]),
                priority: 0,
                action: hit2,
                arg: 111,
            },
        );
        let mut m = RmtMachine::new();
        m.install(verify(b.build()).unwrap(), ExecMode::Interp)
            .unwrap();
        assert!(
            !m.hook_index["h1"].key_stable,
            "t2 keys f1, which h1 does not consume"
        );
        // Same h1 probe key (f0 = 50), different f1: the second firing
        // must re-resolve at t2, not replay the cached entry.
        let mut a = Ctxt::from_values(vec![50, 5]);
        assert_eq!(m.fire("h1", &mut a).verdict(), Some(111));
        let mut b2 = Ctxt::from_values(vec![50, 6]);
        assert_eq!(
            m.fire("h1", &mut b2).verdict(),
            Some(-1),
            "divergent tail-call key must fall back, not replay"
        );
    }

    /// A listener that stores to a field some table at the hook keys
    /// on also defeats key stability: the probe key cannot pin a field
    /// the pipeline itself rewrites.
    #[test]
    fn consumed_field_write_defeats_key_stability() {
        let mut b = ProgramBuilder::new("selfwrite");
        let s = b.field_scratch("s");
        let act = b.action(Action::new(
            "bump",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 1,
                },
                Insn::StCtxt {
                    field: s,
                    src: Reg(0),
                },
                Insn::Exit,
            ],
        ));
        let t = b.table("t", "wh", &[s], MatchKind::Range, Some(act), 16);
        b.entry(
            t,
            Entry {
                key: MatchKey::Range(vec![(0, 100)]),
                priority: 1,
                action: act,
                arg: 0,
            },
        );
        let mut m = RmtMachine::new();
        m.install(verify(b.build()).unwrap(), ExecMode::Interp)
            .unwrap();
        assert!(!m.hook_index["wh"].key_stable);
    }

    /// Switching OptLevel recompiles through the optimize → re-verify
    /// → compile path and never changes verdicts: O0 is the oracle.
    #[test]
    fn set_opt_level_is_behavior_preserving() {
        use crate::opt::OptLevel;
        let mut m = RmtMachine::new();
        let id = m.install(doubling_program(), ExecMode::Jit).unwrap();
        assert_eq!(m.opt_level(id).unwrap(), OptLevel::O2, "default on");
        let v_opt = m.fire("test_hook", &mut ctxt_with_pid(7)).verdict();
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            m.set_opt_level(id, level).unwrap();
            assert_eq!(m.opt_level(id).unwrap(), level);
            assert_eq!(
                m.fire("test_hook", &mut ctxt_with_pid(7)).verdict(),
                v_opt,
                "level {level:?} diverged from the oracle"
            );
        }
        assert!(matches!(
            m.set_opt_level(ProgId(999), OptLevel::O0),
            Err(VmError::NoSuchProgram(_))
        ));
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

rkd_testkit::impl_json_struct!(TableState { entries, stats });

rkd_testkit::impl_json_struct!(ProgramState {
    id,
    prog,
    mode,
    tables,
    maps,
    rng_state,
    ledger_spent_milli_eps,
    bucket,
    stats,
    hist,
    model_stats,
    opt_stats
});

rkd_testkit::impl_json_struct!(HookState { hook, fires, hist });

rkd_testkit::impl_json_struct!(MachineSnapshot {
    tick,
    next_id,
    table_generation,
    decision_cache_cap,
    programs,
    hooks,
    obs
});
