//! Multi-core sharded datapath.
//!
//! The paper's datapath lives in the kernel, where hooks fire
//! concurrently on every CPU and per-CPU data structures are the
//! standard answer to contention. [`ShardedMachine`] reproduces that
//! architecture in userspace: N worker threads ("shards"), each owning
//! a full [`RmtMachine`] replica, fire hooks completely
//! contention-free — no lock, no atomic, no shared cache line on the
//! hot path. Everything cross-shard happens on the control plane:
//!
//! - **Ring-ordered control plane** — every mutating [`CtrlRequest`]
//!   applies first to a never-firing *shadow replica*, giving the
//!   caller a synchronous result (and [`ProgId`] assignment) that is
//!   deterministic across replicas. It then rides every shard's
//!   ingress ring as one message, between the batches around it, so
//!   each shard applies it exactly where it was published in that
//!   shard's message order. Reconfiguration never stops the datapath,
//!   every shard converges to the same table/model generation, and the
//!   only record of an in-flight command is its ring slot: replication
//!   memory is bounded by ring capacity.
//! - **Per-CPU maps** — a [`MapDef`](crate::maps::MapDef) with
//!   `per_cpu` set mirrors eBPF's `PERCPU_HASH`/`PERCPU_ARRAY`:
//!   datapath writes land in the firing shard's replica only;
//!   control-plane reads ([`CtrlRequest::MapLookup`]) sum the value
//!   per key across shards. Non-per-CPU maps are *shard-private*:
//!   reads route to shard 0 (documented, not linearizable across
//!   shards). Control-plane writes ([`CtrlRequest::MapUpdate`]) ride
//!   the rings and therefore apply to every replica.
//! - **Merged telemetry** — [`ShardedMachine::obs_snapshot`] merges
//!   per-shard snapshots into one standard
//!   [`ObsSnapshot`](crate::obs::ObsSnapshot), so the Prometheus/JSON
//!   exporters (and [`ShardedMachine::serve_metrics_until`]) work on a
//!   sharded machine unchanged.
//!
//! ## What is and isn't linearizable
//!
//! Mutations are linearizable against each other: publishers serialize
//! on the shadow lock and push into every ring while holding it, so
//! every shard sees the same command order. Against the datapath the
//! order is exact per message: a batch submitted before a publish never
//! sees that publish, and a batch submitted after it returns always
//! does. A publish is still *asynchronous* — it returns once the
//! command is queued, and a shard applies it when it reaches it in its
//! ring. [`ShardedMachine::sync`] is the barrier that waits until every
//! shard has. The backpressure is the ring's: a publish waits for one
//! free slot in every shard's ring, just as a batch does. Per-shard
//! apply errors that depend on datapath state (e.g. a `MapUpdate`
//! hitting a hash map one shard filled) are absorbed and counted per
//! shard ([`ShardStatus::ctrl_apply_errors`]); errors determinable
//! from control state alone (verification, unknown ids, arity) are
//! reported synchronously by [`ShardedMachine::ctrl`] and never reach
//! a shard.
//!
//! ## Reproducibility
//!
//! Shard `i` installs every program with RNG seed `base ^ i`, so DP
//! noise streams are deterministic per shard and shard 0 is
//! bit-identical to a single machine installed with `base`.

use crate::ctrl::{syscall_rmt_with, CtrlRequest, CtrlResponse};
use crate::ctxt::Ctxt;
use crate::error::VmError;
use crate::machine::{HookResult, ProgId, ProgStats, RmtMachine};
use crate::maps::MapId;
use crate::obs::span::{
    self, BatchSpan, SpanSnapshot, Stage, StageProfile, DEFAULT_SPAN_SAMPLE_SHIFT, SPAN_SHIFT_OFF,
};
use crate::obs::{
    FlightSnapshot, HookStats, IngressShardStats, MachineCounters, ObsConfig, ObsSnapshot,
};
use crate::spsc;
use crate::table::TableStats;
use crate::verifier::VerifierConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Ingress ring capacity per shard (messages, power of two). Sized so
/// a replay driver can keep a deep pipeline of batches in flight
/// before backpressure (a full ring spins the driver or publisher, it
/// never blocks a shard). It also bounds how many published commands
/// a shard can lag behind.
const INGRESS_RING_CAPACITY: usize = 1024;

/// Default skew-balancer policy: rebalance when the deepest ingress
/// ring holds more than `ratio_pct`% of the mean depth *and* at least
/// `min_depth` messages (see [`ShardedMachine::should_rebalance`]).
const DEFAULT_BALANCER_RATIO_PCT: u64 = 200;
const DEFAULT_BALANCER_MIN_DEPTH: u64 = 32;

/// What a worker thread receives.
enum Msg {
    /// Fire a batch; reply with the mutated contexts and results.
    /// `span` carries the ingress sampling decision: when set, the
    /// worker traces this batch through every layer.
    Batch {
        hook: String,
        ctxts: Vec<Ctxt>,
        span: Option<BatchSpan>,
        reply: Sender<BatchOutput>,
    },
    /// Apply one published control-plane mutation (boxed so the
    /// ring's slot size stays that of a batch).
    Ctrl(Box<CtrlRequest>),
    /// Run an arbitrary closure against the shard's machine (the
    /// coordinator's read path).
    With(Box<dyn FnOnce(&mut RmtMachine) + Send>),
    /// Report convergence state.
    Sync { reply: Sender<ShardStatus> },
    /// Exit the worker loop.
    Shutdown,
}

struct BatchOutput {
    ctxts: Vec<Ctxt>,
    results: Vec<HookResult>,
}

/// One shard's convergence report from [`ShardedMachine::sync`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Commands applied from the ring (== published after a sync).
    pub applied: u64,
    /// Published commands whose apply failed on this shard (absorbed;
    /// see the module docs on asynchronous control-plane semantics).
    pub ctrl_apply_errors: u64,
    /// The shard machine's table generation — equal across all shards
    /// (and to [`ShardedMachine::expected_generation`]) once synced.
    pub table_generation: u64,
}

struct ShardHandle {
    /// The ring's unique producer endpoint. Behind a mutex only so
    /// multiple coordinator threads can share `&ShardedMachine` —
    /// uncontended in the single-driver case, and never touched by
    /// the shard worker (which owns the consumer endpoint).
    tx: Mutex<spsc::Producer<Msg>>,
    /// Telemetry view of the ring (depth, stalls, parks) that does
    /// not need the producer lock.
    obs: spsc::Observer<Msg>,
    join: Option<JoinHandle<()>>,
}

/// An in-flight batch submitted with [`ShardedMachine::fire_batch_on`].
/// Dropping the ticket without waiting abandons the results (the shard
/// still executes the batch).
pub struct BatchTicket {
    rx: Receiver<BatchOutput>,
}

impl BatchTicket {
    /// Blocks until the shard has executed the batch, returning the
    /// mutated contexts and one [`HookResult`] per context.
    ///
    /// # Panics
    ///
    /// Panics if the shard worker died (a propagated shard panic).
    pub fn wait(self) -> (Vec<Ctxt>, Vec<HookResult>) {
        let out = self.rx.recv().expect("shard worker died");
        (out.ctxts, out.results)
    }
}

/// N datapath shards plus the ring-ordered control plane. See the
/// module docs for the architecture.
pub struct ShardedMachine {
    shards: Vec<ShardHandle>,
    /// Commands published so far (incremented under the shadow lock).
    published: AtomicU64,
    /// Verifier configuration every replica re-verifies installs with.
    vcfg: VerifierConfig,
    /// Current flow→shard partition seed, folded into
    /// [`ShardedMachine::shard_for_flow`]. Updated only through the
    /// published (and journaled) [`CtrlRequest::SetPartitionSeed`]
    /// command, so recovery restores the partition.
    partition: AtomicU64,
    /// Partition rotations applied (including any replayed during
    /// recovery).
    rebalances: AtomicU64,
    /// Skew-balancer trigger: deepest ring > `ratio_pct`% of mean.
    balancer_ratio_pct: AtomicU64,
    /// Absolute depth floor below which the balancer never triggers.
    balancer_min_depth: AtomicU64,
    /// Control-plane oracle: applies every mutation first (same code
    /// path as the shards), never fires, so its table generation and
    /// id assignment are what every shard converges to. Behind a
    /// mutex only to make the whole machine `Sync` — uncontended
    /// unless multiple control-plane threads race, and never touched
    /// by the fire path.
    shadow: Mutex<RmtMachine>,
    /// Optional durable journal: when attached, every published
    /// command is fsync'd to disk *before* the shadow applies it (the
    /// same write-ahead [`JournalRecord`](crate::journal::JournalRecord)
    /// format [`crate::journal::JournaledMachine`] uses), so
    /// [`ShardedMachine::recover`] can rebuild the control plane.
    journal: Option<Mutex<crate::journal::CtrlJournal>>,
    /// The one monotonic epoch every replica's span timestamps are
    /// relative to (captured at construction, shared with the shadow
    /// and the ingress side), so cross-shard span ordering is
    /// meaningful.
    epoch: Instant,
    /// Ingress events seen by the span sampler (batches count each
    /// context, so the rate is per *event*, not per batch).
    span_seq: AtomicU64,
    /// Current span sampling shift (mirrors the published
    /// [`CtrlRequest::SpanConfig`], consulted lock-free at ingress).
    span_shift: AtomicU64,
}

impl ShardedMachine {
    /// Spawns `shards` workers (at least 1) with default observability
    /// and the default verifier configuration.
    pub fn new(shards: usize) -> ShardedMachine {
        ShardedMachine::with_config(shards, ObsConfig::default(), VerifierConfig::default())
    }

    /// Spawns `shards` workers with explicit observability and
    /// verifier configurations (applied to every replica).
    pub fn with_config(shards: usize, obs: ObsConfig, vcfg: VerifierConfig) -> ShardedMachine {
        let n = shards.max(1);
        let epoch = Instant::now();
        let mut handles = Vec::with_capacity(n);
        for shard in 0..n {
            let (tx, rx) = spsc::ring::<Msg>(INGRESS_RING_CAPACITY);
            let vcfg = vcfg.clone();
            let mut machine = RmtMachine::with_obs_config(obs);
            // One shared epoch, a per-replica span-id namespace, and
            // ingress-owned sampling (replicas never self-sample:
            // the decision arrives with the batch).
            machine.align_span_identity(shard as u64, epoch, false);
            let ring_obs = tx.observer();
            let join = std::thread::Builder::new()
                .name(format!("rkd-shard-{shard}"))
                .spawn(move || worker(shard, machine, &vcfg, rx))
                .expect("spawn shard worker");
            handles.push(ShardHandle {
                tx: Mutex::new(tx),
                obs: ring_obs,
                join: Some(join),
            });
        }
        let mut shadow = RmtMachine::with_obs_config(obs);
        // The shadow records control-plane spans (journal, rotate)
        // under the shard-count id namespace.
        shadow.align_span_identity(n as u64, epoch, false);
        ShardedMachine {
            shards: handles,
            published: AtomicU64::new(0),
            vcfg,
            partition: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            balancer_ratio_pct: AtomicU64::new(DEFAULT_BALANCER_RATIO_PCT),
            balancer_min_depth: AtomicU64::new(DEFAULT_BALANCER_MIN_DEPTH),
            shadow: Mutex::new(shadow),
            journal: None,
            epoch,
            span_seq: AtomicU64::new(0),
            span_shift: AtomicU64::new(DEFAULT_SPAN_SAMPLE_SHIFT as u64),
        }
    }

    /// Spawns one shard per available CPU (clamped to
    /// [1, 32]) — the right default for a host whose core count is
    /// unknown, so a 1-CPU CI box gets one shard instead of a
    /// 4-thread configuration that loses to a single machine.
    pub fn auto() -> ShardedMachine {
        ShardedMachine::new(Self::auto_shards())
    }

    /// The shard count [`ShardedMachine::auto`] uses:
    /// `std::thread::available_parallelism()`, clamped to [1, 32].
    pub fn auto_shards() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 32)
    }

    /// Spawns a sharded machine whose control plane journals to
    /// `path` (the same write-ahead format as
    /// [`crate::journal::JournaledMachine`]): every published command
    /// is durable before any replica applies it.
    pub fn with_journal(
        shards: usize,
        obs: ObsConfig,
        vcfg: VerifierConfig,
        path: &std::path::Path,
    ) -> Result<ShardedMachine, crate::journal::JournalError> {
        let journal = crate::journal::CtrlJournal::open(path)?;
        let mut m = ShardedMachine::with_config(shards, obs, vcfg);
        m.journal = Some(Mutex::new(journal));
        Ok(m)
    }

    /// Recovers a sharded machine from a control-plane journal:
    /// republishes every journaled command through the normal publish
    /// path, so the shadow and all shards converge to the pre-crash
    /// configuration (**shard-0 semantics** — per-shard datapath state
    /// such as per-CPU map contents is not persisted; it reaccumulates
    /// as traffic flows). The journal stays attached: new commands
    /// continue appending after the replayed suffix. Replay apply
    /// errors are absorbed exactly as live ones were.
    pub fn recover(
        shards: usize,
        obs: ObsConfig,
        vcfg: VerifierConfig,
        path: &std::path::Path,
    ) -> Result<ShardedMachine, crate::journal::JournalError> {
        let contents = crate::journal::read_journal(path)?;
        let mut m = ShardedMachine::with_config(shards, obs, vcfg);
        for rec in contents.records {
            let _ = m.publish(rec.req);
        }
        m.journal = Some(Mutex::new(crate::journal::CtrlJournal::open(path)?));
        Ok(m)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic flow -> shard assignment (splitmix64 of the flow
    /// key XOR the current partition seed, modulo shard count). Any
    /// per-flow partition preserves per-flow outcomes; this one
    /// spreads flows evenly, and rotating the seed
    /// ([`ShardedMachine::rotate_partition`]) re-hashes every flow to
    /// break up a skew hotspot. With the initial seed (0) the mapping
    /// is identical to the pre-balancer one.
    pub fn shard_for_flow(&self, flow: u64) -> usize {
        let seed = self.partition.load(Ordering::Acquire);
        let mut x = (flow ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.shards.len() as u64) as usize
    }

    /// Submits a batch of contexts to one shard's datapath without
    /// blocking — this is what lets one driver thread keep every
    /// shard busy. The shard runs [`RmtMachine::fire_batch`] after
    /// every command published before this call and before any
    /// command published after it.
    pub fn fire_batch_on(&self, shard: usize, hook: &str, ctxts: Vec<Ctxt>) -> BatchTicket {
        let (reply, rx) = channel();
        let span = self.sample_ingress(&ctxts);
        self.send(
            shard,
            Msg::Batch {
                hook: hook.to_string(),
                ctxts,
                span,
                reply,
            },
        );
        BatchTicket { rx }
    }

    /// The once-at-ingress sampling decision: counts the batch's
    /// events against the 1-in-2^shift rate and, when the window
    /// covers a sampling point, stamps the batch with a trace id
    /// (derived from the first context's flow values) and the enqueue
    /// time. One relaxed `fetch_add` when armed, one load when not —
    /// never an allocation.
    fn sample_ingress(&self, ctxts: &[Ctxt]) -> Option<BatchSpan> {
        let shift = self.span_shift.load(Ordering::Relaxed);
        if shift >= SPAN_SHIFT_OFF as u64 || ctxts.is_empty() {
            return None;
        }
        let k = ctxts.len() as u64;
        let s = self.span_seq.fetch_add(k, Ordering::Relaxed);
        let mask = (1u64 << shift) - 1;
        // Sample iff [s, s + k) contains a multiple of 2^shift.
        let next = (s.wrapping_add(mask)) & !mask;
        if next.wrapping_sub(s) >= k {
            return None;
        }
        let trace_id = span::trace_id_from_key(ctxts[0].values().iter().map(|&v| v as u64));
        Some(BatchSpan {
            trace_id,
            enqueue_ns: self.epoch.elapsed().as_nanos() as u64,
        })
    }

    /// Pushes one message into a shard's ingress ring, spinning while
    /// the ring is full (backpressure never blocks the shard side).
    fn send(&self, shard: usize, msg: Msg) {
        let mut tx = self.shards[shard]
            .tx
            .lock()
            .expect("ingress producer poisoned");
        if tx.push_wait(msg).is_err() {
            panic!("shard worker died");
        }
    }

    /// Fires one context on one shard and waits for the result (the
    /// scalar convenience over [`ShardedMachine::fire_batch_on`]).
    pub fn fire_on(&self, shard: usize, hook: &str, ctxt: Ctxt) -> (Ctxt, HookResult) {
        let (mut ctxts, mut results) = self.fire_batch_on(shard, hook, vec![ctxt]).wait();
        (
            ctxts.pop().expect("batch of one"),
            results.pop().expect("batch of one"),
        )
    }

    /// Dispatches one control-plane request.
    ///
    /// Mutations apply to the shadow replica synchronously (reporting
    /// any deterministic error without publishing anything), then
    /// enter every shard's ingress ring behind the messages already
    /// queued there. Reads aggregate across shards — see
    /// [`CtrlRequest`] routing notes in the module docs.
    /// `ReportOutcome` is shard-targeted telemetry and routes to
    /// shard 0; use [`ShardedMachine::report_outcome_on`] to credit
    /// the shard that actually served the prediction.
    pub fn ctrl(&self, req: CtrlRequest) -> Result<CtrlResponse, VmError> {
        match req {
            CtrlRequest::Install { .. }
            | CtrlRequest::Remove { .. }
            | CtrlRequest::InsertEntry { .. }
            | CtrlRequest::RemoveEntry { .. }
            | CtrlRequest::UpdateModel { .. }
            | CtrlRequest::MapUpdate { .. }
            | CtrlRequest::ObsReset
            | CtrlRequest::SetOptLevel { .. }
            | CtrlRequest::SetDecisionCacheCapacity { .. }
            | CtrlRequest::SetPartitionSeed { .. }
            | CtrlRequest::SetBalancerPolicy { .. }
            | CtrlRequest::SpanConfig { .. }
            | CtrlRequest::SpanReset => self.publish(req),
            CtrlRequest::MapLookup { prog, map, key } => self.map_lookup(prog, map, key),
            CtrlRequest::QueryStats { prog } => Ok(CtrlResponse::Stats(self.stats(prog)?)),
            // Optimizer stats are compile-time telemetry, identical on
            // every replica by construction (same program, same opt
            // level, deterministic optimizer) — read the shadow rather
            // than merging shards.
            CtrlRequest::QueryOptStats { prog } => Ok(CtrlResponse::OptStats(
                self.shadow
                    .lock()
                    .expect("shadow poisoned")
                    .opt_stats(prog)?,
            )),
            CtrlRequest::QueryTableStats { prog, table } => {
                let per_shard = self.collect(move |m| m.table_stats(prog, table));
                let mut total = TableStats::default();
                for ts in transpose(per_shard)? {
                    total.hits = total.hits.saturating_add(ts.hits);
                    total.misses = total.misses.saturating_add(ts.misses);
                }
                Ok(CtrlResponse::TableStats(total))
            }
            CtrlRequest::QueryPrivacyBudget { prog } => {
                let per_shard = self.collect(move |m| m.privacy_remaining(prog));
                let min = transpose(per_shard)?.into_iter().min().unwrap_or_default();
                Ok(CtrlResponse::PrivacyBudget(min))
            }
            CtrlRequest::HookStats { hook } => {
                let per_shard = self.collect({
                    let hook = hook.clone();
                    move |m| m.hook_stats(&hook)
                });
                let mut merged: Option<HookStats> = None;
                for hs in transpose(per_shard)? {
                    match &mut merged {
                        Some(acc) => {
                            acc.fires = acc.fires.saturating_add(hs.fires);
                            acc.hist.merge(&hs.hist);
                        }
                        None => merged = Some(hs),
                    }
                }
                Ok(CtrlResponse::HookStats(Box::new(
                    merged.expect("at least one shard"),
                )))
            }
            CtrlRequest::TraceRead { max } => {
                // Drain each shard in index order: events are FIFO
                // within a shard, shard-major across shards.
                let mut events = Vec::new();
                let mut dropped = 0u64;
                let per_fetch = max.min(usize::MAX as u64) as usize;
                for snap in self.collect(move |m| m.trace_read(per_fetch)) {
                    dropped = dropped.saturating_add(snap.dropped);
                    events.extend(snap.events);
                }
                // The concatenation can exceed `max` (each shard
                // honored it independently); what the truncate cuts is
                // lost to the caller and must be counted as dropped,
                // not silently discarded.
                let truncated = events.len().saturating_sub(per_fetch) as u64;
                dropped = dropped.saturating_add(truncated);
                events.truncate(per_fetch);
                Ok(CtrlResponse::Trace(crate::obs::TraceSnapshot {
                    events,
                    dropped,
                }))
            }
            CtrlRequest::SpanRead { max } => {
                // Shard-major drain, like TraceRead: spans are FIFO
                // within a machine; the shadow (journal and rotate
                // spans) drains last. Whatever the final truncate
                // cuts is counted as dropped, never silently lost.
                let per_fetch = max.min(usize::MAX as u64) as usize;
                let mut spans = Vec::new();
                let mut dropped = 0u64;
                for snap in self.collect(move |m| m.span_read(per_fetch)) {
                    dropped = dropped.saturating_add(snap.dropped);
                    spans.extend(snap.spans);
                }
                let shadow_snap = self
                    .shadow
                    .lock()
                    .expect("shadow poisoned")
                    .span_read(per_fetch);
                dropped = dropped.saturating_add(shadow_snap.dropped);
                spans.extend(shadow_snap.spans);
                let truncated = spans.len().saturating_sub(per_fetch) as u64;
                dropped = dropped.saturating_add(truncated);
                spans.truncate(per_fetch);
                Ok(CtrlResponse::Spans(Box::new(SpanSnapshot {
                    spans,
                    dropped,
                })))
            }
            CtrlRequest::QueryMachineCounters => {
                Ok(CtrlResponse::Counters(self.machine_counters()))
            }
            CtrlRequest::ReportOutcome {
                prog,
                slot,
                predicted,
                actual,
            } => {
                self.report_outcome_on(0, prog, slot, predicted, actual)?;
                Ok(CtrlResponse::Ok)
            }
            CtrlRequest::QueryModelStats { prog, slot } => {
                let per_shard = self.collect(move |m| m.model_stats(prog, slot));
                let mut merged: Option<crate::obs::ModelStatsSnapshot> = None;
                for ms in transpose(per_shard)? {
                    match &mut merged {
                        Some(acc) => acc.merge(&ms),
                        None => merged = Some(ms),
                    }
                }
                Ok(CtrlResponse::ModelStats(Box::new(
                    merged.expect("at least one shard"),
                )))
            }
            CtrlRequest::FlightRead => {
                // Frames concatenate shard-major; `seq` stays
                // per-shard (each shard's recorder numbers its own
                // frames), `dropped` sums.
                let mut merged: Option<FlightSnapshot> = None;
                for fs in self.collect(|m| m.flight_snapshot()) {
                    match &mut merged {
                        Some(acc) => {
                            acc.frames.extend(fs.frames);
                            acc.dropped = acc.dropped.saturating_add(fs.dropped);
                        }
                        None => merged = Some(fs),
                    }
                }
                Ok(CtrlResponse::Flight(Box::new(
                    merged.expect("at least one shard"),
                )))
            }
        }
    }

    /// Applies a mutation to the shadow replica, then publishes it
    /// into every shard's ring. The shadow lock is held across the
    /// pushes so concurrent publishers cannot reorder the rings
    /// against shadow state or against each other (lock order:
    /// shadow, then a ring's producer).
    fn publish(&self, req: CtrlRequest) -> Result<CtrlResponse, VmError> {
        let mut shadow = self.shadow.lock().expect("shadow poisoned");
        // Write-ahead: the journal is a superset of the applied
        // commands. A journaled command whose shadow apply fails below
        // replays to the same deterministic no-op on recovery.
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .expect("journal poisoned")
                .append(&req, shadow.spans_mut())
                .map_err(|e| VmError::BadRequest(format!("ctrl journal: {e}")))?;
        }
        let resp = syscall_rmt_with(&mut shadow, req.clone(), &self.vcfg)?;
        // Coordinator-side directives: the shard replicas apply these
        // as no-ops, but the coordinator's partition/balancer state
        // updates here — inside the shadow lock, so the seed and the
        // rings stay ordered — and is therefore restored by recovery's
        // journal replay like every other mutation.
        match &req {
            CtrlRequest::SetPartitionSeed { seed } => {
                self.partition.store(*seed, Ordering::Release);
                self.rebalances.fetch_add(1, Ordering::Relaxed);
            }
            CtrlRequest::SetBalancerPolicy {
                ratio_pct,
                min_depth,
            } => {
                self.balancer_ratio_pct.store(*ratio_pct, Ordering::Release);
                self.balancer_min_depth.store(*min_depth, Ordering::Release);
            }
            CtrlRequest::SpanConfig { sample_shift, .. } => {
                // Mirror the sampling rate into the lock-free ingress
                // sampler (restored by recovery replay like the
                // partition seed).
                self.span_shift
                    .store(*sample_shift as u64, Ordering::Release);
            }
            _ => {}
        }
        for shard in 1..self.shards.len() {
            self.send(shard, Msg::Ctrl(Box::new(req.clone())));
        }
        self.send(0, Msg::Ctrl(Box::new(req)));
        self.published.fetch_add(1, Ordering::Release);
        Ok(resp)
    }

    /// Reports a ground-truth outcome to the shard that served the
    /// prediction (model telemetry is per-shard; broadcasting an
    /// outcome would multiply it in the merged confusion matrix).
    pub fn report_outcome_on(
        &self,
        shard: usize,
        prog: ProgId,
        slot: crate::bytecode::ModelSlot,
        predicted: i64,
        actual: i64,
    ) -> Result<(), VmError> {
        self.with_shard(shard, move |m| {
            m.report_outcome(prog, slot, predicted, actual)
        })
    }

    /// Control-plane map read with per-CPU aggregation: `per_cpu` maps
    /// sum the key's value across every shard that holds it (via the
    /// recency-preserving [`RmtMachine::map_peek`]); plain maps read
    /// shard 0's replica; shared maps take shard 0's DP-noised path,
    /// charging shard 0's ledger.
    pub fn map_lookup(&self, prog: ProgId, map: MapId, key: u64) -> Result<CtrlResponse, VmError> {
        let def = {
            let shadow = self.shadow.lock().expect("shadow poisoned");
            shadow.map_def(prog, map).map(|d| (d.per_cpu, d.shared))?
        };
        match def {
            (true, _) => {
                let per_shard = self.collect(move |m| m.map_peek(prog, map, key));
                let mut sum: Option<i64> = None;
                for v in transpose(per_shard)?.into_iter().flatten() {
                    sum = Some(sum.unwrap_or(0).saturating_add(v));
                }
                Ok(CtrlResponse::Value(sum))
            }
            (false, true) => self
                .with_shard(0, move |m| m.map_lookup(prog, map, key))
                .map(CtrlResponse::Value),
            (false, false) => self
                .with_shard(0, move |m| m.map_peek(prog, map, key))
                .map(CtrlResponse::Value),
        }
    }

    /// Program statistics summed across shards.
    pub fn stats(&self, prog: ProgId) -> Result<ProgStats, VmError> {
        let per_shard = self.collect(move |m| m.stats(prog));
        let mut total = ProgStats::default();
        for s in transpose(per_shard)? {
            total.merge(&s);
        }
        Ok(total)
    }

    /// Machine counters summed across shards.
    pub fn machine_counters(&self) -> MachineCounters {
        let mut total = MachineCounters::default();
        for c in self.collect(|m| m.machine_counters()) {
            total.merge(&c);
        }
        total
    }

    /// Each shard's own (unmerged) machine counters, indexed by shard
    /// — per-shard hit rates for the case-study binaries.
    pub fn shard_counters(&self) -> Vec<MachineCounters> {
        self.collect(|m| m.machine_counters())
    }

    /// Merged observability snapshot: per-shard snapshots folded with
    /// [`ObsSnapshot::merge`], so the exporters see one machine.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut merged: Option<ObsSnapshot> = None;
        for snap in self.collect(|m| m.obs_snapshot()) {
            match &mut merged {
                Some(acc) => acc.merge(&snap),
                None => merged = Some(snap),
            }
        }
        let mut merged = merged.expect("at least one shard");
        // Per-machine snapshots know nothing about the ingress rings
        // or the balancer (they are coordinator state); fill both
        // here.
        merged.ingress = self.ingress_stats();
        merged.ingress_should_rebalance = i64::from(self.should_rebalance());
        merged
    }

    /// Aggregated per-stage span profile merged across every shard
    /// plus the shadow (whose rings hold the journal and rotate
    /// spans) — the `/ctrl/stages` payload.
    pub fn stage_profile(&self) -> StageProfile {
        let mut merged = StageProfile::default();
        for p in self.collect(|m| m.stage_profile()) {
            merged.merge(&p);
        }
        merged.merge(&self.shadow.lock().expect("shadow poisoned").stage_profile());
        merged
    }

    /// Each shard's own (unmerged) snapshot, indexed by shard.
    pub fn shard_obs_snapshots(&self) -> Vec<ObsSnapshot> {
        self.collect(|m| m.obs_snapshot())
    }

    /// Serves scrapes of the *merged* snapshot and read-only `/ctrl/*`
    /// queries until `stop` flips — the sharded analogue of
    /// [`RmtMachine::serve_metrics_until`]. `&self`
    /// — the control plane stays usable from other threads while one
    /// thread donates itself to the server.
    pub fn serve_metrics_until(
        &self,
        listener: &std::net::TcpListener,
        stop: &std::sync::atomic::AtomicBool,
    ) -> std::io::Result<u64> {
        let mut source = self;
        crate::obs::export::serve_until(
            listener,
            &mut source,
            stop,
            crate::obs::export::ServeOptions::default(),
        )
    }

    /// Advances every replica's clock (shards and shadow) by `by`.
    /// Shards tick concurrently (submit to all, then collect) rather
    /// than one blocking round-trip at a time.
    pub fn advance_tick(&self, by: u64) {
        self.shadow
            .lock()
            .expect("shadow poisoned")
            .advance_tick(by);
        let _ = self.collect(move |m| m.advance_tick(by));
    }

    /// Barrier: waits until every shard has applied every command
    /// published before the call and reports per-shard convergence
    /// state. After
    /// `sync` returns, every [`ShardStatus::table_generation`] equals
    /// [`ShardedMachine::expected_generation`].
    pub fn sync(&self) -> Vec<ShardStatus> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            let (reply, rx) = channel();
            self.send(shard, Msg::Sync { reply });
            pending.push(rx);
        }
        pending
            .into_iter()
            .map(|rx| rx.recv().expect("shard worker died"))
            .collect()
    }

    /// The table/model generation every shard converges to (the
    /// shadow replica's — mutations apply there first).
    pub fn expected_generation(&self) -> u64 {
        self.shadow
            .lock()
            .expect("shadow poisoned")
            .table_generation()
    }

    /// Commands published so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// The current flow→shard partition seed (0 until the first
    /// [`ShardedMachine::rotate_partition`]).
    pub fn partition_seed(&self) -> u64 {
        self.partition.load(Ordering::Acquire)
    }

    /// Partition rotations applied so far (including any replayed
    /// from the journal by [`ShardedMachine::recover`]).
    pub fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    /// Each shard's current ingress-ring depth (messages published
    /// but not yet consumed), indexed by shard — the skew signal the
    /// balancer triggers on. Lock-free: reads the ring cursors, never
    /// the producer lock.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.shards.iter().map(|h| h.obs.depth()).collect()
    }

    /// Per-shard ingress-ring telemetry (depth plus the cumulative
    /// enqueue/stall/park counters) — what
    /// [`ShardedMachine::obs_snapshot`] folds into the merged
    /// snapshot's `ingress` section.
    pub fn ingress_stats(&self) -> Vec<IngressShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, h)| IngressShardStats {
                shard: shard as u64,
                depth: h.obs.depth(),
                enqueued: h.obs.pushed(),
                full_stalls: h.obs.full_stalls(),
                parks: h.obs.parks(),
            })
            .collect()
    }

    /// True when the ingress depths are skewed enough that a
    /// partition rotation is worth it under the configured policy
    /// ([`CtrlRequest::SetBalancerPolicy`]): the deepest ring exceeds
    /// `ratio_pct`% of the mean depth *and* the absolute
    /// `min_depth` floor. Never triggers with one shard.
    pub fn should_rebalance(&self) -> bool {
        if self.shards.len() < 2 {
            return false;
        }
        let depths = self.queue_depths();
        let max = depths.iter().copied().max().unwrap_or(0);
        if max < self.balancer_min_depth.load(Ordering::Acquire) {
            return false;
        }
        let mean = depths.iter().sum::<u64>() / depths.len() as u64;
        let ratio_pct = self.balancer_ratio_pct.load(Ordering::Acquire);
        // max > mean * ratio_pct / 100, in integer arithmetic.
        max.saturating_mul(100) > mean.saturating_mul(ratio_pct)
    }

    /// Rotates the partition seed (golden-ratio increment — each
    /// generation is a fresh, deterministic re-hash of every flow)
    /// through the publish path, so the rotation is sequenced — and
    /// journaled — like every other control-plane mutation. Returns
    /// the new seed.
    ///
    /// **Driver contract:** the caller must quiesce its in-flight
    /// batches (wait on every outstanding [`BatchTicket`]) *before*
    /// rotating and re-partitioning, otherwise one flow's events can
    /// be in two shards' rings at once and per-flow ordering is lost.
    /// [`ShardedMachine::shard_for_flow`] picks up the new seed
    /// immediately after this returns.
    pub fn rotate_partition(&self) -> Result<u64, VmError> {
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        let next = self
            .partition
            .load(Ordering::Acquire)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.publish(CtrlRequest::SetPartitionSeed { seed: next })?;
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut shadow = self.shadow.lock().expect("shadow poisoned");
        let spans = shadow.spans_mut();
        let id = spans.alloc_id();
        spans.record(0, id, 0, Stage::RotatePartition, t0, end);
        Ok(next)
    }

    /// Runs `f` against one shard's machine and waits for the result.
    /// Every command published before the call precedes `f` in the
    /// shard's ring, so reads see it (read-your-writes for the
    /// coordinator).
    fn with_shard<R, F>(&self, shard: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut RmtMachine) -> R + Send + 'static,
    {
        let (tx, rx) = channel();
        self.send(
            shard,
            Msg::With(Box::new(move |m| {
                let _ = tx.send(f(m));
            })),
        );
        rx.recv().expect("shard worker died")
    }

    /// Runs `f` on every shard (submitting to all before collecting,
    /// so shards execute concurrently), returning results in shard
    /// order.
    fn collect<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut RmtMachine) -> R + Clone + Send + 'static,
    {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            let (tx, rx) = channel();
            let f = f.clone();
            self.send(
                shard,
                Msg::With(Box::new(move |m| {
                    let _ = tx.send(f(m));
                })),
            );
            pending.push(rx);
        }
        pending
            .into_iter()
            .map(|rx| rx.recv().expect("shard worker died"))
            .collect()
    }
}

impl Drop for ShardedMachine {
    fn drop(&mut self) {
        for h in &self.shards {
            // A dead worker (propagated panic) already dropped its
            // consumer endpoint; push_wait errors out instead of
            // spinning, and the join below re-raises.
            let _ =
                h.tx.lock()
                    .expect("ingress producer poisoned")
                    .push_wait(Msg::Shutdown);
        }
        for h in &mut self.shards {
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// First error wins, otherwise all values — cross-shard reads of
/// per-program state fail identically on every shard (the id spaces
/// are lockstep), so reporting the first is reporting all.
fn transpose<T>(results: Vec<Result<T, VmError>>) -> Result<Vec<T>, VmError> {
    results.into_iter().collect()
}

/// The shard worker loop: pop a *run* of queued messages from the
/// ingress ring and serve them in ring order. Control-plane commands
/// are ring messages like batches, so each one applies exactly
/// between the batches that were submitted around its publish.
fn worker(
    shard: usize,
    mut machine: RmtMachine,
    vcfg: &VerifierConfig,
    mut rx: spsc::Consumer<Msg>,
) {
    let mut applied = 0u64;
    let mut ctrl_errors = 0u64;
    let mut run: Vec<Msg> = Vec::new();
    'serve: loop {
        run.clear();
        let (n, waited_ns) = rx.pop_run_wait_timed(usize::MAX, &mut run);
        if n == 0 {
            // Producer endpoint gone without a Shutdown message — the
            // coordinator died mid-drop; exit like a close.
            break;
        }
        if waited_ns > 0 {
            // Background span: how long this worker sat idle before
            // the run arrived (trace id 0 — not tied to one flow).
            let spans = machine.spans_mut();
            let end = spans.now_ns();
            let id = spans.alloc_id();
            spans.record(
                0,
                id,
                0,
                Stage::IngressPark,
                end.saturating_sub(waited_ns),
                end,
            );
        }
        for msg in run.drain(..) {
            match msg {
                Msg::Batch {
                    hook,
                    mut ctxts,
                    span,
                    reply,
                } => {
                    let results = match span {
                        Some(bs) => {
                            // The traced batch: close the IngressWait
                            // span (enqueue → pop), open ShardRun,
                            // and arm the machine so its first fire
                            // parents under ShardRun.
                            let spans = machine.spans_mut();
                            let pop_ns = spans.now_ns();
                            let wait_id = spans.alloc_id();
                            spans.record(
                                bs.trace_id,
                                wait_id,
                                0,
                                Stage::IngressWait,
                                bs.enqueue_ns,
                                pop_ns,
                            );
                            let run_id = spans.alloc_id();
                            spans.set_active(bs.trace_id, run_id);
                            let results = machine.fire_batch(&hook, &mut ctxts);
                            let spans = machine.spans_mut();
                            // An unarmed hook never consumed the
                            // decision; drop it rather than leak it
                            // into an unrelated later fire.
                            spans.take_active();
                            let end = spans.now_ns();
                            spans.record(
                                bs.trace_id,
                                run_id,
                                wait_id,
                                Stage::ShardRun,
                                pop_ns,
                                end,
                            );
                            results
                        }
                        None => machine.fire_batch(&hook, &mut ctxts),
                    };
                    let _ = reply.send(BatchOutput { ctxts, results });
                }
                Msg::Ctrl(req) => {
                    // Installs re-seed with `seed ^ shard` so each
                    // shard's DP noise stream is deterministic and
                    // distinct (and shard 0 matches a single machine
                    // installed with the base seed).
                    let req = match *req {
                        CtrlRequest::Install { prog, mode, seed } => CtrlRequest::Install {
                            prog,
                            mode,
                            seed: seed ^ shard as u64,
                        },
                        other => other,
                    };
                    let t0 = machine.span_now_ns();
                    if syscall_rmt_with(&mut machine, req, vcfg).is_err() {
                        ctrl_errors += 1;
                    }
                    applied += 1;
                    let end = machine.span_now_ns();
                    let spans = machine.spans_mut();
                    let id = spans.alloc_id();
                    spans.record(0, id, 0, Stage::CtrlDrain, t0, end);
                }
                Msg::With(f) => f(&mut machine),
                Msg::Sync { reply } => {
                    let _ = reply.send(ShardStatus {
                        shard,
                        applied,
                        ctrl_apply_errors: ctrl_errors,
                        table_generation: machine.table_generation(),
                    });
                }
                Msg::Shutdown => break 'serve,
            }
        }
    }
}

/// `/ctrl/*` queries answer from the merged view; `/ctrl/shards`
/// additionally reports per-shard convergence ([`ShardStatus`] JSON).
/// Implemented on `&ShardedMachine` so a server thread can hold the
/// source while other threads keep driving the control plane.
impl crate::obs::export::MetricsSource for &ShardedMachine {
    fn obs(&mut self) -> ObsSnapshot {
        self.obs_snapshot()
    }

    fn ctrl_query(&mut self, path: &str) -> Option<String> {
        match path {
            "/ctrl/counters" => Some(rkd_testkit::json::to_string(&self.machine_counters())),
            "/ctrl/models" => Some(rkd_testkit::json::to_string(&self.obs_snapshot().models)),
            "/ctrl/shards" => Some(rkd_testkit::json::to_string(&self.sync())),
            "/ctrl/stages" => Some(rkd_testkit::json::to_string(&self.stage_profile())),
            _ => None,
        }
    }

    fn trace_json(&mut self) -> Option<String> {
        match self.ctrl(CtrlRequest::SpanRead { max: u64::MAX }) {
            Ok(CtrlResponse::Spans(snap)) => Some(span::chrome_trace_json(&snap)),
            _ => None,
        }
    }
}

rkd_testkit::impl_json_struct!(ShardStatus {
    shard,
    applied,
    ctrl_apply_errors,
    table_generation
});
