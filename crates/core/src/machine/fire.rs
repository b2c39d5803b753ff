//! The fire path. [`RmtMachine::fire`] and [`RmtMachine::fire_batch`]
//! share one walk: per firing, probe the decision cache, run every
//! listener's pipeline — per table `resolve_step` (replay or lookup) →
//! `dispatch` (fused or unfused body through the interpreter) →
//! `apply_outcome` (verdicts, rate-limited effects, tail-call
//! redirect) — and publish the cache outcome.

use super::cache::{CacheRun, Replayed};
use super::{HookResult, HookSlot, Installed, ProgStats, RmtMachine, MAX_TAIL_CHAIN};
use crate::ctxt::{Ctxt, FieldId};
use crate::error::VmError;
use crate::interp::{run_action, ActionOutcome, Effect, ExecEnv};
use crate::obs::span::{self, Stage};
use crate::obs::{MachineCounters, Obs, TraceEvent, TraceKind};
use crate::table::{ActionId, Table, TableId};
use std::collections::{BTreeMap, HashMap};
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

/// Token bucket guarding resource-emitting actions.
#[derive(Clone, Debug)]
pub(super) struct TokenBucket {
    capacity: u64,
    tokens: u64,
    refill_per_tick: u64,
    last_tick: u64,
}

impl TokenBucket {
    pub(super) fn new(capacity: u64, refill_per_tick: u64) -> TokenBucket {
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_tick,
            last_tick: 0,
        }
    }

    /// Current fill level as `(tokens, last_tick)` for snapshotting.
    pub(super) fn level(&self) -> (u64, u64) {
        (self.tokens, self.last_tick)
    }

    /// Overlays a snapshotted fill level; `tokens` is clamped to the
    /// capacity so a hand-edited snapshot cannot mint extra budget.
    pub(super) fn restore_level(&mut self, tokens: u64, last_tick: u64) {
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
pub(super) struct FireCtx<'a> {
    pub(super) obs: &'a mut Obs,
    /// Reusable pipeline queue (see [`RmtMachine::scratch_queue`]).
    scratch_queue: &'a mut Vec<usize>,
    /// Reusable probe-key buffer (see [`RmtMachine::key_scratch`]).
    pub(super) key_scratch: &'a mut Vec<u64>,
    /// Reusable table match-key buffer (see
    /// [`RmtMachine::lookup_scratch`]).
    lookup_scratch: &'a mut Vec<u64>,
    tick: u64,
    pub(super) table_gen: u64,
    pub(super) cache_cap: usize,
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

/// Counts one table lookup's outcome in the table's own statistics and
/// the machine counters.
pub(super) fn note_lookup(t: &Table, counters: &mut MachineCounters, hit: bool) {
    if hit {
        t.note_hit();
        counters.table_hits += 1;
    } else {
        t.note_miss();
        counters.table_misses += 1;
    }
}

impl RmtMachine {
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
    /// always, latency histograms when [`crate::obs::ObsConfig::timing`] is on
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
            lookup_scratch: &mut self.lookup_scratch,
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
        let (listeners, mut cache) = self.cache_probe(slot, ctxt);
        self.close_span(probe_span, Stage::CacheProbe);
        for (pid, pipeline) in listeners {
            let Some(inst) = programs.get_mut(pid) else {
                continue;
            };
            inst.stats.invocations += 1;
            self.run_pipeline(inst, *pid, pipeline, &mut cache, ctxt, &mut result);
        }
        let finish_span = self.open_span(self.fire_span);
        self.cache_finish(cache);
        self.close_span(finish_span, Stage::CacheFinish);
        self.close_span(self.fire_span, Stage::Fire);
        if let (Some(start), Some(end)) = (t0, self.prev) {
            slot.hist
                .record(end.duration_since(start).as_nanos() as u64);
        }
        result
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
        cache: &mut CacheRun<'_>,
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
    /// resolve live (recording if the cache is recording), count the
    /// hit or miss, and return the action to run with its argument
    /// (`None` = miss with no default action). The live key goes into
    /// the reusable lookup scratch, so a miss allocates nothing.
    fn resolve_step(
        &mut self,
        t: &Table,
        walk: &Walk,
        cache: &mut CacheRun<'_>,
        ctxt: &Ctxt,
    ) -> (Option<ActionId>, i64) {
        let entry = match cache.replay_next(walk.pid, walk.ti, t, ctxt) {
            Replayed::Step(entry) => entry,
            // Empty table: the default action fires regardless of the
            // key — skip extraction and memoize a key-independent step.
            Replayed::Live if cache.enabled() && t.is_empty() => {
                cache.record(walk.pid, walk.ti, None, None);
                None
            }
            Replayed::Live => {
                ctxt.key_into(&t.def().key_fields, self.lookup_scratch);
                let span = self.open_span(walk.span);
                let entry = t.resolve_indexed(self.lookup_scratch).map(|(ei, _)| ei);
                self.close_span(span, Stage::TableLookup);
                cache.record(walk.pid, walk.ti, Some(self.lookup_scratch), entry);
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

    /// Runs the body bound to `action_id` — the fused chain body when
    /// `FusedAction::is_live` says it may stand in, else the unfused
    /// one; `Some(action_id)` back says the fused body ran.
    fn dispatch(
        &mut self,
        inst: &mut Installed,
        action_id: ActionId,
        arg: i64,
        chain: usize,
        ctxt: &mut Ctxt,
    ) -> (Result<ActionOutcome, VmError>, Option<ActionId>) {
        let ai = action_id.0 as usize;
        let fused = inst
            .fused
            .get(ai)
            .and_then(|f| f.as_ref())
            .filter(|f| f.is_live(self.table_gen, chain));
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
        (
            run_action(body, fuel, arg, &mut env),
            fused.map(|_| action_id),
        )
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
}
