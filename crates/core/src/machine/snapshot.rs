//! Reading the machine out: the observability surface (counters,
//! histograms, traces, spans, flight frames, the metrics exporter) and
//! the complete-state [`MachineSnapshot`] with its verifier-gated
//! restore.

use super::fire::TokenBucket;
use super::{ExecMode, ProgStats, RmtMachine};
use crate::dp::PrivacyLedger;
use crate::error::VmError;
use crate::maps::{MapInstance, MapState};
use crate::obs::span::{self, SpanCollector, SpanSnapshot, StageProfile};
use crate::obs::{
    FlightFrame, FlightHookPoint, FlightModelPoint, FlightSnapshot, HookStats, Log2Hist,
    MachineCounters, ModelStats, ModelStatsState, Obs, ObsConfig, ObsSnapshot, ObsState, ProgHist,
    TraceSnapshot,
};
use crate::opt::OptStats;
use crate::prog::RmtProgram;
use crate::table::{Entry, TableStats};
use crate::verifier::{verify_with, VerifierConfig};
use rkd_testkit::rng::StdRng;
use std::time::Instant;

impl RmtMachine {
    /// Captures one flight-recorder frame from current obs state.
    pub(super) fn capture_flight_frame(&mut self) {
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
    pub fn machine_counters(&self) -> MachineCounters {
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
        self.obs.counters = MachineCounters::default();
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
        m.set_decision_cache_capacity(snap.decision_cache_cap);
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
