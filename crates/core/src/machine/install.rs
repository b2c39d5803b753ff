//! The control plane: installing and removing programs, re-optimizing
//! them, entry / model / map updates, and the per-program read-backs.
//! Every mutation that can change a match outcome bumps the table
//! generation and re-specializes fused chains before returning.

use super::fire::TokenBucket;
use super::{ExecMode, Installed, ProgId, ProgStats, RmtMachine};
use crate::bytecode::{Action, ModelSlot};
use crate::ctxt::FieldId;
use crate::dp::PrivacyLedger;
use crate::error::VmError;
use crate::maps::{MapDef, MapId, MapInstance};
use crate::obs::{Log2Hist, ModelStats, ModelStatsSnapshot, TraceEvent, TraceKind};
use crate::opt::{optimize_reverified, OptLevel, OptStats};
use crate::prog::{ModelSpec, RmtProgram};
use crate::table::{Entry, MatchKey, Table, TableId, TableStats};
use crate::verifier::VerifiedProgram;
use rkd_testkit::rng::{SeedableRng, StdRng};

impl RmtMachine {
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
            // The cache metadata is computed below, once the program is in.
            self.hook_index
                .entry(hook.clone())
                .or_default()
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
    /// The switch lands like any other table mutation: it bumps the
    /// table generation, which simultaneously invalidates the decision
    /// cache (decisions memoized under the old bodies) and every fused
    /// chain stamped under the old level, then chains are
    /// re-specialized for the new level. Without the bump, a replica
    /// that recompiled could keep serving verdicts memoized or fused
    /// under the previous level.
    pub fn set_opt_level(&mut self, id: ProgId, level: OptLevel) -> Result<(), VmError> {
        let inst = self.installed_mut(id)?;
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
        Ok(self.installed(id)?.opt_stats)
    }

    /// An installed program's current optimization level.
    pub fn opt_level(&self, id: ProgId) -> Result<OptLevel, VmError> {
        Ok(self.installed(id)?.prog.opt_level)
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

    /// Inserts or replaces a runtime entry (control-plane API).
    pub fn insert_entry(
        &mut self,
        prog: ProgId,
        table: TableId,
        entry: Entry,
    ) -> Result<(), VmError> {
        let inst = self.installed_mut(prog)?;
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
        key: &MatchKey,
    ) -> Result<bool, VmError> {
        let inst = self.installed_mut(prog)?;
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
        slot: ModelSlot,
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
        pushes: Vec<(ModelSlot, ModelSpec)>,
    ) -> Result<(), VmError> {
        // Not `installed_mut`: the swap loop below pushes trace events
        // while `inst` is live, so only `programs` may be borrowed.
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
        slot: ModelSlot,
        predicted: i64,
        actual: i64,
    ) -> Result<(), VmError> {
        let cfg = self.obs.cfg;
        let inst = self.installed_mut(prog)?;
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
        slot: ModelSlot,
    ) -> Result<ModelStatsSnapshot, VmError> {
        let inst = self.installed(prog)?;
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
        Ok(self.installed(prog)?.stats)
    }

    /// Reads a table's hit/miss statistics.
    pub fn table_stats(&self, prog: ProgId, table: TableId) -> Result<TableStats, VmError> {
        let inst = self.installed(prog)?;
        inst.tables
            .get(table.0 as usize)
            .map(|t| t.stats())
            .ok_or(VmError::NoSuchTable(table.0))
    }

    /// Remaining privacy budget in milli-epsilon.
    pub fn privacy_remaining(&self, prog: ProgId) -> Result<u64, VmError> {
        Ok(self.installed(prog)?.ledger.remaining_milli_eps())
    }

    /// Control-plane map write (e.g. seeding monitoring state).
    pub fn map_update(
        &mut self,
        prog: ProgId,
        map: MapId,
        key: u64,
        value: i64,
    ) -> Result<(), VmError> {
        let inst = self.installed_mut(prog)?;
        inst.maps
            .get_mut(map.0 as usize)
            .ok_or(VmError::MapError("no such map"))?
            .update(key, value)
    }

    /// Control-plane map delete, with the kind-specific meaning of
    /// [`crate::maps::MapInstance::delete`]; returns whether anything
    /// was removed.
    pub fn map_delete(&mut self, prog: ProgId, map: MapId, key: u64) -> Result<bool, VmError> {
        let inst = self.installed_mut(prog)?;
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
        let inst = self.installed_mut(prog)?;
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
    pub fn map_def(&self, prog: ProgId, map: MapId) -> Result<&MapDef, VmError> {
        self.installed(prog)?
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
        let inst = self.installed(prog)?;
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

    /// Current table generation (bumped on every control-plane
    /// table/model mutation; exposed for invalidation tests).
    pub fn table_generation(&self) -> u64 {
        self.table_gen
    }
}
