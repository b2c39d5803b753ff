//! Fused tail-call chains: the per-action fused bodies, when they may
//! run, the bookkeeping a fused run owes the tables it skipped, and the
//! machine-side invalidation protocol (restamp / revalidate / re-fuse)
//! that keeps them exact under control-plane churn.

use super::fire::note_lookup;
use super::{HookResult, ProgStats, RmtMachine, MAX_TAIL_CHAIN};
use crate::bytecode::{Action, Insn};
use crate::obs::MachineCounters;
use crate::opt::{fuse_chain, optimize_reverified_with, FusedStepPlan, OptStats};
use crate::prog::RmtProgram;
use crate::table::{Table, TableId};

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
pub(super) struct FusedAction {
    pub(super) compiled: Action,
    /// Re-verified worst case of the fused body — the runtime fuel.
    /// Install-time checked to fit the unfused chain's combined
    /// budget, so fusion never buys extra fuel.
    pub(super) worst_case: u64,
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
    /// Whether this body may replace the unfused action in a walk that
    /// has followed `chain` tail calls: its resolution stamp must match
    /// the live table generation — a stale stamp (mutation since the
    /// last re-specialization) falls back to the unfused body, same
    /// verdicts at unfused cost, until `refresh_fused` catches up —
    /// and the collapsed links must fit the remaining dynamic
    /// tail-chain budget: a fused dispatch reached through a prior
    /// (unresolved) redirect would otherwise execute links the unfused
    /// chain's per-redirect `MAX_TAIL_CHAIN` check refuses.
    pub(super) fn is_live(&self, table_gen: u64, chain: usize) -> bool {
        self.generation == table_gen && chain + self.steps.len() <= MAX_TAIL_CHAIN
    }

    /// The fused body collapsed a statically resolved match chain into
    /// one execution that started at table `first` and ended with
    /// `verdict`; synthesize the per-table observability the chain no
    /// longer performs live. Verdicts are the fusion-time constants,
    /// bit-identical to the unfused chain's; only `insns_executed`
    /// legitimately differs (that's the win). Returns the tail calls
    /// the chain followed.
    pub(super) fn account(
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

impl RmtMachine {
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
    pub(super) fn refresh_fused(&mut self, recompute: Option<u32>, touched: Option<TableId>) {
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
            if let Insn::TailCall { table } = insn {
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
}
