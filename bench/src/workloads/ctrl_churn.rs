//! `ctrl_churn` — reconfiguration under fire.
//!
//! A standalone machine running an 8-stage keyed tail-call chain (fused
//! at O2) while the control plane keeps changing it. It uses the same
//! table, cache, optimizer and machine layers as the read-only
//! workloads, but for writes: generation bumps, fusion restamp /
//! revalidate / re-fuse, cache invalidation. A lookup or cache change
//! that speeds `zipf_flows` by making mutation dearer shows here.
//!
//! One iteration: `InsertEntry`, 8 fires, `RemoveEntry`, 8 fires (so
//! every mutation is followed by a checked fire); every 64th iteration
//! an `UpdateModel` of the Figure 1 program's `dt_1` slot; every
//! 4,096th a `Remove` and a compile + verify + install of that program.
//!
//! event = one fire; reconfiguration = one `syscall_rmt` mutation.

use super::{delta, Finish, Workload};
use crate::inputs::{self, ChurnPlan, FIRES_PER_MUTATION, REINSTALL_EVERY, UPDATE_MODEL_EVERY};
use crate::rec::{ns_since, Rec};
use crate::sut::{self, ChurnSut, Counters};
use crate::trace::Name;
use std::time::Instant;

pub struct CtrlChurn {
    plan: ChurnPlan,
    expected: Vec<(u16, i64)>,
    sut: ChurnSut,
    iteration: u64,
    fires: u64,
    base: Counters,
}

impl CtrlChurn {
    /// Eight fires, each checked against the chain's constant verdicts.
    fn fire_burst(&mut self, rec: &mut Rec) {
        let mut t = Instant::now();
        for _ in 0..FIRES_PER_MUTATION {
            rec.tracer.enter(Name::MachineFire, self.fires);
            let r = self.sut.fire(self.fires as i64);
            rec.tracer.exit();
            rec.check(sut::verdicts(&r).eq(self.expected.iter().copied()));
            drop(r);
            self.fires += 1;
            if rec.stamp_events {
                let now = Instant::now();
                rec.event_ns.record((now - t).as_nanos() as u64);
                t = now;
            }
        }
        rec.events += FIRES_PER_MUTATION as u64;
        rec.attempted += FIRES_PER_MUTATION as u64;
    }

    /// Times one mutation into the reconfiguration histogram.
    fn mutate(&mut self, rec: &mut Rec, name: Name, op: impl FnOnce(&mut ChurnSut) -> bool) {
        rec.tracer.enter(name, self.iteration);
        let t = Instant::now();
        let ok = op(&mut self.sut);
        rec.reconfig_ns.record(ns_since(t));
        rec.tracer.exit();
        rec.attempted += 1;
        rec.failed += !ok as u64;
    }

    fn reinstall(&mut self, rec: &mut Rec) {
        rec.tracer.enter(Name::CtrlRemoveProg, self.iteration);
        let removed = self.sut.remove_figure1();
        rec.tracer.exit();
        let t = Instant::now();
        let installed = self.sut.install_figure1(&mut rec.tracer, self.iteration);
        rec.install_ns.record(ns_since(t));
        rec.attempted += 2;
        rec.failed += !removed as u64 + !installed as u64;
    }
}

impl Workload for CtrlChurn {
    fn setup(seed: u64) -> CtrlChurn {
        let plan = inputs::churn_plan(seed);
        let tree = sut::figure1_tree(&mut inputs::rng_for(seed, "tree"));
        CtrlChurn {
            expected: plan.expected_verdicts(),
            sut: ChurnSut::install(&plan, tree),
            plan,
            iteration: 0,
            fires: 0,
            base: Counters::default(),
        }
    }

    fn input_checksum(&self) -> u64 {
        inputs::checksum(self.plan.checksum_words())
    }

    fn step(&mut self, rec: &mut Rec) {
        rec.tracer.enter(Name::Harness, self.iteration);
        let (table, key) = self.plan.churn[self.iteration as usize % self.plan.churn.len()];
        self.mutate(rec, Name::CtrlInsertEntry, |s| s.insert_entry(table, key));
        self.fire_burst(rec);
        self.mutate(rec, Name::CtrlRemoveEntry, |s| s.remove_entry(table, key));
        self.fire_burst(rec);
        self.iteration += 1;
        if self.iteration.is_multiple_of(UPDATE_MODEL_EVERY) {
            let push = self.sut.model_push_request();
            self.mutate(rec, Name::CtrlUpdateModel, |s| s.update_model(push));
        }
        if self.iteration.is_multiple_of(REINSTALL_EVERY) {
            self.reinstall(rec);
        }
        rec.tracer.exit();
    }

    fn start_measuring(&mut self) {
        self.base = self.sut.counters();
    }

    fn finish(&mut self, rec: &mut Rec) -> Finish {
        let counters = delta(self.sut.counters(), self.base);
        rec.failed += counters.aborts;
        Finish {
            // No model decides here; the constant expectation does.
            quality_pct: 100.0 * (rec.checked - rec.mismatches) as f64 / rec.checked.max(1) as f64,
            counters,
            facts: vec![(
                "chain_fused_links",
                self.sut.chain_fused_links() as f64,
                "count",
            )],
        }
    }
}
