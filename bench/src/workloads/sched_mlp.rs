//! `sched_mlp` — paper case study #2 / Table 2.
//!
//! The CFS decision log of streamcluster(8) replayed through
//! `MlPolicy::can_migrate`: a `[16,16]` 8-bit MLP behind one
//! default-only table. Action execution and integer ML do almost all
//! the work; table, cache, shard and ctrl are bypassed.
//!
//! event = one migration decision; no reconfiguration.

use super::{delta, Finish, Workload};
use crate::inputs;
use crate::rec::Rec;
use crate::sut::{self, Counters, Decision, PolicySut};
use crate::trace::Name;
use std::time::Instant;

/// Decisions per runner step: about 2 ms of replay, so slices of equal
/// step count are of equal length.
const STEP_DECISIONS: usize = 2_048;

pub struct SchedMlp {
    log: Vec<Decision>,
    /// `QuantMlp::predict` on each logged feature vector.
    expected: Vec<bool>,
    policy: PolicySut,
    /// Next logged decision to replay.
    cursor: usize,
    base: Counters,
    aborted_base: u64,
    decisions: u64,
}

impl Workload for SchedMlp {
    fn setup(seed: u64) -> SchedMlp {
        let fixed = inputs::SCHED_MODEL_SEED;
        let mut log = sut::record_cfs_log(&mut inputs::rng_for(fixed, "sched"));
        let model = sut::sched_train(&log, &mut inputs::rng_for(fixed, "train"));
        sut::shuffle(&mut log, &mut inputs::rng_for(seed, "replay"));
        let expected = log.iter().map(|d| model.predict(d)).collect();
        let policy = PolicySut::install(&model);
        SchedMlp {
            log,
            expected,
            policy,
            cursor: 0,
            base: Counters::default(),
            aborted_base: 0,
            decisions: 0,
        }
    }

    fn input_checksum(&self) -> u64 {
        inputs::checksum(self.log.iter().flat_map(|d| d.words()))
    }

    /// The next 2,048 logged decisions.
    fn step(&mut self, rec: &mut Rec) {
        let end = (self.cursor + STEP_DECISIONS).min(self.log.len());
        let chunk = &self.log[self.cursor..end];
        let expected = &self.expected[self.cursor..end];
        self.cursor = if end == self.log.len() { 0 } else { end };
        // Consecutive stamps: one clock read per event, and only in
        // latency slices.
        let mut t = Instant::now();
        for (d, &want) in chunk.iter().zip(expected) {
            rec.tracer.enter(Name::PolicyCanMigrate, self.decisions);
            let got = self.policy.can_migrate(d);
            rec.tracer.exit();
            rec.check(got == want);
            self.decisions += 1;
            if rec.stamp_events {
                let now = Instant::now();
                rec.event_ns.record((now - t).as_nanos() as u64);
                t = now;
            }
        }
        rec.events += chunk.len() as u64;
        rec.attempted += chunk.len() as u64;
    }

    fn start_measuring(&mut self) {
        self.base = self.policy.counters();
        self.aborted_base = self.policy.aborted();
    }

    fn finish(&mut self, rec: &mut Rec) -> Finish {
        rec.failed += self.policy.aborted() - self.aborted_base;
        // Every verdict was checked against `expected`, so the run's
        // agreement with CFS is `expected`'s agreement with the labels.
        let agree = self
            .log
            .iter()
            .zip(&self.expected)
            .filter(|(d, &e)| d.cfs == e)
            .count();
        Finish {
            quality_pct: 100.0 * agree as f64 / self.log.len() as f64,
            counters: delta(self.policy.counters(), self.base),
            facts: vec![
                ("logged_decisions", self.log.len() as f64, "count"),
                (
                    "cfs_migrate_pct",
                    100.0 * self.log.iter().filter(|d| d.cfs).count() as f64
                        / self.log.len() as f64,
                    "%",
                ),
            ],
        }
    }
}
