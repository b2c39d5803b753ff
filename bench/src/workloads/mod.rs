//! The four workloads. Each file imports `crate::sut` and nothing from
//! the `rkd-*` crates; README.md says why each one exists.

pub mod ctrl_churn;
pub mod prefetch_video;
pub mod sched_mlp;
pub mod zipf_flows;

use crate::rec::Rec;
use crate::sut::Counters;

pub const NAMES: [&str; 4] = ["prefetch_video", "sched_mlp", "zipf_flows", "ctrl_churn"];

/// What a workload reports once its measured run is over.
pub struct Finish {
    /// `decision_quality_pct`: deterministic for a seed.
    pub quality_pct: f64,
    /// The machine's own counters over the measured run.
    pub counters: Counters,
    /// Workload-specific facts for the human-readable output and the
    /// JSON file: `(name, value, unit)`.
    pub facts: Vec<(&'static str, f64, &'static str)>,
}

/// A closed-loop workload driven by one thread.
pub trait Workload: Sized {
    /// Input generation, training, build, verify and install: everything
    /// before the first event.
    fn setup(seed: u64) -> Self;

    /// Arms the machine's own span sampling at 1-in-1, where the
    /// workload can reach it (traced run only).
    fn arm_machine_spans(&mut self) {}

    /// FNV-1a of the generated inputs.
    fn input_checksum(&self) -> u64;

    /// The smallest unit the runner repeats. Adds to `rec.events`.
    fn step(&mut self, rec: &mut Rec);

    /// End of warm-up: forget everything counted so far.
    fn start_measuring(&mut self);

    /// End of the measured run: drain, count failures into `rec`, run
    /// the output checks that need a whole run.
    fn finish(&mut self, rec: &mut Rec) -> Finish;
}

/// Counter deltas over the measured run.
pub fn delta(now: Counters, base: Counters) -> Counters {
    Counters {
        fires: now.fires - base.fires,
        table_hits: now.table_hits - base.table_hits,
        table_misses: now.table_misses - base.table_misses,
        aborts: now.aborts - base.aborts,
        tail_calls: now.tail_calls - base.tail_calls,
        cache_hits: now.cache_hits - base.cache_hits,
        cache_misses: now.cache_misses - base.cache_misses,
        cache_invalidations: now.cache_invalidations - base.cache_invalidations,
        cache_evictions: now.cache_evictions - base.cache_evictions,
    }
}
