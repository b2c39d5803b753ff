//! `prefetch_video` — paper case study #1 / Table 1.
//!
//! The video-resize trace replayed through `rkd_sim::mem::sim::run`
//! with the learned prefetcher. The only workload with online learning
//! on the path: two hook fires per access, tree inference, ring and
//! hash maps, a tail-call cascade, and a synchronous retrain + model
//! push every 256 samples — which is most of the wall time.
//!
//! event = one page access; reconfiguration = one `on_access` call
//! during which the prefetcher retrained and pushed its models.

use super::{delta, Finish, Workload};
use crate::inputs::{self, VideoShape};
use crate::rec::Rec;
use crate::sut::{Counters, PassOutcome, PrefetchSut, VideoTrace};

/// Passes of the determinism check: 42,000 accesses, 164 retrains.
const REFERENCE_PASSES: usize = 40;

pub struct PrefetchVideo {
    shape: VideoShape,
    trace: VideoTrace,
    sut: PrefetchSut,
    base: Counters,
    aborts_base: u64,
    retrains_base: u64,
    total: PassOutcome,
}

/// A fresh prefetcher over a fixed number of passes: everything it
/// decides is a function of the seed alone.
fn reference_run(trace: &VideoTrace) -> (u64, u64, PassOutcome) {
    let mut quiet = Rec::new(false);
    let mut sut = PrefetchSut::install();
    let mut total = PassOutcome::default();
    for _ in 0..REFERENCE_PASSES {
        total.merge(&sut.run_pass(trace, &mut quiet));
    }
    (sut.retrains(), sut.aborts(), total)
}

impl Workload for PrefetchVideo {
    fn setup(seed: u64) -> PrefetchVideo {
        let shape = inputs::video_shape(seed);
        PrefetchVideo {
            shape,
            trace: VideoTrace::generate(&shape),
            sut: PrefetchSut::install(),
            base: Counters::default(),
            aborts_base: 0,
            retrains_base: 0,
            total: PassOutcome::default(),
        }
    }

    fn input_checksum(&self) -> u64 {
        inputs::checksum(self.trace.pages().iter().copied())
    }

    fn step(&mut self, rec: &mut Rec) {
        let outcome = self.sut.run_pass(&self.trace, rec);
        self.total.merge(&outcome);
    }

    fn start_measuring(&mut self) {
        self.base = self.sut.counters();
        self.aborts_base = self.sut.aborts();
        self.retrains_base = self.sut.retrains();
        self.total = PassOutcome::default();
    }

    fn finish(&mut self, rec: &mut Rec) -> Finish {
        // Aborts are the cold-start fires before the first model push;
        // warm-up absorbs them, so the measured run must see none.
        rec.failed += self.sut.aborts() - self.aborts_base;
        let (retrains, cold_aborts, first) = reference_run(&self.trace);
        let (retrains_again, _, second) = reference_run(&self.trace);
        rec.check(retrains == retrains_again);
        rec.check(first == second);
        Finish {
            quality_pct: first.coverage_pct(),
            counters: delta(self.sut.counters(), self.base),
            facts: vec![
                ("src_rows", self.shape.src_rows as f64, "count"),
                ("accesses_per_pass", self.trace.len() as f64, "count"),
                (
                    "retrains",
                    (self.sut.retrains() - self.retrains_base) as f64,
                    "count",
                ),
                ("measured_coverage_pct", self.total.coverage_pct(), "%"),
                ("reference_retrains", retrains as f64, "count"),
                (
                    "reference_prefetches_issued",
                    first.prefetches_issued as f64,
                    "count",
                ),
                ("cold_start_aborts", cold_aborts as f64, "count"),
            ],
        }
    }
}
