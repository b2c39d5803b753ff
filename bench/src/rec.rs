//! What a workload writes while it runs: histograms, counts and spans.
//! Everything is allocated before the timed loop starts.

use crate::est::Hist;
use crate::trace::Tracer;
use std::time::Instant;

pub struct Rec {
    /// Set by the runner for latency slices: stamp every event.
    pub stamp_events: bool,
    /// Per-event latency of the current latency slice (the runner
    /// folds and clears it at each slice edge).
    pub event_ns: Hist,
    /// One reconfiguration as its caller sees it, over the whole run:
    /// too rare for a tail per slice.
    pub reconfig_ns: Hist,
    /// Program source → verified, installed and armed, likewise.
    pub install_ns: Hist,
    pub tracer: Tracer,
    /// Events completed since the runner last read it.
    pub events: u64,
    /// Operations attempted (events + reconfigurations + installs).
    pub attempted: u64,
    /// Fires that aborted or gave no verdict, and control requests that
    /// returned an error.
    pub failed: u64,
    /// Outputs that disagree with the workload's reference.
    pub mismatches: u64,
    /// Outputs compared against the reference.
    pub checked: u64,
}

impl Rec {
    pub fn new(trace: bool) -> Rec {
        Rec {
            stamp_events: false,
            event_ns: Hist::new(),
            reconfig_ns: Hist::new(),
            install_ns: Hist::new(),
            tracer: Tracer::new(trace),
            events: 0,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            checked: 0,
        }
    }

    /// Clears everything measured so far (end of warm-up).
    pub fn reset(&mut self) {
        let trace = self.tracer.on;
        *self = Rec::new(trace);
    }

    #[inline]
    pub fn check(&mut self, ok: bool) {
        self.checked += 1;
        self.mismatches += !ok as u64;
    }
}

/// Nanoseconds since `t`.
#[inline]
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
