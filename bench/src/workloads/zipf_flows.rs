//! `zipf_flows` — sharded ingress, match and decision cache.
//!
//! One shard (driver + one worker, the host's two CPUs) behind a
//! 4-table pipeline (Exact 4,096, LPM 256, Ternary 256, Range 32) fed
//! Zipf(1.1) traffic over 65,536 flows, 256-event batches, 4 tickets
//! in flight. The flow population is 64 times the default decision
//! cache, so both its hit and its miss path run; action and ML cost are
//! about nil. The only workload that sees `shard.rs` and `spsc.rs`.
//!
//! event = one flow event, whose verdict is readable when its batch's
//! ticket resolves (so event latency is submit → `wait` return); the
//! workload is read-only, no reconfiguration.

use super::{delta, Finish, Workload};
use crate::inputs::{self, Rules, BATCH, IN_FLIGHT};
use crate::probes;
use crate::rec::{ns_since, Rec};
use crate::reference;
use crate::sut::{self, Counters, FlowsSut, Ticket};
use crate::trace::Name;
use std::collections::VecDeque;
use std::time::Instant;

/// One event in this many is re-evaluated by the reference.
const CHECK_EVERY: usize = 64;

pub struct ZipfFlows {
    rules: Rules,
    /// Pre-generated flow ids, replayed round-robin.
    stream: Vec<u64>,
    cursor: usize,
    sut: FlowsSut,
    in_flight: VecDeque<(Ticket, Instant, u64)>,
    batches: u64,
    base: Counters,
    ingress_base: (u64, u64),
    machine_spans: bool,
}

impl ZipfFlows {
    /// Waits for the oldest ticket, records its latency and re-evaluates
    /// one event in 64 against the reference.
    fn complete_oldest(&mut self, rec: &mut Rec) {
        let Some((ticket, submitted, id)) = self.in_flight.pop_front() else {
            return;
        };
        rec.tracer.enter(Name::ShardTicketWait, id);
        let (ctxts, results) = ticket.wait();
        rec.tracer.exit();
        if rec.stamp_events {
            rec.event_ns.record(ns_since(submitted));
        }
        rec.tracer.enter(Name::BenchOracle, id);
        for i in (0..ctxts.len()).step_by(CHECK_EVERY) {
            let fields = sut::context_fields(&ctxts[i]);
            let want = reference::verdicts(&self.rules, fields);
            let got = sut::verdicts(&results[i]);
            rec.check(got.eq(want.iter().enumerate().map(|(t, &v)| (t as u16, v))));
        }
        rec.tracer.exit();
        rec.events += ctxts.len() as u64;
        rec.attempted += ctxts.len() as u64;
    }
}

impl Workload for ZipfFlows {
    fn setup(seed: u64) -> ZipfFlows {
        let (population, stream) =
            sut::zipf_population_and_stream(inputs::FLOW_POOL, &mut inputs::rng_for(seed, "zipf"));
        let rules = inputs::rules(seed, &population);
        let mut flows = FlowsSut::new();
        assert!(flows.span_sampling(64), "machine spans disarm");
        assert!(flows.install(&rules), "pipeline installs");
        ZipfFlows {
            rules,
            stream,
            cursor: 0,
            sut: flows,
            in_flight: VecDeque::with_capacity(IN_FLIGHT + 1),
            batches: 0,
            base: Counters::default(),
            ingress_base: (0, 0),
            machine_spans: false,
        }
    }

    fn arm_machine_spans(&mut self) {
        assert!(self.sut.span_sampling(0), "machine spans arm");
        self.machine_spans = true;
    }

    fn input_checksum(&self) -> u64 {
        inputs::checksum(
            self.stream
                .iter()
                .copied()
                .chain(self.rules.checksum_words()),
        )
    }

    /// One batch: retire the oldest ticket once four are in flight,
    /// build the next 256 contexts, submit them.
    fn step(&mut self, rec: &mut Rec) {
        let id = self.batches;
        rec.tracer.enter(Name::Harness, id);
        if self.in_flight.len() == IN_FLIGHT {
            self.complete_oldest(rec);
        }
        rec.tracer.enter(Name::BenchCtxtBuild, id);
        let end = self.cursor + BATCH;
        let ctxts = self.stream[self.cursor..end]
            .iter()
            .map(|&f| sut::context(inputs::flow_fields(f)))
            .collect();
        self.cursor = if end + BATCH > self.stream.len() {
            0
        } else {
            end
        };
        rec.tracer.exit();
        rec.tracer.enter(Name::ShardFireBatchOn, id);
        let submitted = Instant::now();
        let ticket = self.sut.submit(ctxts);
        rec.tracer.exit();
        self.in_flight.push_back((ticket, submitted, id));
        self.batches += 1;
        rec.tracer.exit();
    }

    fn start_measuring(&mut self) {
        self.base = self.sut.counters();
        self.ingress_base = self.sut.ingress();
    }

    fn finish(&mut self, rec: &mut Rec) -> Finish {
        while !self.in_flight.is_empty() {
            self.complete_oldest(rec);
        }
        let counters = delta(self.sut.counters(), self.base);
        rec.failed += counters.aborts;
        let (stalls, parks) = self.sut.ingress();
        let mut facts = vec![
            ("batch_events", BATCH as f64, "count"),
            ("tickets_in_flight", IN_FLIGHT as f64, "count"),
            (
                "shard.full_stalls",
                (stalls - self.ingress_base.0) as f64,
                "count",
            ),
            ("shard.parks", (parks - self.ingress_base.1) as f64, "count"),
        ];
        // The shard layer as the traced run saw it: the bench's spans
        // around its own calls, the machine's own stage profile, and what
        // the same events cost on one machine without a shard around it.
        if self.machine_spans {
            let span = |name| rec.tracer.self_mean_ns(name).expect("every batch has one");
            let s = self.sut.stage_means();
            facts.extend([
                ("shard.submit_ns", span(Name::ShardFireBatchOn), "ns"),
                ("shard.wait_ns", span(Name::ShardTicketWait), "ns"),
                ("stage.ingress_wait_ns", s.ingress_wait, "ns"),
                ("stage.shard_run_ns", s.shard_run, "ns"),
                ("stage.fire_ns", s.fire, "ns"),
                ("stage.cache_probe_ns", s.cache_probe, "ns"),
                ("stage.run_pipeline_ns", s.run_pipeline, "ns"),
                ("stage.table_lookup_ns", s.table_lookup, "ns"),
                ("stage.cache_finish_ns", s.cache_finish, "ns"),
                ("stage.lookups_per_fire", s.lookups_per_fire, "count"),
                // What `fire` does not hand on to a child stage.
                (
                    "stage.residue_pct",
                    100.0 * (s.fire - s.cache_probe - s.run_pipeline - s.cache_finish) / s.fire,
                    "%",
                ),
                (
                    "machine.fire_batch_ns",
                    probes::fire_batch_ns(&self.rules, &self.stream),
                    "ns",
                ),
            ]);
        }
        Finish {
            // No model decides here; the reference does.
            quality_pct: 100.0 * (rec.checked - rec.mismatches) as f64 / rec.checked.max(1) as f64,
            counters,
            facts,
        }
    }
}
