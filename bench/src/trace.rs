//! Bench-side span recorder for the traced run (`--trace 1`).
//!
//! The bench wraps every call *it* makes into a layer's public function
//! in a span. All memory is allocated up front: the first
//! [`KEEP`] spans are kept for the Chrome trace file, and every span —
//! kept or not — is folded into a per-name aggregate of self time
//! (its duration minus the part its child spans cover).

use std::time::Instant;

/// Spans kept verbatim for `trace-<workload>.json`.
pub const KEEP: usize = 100_000;
/// Deepest nesting the bench produces is 3 (`run` → `batch` → call).
const MAX_DEPTH: usize = 8;

/// Span names. One per call site kind; the index is the aggregate slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One pass of the harness loop that drives a workload (parent of
    /// everything else; its self time is the bench's own overhead).
    Harness,
    SimMemRun,
    PrefetcherOnAccess,
    PolicyCanMigrate,
    BenchCtxtBuild,
    ShardFireBatchOn,
    ShardTicketWait,
    BenchOracle,
    MachineFire,
    CtrlInsertEntry,
    CtrlRemoveEntry,
    CtrlUpdateModel,
    CtrlRemoveProg,
    LangCompile,
    VerifierVerify,
    MachineInstall,
}

pub const NAMES: usize = Name::MachineInstall as usize + 1;

impl Name {
    /// The bench's own work, not a call into a layer.
    fn is_bench(self) -> bool {
        matches!(
            self,
            Name::Harness | Name::BenchCtxtBuild | Name::BenchOracle
        )
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Harness => "bench.harness",
            Name::SimMemRun => "sim.mem_run",
            Name::PrefetcherOnAccess => "sim.prefetcher_on_access",
            Name::PolicyCanMigrate => "sim.policy_can_migrate",
            Name::BenchCtxtBuild => "bench.ctxt_build",
            Name::ShardFireBatchOn => "shard.fire_batch_on",
            Name::ShardTicketWait => "shard.ticket_wait",
            Name::BenchOracle => "bench.oracle",
            Name::MachineFire => "machine.fire",
            Name::CtrlInsertEntry => "ctrl.insert_entry",
            Name::CtrlRemoveEntry => "ctrl.remove_entry",
            Name::CtrlUpdateModel => "ctrl.update_model",
            Name::CtrlRemoveProg => "ctrl.remove_prog",
            Name::LangCompile => "lang.compile",
            Name::VerifierVerify => "verifier.verify",
            Name::MachineInstall => "machine.install",
        }
    }
}

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent in the kept list, `u32::MAX` for a root or a
    /// parent that was not kept.
    parent: u32,
    /// Event index the span belongs to.
    trace_id: u64,
}

#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    /// Index in the kept list, `u32::MAX` once that is full.
    kept: u32,
}

/// The recorder. `on == false` makes `enter`/`exit` a single branch, so
/// the untraced run pays nothing measurable for the call sites.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    kept: Vec<Span>,
    stack: Vec<Open>,
    agg: [Agg; NAMES],
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            kept: Vec::with_capacity(if on { KEEP } else { 0 }),
            stack: Vec::with_capacity(MAX_DEPTH),
            agg: [Agg::default(); NAMES],
        }
    }

    #[inline]
    pub fn enter(&mut self, name: Name, trace_id: u64) {
        if !self.on {
            return;
        }
        debug_assert!(self.stack.len() < MAX_DEPTH);
        let kept = if self.kept.len() < KEEP {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.kept);
            self.kept.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                trace_id,
            });
            (self.kept.len() - 1) as u32
        } else {
            u32::MAX
        };
        // The clock is read last so the bookkeeping above is charged to
        // the parent, not to this span.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let o = self.stack.pop().expect("exit without enter");
        let dur = end_ns - o.start_ns;
        let a = &mut self.agg[o.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        if let Some(s) = self.kept.get_mut(o.kept as usize) {
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
        }
    }

    pub fn agg(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Mean self time of `name` in nanoseconds; `None` if it never ran.
    pub fn self_mean_ns(&self, name: Name) -> Option<f64> {
        let a = self.agg(name);
        (a.count > 0).then(|| a.self_ns as f64 / a.count as f64)
    }

    /// Self time of every span that is a call into the system, as
    /// opposed to the bench's own loop, context build and oracle.
    pub fn system_self_ns(&self) -> u64 {
        Tracer::names()
            .filter(|n| !n.is_bench())
            .map(|n| self.agg(n).self_ns)
            .sum()
    }

    pub fn names() -> impl Iterator<Item = Name> {
        const ALL: [Name; NAMES] = [
            Name::Harness,
            Name::SimMemRun,
            Name::PrefetcherOnAccess,
            Name::PolicyCanMigrate,
            Name::BenchCtxtBuild,
            Name::ShardFireBatchOn,
            Name::ShardTicketWait,
            Name::BenchOracle,
            Name::MachineFire,
            Name::CtrlInsertEntry,
            Name::CtrlRemoveEntry,
            Name::CtrlUpdateModel,
            Name::CtrlRemoveProg,
            Name::LangCompile,
            Name::VerifierVerify,
            Name::MachineInstall,
        ];
        ALL.into_iter()
    }

    /// The kept spans as Chrome `trace_event` JSON ("X" complete events,
    /// microsecond timestamps; `args` carry the parent and trace id).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 112 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"trace_id\":{}}}}}",
                s.name.as_str(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                if s.parent == u32::MAX {
                    -1
                } else {
                    s.parent as i64
                },
                s.trace_id
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        t.enter(Name::Harness, 0);
        for id in 0..3 {
            t.enter(Name::MachineFire, id);
            std::hint::black_box((0..2_000).sum::<u64>());
            t.exit();
        }
        t.exit();
        let parent = t.agg(Name::Harness);
        let child = t.agg(Name::MachineFire);
        assert_eq!((parent.count, child.count), (1, 3));
        assert_eq!(parent.self_ns, parent.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"machine.fire\""));
        assert!(json.contains("\"parent\":0"));
        assert!(rkd_testkit::json::Json::parse(&json).is_ok());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter(Name::MachineFire, 1);
        t.exit();
        assert_eq!(t.agg(Name::MachineFire).count, 0);
        assert_eq!(t.chrome_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn names_are_dense_and_unique() {
        let all: Vec<Name> = Tracer::names().collect();
        assert_eq!(all.len(), NAMES);
        for (i, n) in all.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }
}
