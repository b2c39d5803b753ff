//! Drives one workload: set-up, warm-up, the sliced measured run, the
//! output checks, and the report. The untraced run yields the
//! end-to-end metrics; the traced run (`--trace 1`) is a separate,
//! shorter run that yields the workload's own per-layer ones. The layer
//! probes, which no workload owns, are `probes::run` (`--probes`).

use crate::est::{SliceLog, Summary, SLICES};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::rec::{ns_since, Rec};
use crate::trace::Tracer;
use crate::workloads::{Finish, Workload};
use crate::Args;
use rkd_testkit::json::Json;
use std::time::Instant;

/// `setup_s` is the median of at least this many set-ups, and of as many
/// more (up to the cap) as fit in [`SETUP_BUDGET_S`]: a set-up of 30 µs
/// needs a hundred repeats before its median stands still.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 101;
const SETUP_BUDGET_S: f64 = 0.5;
/// Warm-up as a share of `--seconds`; the traced run's untraced baseline
/// and its traced segment take this share each.
const WARMUP_SHARE: f64 = 1.0 / 20.0;
const TRACED_SHARE: f64 = 1.0 / 4.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What this host cannot measure (ROADMAP 1d): stated, never a pass.
pub fn unmeasured_scaling() -> String {
    format!("multi-shard scaling (nproc={})", nproc())
}

/// A numeric field of `/proc/self/status` (kB for the memory ones).
fn proc_status(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The load shape is one driver thread and at most `nproc` threads in
/// all; more would measure the host's scheduler, not the machine.
fn assert_threads(name: &str) {
    if let Some(threads) = proc_status("Threads:") {
        assert!(
            threads as usize <= nproc(),
            "{name}: {threads} threads on {} CPUs",
            nproc()
        );
    }
}

/// One reported number.
struct Line {
    name: String,
    value: f64,
    unit: &'static str,
    /// Quartiles and slice count, for medians taken over slices.
    spread: Option<Summary>,
}

/// What a run measured, and what it could not (`(what, why)`): a metric
/// is in one list or the other, never a stand-in number.
struct Report {
    workload: String,
    lines: Vec<Line>,
    unmeasured: Vec<(String, String)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines.push(Line {
            name: name.into(),
            value,
            unit,
            spread: None,
        });
    }

    /// The median over slices; no slices, no line.
    fn put_sliced(&mut self, name: &str, values: &[f64], unit: &'static str) {
        if let Some(s) = Summary::of(values) {
            self.lines.push(Line {
                name: name.into(),
                value: s.median,
                unit,
                spread: Some(s),
            });
        }
    }

    fn put_unmeasured(&mut self, what: &str, why: &str) {
        self.unmeasured.push((what.into(), why.into()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.lines.iter().find(|l| l.name == name).map(|l| l.value)
    }

    /// `workload metric value unit`, one line per number.
    fn print(&self) {
        for l in &self.lines {
            match l.spread {
                Some(s) => println!(
                    "{} {} {} {}  (iqr {} .. {}, {} slices)",
                    self.workload, l.name, l.value, l.unit, s.q1, s.q3, s.n
                ),
                None => println!("{} {} {} {}", self.workload, l.name, l.value, l.unit),
            }
        }
        for (what, why) in &self.unmeasured {
            println!("{} unmeasured: {what}: {why}", self.workload);
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the contract's names,
    /// which are the metrics every workload measures.
    fn contract_metrics(&self, names: &[(&str, &str)]) -> Json {
        Json::Obj(
            names
                .iter()
                .map(|&(name, unit)| {
                    let measured = self
                        .get(name)
                        .unwrap_or_else(|| panic!("{}: {name} not measured", self.workload));
                    let value = Json::Obj(vec![
                        ("value".into(), Json::Float(measured)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]);
                    (name.to_string(), value)
                })
                .collect(),
        )
    }

    fn all_metrics(&self) -> Json {
        Json::Obj(
            self.lines
                .iter()
                .map(|l| {
                    let mut fields = vec![
                        ("value".to_string(), Json::Float(l.value)),
                        ("unit".to_string(), Json::Str(l.unit.into())),
                    ];
                    if let Some(s) = l.spread {
                        fields.push(("q1".into(), Json::Float(s.q1)));
                        fields.push(("q3".into(), Json::Float(s.q3)));
                        fields.push(("slices".into(), Json::Int(s.n as i64)));
                    }
                    (l.name.clone(), Json::Obj(fields))
                })
                .collect(),
        )
    }

    fn unmeasured_json(&self) -> Json {
        Json::Arr(
            self.unmeasured
                .iter()
                .map(|(what, why)| Json::Str(format!("{what}: {why}")))
                .collect(),
        )
    }
}

/// One sliced segment of a run.
struct Segment {
    log: SliceLog,
    events: u64,
    elapsed_ns: u64,
}

/// Runs `slices` slices of equal step count, sized from `ns_per_step` to
/// fill `seconds`. Even slices measure rate with the clock read only at
/// their edges; odd slices stamp every event when `stamp_odd` is set.
fn measure<W: Workload>(
    name: &str,
    w: &mut W,
    rec: &mut Rec,
    seconds: f64,
    slices: usize,
    stamp_odd: bool,
    ns_per_step: f64,
) -> Segment {
    let steps = ((seconds * 1e9 / slices as f64 / ns_per_step).round() as u64).max(1);
    let mut seg = Segment {
        log: SliceLog::default(),
        events: 0,
        elapsed_ns: 0,
    };
    for s in 0..slices {
        rec.stamp_events = stamp_odd && s % 2 == 1;
        rec.events = 0;
        let t = Instant::now();
        for _ in 0..steps {
            w.step(rec);
        }
        let elapsed = ns_since(t);
        if rec.stamp_events {
            seg.log.push_latency(&mut rec.event_ns);
        } else {
            seg.log.push_rate(rec.events, elapsed);
        }
        seg.events += rec.events;
        seg.elapsed_ns += elapsed;
        assert_threads(name);
    }
    rec.stamp_events = false;
    seg
}

/// Steps until `seconds` have passed; returns nanoseconds per step.
fn warm_up<W: Workload>(w: &mut W, rec: &mut Rec, seconds: f64) -> f64 {
    let t = Instant::now();
    let mut steps = 0u64;
    while t.elapsed().as_secs_f64() < seconds {
        w.step(rec);
        steps += 1;
    }
    ns_since(t) as f64 / steps as f64
}

/// `part ÷ whole`; `None` when there is no whole.
fn ratio(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

pub fn host_json() -> Json {
    Json::Obj(vec![
        ("cpus".into(), Json::Int(nproc() as i64)),
        (
            "rustc".into(),
            Json::Str(env!("BENCH_RUSTC_VERSION").into()),
        ),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
    ])
}

/// Counters and facts every run prints, traced or not.
fn common_lines(report: &mut Report, rec: &Rec, fin: &Finish, events: u64) {
    let c = fin.counters;
    let ratios = [
        (
            "machine.cache_hit_pct",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses).map(|r| 100.0 * r),
            "%",
        ),
        (
            "machine.table_hit_pct",
            ratio(c.table_hits, c.table_hits + c.table_misses).map(|r| 100.0 * r),
            "%",
        ),
        (
            "machine.tail_calls_per_fire",
            ratio(c.tail_calls, c.fires),
            "count",
        ),
        ("machine.fires_per_event", ratio(c.fires, events), "count"),
    ];
    for (name, value, unit) in ratios {
        match value {
            Some(v) => report.put(name, v, unit),
            None => report.put_unmeasured(name, "the counters it divides stayed at zero"),
        }
    }
    report.put("machine.cache_evictions", c.cache_evictions as f64, "count");
    report.put(
        "machine.cache_invalidations",
        c.cache_invalidations as f64,
        "count",
    );
    report.put("machine.aborts", c.aborts as f64, "count");
    report.put("machine.fires", c.fires as f64, "count");
    report.put("outputs_checked", rec.checked as f64, "count");
    report.put("oracle_mismatches", rec.mismatches as f64, "count");
    report.put(
        "failed_ops_pct",
        100.0 * (rec.failed + rec.mismatches) as f64 / rec.attempted.max(1) as f64,
        "%",
    );
    for &(name, value, unit) in &fin.facts {
        report.put(name, value, unit);
    }
}

/// Rare operations, stamped one by one: percentiles over the whole run.
fn rare_operation_lines(report: &mut Report, rec: &Rec) {
    let us = |ns: Option<f64>| ns.map(|ns| ns / 1e3);
    let rare = [
        (
            "reconfig_p50_us",
            us(rec.reconfig_ns.quantile(0.5)),
            "no reconfiguration is part of this workload",
        ),
        (
            "reconfig_p99_us",
            us(rec.reconfig_ns.quantile(0.99)),
            "no reconfiguration is part of this workload",
        ),
        (
            "install_p50_us",
            us(rec.install_ns.quantile(0.5)),
            "no program is installed while this workload runs",
        ),
    ];
    for (name, value, why_not) in rare {
        match value {
            Some(v) => report.put(name, v, "us"),
            None => report.put_unmeasured(name, why_not),
        }
    }
    report.put("reconfigurations", rec.reconfig_ns.count() as f64, "count");
    report.put("installs", rec.install_ns.count() as f64, "count");
}

/// The untraced run: every end-to-end metric.
fn untraced<W: Workload>(name: &str, args: &Args, seconds: f64, report: &mut Report) -> (Rec, u64) {
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let t = Instant::now();
    let mut w = W::setup(args.seed);
    setup_s.push(t.elapsed().as_secs_f64());
    assert_threads(name);
    let checksum = w.input_checksum();

    let mut rec = Rec::new(false);
    let ns_per_step = warm_up(&mut w, &mut rec, seconds * WARMUP_SHARE);
    w.start_measuring();
    rec.reset();
    let seg = measure(name, &mut w, &mut rec, seconds, SLICES, true, ns_per_step);
    // Read before anything of the bench's own can raise it: the output
    // checks that need a whole run, and the set-ups repeated below (five
    // of them leave `sched_mlp`'s heap a fifth larger than one does).
    let peak_rss_kb = proc_status("VmHWM:").expect("/proc/self/status has VmHWM");
    let fin = w.finish(&mut rec);
    drop(w);
    let started = Instant::now();
    while !args.smoke
        && setup_s.len() < MAX_SETUPS
        && (setup_s.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        let again = W::setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        // Dropped before the next: neither threads nor memory overlap.
        drop(again);
        assert_threads(name);
    }
    report.put_sliced("setup_s", &setup_s, "s");
    report.put_sliced("events_per_s", &seg.log.rate, "1/s");
    report.put_sliced("event_p50_ns", &seg.log.p50, "ns");
    report.put_sliced("event_p99_ns", &seg.log.p99, "ns");
    report.put_sliced("event.p999_ns", &seg.log.p999, "ns");
    report.put("decision_quality_pct", fin.quality_pct, "%");
    report.put("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB");
    rare_operation_lines(report, &rec);
    report.put("measured_events", seg.events as f64, "count");
    report.put("measured_s", seg.elapsed_ns as f64 / 1e9, "s");
    common_lines(report, &rec, &fin, seg.events);
    (rec, checksum)
}

/// The traced run: an untraced baseline, then the traced segment.
fn traced<W: Workload>(name: &str, args: &Args, seconds: f64, report: &mut Report) -> (Rec, u64) {
    let mut w = W::setup(args.seed);
    assert_threads(name);
    let checksum = w.input_checksum();
    let mut rec = Rec::new(false);
    let ns_per_step = warm_up(&mut w, &mut rec, seconds * WARMUP_SHARE);
    w.start_measuring();
    rec.reset();
    let (share, slices) = (seconds * TRACED_SHARE, SLICES / 4);
    let base = measure(name, &mut w, &mut rec, share, slices, true, ns_per_step);
    // Only the recorder changes: what the baseline counted stays counted.
    rec.tracer = Tracer::new(true);
    w.arm_machine_spans();
    let seg = measure(name, &mut w, &mut rec, share, slices, true, ns_per_step);
    let fin = w.finish(&mut rec);
    drop(w);
    assert_threads(name);

    let trace_path = args.out.join(format!("trace-{name}.json"));
    if let Err(e) = std::fs::write(&trace_path, rec.tracer.chrome_json()) {
        eprintln!("cannot write {}: {e}", trace_path.display());
    }

    report.put_sliced("event.untraced_per_s", &base.log.rate, "1/s");
    report.put_sliced("event.p99_ns", &base.log.p99, "ns");
    report.put_sliced("event.p999_ns", &base.log.p999, "ns");
    report.put_sliced("event.traced_per_s", &seg.log.rate, "1/s");
    if let (Some(untraced), Some(traced)) = (
        report.get("event.untraced_per_s"),
        report.get("event.traced_per_s"),
    ) {
        report.put("trace.overhead_pct", 100.0 * (1.0 - traced / untraced), "%");
        // `machine.fire_batch_ns` is the same events on a bare machine.
        if let Some(bare) = fin
            .facts
            .iter()
            .find(|f| f.0 == "machine.fire_batch_ns")
            .map(|f| f.1)
        {
            report.put("shard.overhead_ns_per_event", 1e9 / untraced - bare, "ns");
        }
    }
    report.put(
        "bench.harness_pct",
        100.0 * (1.0 - rec.tracer.system_self_ns() as f64 / seg.elapsed_ns as f64),
        "%",
    );
    common_lines(report, &rec, &fin, base.events + seg.events);
    // Mean self time of each call the bench made; the calls it did not
    // make have no line.
    for span in Tracer::names() {
        let (Some(mean), a) = (rec.tracer.self_mean_ns(span), rec.tracer.agg(span)) else {
            continue;
        };
        let span = span.as_str();
        report.put(&format!("span.{span}_ns"), mean, "ns");
        report.put(&format!("span.{span}.count"), a.count as f64, "count");
        report.put(
            &format!("span.{span}.total_ms"),
            a.total_ns as f64 / 1e6,
            "ms",
        );
    }
    if report.get("shard.parks").is_none() {
        report.put_unmeasured("shard.*, stage.*", "the path does not cross shard.rs");
    }
    report.put_unmeasured(
        "machine.fire_ns, exec.*, table.*, maps.*, ml.*, spsc.*, ctrl.*, lang.*, \
         verifier.*, opt.*, journal.*, snapshot.*, obs.*, sim.*, workloads.gen_s",
        "layer probes, which no workload owns: run --probes, or the suite with --trace",
    );
    (rec, checksum)
}

/// Runs one workload and prints its report; returns whether every
/// output check passed.
pub fn run<W: Workload>(name: &str, args: &Args) -> bool {
    let seconds = if args.smoke {
        args.seconds / 20.0
    } else {
        args.seconds
    };
    let mut report = Report {
        workload: name.into(),
        lines: Vec::new(),
        unmeasured: Vec::new(),
    };
    let (rec, checksum) = if args.trace {
        traced::<W>(name, args, seconds, &mut report)
    } else {
        untraced::<W>(name, args, seconds, &mut report)
    };
    report.put_unmeasured(&unmeasured_scaling(), "one shard fills this host");
    let correct = rec.mismatches == 0;
    let failed = rec.failed + rec.mismatches;

    report.print();
    println!("{name} input_checksum {checksum:016x} hex");

    let contract = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let head = |metrics: Json| {
        vec![
            ("correct".to_string(), Json::Bool(correct)),
            (
                "attempted".to_string(),
                Json::Int(rec.attempted.max(1) as i64),
            ),
            ("failed".to_string(), Json::Int(failed as i64)),
            ("metrics".to_string(), metrics),
        ]
    };
    let mut file = head(report.all_metrics());
    file.extend([
        ("workload".to_string(), Json::Str(name.into())),
        ("seed".to_string(), Json::UInt(args.seed)),
        ("seconds".to_string(), Json::Float(seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        (
            "input_checksum".to_string(),
            Json::Str(format!("{checksum:016x}")),
        ),
        ("host".to_string(), host_json()),
        ("unmeasured".to_string(), report.unmeasured_json()),
    ]);
    let path = args.out.join(format!(
        "result-{name}{}.json",
        if args.trace { "-trace" } else { "" }
    ));
    if let Err(e) = std::fs::write(&path, Json::Obj(file).to_string_compact()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    // The contract's result line: last on standard output.
    println!(
        "{}",
        Json::Obj(head(report.contract_metrics(contract))).to_string_compact()
    );
    correct
}
