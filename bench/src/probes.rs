//! Layer probes: each drives one layer's public function directly,
//! with inputs generated from the run's seed by the same generators the
//! workloads use (the pipeline's entries and flow keys, the scheduler's
//! feature vectors, the video trace's deltas, the chain's actions).
//! They exist because the case-study machines are private fields: what
//! a workload cannot reach through its own calls is measured here.
//!
//! No workload owns them, so they run once — `--probes`, or as the
//! last step of a traced suite — and not in every traced run. The
//! only `rkd-*` imports beside `sut.rs` are in this file; engine
//! choice goes through [`sut::Engine`], so nothing engine-specific is
//! named here either.

use crate::inputs::{self, Rules};
use crate::sut::{self, Engine, Opt};
use rkd_core::bytecode::{Action, Insn, Reg};
use rkd_core::ctrl::{syscall_rmt, CtrlRequest};
use rkd_core::ctxt::Ctxt;
use rkd_core::journal::JournaledMachine;
use rkd_core::machine::RmtMachine;
use rkd_core::maps::{MapDef, MapInstance, MapKind};
use rkd_core::obs::ObsConfig;
use rkd_core::opt::{optimize, OptLevel};
use rkd_core::prog::{ModelSpec, ProgramBuilder, RmtProgram};
use rkd_core::snapshot::to_json_string;
use rkd_core::spsc;
use rkd_core::table::{Entry, MatchKey, MatchKind, Table, TableId};
use rkd_core::verifier::{verify, VerifierConfig};
use rkd_ml::dataset::{Dataset, Sample};
use rkd_ml::fixed::Fix;
use rkd_ml::tree::DecisionTree;
use rkd_sim::mem::ml::MlPrefetchConfig;
use rkd_sim::mem::prefetcher::NoPrefetch;
use rkd_sim::mem::sim::MemSimConfig;
use rkd_testkit::json::Json;
use rkd_workloads::PageTrace;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Rounds per probe; the reported value is the median round.
const ROUNDS: usize = 5;

/// Median of [`ROUNDS`] rounds; a round returns the nanoseconds it
/// timed, so what it does to prepare stays outside the clock.
fn median_round(mut round: impl FnMut() -> f64) -> f64 {
    let mut rounds = [0.0f64; ROUNDS];
    for r in &mut rounds {
        *r = round();
    }
    rounds.sort_by(|a, b| a.total_cmp(b));
    rounds[ROUNDS / 2]
}

/// Median round of the mean nanoseconds per call of `op`, `iters` calls
/// per round.
fn per_call_ns(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    median_round(|| {
        let t = Instant::now();
        for i in 0..iters {
            op(i);
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    })
}

/// Median round of one timed call, in nanoseconds. `prepare` runs
/// outside the clock.
fn one_call_ns<S>(mut prepare: impl FnMut() -> S, mut op: impl FnMut(S)) -> f64 {
    median_round(|| {
        let state = prepare();
        let t = Instant::now();
        op(state);
        t.elapsed().as_nanos() as f64
    })
}

struct Probes {
    out: Vec<(&'static str, f64, &'static str)>,
}

impl Probes {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push((name, value, unit));
    }

    /// A probe's reading, for the ones derived from others.
    fn get(&self, name: &str) -> f64 {
        let found = self.out.iter().find(|(n, ..)| *n == name);
        found.unwrap_or_else(|| panic!("{name} runs first")).1
    }
}

/// Runs every probe and prints `probes metric value unit` lines; `out`
/// gets `result-probes.json` and, while it runs, the journal probe's
/// files.
pub fn run(seed: u64, out: &Path) {
    let mut p = Probes { out: Vec::new() };

    // Inputs, generated exactly as the workloads generate them.
    let t = Instant::now();
    let shape = inputs::video_shape(seed);
    let video = sut::VideoTrace::generate(&shape);
    let (population, stream) =
        sut::zipf_population_and_stream(inputs::FLOW_POOL, &mut inputs::rng_for(seed, "zipf"));
    let rules = inputs::rules(seed, &population);
    let plan = inputs::churn_plan(seed);
    p.put("workloads.gen_s", t.elapsed().as_secs_f64(), "s");

    let t = Instant::now();
    let log = sut::record_cfs_log(&mut inputs::rng_for(inputs::SCHED_MODEL_SEED, "sched"));
    p.put("sim.sched_record_s", t.elapsed().as_secs_f64(), "s");

    sim(&mut p, &video);
    ml(&mut p, &log, &video);
    tables(&mut p, &rules, &stream);
    maps(&mut p);
    spsc_ring(&mut p);
    shard_ctrl(&mut p, &rules);
    exec(&mut p, &plan);
    machine(&mut p, &rules, &stream);
    ctrl(&mut p, seed, &plan);
    toolchain(&mut p, &plan);
    persistence(&mut p, &rules, out);
    obs(&mut p, &rules, &stream);

    for (name, value, unit) in &p.out {
        println!("probes {name} {value} {unit}");
    }
    let metrics = p.out.iter().map(|&(name, value, unit)| {
        let fields = vec![
            ("value".to_string(), Json::Float(value)),
            ("unit".to_string(), Json::Str(unit.into())),
        ];
        (name.to_string(), Json::Obj(fields))
    });
    let file = Json::Obj(vec![
        ("metrics".into(), Json::Obj(metrics.collect())),
        ("seed".into(), Json::UInt(seed)),
        ("host".into(), crate::runner::host_json()),
    ]);
    let path = out.join("result-probes.json");
    if let Err(e) = std::fs::write(&path, file.to_string_compact()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn sim(p: &mut Probes, video: &sut::VideoTrace) {
    let trace = PageTrace::new("video_resize", video.pages().to_vec());
    let cfg = MemSimConfig::default();
    let ns = per_call_ns(20, |_| {
        black_box(rkd_sim::mem::sim::run(&trace, &mut NoPrefetch, &cfg));
    });
    p.put("sim.mem_loop_ns", ns / trace.len() as f64, "ns");
}

/// The prefetcher's training window as a dataset: six (class, position)
/// pairs of history predict the next delta's class, classes being the
/// ranks of the most frequent deltas, as `MlPrefetcher::retrain` forms
/// them.
fn prefetch_window(video: &sut::VideoTrace, cfg: &MlPrefetchConfig) -> Dataset {
    let pages = video.pages();
    let deltas: Vec<i64> = pages
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect();
    let mut freq = std::collections::BTreeMap::<i64, usize>::new();
    for &d in &deltas[..cfg.window] {
        *freq.entry(d).or_default() += 1;
    }
    let mut by_count: Vec<(i64, usize)> = freq.into_iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    by_count.truncate(cfg.max_classes - 1);
    let class = |d: i64| {
        by_count
            .iter()
            .position(|&(v, _)| v == d)
            .map_or(0, |i| i + 1)
    };
    let h = cfg.history;
    let samples = (h..cfg.window)
        .map(|t| Sample {
            features: (t - h..t)
                .flat_map(|j| [class(deltas[j]) as i64, (pages[j + 1] % 256) as i64])
                .map(Fix::from_int)
                .collect(),
            label: class(deltas[t]),
        })
        .collect();
    Dataset::from_samples(samples).expect("window is not empty")
}

fn ml(p: &mut Probes, log: &[sut::Decision], video: &sut::VideoTrace) {
    let mut rng = inputs::rng_for(inputs::SCHED_MODEL_SEED, "train");
    let ds = sut::sched_dataset(log, &mut rng);
    let t = Instant::now();
    let (mlp, ranges) = sut::sched_train_float(&ds, &mut rng);
    p.put("ml.mlp_train_s", t.elapsed().as_secs_f64(), "s");
    let model = sut::sched_quantize(&mlp, &ranges);
    let features = sut::SchedModel::probe_inputs(log);
    p.put(
        "ml.qmlp_predict_ns",
        per_call_ns(features.len(), |i| {
            black_box(model.predict_raw(&features[i]));
        }),
        "ns",
    );

    let cfg = MlPrefetchConfig::default();
    let window = prefetch_window(video, &cfg);
    p.put(
        "ml.tree_train_us",
        per_call_ns(20, |_| {
            black_box(DecisionTree::train(&window, &cfg.tree).expect("trainable"));
        }) / 1e3,
        "us",
    );
    let tree = DecisionTree::train(&window, &cfg.tree).expect("trainable");
    let samples = window.samples();
    p.put(
        "ml.tree_predict_ns",
        per_call_ns(100_000, |i| {
            black_box(tree.predict(&samples[i % samples.len()].features).ok());
        }),
        "ns",
    );
}

/// The exact table's first entry, which the mutation probes take out
/// and put back (the table is full, as the workload has it).
fn first_exact_entry(rules: &Rules) -> Entry {
    let (flow, arg) = rules.exact[0];
    Entry {
        key: MatchKey::Exact(vec![flow]),
        priority: 0,
        action: rkd_core::table::ActionId(0),
        arg,
    }
}

/// The pipeline's four tables as bare `Table`s with the run's entries.
fn bare_tables(rules: &Rules) -> Vec<Table> {
    let prog = sut::pipeline_program(rules);
    let mut tables: Vec<Table> = prog.tables.iter().cloned().map(Table::new).collect();
    for (tid, entry) in &prog.initial_entries {
        tables[tid.0 as usize]
            .insert(entry.clone())
            .expect("entry fits");
    }
    tables
}

fn tables(p: &mut Probes, rules: &Rules, stream: &[u64]) {
    const KEYS: usize = 1 << 16;
    let tables = bare_tables(rules);
    let fields: Vec<[u64; 3]> = stream[..KEYS]
        .iter()
        .map(|&f| inputs::flow_fields(f).map(|v| v as u64))
        .collect();
    let names = [
        "table.lookup_exact_ns",
        "table.lookup_lpm_ns",
        "table.lookup_ternary_ns",
        "table.lookup_range_ns",
    ];
    for (t, name) in tables.iter().zip(names) {
        let keys: Vec<Vec<u64>> = fields
            .iter()
            .map(|&[flow, addr, port]| match t.def().kind {
                MatchKind::Exact => vec![flow],
                MatchKind::Lpm => vec![addr],
                MatchKind::Ternary => vec![addr, port],
                MatchKind::Range => vec![port],
            })
            .collect();
        p.put(
            name,
            per_call_ns(KEYS, |i| {
                black_box(t.lookup(&keys[i]));
            }),
            "ns",
        );
    }
    // Mutation cost on the largest table, one entry out and in again.
    let mut exact = bare_tables(rules).swap_remove(0);
    let entry = first_exact_entry(rules);
    let mut insert_ns = 0.0;
    let both_ns = per_call_ns(20_000, |_| {
        black_box(exact.remove(&entry.key));
        let t = Instant::now();
        exact.insert(entry.clone()).expect("the slot just freed");
        insert_ns += t.elapsed().as_nanos() as f64;
    });
    // `per_call_ns` timed remove + insert; the inner clock isolates insert.
    let insert_ns = insert_ns / (20_000 * ROUNDS) as f64;
    p.put("table.insert_ns", insert_ns, "ns");
    p.put("table.remove_ns", both_ns - insert_ns, "ns");
}

fn maps(p: &mut Probes) {
    let def = |kind, capacity| MapDef {
        name: "probe".into(),
        kind,
        capacity,
        shared: false,
        per_cpu: false,
    };
    // The prefetcher's shapes: a 64-slot hash keyed by pid or delta, a
    // 12-slot class-history ring.
    let mut hash = MapInstance::new(&def(MapKind::Hash, 64)).expect("capacity");
    for k in 0..48 {
        hash.update(k, k as i64).expect("room");
    }
    p.put(
        "maps.hash_lookup_ns",
        per_call_ns(1_000_000, |i| {
            black_box(hash.lookup(i as u64 % 64));
        }),
        "ns",
    );
    p.put(
        "maps.hash_update_ns",
        per_call_ns(1_000_000, |i| {
            black_box(hash.update(i as u64 % 48, i as i64).is_ok());
        }),
        "ns",
    );
    let mut ring = MapInstance::new(&def(MapKind::RingBuf, 12)).expect("capacity");
    p.put(
        "maps.ring_update_ns",
        per_call_ns(1_000_000, |i| {
            black_box(ring.update(0, i as i64).is_ok());
        }),
        "ns",
    );
}

fn spsc_ring(p: &mut Probes) {
    // Single thread, uncontended: the ring's own cost, not a handoff.
    let (mut tx, mut rx) = spsc::ring::<u64>(1024);
    p.put(
        "spsc.push_pop_ns",
        per_call_ns(1_000_000, |i| {
            black_box(tx.push(i as u64).is_ok());
            black_box(rx.try_pop());
        }),
        "ns",
    );
    let mut out = Vec::with_capacity(256);
    p.put(
        "spsc.batch_publish_ns",
        per_call_ns(10_000, |i| {
            for j in 0..256 {
                black_box(tx.push_deferred((i + j) as u64).is_ok());
            }
            tx.publish();
            out.clear();
            black_box(rx.pop_run(256, &mut out));
        }) / 256.0,
        "ns",
    );
}

/// One control request published to a 1-shard machine and applied by
/// its worker (`ShardedMachine::ctrl` + `sync`), nothing in flight.
fn shard_ctrl(p: &mut Probes, rules: &Rules) {
    let mut flows = sut::FlowsSut::new();
    assert!(flows.install(rules), "pipeline installs");
    p.put(
        "shard.ctrl_publish_us",
        per_call_ns(2_000, |i| {
            black_box(flows.republish(rules.exact[i % rules.exact.len()]));
        }) / 1e3,
        "us",
    );
}

/// A one-table program whose default action is `body`, reached only
/// through `fire`, so the probe survives a change of engine.
fn one_action_program(body: Vec<Insn>, opt: Opt) -> RmtProgram {
    let mut b = ProgramBuilder::new("probe_action");
    let pid = b.field_readonly("pid");
    b.field_scratch("k");
    let act = b.action(Action::new("body", body));
    b.table("t", "probe", &[pid], MatchKind::Exact, Some(act), 8);
    b.opt_level(opt.level());
    b.build()
}

fn fire_ns(prog: RmtProgram, engine: Engine) -> f64 {
    let mut m = RmtMachine::new();
    sut::install_on(&mut m, sut::verified(prog), engine);
    per_call_ns(1_000_000, |i| {
        let mut c = Ctxt::from_values(vec![i as i64, 0]);
        black_box(m.fire("probe", &mut c));
    })
}

fn exec(p: &mut Probes, plan: &inputs::ChurnPlan) {
    let null = vec![
        Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        },
        Insn::Exit,
    ];
    // The chain's last link: 17 arithmetic instructions, no tail call.
    let link = || {
        sut::chain_program(plan, Opt::Default)
            .actions
            .last()
            .expect("eight links")
            .code
            .clone()
    };
    let null_ns = fire_ns(one_action_program(null, Opt::Default), Engine::Default);
    let o2 = fire_ns(one_action_program(link(), Opt::Default), Engine::Default);
    let o0 = fire_ns(one_action_program(link(), Opt::Off), Engine::Default);
    let interp = fire_ns(one_action_program(link(), Opt::Off), Engine::Interp);
    p.put("exec.null_fire_ns", null_ns, "ns");
    p.put("exec.action_ns", o0 - null_ns, "ns");
    p.put("exec.interp_over_jit", interp / o0, "ratio");
    p.put("exec.o0_over_o2", o0 / o2, "ratio");
}

fn pipeline_machine(rules: &Rules, obs: ObsConfig) -> RmtMachine {
    let mut m = RmtMachine::with_obs_config(obs);
    sut::install_on(
        &mut m,
        sut::verified(sut::pipeline_program(rules)),
        Engine::Default,
    );
    m
}

fn contexts(stream: &[u64]) -> Vec<Ctxt> {
    stream
        .iter()
        .map(|&f| sut::context(inputs::flow_fields(f)))
        .collect()
}

/// Nanoseconds per event of `fire_batch` over `ctxts`.
fn batches_ns(m: &mut RmtMachine, ctxts: &mut [Ctxt]) -> f64 {
    let batches = ctxts.len() / inputs::BATCH;
    per_call_ns(batches, |i| {
        let b = &mut ctxts[i * inputs::BATCH..(i + 1) * inputs::BATCH];
        black_box(m.fire_batch(sut::FLOW_HOOK, b));
    }) / inputs::BATCH as f64
}

/// Events of the flow stream the machine probes replay.
const MACHINE_EVENTS: usize = 1 << 18;

/// `machine.fire_batch_ns`: `RmtMachine::fire_batch` on the pipeline,
/// per event — what `zipf_flows`' events cost on one machine with no
/// shard around it. That workload's traced run calls it with its own
/// rules and stream, to put `shard.overhead_ns_per_event` beside it.
pub fn fire_batch_ns(rules: &Rules, stream: &[u64]) -> f64 {
    let mut ctxts = contexts(&stream[..MACHINE_EVENTS]);
    let mut m = pipeline_machine(rules, ObsConfig::default());
    batches_ns(&mut m, &mut ctxts)
}

fn machine(p: &mut Probes, rules: &Rules, stream: &[u64]) {
    let mut ctxts = contexts(&stream[..MACHINE_EVENTS]);
    let mut m = pipeline_machine(rules, ObsConfig::default());
    let fire = per_call_ns(MACHINE_EVENTS, |i| {
        black_box(m.fire(sut::FLOW_HOOK, &mut ctxts[i]));
    });
    p.put("machine.fire_ns", fire, "ns");
    let c = m.machine_counters();
    let miss_share =
        c.decision_cache_misses as f64 / (c.decision_cache_hits + c.decision_cache_misses) as f64;
    let program = sut::pipeline_program(rules);
    p.put(
        "machine.install_us",
        one_call_ns(
            || (RmtMachine::new(), sut::verified(program.clone())),
            |(mut m, vp)| {
                black_box(sut::install_on(&mut m, vp, Engine::Default));
            },
        ) / 1e3,
        "us",
    );
    // What `fire` costs beyond the parts measured on their own: the four
    // lookups a cache miss resolves, four 4-instruction actions (scaled
    // from the 17-instruction link) and the dispatch floor.
    let lookups = p.get("table.lookup_exact_ns")
        + p.get("table.lookup_lpm_ns")
        + p.get("table.lookup_ternary_ns")
        + p.get("table.lookup_range_ns");
    let attributed = miss_share * lookups
        + 4.0 * p.get("exec.action_ns") * 4.0 / 17.0
        + p.get("exec.null_fire_ns");
    p.put(
        "machine.unattributed_pct",
        100.0 * (fire - attributed) / fire,
        "%",
    );
}

fn ctrl(p: &mut Probes, seed: u64, plan: &inputs::ChurnPlan) {
    let tree = sut::figure1_tree(&mut inputs::rng_for(seed, "tree"));
    let mut m = RmtMachine::new();
    let chain = sut::install_on(
        &mut m,
        sut::verified(sut::chain_program(plan, Opt::Default)),
        Engine::Default,
    );
    let compiled = rkd_lang::compile(rkd_lang::FIGURE1_PREFETCH).expect("figure 1 compiles");
    let (dt_1, last_page) = (compiled.models["dt_1"], compiled.maps["last_page"]);
    let fig1 = sut::install_on(&mut m, sut::verified(compiled.program), Engine::Default);
    let (table, key) = plan.churn[0];
    let entry = || CtrlRequest::InsertEntry {
        prog: chain,
        table: TableId(table),
        entry: Entry {
            key: MatchKey::Exact(vec![key]),
            priority: 0,
            action: rkd_core::table::ActionId(table),
            arg: 0,
        },
    };
    let remove = || CtrlRequest::RemoveEntry {
        prog: chain,
        table: TableId(table),
        key: MatchKey::Exact(vec![key]),
    };
    // One round trip per iteration; the inner clocks split it by verb.
    let (mut insert, mut post_fire) = (0.0, 0.0);
    const N: usize = 50_000;
    let total = per_call_ns(N, |i| {
        let req = entry();
        let t = Instant::now();
        black_box(syscall_rmt(&mut m, req).is_ok());
        insert += t.elapsed().as_nanos() as f64;
        let mut c = Ctxt::from_values(vec![i as i64, 0]);
        let t = Instant::now();
        black_box(m.fire(sut::CHAIN_HOOK, &mut c));
        post_fire += t.elapsed().as_nanos() as f64;
        let req = remove();
        black_box(syscall_rmt(&mut m, req).is_ok());
    });
    let calls = (N * ROUNDS) as f64;
    p.put("ctrl.insert_entry_ns", insert / calls, "ns");
    p.put("ctrl.post_mutation_fire_ns", post_fire / calls, "ns");
    p.put(
        "ctrl.remove_entry_ns",
        (total - (insert + post_fire) / calls).max(0.0),
        "ns",
    );
    p.put(
        "ctrl.update_model_us",
        one_call_ns(
            || CtrlRequest::UpdateModel {
                prog: fig1,
                slot: dt_1,
                spec: Box::new(ModelSpec::Tree(tree.clone())),
            },
            |req| {
                black_box(syscall_rmt(&mut m, req).is_ok());
            },
        ) / 1e3,
        "us",
    );
    p.put(
        "ctrl.map_update_ns",
        per_call_ns(100_000, |i| {
            let req = CtrlRequest::MapUpdate {
                prog: fig1,
                map: last_page,
                key: i as u64 % 32,
                value: i as i64,
            };
            black_box(syscall_rmt(&mut m, req).is_ok());
        }),
        "ns",
    );
    p.put(
        "ctrl.query_counters_ns",
        per_call_ns(100_000, |_| {
            black_box(syscall_rmt(&mut m, CtrlRequest::QueryMachineCounters).is_ok());
        }),
        "ns",
    );
    let s = m.opt_stats(chain).expect("chain installed");
    p.put("opt.insns_before", s.insns_before as f64, "count");
    p.put("opt.insns_after", s.insns_after as f64, "count");
    p.put("opt.fused_links", s.fused_links as f64, "count");
}

fn toolchain(p: &mut Probes, plan: &inputs::ChurnPlan) {
    p.put(
        "lang.compile_us",
        per_call_ns(50, |_| {
            black_box(rkd_lang::compile(rkd_lang::FIGURE1_PREFETCH).is_ok());
        }) / 1e3,
        "us",
    );
    let program = rkd_lang::compile(rkd_lang::FIGURE1_PREFETCH)
        .expect("figure 1 compiles")
        .program;
    p.put(
        "verifier.verify_us",
        per_call_ns(50, |_| {
            black_box(verify(program.clone()).is_ok());
        }) / 1e3,
        "us",
    );
    let chain = sut::chain_program(plan, Opt::Default);
    p.put(
        "opt.optimize_us",
        per_call_ns(50, |_| {
            for a in &chain.actions {
                black_box(optimize(a, OptLevel::default()));
            }
        }) / 1e3,
        "us",
    );
}

fn persistence(p: &mut Probes, rules: &Rules, scratch: &Path) {
    let m = pipeline_machine(rules, ObsConfig::default());
    let snap = m.snapshot();
    p.put(
        "snapshot.take_us",
        per_call_ns(5, |_| {
            black_box(m.snapshot());
        }) / 1e3,
        "us",
    );
    p.put(
        "snapshot.json_bytes",
        to_json_string(&snap).len() as f64,
        "count",
    );
    p.put(
        "snapshot.restore_us",
        one_call_ns(
            || snap.clone(),
            |s| {
                black_box(RmtMachine::restore(s, &VerifierConfig::default()).is_ok());
            },
        ) / 1e3,
        "us",
    );

    let dir = scratch.join(format!("journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut j = JournaledMachine::create(&dir, m, VerifierConfig::default())
        .expect("journal directory is writable");
    let prog = j.machine().program_ids()[0];
    // Takes the exact table's first entry out, or puts it back.
    let entry = first_exact_entry(rules);
    let request = |i: usize| {
        if i.is_multiple_of(2) {
            CtrlRequest::RemoveEntry {
                prog,
                table: TableId(0),
                key: entry.key.clone(),
            }
        } else {
            CtrlRequest::InsertEntry {
                prog,
                table: TableId(0),
                entry: entry.clone(),
            }
        }
    };
    /// Requests in the journal when it is replayed or compacted.
    const JOURNALED: usize = 20;
    p.put(
        "journal.ctrl_us",
        per_call_ns(JOURNALED / ROUNDS, |i| {
            black_box(j.ctrl(request(i)).is_ok());
        }) / 1e3,
        "us",
    );
    drop(j);
    // Opening replays the 20 requests and leaves the files as they are.
    p.put(
        "journal.open_replay_us",
        per_call_ns(1, |_| {
            black_box(JournaledMachine::open(&dir, VerifierConfig::default()).is_ok());
        }) / 1e3,
        "us",
    );
    // Compaction empties the journal, so every round fills it again
    // before the clock starts.
    let mut j = JournaledMachine::open(&dir, VerifierConfig::default()).expect("journal reopens");
    black_box(j.compact().is_ok());
    p.put(
        "journal.compact_us",
        median_round(|| {
            for i in 0..JOURNALED {
                black_box(j.ctrl(request(i)).is_ok());
            }
            let t = Instant::now();
            black_box(j.compact().is_ok());
            t.elapsed().as_nanos() as f64
        }) / 1e3,
        "us",
    );
    drop(j);
    let _ = std::fs::remove_dir_all(&dir);
}

fn obs(p: &mut Probes, rules: &Rules, stream: &[u64]) {
    const EVENTS: usize = 1 << 16;
    let mut ctxts = contexts(&stream[..EVENTS]);
    let quiet = ObsConfig {
        timing: false,
        ..ObsConfig::default()
    };
    // Three machines take turns pass by pass, so drift and a noisy
    // neighbour hit all of them alike; each reports its median pass.
    let mut machines = [(quiet, 64), (ObsConfig::default(), 64), (quiet, 0)].map(|(cfg, shift)| {
        let mut m = pipeline_machine(rules, cfg);
        m.set_span_config(shift, 4_096);
        (m, Vec::with_capacity(2 * ROUNDS))
    });
    let batches = EVENTS / inputs::BATCH;
    for _ in 0..2 * ROUNDS {
        for (m, passes) in &mut machines {
            let t = Instant::now();
            for b in ctxts.chunks_mut(inputs::BATCH) {
                black_box(m.fire_batch(sut::FLOW_HOOK, b));
            }
            passes.push(t.elapsed().as_nanos() as f64 / batches as f64);
        }
    }
    let [off, timing, spans] = machines.map(|(_, mut passes)| {
        passes.sort_by(|a, b| a.total_cmp(b));
        passes[passes.len() / 2]
    });
    p.put("obs.timing_overhead_pct", 100.0 * (timing - off) / off, "%");
    p.put("obs.span_overhead_pct", 100.0 * (spans - off) / off, "%");
    let mut m = pipeline_machine(rules, ObsConfig::default());
    black_box(batches_ns(&mut m, &mut ctxts));
    p.put(
        "obs.snapshot_us",
        per_call_ns(200, |_| {
            black_box(m.obs_snapshot());
        }) / 1e3,
        "us",
    );
}
