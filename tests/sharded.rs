//! Integration: the multi-core sharded datapath.
//!
//! Acceptance arc for the sharding PR:
//!
//! - **Differential**: a 4-shard machine fed a flow-partitioned
//!   workload produces exactly the per-flow verdict sequences of a
//!   single machine fed the same events in order, and the per-CPU map
//!   aggregates (summed across shards) equal the single machine's map
//!   contents key for key.
//! - **Convergence**: control-plane mutations issued mid-replay reach
//!   every shard by its next fire boundary; after [`sync`] every
//!   shard's table generation equals the shadow's
//!   `expected_generation`, with zero absorbed apply errors.
//! - **Reproducibility**: shard 0 of an N-shard machine is
//!   bit-identical to a single machine installed with the same seed
//!   (DP noise stream included), shard i's stream is `seed ^ i` and
//!   reproducible run to run, and distinct shards draw distinct noise.
//! - **Safety**: the verifier rejects `per_cpu` on map kinds without a
//!   well-defined cross-shard sum, and on shared (DP-read) maps.
//! - **Rebalance determinism**: a Zipf-skewed stream replayed in waves
//!   with forced mid-stream partition-seed rotations produces per-flow
//!   verdict sequences bit-identical to the single-machine oracle —
//!   rotation at a quiesce point is outcome-invisible.
//!
//! [`sync`]: rkd::core::shard::ShardedMachine::sync

use std::collections::BTreeMap;

use rkd::core::bytecode::{Action, AluOp, Insn, Reg};
use rkd::core::ctrl::{syscall_rmt_with, CtrlRequest, CtrlResponse};
use rkd::core::ctxt::Ctxt;
use rkd::core::error::VerifyError;
use rkd::core::machine::{ExecMode, RmtMachine};
use rkd::core::maps::{MapId, MapKind};
use rkd::core::prog::{ProgramBuilder, RmtProgram};
use rkd::core::shard::ShardedMachine;
use rkd::core::table::{Entry, MatchKey, MatchKind};
use rkd::core::verifier::{verify, VerifierConfig};
use rkd::testkit::rng::{Rng, SeedableRng, StdRng};
use rkd::testkit::stress::run_threads;

const BASE_SEED: u64 = 0xD1FF_5EED;

/// A flow-keyed accumulator program: on hook `"pkt"` the default
/// action folds `ctxt.x` into a per-CPU hash map keyed by `ctxt.flow`
/// and returns the running per-flow sum as the verdict. Per-flow
/// verdicts depend only on that flow's history, which is exactly the
/// property that makes flow-partitioned sharding outcome-preserving.
fn flow_prog() -> (RmtProgram, MapId) {
    let mut b = ProgramBuilder::new("flowacc");
    let flow = b.field_readonly("flow");
    let x = b.field_readonly("x");
    let counts = b.per_cpu_map("counts", MapKind::Hash, 64);
    let act = b.action(Action::new(
        "acc",
        vec![
            Insn::LdCtxt {
                dst: Reg(1),
                field: flow,
            },
            Insn::LdCtxt {
                dst: Reg(2),
                field: x,
            },
            Insn::MapLookup {
                dst: Reg(3),
                map: counts,
                key: Reg(1),
                default: 0,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg(3),
                src: Reg(2),
            },
            Insn::MapUpdate {
                map: counts,
                key: Reg(1),
                value: Reg(3),
            },
            Insn::Mov {
                dst: Reg(0),
                src: Reg(3),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "pkt", &[flow], MatchKind::Exact, Some(act), 16);
    (b.build(), counts)
}

fn install(req_prog: RmtProgram, m: &mut RmtMachine) -> rkd::core::machine::ProgId {
    match syscall_rmt_with(
        m,
        CtrlRequest::Install {
            prog: Box::new(req_prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        },
        &VerifierConfig::default(),
    )
    .unwrap()
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    }
}

/// Acceptance: 4-shard flow-partitioned replay is outcome-equivalent
/// to a single machine — per-flow verdict sequences identical, per-CPU
/// aggregates identical, total fire count identical.
#[test]
fn sharded_matches_single_machine_per_flow() {
    let (prog, counts) = flow_prog();
    let mut g = StdRng::seed_from_u64(7);
    let events: Vec<(u64, i64)> = (0..400)
        .map(|_| (g.gen_range(0u64..24), g.gen_range(-40i64..40)))
        .collect();

    // Single machine: all events in order.
    let mut single = RmtMachine::new();
    let pid = install(prog.clone(), &mut single);
    let mut single_flows: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
    for &(flow, x) in &events {
        let mut ctxt = Ctxt::from_values(vec![flow as i64, x]);
        let verdict = single.fire("pkt", &mut ctxt).verdict().unwrap();
        single_flows.entry(flow).or_default().push(verdict);
    }

    // Sharded machine: same events, partitioned by flow, one batch
    // per shard, all four batches in flight concurrently.
    let sharded = ShardedMachine::new(4);
    let resp = sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap();
    assert_eq!(resp, CtrlResponse::Installed(pid), "lockstep id assignment");

    let mut per_shard: Vec<Vec<(u64, i64)>> = vec![Vec::new(); 4];
    for &(flow, x) in &events {
        per_shard[sharded.shard_for_flow(flow)].push((flow, x));
    }
    let tickets: Vec<_> = per_shard
        .iter()
        .enumerate()
        .map(|(shard, evs)| {
            let ctxts = evs
                .iter()
                .map(|&(flow, x)| Ctxt::from_values(vec![flow as i64, x]))
                .collect();
            sharded.fire_batch_on(shard, "pkt", ctxts)
        })
        .collect();
    let mut sharded_flows: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
    for (shard, ticket) in tickets.into_iter().enumerate() {
        let (_ctxts, results) = ticket.wait();
        assert_eq!(results.len(), per_shard[shard].len());
        for (&(flow, _), r) in per_shard[shard].iter().zip(&results) {
            sharded_flows
                .entry(flow)
                .or_default()
                .push(r.verdict().unwrap());
        }
    }

    // Exact per-flow outcome equivalence.
    assert_eq!(sharded_flows, single_flows);

    // Per-CPU aggregates: cross-shard sum equals the single machine's
    // map, key for key.
    for &flow in single_flows.keys() {
        let expected = single.map_peek(pid, counts, flow).unwrap();
        let got = match sharded.map_lookup(pid, counts, flow).unwrap() {
            CtrlResponse::Value(v) => v,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(got, expected, "flow {flow}");
    }

    // Merged telemetry sees every fire exactly once.
    assert_eq!(single.machine_counters().fires, 400);
    assert_eq!(sharded.machine_counters().fires, 400);
    let snap = sharded.obs_snapshot();
    assert_eq!(snap.counters.fires, 400);
    assert_eq!(snap.hooks.len(), 1);
    assert_eq!(snap.hooks[0].hook, "pkt");
    assert_eq!(snap.hooks[0].fires, 400);
}

/// Acceptance: reconfiguration mid-replay never stops the datapath and
/// every shard converges to the shadow's generation at its next fire
/// boundary — including shards that were never fired after the
/// mutations (sync itself is a fire boundary).
#[test]
fn control_plane_converges_across_shards() {
    let (prog, counts) = flow_prog();
    let sharded = ShardedMachine::new(3);
    let pid = match sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog.clone()),
            mode: ExecMode::Interp,
            seed: BASE_SEED,
        })
        .unwrap()
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    };
    let table = rkd::core::table::TableId(0);
    let act = rkd::core::table::ActionId(0);

    let fire_everywhere = |m: &ShardedMachine| {
        let tickets: Vec<_> = (0..3)
            .map(|shard| {
                let ctxts = (0..8).map(|i| Ctxt::from_values(vec![i, 1])).collect();
                m.fire_batch_on(shard, "pkt", ctxts)
            })
            .collect();
        for t in tickets {
            t.wait();
        }
    };

    fire_everywhere(&sharded);
    // Mutations while the datapath keeps running: a table entry, a
    // cache resize, a broadcast per-CPU map write, and an install +
    // remove pair.
    sharded
        .ctrl(CtrlRequest::InsertEntry {
            prog: pid,
            table,
            entry: Entry {
                key: MatchKey::Exact(vec![3]),
                priority: 0,
                action: act,
                arg: 0,
            },
        })
        .unwrap();
    fire_everywhere(&sharded);
    sharded
        .ctrl(CtrlRequest::SetDecisionCacheCapacity { capacity: 32 })
        .unwrap();
    sharded
        .ctrl(CtrlRequest::MapUpdate {
            prog: pid,
            map: counts,
            key: 1000,
            value: 7,
        })
        .unwrap();
    let second = match sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: 99,
        })
        .unwrap()
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    };
    assert_ne!(second, pid);
    assert_eq!(
        sharded.ctrl(CtrlRequest::Remove { prog: second }).unwrap(),
        CtrlResponse::Ok
    );
    // Only shard 0 fires after the mutations; shards 1 and 2 must
    // still converge through the sync barrier alone.
    sharded
        .fire_batch_on(0, "pkt", vec![Ctxt::from_values(vec![3, 1])])
        .wait();

    let statuses = sharded.sync();
    let expected_gen = sharded.expected_generation();
    let published = sharded.published();
    assert_eq!(
        published, 6,
        "install + entry + resize + map + install + remove"
    );
    for s in &statuses {
        assert_eq!(s.applied, published, "shard {} lagging", s.shard);
        assert_eq!(s.ctrl_apply_errors, 0, "shard {} absorbed errors", s.shard);
        assert_eq!(
            s.table_generation, expected_gen,
            "shard {} diverged from shadow",
            s.shard
        );
    }

    // The broadcast control-plane write landed in every replica, so
    // the per-CPU read sums it shard_count times (documented
    // userspace-write semantics for per-CPU maps).
    assert_eq!(
        sharded.map_lookup(pid, counts, 1000).unwrap(),
        CtrlResponse::Value(Some(3 * 7))
    );
}

/// Satellite (bugfix pin): `SetOptLevel` is an epoch-published,
/// journaled mutation — the recompile broadcast must reach every shard
/// replica *and* the shadow, bump the table generation everywhere (so
/// stale cached or fused decisions can never serve post-recompile),
/// and leave per-flow verdicts bit-identical to a single machine
/// flipped the same way at the same points in the stream.
#[test]
fn set_opt_level_broadcast_reaches_all_shards_and_shadow() {
    use rkd::core::opt::OptLevel;
    let (prog, _counts) = flow_prog();
    let mut single = RmtMachine::new();
    let pid = install(prog.clone(), &mut single);
    let sharded = ShardedMachine::new(3);
    let resp = sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap();
    assert_eq!(resp, CtrlResponse::Installed(pid), "lockstep id assignment");

    let fire_round = |single: &mut RmtMachine, x: i64| {
        for flow in 0..12u64 {
            let shard = sharded.shard_for_flow(flow);
            let want = single
                .fire("pkt", &mut Ctxt::from_values(vec![flow as i64, x]))
                .verdict();
            let (_ctxts, results) = sharded
                .fire_batch_on(shard, "pkt", vec![Ctxt::from_values(vec![flow as i64, x])])
                .wait();
            assert_eq!(results[0].verdict(), want, "flow {flow} at x={x}");
        }
    };

    fire_round(&mut single, 5);
    let gen_before = sharded.expected_generation();
    let set_level = |single: &mut RmtMachine, level: OptLevel| {
        syscall_rmt_with(
            single,
            CtrlRequest::SetOptLevel { prog: pid, level },
            &VerifierConfig::default(),
        )
        .unwrap();
        sharded
            .ctrl(CtrlRequest::SetOptLevel { prog: pid, level })
            .unwrap();
    };
    // Flip O2 -> O0 mid-replay, fire, and flip back.
    set_level(&mut single, OptLevel::O0);
    fire_round(&mut single, -3);
    set_level(&mut single, OptLevel::O2);
    fire_round(&mut single, 11);

    let statuses = sharded.sync();
    let expected_gen = sharded.expected_generation();
    assert!(
        expected_gen >= gen_before + 2,
        "each SetOptLevel must bump the generation ({gen_before} -> {expected_gen})"
    );
    let published = sharded.published();
    for s in &statuses {
        assert_eq!(s.applied, published, "shard {} lagging", s.shard);
        assert_eq!(s.ctrl_apply_errors, 0, "shard {} absorbed errors", s.shard);
        assert_eq!(
            s.table_generation, expected_gen,
            "shard {} diverged from shadow after SetOptLevel",
            s.shard
        );
    }
}

/// A DP-aggregate program: the default action answers a noised sum
/// over a shared histogram map, drawing from the program's install-
/// seeded RNG — the probe for per-shard seed derivation.
fn dp_prog() -> RmtProgram {
    let mut b = ProgramBuilder::new("dpq");
    let f = b.field_readonly("f");
    let agg = b.shared_map("agg", MapKind::Histogram, 4);
    let act = b.action(Action::new(
        "query",
        vec![
            Insn::DpAggregate {
                dst: Reg(0),
                map: agg,
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "q", &[f], MatchKind::Exact, Some(act), 4);
    b.build()
}

fn dp_draws(m: &ShardedMachine, shard: usize, n: usize) -> Vec<i64> {
    (0..n)
        .map(|_| {
            let (_, r) = m.fire_on(shard, "q", Ctxt::from_values(vec![0]));
            r.verdict().unwrap()
        })
        .collect()
}

/// Acceptance (satellite): shard i installs with `seed ^ i`, so shard
/// 0 reproduces a single machine bit for bit, every shard is
/// deterministic run to run, and shards draw distinct noise streams.
#[test]
fn per_shard_dp_noise_is_seed_xor_shard_deterministic() {
    let n = 32;

    let mut single = RmtMachine::new();
    let pid = install(dp_prog(), &mut single);
    let single_draws: Vec<i64> = (0..n)
        .map(|_| {
            let mut ctxt = Ctxt::from_values(vec![0]);
            single.fire("q", &mut ctxt).verdict().unwrap()
        })
        .collect();
    let _ = pid;

    let run = || {
        let m = ShardedMachine::new(2);
        m.ctrl(CtrlRequest::Install {
            prog: Box::new(dp_prog()),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap();
        let s0 = dp_draws(&m, 0, n);
        let s1 = dp_draws(&m, 1, n);
        (s0, s1)
    };
    let (a0, a1) = run();
    let (b0, b1) = run();

    assert_eq!(a0, single_draws, "shard 0 must match the single machine");
    assert_eq!(a0, b0, "shard 0 not reproducible");
    assert_eq!(a1, b1, "shard 1 not reproducible");
    assert_ne!(a0, a1, "shards must draw distinct noise streams");
}

/// Acceptance: per-CPU declarations without a well-defined cross-shard
/// aggregation are rejected at verification time.
#[test]
fn verifier_rejects_bad_per_cpu_maps() {
    // per_cpu on a kind other than Hash/Array: no cross-shard sum.
    for kind in [MapKind::LruHash, MapKind::RingBuf, MapKind::Histogram] {
        let mut b = ProgramBuilder::new("bad");
        let f = b.field_readonly("f");
        b.per_cpu_map("m", kind, 8);
        let act = b.action(Action::new(
            "a",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                Insn::Exit,
            ],
        ));
        b.table("t", "h", &[f], MatchKind::Exact, Some(act), 4);
        match verify(b.build()) {
            Err(VerifyError::BadMapDef { reason, .. }) => {
                assert!(reason.contains("Hash and Array"), "{reason}");
            }
            other => panic!("expected BadMapDef, got {other:?}"),
        }
    }

    // per_cpu + shared: DP noising composes per replica, not across.
    let mut b = ProgramBuilder::new("bad2");
    let f = b.field_readonly("f");
    b.per_cpu_map("m", MapKind::Hash, 8);
    let act = b.action(Action::new(
        "a",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "h", &[f], MatchKind::Exact, Some(act), 4);
    let mut prog = b.build();
    prog.maps[0].shared = true;
    match verify(prog) {
        Err(VerifyError::BadMapDef { reason, .. }) => {
            assert!(reason.contains("shared"), "{reason}");
        }
        other => panic!("expected BadMapDef, got {other:?}"),
    }
}

/// Stress: four driver threads hammer their own shards concurrently
/// through the testkit stress harness; merged telemetry accounts for
/// every fire exactly once and per-shard counters sum to the total.
#[test]
fn concurrent_drivers_account_for_every_fire() {
    let (prog, _counts) = flow_prog();
    let sharded = ShardedMachine::new(4);
    sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap();

    let per_worker = 50usize;
    let batch = 10usize;
    let m = &sharded;
    let verdicts = run_threads(4, |worker| {
        let mut total = 0u64;
        for round in 0..per_worker / batch {
            let ctxts: Vec<Ctxt> = (0..batch)
                .map(|i| Ctxt::from_values(vec![(worker * 1000 + round * batch + i) as i64, 1]))
                .collect();
            let (_, results) = m.fire_batch_on(worker, "pkt", ctxts).wait();
            total += results.len() as u64;
        }
        total
    });
    assert_eq!(verdicts, vec![per_worker as u64; 4]);

    let per_shard = sharded.shard_counters();
    assert_eq!(per_shard.len(), 4);
    for (shard, c) in per_shard.iter().enumerate() {
        assert_eq!(c.fires, per_worker as u64, "shard {shard}");
    }
    assert_eq!(sharded.machine_counters().fires, 4 * per_worker as u64);
}

/// Pin (bugfix): the cross-shard `TraceRead` merge honors `max` by
/// truncating the concatenation — what the truncate cuts must be
/// counted into `dropped`, not silently discarded. A 4-shard machine
/// has four `Install` trace events (one per replica ring); draining
/// with `max = 1` returns one and must report the other three.
#[test]
fn trace_read_counts_cross_shard_truncation_as_dropped() {
    let (prog, _counts) = flow_prog();
    let sharded = ShardedMachine::new(4);
    sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap();
    sharded.sync(); // every replica applies the install (and traces it)
    match sharded.ctrl(CtrlRequest::TraceRead { max: 1 }).unwrap() {
        CtrlResponse::Trace(snap) => {
            assert_eq!(snap.events.len(), 1);
            assert_eq!(
                snap.dropped, 3,
                "truncated cross-shard events must count as dropped"
            );
        }
        other => panic!("unexpected response {other:?}"),
    }
}

/// Pin (bugfix): `advance_tick` reaches every shard, and does so via
/// concurrent submit-then-collect rather than one blocking round trip
/// per shard (the old sequential path left later shards unticked
/// until their next fire boundary if an earlier shard stalled).
#[test]
fn advance_tick_reaches_every_shard() {
    let sharded = ShardedMachine::new(4);
    sharded.advance_tick(5);
    for (i, snap) in sharded.shard_obs_snapshots().iter().enumerate() {
        assert_eq!(snap.tick, 5, "shard {i} missed the tick");
    }
    assert_eq!(sharded.obs_snapshot().tick, 5, "merged view ticks too");
}

/// A stateless-verdict program: on hook `"pkt"` the verdict is a pure
/// function of the event (`flow`, `x`) and the matched entry's `arg`
/// (delivered in `r9`; 0 on the default-action miss path) — no map
/// reads or writes. Any shard computes the same verdict for a given
/// event, so per-flow verdict sequences are invariant to *which* shard
/// a flow lands on. That is exactly the property a partition-seed
/// rotation must preserve, making this the right probe for rebalance
/// determinism (the accumulator [`flow_prog`] is not: its verdicts
/// fold per-CPU map state, which moves when the flow moves).
fn stateless_prog() -> RmtProgram {
    let mut b = ProgramBuilder::new("stateless");
    let flow = b.field_readonly("flow");
    let x = b.field_readonly("x");
    let act = b.action(Action::new(
        "mix",
        vec![
            Insn::LdCtxt {
                dst: Reg(1),
                field: flow,
            },
            Insn::LdCtxt {
                dst: Reg(2),
                field: x,
            },
            // verdict = arg ^ flow + x — distinct per (entry, event),
            // state-free by construction.
            Insn::Mov {
                dst: Reg(0),
                src: rkd::core::bytecode::ARG_REG,
            },
            Insn::Alu {
                op: AluOp::Xor,
                dst: Reg(0),
                src: Reg(1),
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                src: Reg(2),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "pkt", &[flow], MatchKind::Exact, Some(act), 16);
    b.build()
}

/// Acceptance (tentpole): a 4-shard replay of a Zipf-skewed stream
/// with forced mid-stream partition-seed rotations is bit-identical,
/// per flow, to the single-machine oracle fed the same events in
/// order.
///
/// The stream replays in waves; each wave partitions its events under
/// the *current* seed, submits one batch per shard, and waits out
/// every ticket before the next wave — so a rotation between waves
/// happens at a quiesce point, the protocol
/// [`ShardedMachine::rotate_partition`] documents. Rotations are
/// forced explicitly because the balancer heuristic
/// ([`ShardedMachine::should_rebalance`]) is depth-triggered and this
/// driver drains each wave fully; the determinism property under test
/// is rotation-count-independent either way.
#[test]
fn rebalanced_sharded_replay_matches_single_machine_per_flow() {
    use rkd::workloads::zipf::ZipfFlows;

    const SHARDS: usize = 4;
    const WAVE: usize = 256;
    const EVENTS: usize = 2048;
    let table = rkd::core::table::TableId(0);
    let act = rkd::core::table::ActionId(0);

    // Zipf(1.1) flows: elephants dominate, so rotation visibly moves
    // hot flows between shards. x varies per event so per-flow verdict
    // *sequences* (not just sets) are discriminating.
    let zipf = ZipfFlows::new(64, 1.1);
    let mut frng = StdRng::seed_from_u64(0x5EED_2026);
    let mut xrng = StdRng::seed_from_u64(0xA11C_E500);
    let events: Vec<(u64, i64)> = zipf
        .stream(EVENTS, &mut frng)
        .into_iter()
        .map(|f| (f, xrng.gen_range(-1_000i64..1_000)))
        .collect();

    // Entries for the six hottest flows with distinct args, so both
    // the hit path (arg in r9) and the default-action miss path are
    // exercised under rotation.
    let entries: Vec<Entry> = (0..6)
        .map(|rank| Entry {
            // Key extraction casts the i64 field back to u64, so the
            // raw flow id round-trips exactly.
            key: MatchKey::Exact(vec![zipf.flow_at_rank(rank)]),
            priority: 0,
            action: act,
            arg: 1_000 * (rank as i64 + 1),
        })
        .collect();

    // Oracle: one machine, every event in stream order.
    let mut single = RmtMachine::new();
    let pid = install(stateless_prog(), &mut single);
    for entry in &entries {
        syscall_rmt_with(
            &mut single,
            CtrlRequest::InsertEntry {
                prog: pid,
                table,
                entry: entry.clone(),
            },
            &VerifierConfig::default(),
        )
        .unwrap();
    }
    let mut single_flows: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
    for &(flow, x) in &events {
        let mut ctxt = Ctxt::from_values(vec![flow as i64, x]);
        let verdict = single.fire("pkt", &mut ctxt).verdict().unwrap();
        single_flows.entry(flow).or_default().push(verdict);
    }

    // Sharded replay in waves with two forced mid-stream rotations.
    let sharded = ShardedMachine::new(SHARDS);
    sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(stateless_prog()),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap();
    for entry in &entries {
        sharded
            .ctrl(CtrlRequest::InsertEntry {
                prog: pid,
                table,
                entry: entry.clone(),
            })
            .unwrap();
    }

    let seed_before = sharded.partition_seed();
    let assignment = |m: &ShardedMachine| -> Vec<usize> {
        (0..zipf.population())
            .map(|r| m.shard_for_flow(zipf.flow_at_rank(r)))
            .collect()
    };
    let before = assignment(&sharded);

    let mut sharded_flows: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
    for (wave_idx, wave) in events.chunks(WAVE).enumerate() {
        // Partition this wave under the partition seed *as of now* —
        // rotations between waves re-hash subsequent waves.
        let mut lanes: Vec<Vec<(u64, i64)>> = vec![Vec::new(); SHARDS];
        for &(flow, x) in wave {
            lanes[sharded.shard_for_flow(flow)].push((flow, x));
        }
        let tickets: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(shard, lane)| {
                let ctxts = lane
                    .iter()
                    .map(|&(flow, x)| Ctxt::from_values(vec![flow as i64, x]))
                    .collect();
                sharded.fire_batch_on(shard, "pkt", ctxts)
            })
            .collect();
        for (shard, ticket) in tickets.into_iter().enumerate() {
            let (_ctxts, results) = ticket.wait();
            assert_eq!(results.len(), lanes[shard].len());
            for (&(flow, _), r) in lanes[shard].iter().zip(&results) {
                sharded_flows
                    .entry(flow)
                    .or_default()
                    .push(r.verdict().unwrap());
            }
        }
        // Every ticket waited: the rings are drained and no event is
        // in flight — a quiesce point. Rotate twice mid-stream.
        if wave_idx == 2 || wave_idx == 5 {
            sharded.rotate_partition().unwrap();
        }
    }

    // The rotations really happened and really moved flows.
    assert_eq!(sharded.rebalances(), 2);
    assert_ne!(sharded.partition_seed(), seed_before);
    assert_ne!(
        assignment(&sharded),
        before,
        "rotation left every flow on its original shard — vacuous test"
    );

    // Bit-identical per-flow verdict sequences, rotation and all.
    assert_eq!(sharded_flows, single_flows);
    assert_eq!(
        sharded.machine_counters().fires,
        EVENTS as u64,
        "every event fired exactly once across waves and rotations"
    );
}

/// A published command lands exactly between the batches submitted
/// around it: a batch queued before an `InsertEntry` runs under the
/// old table even while the shard is still busy with earlier work, and
/// a batch queued after it runs under the new one.
#[test]
fn ctrl_lands_between_the_batches_around_it() {
    const BUSY_EVENTS: i64 = 50_000;
    const FLOW: i64 = 7;
    const ARG: i64 = 1_000;
    let table = rkd::core::table::TableId(0);
    let act = rkd::core::table::ActionId(0);
    let sharded = ShardedMachine::new(1);
    let pid = match sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(stateless_prog()),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap()
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    };
    let one_event = || vec![Ctxt::from_values(vec![FLOW, 1])];

    // Keep the worker busy: once it has popped the long batch, A, the
    // command and B all queue behind it and reach the worker together.
    let busy = sharded.fire_batch_on(
        0,
        "pkt",
        (0..BUSY_EVENTS)
            .map(|i| Ctxt::from_values(vec![100 + i % 64, i]))
            .collect(),
    );
    while sharded.queue_depths()[0] > 0 {
        std::hint::spin_loop();
    }
    let a = sharded.fire_batch_on(0, "pkt", one_event());
    sharded
        .ctrl(CtrlRequest::InsertEntry {
            prog: pid,
            table,
            entry: Entry {
                key: MatchKey::Exact(vec![FLOW as u64]),
                priority: 0,
                action: act,
                arg: ARG,
            },
        })
        .unwrap();
    let b = sharded.fire_batch_on(0, "pkt", one_event());

    let (_, busy_results) = busy.wait();
    assert_eq!(busy_results.len(), BUSY_EVENTS as usize);
    let verdict = |t: rkd::core::shard::BatchTicket| t.wait().1[0].verdict().unwrap();
    // stateless_prog: verdict = arg ^ flow + x, arg 0 on the miss path.
    assert_eq!(verdict(a), FLOW + 1, "batch A saw a later command");
    assert_eq!(
        verdict(b),
        (ARG ^ FLOW) + 1,
        "batch B missed an earlier command"
    );
}
