//! Integration: the control plane reconfigures a live datapath — entry
//! churn, model hot swaps mid-stream, multi-program coexistence, and
//! DP-gated control-plane reads.

use rkd::core::ctrl::{syscall_rmt, CtrlRequest, CtrlResponse};
use rkd::core::ctxt::Ctxt;
use rkd::core::machine::{ExecMode, RmtMachine};
use rkd::core::prog::ModelSpec;
use rkd::core::table::{ActionId, Entry, MatchKey, TableId};
use rkd::core::verifier::verify;
use rkd::lang::compile;
use rkd::ml::fixed::Fix;
use rkd::ml::svm::IntSvm;

const POLICY: &str = r#"
program "policy" {
    ctxt pid: ro;
    ctxt x: ro;
    model gate: svm(1) @ sched;
    action consult {
        let v = window(feat);
        return 0;
    }
    action ml_gate {
        let f = window(feat);
        let c = predict(gate, f);
        return c;
    }
    action deny { return -1; }
    map feat: ring[1];
    table t { hook decide; match pid; default deny; size 16; }
}
"#;

fn installed() -> (RmtMachine, rkd::core::machine::ProgId, rkd::lang::Compiled) {
    let compiled = compile(POLICY).unwrap();
    let verified = verify(compiled.program.clone()).unwrap();
    let mut vm = RmtMachine::new();
    let id = vm.install(verified, ExecMode::Jit).unwrap();
    (vm, id, compiled)
}

#[test]
fn entry_churn_reshapes_decisions_live() {
    let (mut vm, id, compiled) = installed();
    let table = compiled.tables["t"];
    let gate_action = compiled.actions["ml_gate"];
    // Seed the feature ring so the SVM sees one feature.
    let feat = compiled.maps["feat"];
    vm.map_update(id, feat, 0, 5).unwrap();
    // Push a model that predicts 1 for positive features.
    let slot = compiled.models["gate"];
    vm.update_model(
        id,
        slot,
        ModelSpec::Svm(IntSvm {
            weights: vec![Fix::ONE],
            bias: Fix::ZERO,
        }),
    )
    .unwrap();
    // Before the entry exists: default deny.
    let mut ctxt = Ctxt::from_values(vec![42, 0]);
    assert_eq!(vm.fire("decide", &mut ctxt).verdict(), Some(-1));
    // Control plane arms pid 42 with the ML gate.
    vm.insert_entry(
        id,
        table,
        Entry {
            key: MatchKey::Exact(vec![42]),
            priority: 0,
            action: gate_action,
            arg: 0,
        },
    )
    .unwrap();
    let mut ctxt = Ctxt::from_values(vec![42, 0]);
    assert_eq!(vm.fire("decide", &mut ctxt).verdict(), Some(1));
    // Remove it: back to deny.
    assert!(vm
        .remove_entry(id, table, &MatchKey::Exact(vec![42]))
        .unwrap());
    let mut ctxt = Ctxt::from_values(vec![42, 0]);
    assert_eq!(vm.fire("decide", &mut ctxt).verdict(), Some(-1));
}

#[test]
fn model_hot_swap_flips_live_decisions() {
    let (mut vm, id, compiled) = installed();
    let table = compiled.tables["t"];
    let gate_action = compiled.actions["ml_gate"];
    let feat = compiled.maps["feat"];
    let slot = compiled.models["gate"];
    vm.map_update(id, feat, 0, 5).unwrap();
    vm.insert_entry(
        id,
        table,
        Entry {
            key: MatchKey::Exact(vec![1]),
            priority: 0,
            action: gate_action,
            arg: 0,
        },
    )
    .unwrap();
    // Positive-weight model: verdict 1.
    vm.update_model(
        id,
        slot,
        ModelSpec::Svm(IntSvm {
            weights: vec![Fix::ONE],
            bias: Fix::ZERO,
        }),
    )
    .unwrap();
    let mut ctxt = Ctxt::from_values(vec![1, 0]);
    assert_eq!(vm.fire("decide", &mut ctxt).verdict(), Some(1));
    // Swap to a negative-weight model mid-stream: verdict flips.
    vm.update_model(
        id,
        slot,
        ModelSpec::Svm(IntSvm {
            weights: vec![Fix::NEG_ONE],
            bias: Fix::ZERO,
        }),
    )
    .unwrap();
    let mut ctxt = Ctxt::from_values(vec![1, 0]);
    assert_eq!(vm.fire("decide", &mut ctxt).verdict(), Some(0));
}

#[test]
fn ctrl_mutations_mid_replay_never_serve_stale_decisions() {
    // A range table is decision-cache eligible, so repeated firings of
    // the same flow replay memoized match resolutions. Control-plane
    // entry churn through `CtrlRequest` must invalidate those replays
    // immediately — a stale verdict here would be a correctness bug,
    // not a performance one.
    let src = r#"
        program "ranged" {
            ctxt pid: ro;
            action allow { return 1; }
            action deny { return -1; }
            table t { hook gate; match pid; kind range; default deny; size 16; }
        }
    "#;
    let compiled = compile(src).unwrap();
    let verified = verify(compiled.program.clone()).unwrap();
    let mut vm = RmtMachine::new();
    let id = vm.install(verified, ExecMode::Jit).unwrap();
    let table = compiled.tables["t"];
    let allow = compiled.actions["allow"];
    let deny = compiled.actions["deny"];
    syscall_rmt(
        &mut vm,
        CtrlRequest::InsertEntry {
            prog: id,
            table,
            entry: Entry {
                key: MatchKey::Range(vec![(0, 100)]),
                priority: 1,
                action: allow,
                arg: 0,
            },
        },
    )
    .unwrap();
    // Warm the decision cache on a stable flow.
    for _ in 0..8 {
        let mut ctxt = Ctxt::from_values(vec![50]);
        assert_eq!(vm.fire("gate", &mut ctxt).verdict(), Some(1));
    }
    // Mid-replay, the control plane shadows the flow with a
    // higher-priority deny. The very next firing must see it.
    syscall_rmt(
        &mut vm,
        CtrlRequest::InsertEntry {
            prog: id,
            table,
            entry: Entry {
                key: MatchKey::Range(vec![(40, 60)]),
                priority: 9,
                action: deny,
                arg: 0,
            },
        },
    )
    .unwrap();
    let mut ctxt = Ctxt::from_values(vec![50]);
    assert_eq!(vm.fire("gate", &mut ctxt).verdict(), Some(-1));
    // Removing it restores the broad allow — again with no staleness.
    match syscall_rmt(
        &mut vm,
        CtrlRequest::RemoveEntry {
            prog: id,
            table,
            key: MatchKey::Range(vec![(40, 60)]),
        },
    )
    .unwrap()
    {
        CtrlResponse::Removed(true) => {}
        other => panic!("{other:?}"),
    }
    let mut ctxt = Ctxt::from_values(vec![50]);
    assert_eq!(vm.fire("gate", &mut ctxt).verdict(), Some(1));
    // The cache did real work (hits on the warm flow) and both
    // mutations registered as invalidations.
    match syscall_rmt(&mut vm, CtrlRequest::QueryMachineCounters).unwrap() {
        CtrlResponse::Counters(c) => {
            assert!(c.decision_cache_hits >= 7, "hits {c:?}");
            assert!(c.decision_cache_invalidations >= 2, "invalidations {c:?}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn two_programs_coexist_and_remove_cleanly() {
    let mut vm = RmtMachine::new();
    let mk = |vm: &mut RmtMachine, verdict: i64| {
        let src = format!(
            r#"program "p{verdict}" {{
                ctxt pid: ro;
                action a {{ return {verdict}; }}
                table t {{ hook shared_hook; match pid; default a; }}
            }}"#
        );
        let compiled = compile(&src).unwrap();
        let verified = verify(compiled.program).unwrap();
        vm.install(verified, ExecMode::Interp).unwrap()
    };
    let p1 = mk(&mut vm, 100);
    let p2 = mk(&mut vm, 200);
    let mut ctxt = Ctxt::from_values(vec![1]);
    let r = vm.fire("shared_hook", &mut ctxt);
    let verdicts: Vec<i64> = r.verdicts.iter().map(|(_, v)| *v).collect();
    assert_eq!(verdicts, vec![100, 200]);
    vm.remove(p1).unwrap();
    let mut ctxt = Ctxt::from_values(vec![1]);
    assert_eq!(vm.fire("shared_hook", &mut ctxt).verdict(), Some(200));
    vm.remove(p2).unwrap();
    assert!(!vm.hook_armed("shared_hook"));
}

#[test]
fn syscall_stats_and_privacy_queries() {
    let src = r#"
        program "obs" {
            ctxt pid: ro;
            map agg: hist[4] shared;
            action a { let s = dp_sum(agg); return s; }
            table t { hook h; match pid; default a; }
            privacy 1000 100 1;
        }
    "#;
    let compiled = compile(src).unwrap();
    let mut vm = RmtMachine::new();
    let id = match syscall_rmt(
        &mut vm,
        CtrlRequest::Install {
            prog: Box::new(compiled.program),
            mode: ExecMode::Jit,
            seed: 9,
        },
    )
    .unwrap()
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("{other:?}"),
    };
    let agg = compiled.maps["agg"];
    syscall_rmt(
        &mut vm,
        CtrlRequest::MapUpdate {
            prog: id,
            map: agg,
            key: 0,
            value: 400,
        },
    )
    .unwrap();
    // Datapath queries drain the same ledger control-plane reads use.
    let mut ctxt = Ctxt::from_values(vec![1]);
    vm.fire("h", &mut ctxt);
    let remaining =
        match syscall_rmt(&mut vm, CtrlRequest::QueryPrivacyBudget { prog: id }).unwrap() {
            CtrlResponse::PrivacyBudget(b) => b,
            other => panic!("{other:?}"),
        };
    assert_eq!(remaining, 900);
    // A control-plane read of the shared map is noised AND charged.
    let v = match syscall_rmt(
        &mut vm,
        CtrlRequest::MapLookup {
            prog: id,
            map: agg,
            key: 0,
        },
    )
    .unwrap()
    {
        CtrlResponse::Value(Some(v)) => v,
        other => panic!("{other:?}"),
    };
    assert!((v - 400).abs() < 300, "noised {v}");
    let remaining2 =
        match syscall_rmt(&mut vm, CtrlRequest::QueryPrivacyBudget { prog: id }).unwrap() {
            CtrlResponse::PrivacyBudget(b) => b,
            other => panic!("{other:?}"),
        };
    assert_eq!(remaining2, 800);
    // Stats reflect the one firing.
    match syscall_rmt(&mut vm, CtrlRequest::QueryStats { prog: id }).unwrap() {
        CtrlResponse::Stats(s) => {
            assert_eq!(s.invocations, 1);
            assert_eq!(s.actions_run, 1);
        }
        other => panic!("{other:?}"),
    }
    // Table stats through the syscall too.
    match syscall_rmt(
        &mut vm,
        CtrlRequest::QueryTableStats {
            prog: id,
            table: TableId(0),
        },
    )
    .unwrap()
    {
        CtrlResponse::TableStats(ts) => assert_eq!(ts.hits + ts.misses, 1),
        other => panic!("{other:?}"),
    }
    let _ = ActionId(0);
}

#[test]
fn obs_reset_clears_cache_counters_but_not_cached_decisions() {
    // Pinned semantics: `ObsReset` is *observational-only*. The
    // decision-cache counters are part of `MachineCounters`, so a reset
    // zeroes them along with every other counter — but the cached
    // decisions themselves are datapath state, not observation, and
    // survive. The very next firing of a warm flow must therefore
    // replay from cache: exactly one hit, zero misses.
    let src = r#"
        program "ranged" {
            ctxt pid: ro;
            action allow { return 1; }
            action deny { return -1; }
            table t { hook gate; match pid; kind range; default deny; size 16; }
        }
    "#;
    let compiled = compile(src).unwrap();
    let verified = verify(compiled.program.clone()).unwrap();
    let mut vm = RmtMachine::new();
    let id = vm.install(verified, ExecMode::Jit).unwrap();
    syscall_rmt(
        &mut vm,
        CtrlRequest::InsertEntry {
            prog: id,
            table: compiled.tables["t"],
            entry: Entry {
                key: MatchKey::Range(vec![(0, 100)]),
                priority: 1,
                action: compiled.actions["allow"],
                arg: 0,
            },
        },
    )
    .unwrap();
    // Warm the cache on a stable flow.
    for _ in 0..4 {
        let mut ctxt = Ctxt::from_values(vec![50]);
        assert_eq!(vm.fire("gate", &mut ctxt).verdict(), Some(1));
    }
    match syscall_rmt(&mut vm, CtrlRequest::QueryMachineCounters).unwrap() {
        CtrlResponse::Counters(c) => {
            // The first firing records into a free slot; the rest replay.
            assert_eq!(c.decision_cache_misses, 1, "{c:?}");
            assert_eq!(c.decision_cache_hits, 3, "{c:?}");
        }
        other => panic!("{other:?}"),
    }
    assert!(matches!(
        syscall_rmt(&mut vm, CtrlRequest::ObsReset).unwrap(),
        CtrlResponse::Ok
    ));
    // Every counter is zeroed — including the decision-cache family.
    match syscall_rmt(&mut vm, CtrlRequest::QueryMachineCounters).unwrap() {
        CtrlResponse::Counters(c) => {
            assert_eq!(c, rkd::core::obs::MachineCounters::default(), "{c:?}")
        }
        other => panic!("{other:?}"),
    }
    // But the cache contents survived: the warm flow replays, so the
    // post-reset ledger shows one hit and no miss.
    let mut ctxt = Ctxt::from_values(vec![50]);
    assert_eq!(vm.fire("gate", &mut ctxt).verdict(), Some(1));
    match syscall_rmt(&mut vm, CtrlRequest::QueryMachineCounters).unwrap() {
        CtrlResponse::Counters(c) => {
            assert_eq!(c.fires, 1, "{c:?}");
            assert_eq!(c.decision_cache_hits, 1, "{c:?}");
            assert_eq!(c.decision_cache_misses, 0, "{c:?}");
        }
        other => panic!("{other:?}"),
    }
}
