use super::*;
use crate::bytecode::{Action, AluOp, Helper, Insn, Reg};
use crate::ctxt::Ctxt;
use crate::maps::MapId;
use crate::obs::ObsSnapshot;
use crate::opt::OptLevel;
use crate::prog::{ModelSpec, ProgramBuilder};
use crate::table::{ActionId, Entry, MatchKey, MatchKind, TableStats};
use crate::verifier::{verify, VerifiedProgram, VerifierConfig};

/// Program: one exact-match table on field "pid"; matched entries
/// double the entry arg into the verdict; default action returns -1.
fn doubling_program() -> VerifiedProgram {
    let mut b = ProgramBuilder::new("double");
    let pid = b.field_readonly("pid");
    let double = b.action(Action::new(
        "double",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: crate::bytecode::ARG_REG,
            },
            Insn::AluImm {
                op: AluOp::Mul,
                dst: Reg(0),
                imm: 2,
            },
            Insn::Exit,
        ],
    ));
    let fallback = b.action(Action::new(
        "fallback",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: -1,
            },
            Insn::Exit,
        ],
    ));
    let t = b.table(
        "t",
        "test_hook",
        &[pid],
        MatchKind::Exact,
        Some(fallback),
        16,
    );
    b.entry(
        t,
        Entry {
            key: MatchKey::Exact(vec![7]),
            priority: 0,
            action: double,
            arg: 21,
        },
    );
    verify(b.build()).unwrap()
}

fn ctxt_with_pid(pid: i64) -> Ctxt {
    Ctxt::from_values(vec![pid])
}

#[test]
fn install_fire_and_verdicts() {
    let mut m = RmtMachine::new();
    let id = m.install(doubling_program(), ExecMode::Jit).unwrap();
    let mut ctxt = ctxt_with_pid(7);
    let r = m.fire("test_hook", &mut ctxt);
    assert_eq!(r.verdict(), Some(42));
    let mut miss = ctxt_with_pid(8);
    let r = m.fire("test_hook", &mut miss);
    assert_eq!(r.verdict(), Some(-1), "default action on miss");
    let stats = m.stats(id).unwrap();
    assert_eq!(stats.invocations, 2);
    assert_eq!(stats.actions_run, 2);
    assert!(stats.insns_executed >= 5);
}

#[test]
fn unarmed_hook_is_a_noop() {
    let mut m = RmtMachine::new();
    assert!(!m.hook_armed("test_hook"));
    let mut ctxt = ctxt_with_pid(1);
    let r = m.fire("test_hook", &mut ctxt);
    assert!(r.verdicts.is_empty());
    m.install(doubling_program(), ExecMode::Interp).unwrap();
    assert!(m.hook_armed("test_hook"));
    assert!(!m.hook_armed("other_hook"));
}

#[test]
fn remove_unhooks() {
    let mut m = RmtMachine::new();
    let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
    assert_eq!(m.program_count(), 1);
    m.remove(id).unwrap();
    assert_eq!(m.program_count(), 0);
    assert!(!m.hook_armed("test_hook"));
    assert!(matches!(m.remove(id), Err(VmError::NoSuchProgram(_))));
}

#[test]
fn runtime_entry_management() {
    let mut m = RmtMachine::new();
    let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
    m.insert_entry(
        id,
        TableId(0),
        Entry {
            key: MatchKey::Exact(vec![100]),
            priority: 0,
            action: ActionId(0),
            arg: 50,
        },
    )
    .unwrap();
    let mut ctxt = ctxt_with_pid(100);
    assert_eq!(m.fire("test_hook", &mut ctxt).verdict(), Some(100));
    assert!(m
        .remove_entry(id, TableId(0), &MatchKey::Exact(vec![100]))
        .unwrap());
    let mut ctxt = ctxt_with_pid(100);
    assert_eq!(m.fire("test_hook", &mut ctxt).verdict(), Some(-1));
    // Invalid action id rejected.
    assert!(m
        .insert_entry(
            id,
            TableId(0),
            Entry {
                key: MatchKey::Exact(vec![1]),
                priority: 0,
                action: ActionId(99),
                arg: 0,
            },
        )
        .is_err());
}

#[test]
fn rate_limiter_drops_excess_prefetches() {
    let mut b = ProgramBuilder::new("p");
    let pid = b.field_readonly("pid");
    let emit = b.action(Action::new(
        "emit",
        vec![
            Insn::LdImm {
                dst: Reg(2),
                imm: 0,
            },
            Insn::LdImm {
                dst: Reg(3),
                imm: 8,
            },
            Insn::Call {
                helper: Helper::EmitPrefetch,
            },
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "h", &[pid], MatchKind::Exact, Some(emit), 4);
    b.rate_limit(crate::prog::RateLimitCfg {
        capacity: 16,
        refill_per_tick: 8,
    });
    let vp = verify(b.build()).unwrap();
    let mut m = RmtMachine::new();
    let id = m.install(vp, ExecMode::Interp).unwrap();
    // Bucket = 16 tokens; each firing asks for 8 pages.
    let mut ctxt = ctxt_with_pid(0);
    assert_eq!(m.fire("h", &mut ctxt).effects.len(), 1);
    assert_eq!(m.fire("h", &mut ctxt).effects.len(), 1);
    assert_eq!(m.fire("h", &mut ctxt).effects.len(), 0, "bucket empty");
    let stats = m.stats(id).unwrap();
    assert_eq!(stats.effects_emitted, 2);
    assert_eq!(stats.effects_rate_limited, 1);
    // Refill after a tick.
    m.advance_tick(1);
    assert_eq!(m.fire("h", &mut ctxt).effects.len(), 1);
}

#[test]
fn tail_call_cascades_and_is_bounded() {
    let mut b = ProgramBuilder::new("p");
    let pid = b.field_readonly("pid");
    // Action 0: tail-call table 1. Action 1: verdict 99.
    let a0 = b.action(Action::new(
        "tc",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 1,
            },
            Insn::TailCall { table: TableId(1) },
        ],
    ));
    let a1 = b.action(Action::new(
        "leaf",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 99,
            },
            Insn::Exit,
        ],
    ));
    b.table("t0", "h", &[pid], MatchKind::Exact, Some(a0), 4);
    b.table("t1", "other_hook", &[pid], MatchKind::Exact, Some(a1), 4);
    let vp = verify(b.build()).unwrap();
    let mut m = RmtMachine::new();
    let id = m.install(vp, ExecMode::Jit).unwrap();
    let mut ctxt = ctxt_with_pid(5);
    let r = m.fire("h", &mut ctxt);
    assert_eq!(r.verdicts.len(), 2);
    assert_eq!(r.verdict(), Some(99));
    assert_eq!(m.stats(id).unwrap().tail_calls, 1);
}

/// Three-link chain for fusion tests. `t0` ("h") defaults to `a0`,
/// which stores constant 3 into scratch field `k` and tail-calls
/// `t1`; `t1` (keyed on `k`) holds an entry for key 3 whose action
/// `a1` tail-calls `t2`; `t2` is empty and defaults to `a2`
/// (verdict = arg + 40). Every link resolves statically, so at O1
/// and above the whole chain fuses; O0 is the unfused reference.
fn chain_program(level: OptLevel) -> VerifiedProgram {
    let mut b = ProgramBuilder::new("chain");
    b.opt_level(level);
    let pid = b.field_readonly("pid");
    let k = b.field_scratch("k");
    let a0 = b.action(Action::new(
        "root",
        vec![
            Insn::LdImm {
                dst: Reg(1),
                imm: 3,
            },
            Insn::StCtxt {
                field: k,
                src: Reg(1),
            },
            Insn::LdImm {
                dst: Reg(0),
                imm: 10,
            },
            Insn::TailCall { table: TableId(1) },
        ],
    ));
    let a1 = b.action(Action::new(
        "mid",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 20,
            },
            Insn::TailCall { table: TableId(2) },
        ],
    ));
    let a2 = b.action(Action::new(
        "leaf",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: crate::bytecode::ARG_REG,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(0),
                imm: 40,
            },
            Insn::Exit,
        ],
    ));
    b.table("t0", "h", &[pid], MatchKind::Exact, Some(a0), 4);
    b.table("t1", "stage", &[k], MatchKind::Exact, None, 4);
    b.table("t2", "stage", &[k], MatchKind::Exact, Some(a2), 4);
    b.entry(
        TableId(1),
        Entry {
            key: MatchKey::Exact(vec![3]),
            priority: 0,
            action: a1,
            arg: 5,
        },
    );
    verify(b.build()).unwrap()
}

fn chain_ctxt(pid: i64) -> Ctxt {
    Ctxt::from_values(vec![pid, 0])
}

/// The tentpole's correctness contract: a fused chain produces the
/// same verdict stream, effects, and per-table bookkeeping as the
/// unfused chain, and the fusion actually happened (this is not a
/// vacuous comparison).
#[test]
fn fused_chain_matches_unfused_execution() {
    let mut fused = RmtMachine::new();
    let fid = fused
        .install(chain_program(OptLevel::O2), ExecMode::Jit)
        .unwrap();
    let os = fused.opt_stats(fid).unwrap();
    // `root` fuses both links; `mid` independently fuses its one.
    assert_eq!(os.fused_chains, 2, "{os:?}");
    assert_eq!(os.fused_links, 3, "{os:?}");
    let mut unfused = RmtMachine::new();
    let uid = unfused
        .install(chain_program(OptLevel::O0), ExecMode::Jit)
        .unwrap();
    for pid in 0..4 {
        let rf = fused.fire("h", &mut chain_ctxt(pid));
        let ru = unfused.fire("h", &mut chain_ctxt(pid));
        assert_eq!(rf.verdicts, ru.verdicts);
        assert_eq!(rf.effects, ru.effects);
    }
    let pinned = fused.fire("h", &mut chain_ctxt(9)).verdicts;
    assert_eq!(
        pinned,
        vec![(TableId(0), 10), (TableId(1), 20), (TableId(2), 40)]
    );
    assert_eq!(unfused.fire("h", &mut chain_ctxt(9)).verdicts, pinned);
    let (sf, su) = (fused.stats(fid).unwrap(), unfused.stats(uid).unwrap());
    assert_eq!(sf.actions_run, su.actions_run);
    assert_eq!(sf.tail_calls, su.tail_calls);
    assert_eq!(sf.guard_trips, su.guard_trips);
    for t in 0..3 {
        assert_eq!(
            fused.table_stats(fid, TableId(t)).unwrap(),
            unfused.table_stats(uid, TableId(t)).unwrap(),
            "table {t} hit/miss bookkeeping must survive fusion"
        );
    }
    // The fused body runs fewer instructions — that is the win.
    assert!(
        sf.insns_executed < su.insns_executed,
        "fused {} !< unfused {}",
        sf.insns_executed,
        su.insns_executed
    );
}

/// Control-plane churn on a table a fused chain resolved through
/// must re-specialize the plan (eagerly — the generation check is
/// only a backstop), and verdicts must track the live entries
/// exactly as the unfused O0 install's do.
#[test]
fn entry_churn_respecializes_fused_chains() {
    let mut fused = RmtMachine::new();
    let fid = fused
        .install(chain_program(OptLevel::O2), ExecMode::Jit)
        .unwrap();
    let mut unfused = RmtMachine::new();
    let uid = unfused
        .install(chain_program(OptLevel::O0), ExecMode::Jit)
        .unwrap();
    let key = MatchKey::Exact(vec![3]);
    let fire_both = |fused: &mut RmtMachine, unfused: &mut RmtMachine| {
        let rf = fused.fire("h", &mut chain_ctxt(1));
        let ru = unfused.fire("h", &mut chain_ctxt(1));
        assert_eq!(rf.verdicts, ru.verdicts);
        rf.verdicts
    };
    assert_eq!(fire_both(&mut fused, &mut unfused).len(), 3);
    // Remove the mid link's entry: t1 goes empty with no default,
    // so the chain now ends there.
    assert!(fused.remove_entry(fid, TableId(1), &key).unwrap());
    assert!(unfused.remove_entry(uid, TableId(1), &key).unwrap());
    assert_eq!(
        fire_both(&mut fused, &mut unfused),
        vec![(TableId(0), 10)],
        "chain must end at the miss with no default"
    );
    // Re-point key 3 straight at the leaf with a live arg.
    let e = Entry {
        key: key.clone(),
        priority: 0,
        action: ActionId(2),
        arg: 100,
    };
    fused.insert_entry(fid, TableId(1), e.clone()).unwrap();
    unfused.insert_entry(uid, TableId(1), e).unwrap();
    assert_eq!(
        fire_both(&mut fused, &mut unfused),
        vec![(TableId(0), 10), (TableId(1), 140)],
        "re-specialization must bake the new entry (arg 100)"
    );
    // Still fused after all the churn, not silently degraded.
    assert!(fused.opt_stats(fid).unwrap().fused_chains >= 1);
}

/// [`ExecMode`] is an inert tag: the same program under either tag
/// is optimized, fused and executed identically.
#[test]
fn exec_mode_tag_does_not_select_what_executes() {
    let run = |mode: ExecMode| {
        let mut m = RmtMachine::new();
        let id = m.install(chain_program(OptLevel::O2), mode).unwrap();
        let verdicts: Vec<_> = (0..4)
            .map(|pid| m.fire("h", &mut chain_ctxt(pid)).verdicts)
            .collect();
        let insns = m.stats(id).unwrap().insns_executed;
        (verdicts, insns, m.opt_stats(id).unwrap())
    };
    let (interp, jit) = (run(ExecMode::Interp), run(ExecMode::Jit));
    assert_eq!(interp, jit);
    assert!(interp.2.fused_chains >= 1, "{:?}", interp.2);
}

/// The sharded `SetOptLevel` bugfix at machine level: switching
/// levels restamps/recomputes fused plans and bumps the table
/// generation so stale cached or fused decisions cannot serve.
#[test]
fn set_opt_level_recomputes_fusion_and_bumps_generation() {
    use crate::opt::OptLevel;
    let mut m = RmtMachine::new();
    let id = m
        .install(chain_program(OptLevel::O2), ExecMode::Jit)
        .unwrap();
    assert_eq!(m.opt_stats(id).unwrap().fused_chains, 2);
    let baseline = m.fire("h", &mut chain_ctxt(1)).verdicts;
    m.set_opt_level(id, OptLevel::O0).unwrap();
    assert_eq!(
        m.opt_stats(id).unwrap().fused_chains,
        0,
        "O0 must drop every fused body"
    );
    assert_eq!(m.fire("h", &mut chain_ctxt(1)).verdicts, baseline);
    m.set_opt_level(id, OptLevel::O2).unwrap();
    assert_eq!(m.opt_stats(id).unwrap().fused_chains, 2);
    assert_eq!(m.fire("h", &mut chain_ctxt(1)).verdicts, baseline);
}

/// Restore must re-specialize fused chains against the *restored*
/// entries (which may differ from the program's seed entries), and
/// optimizer stats must round-trip through the snapshot.
#[test]
fn restore_respecializes_fused_chains_against_restored_entries() {
    let mut m = RmtMachine::new();
    let id = m
        .install(chain_program(OptLevel::O2), ExecMode::Jit)
        .unwrap();
    // Diverge runtime entries from the seed: key 3 now routes to
    // the leaf with arg 7.
    let key = MatchKey::Exact(vec![3]);
    assert!(m.remove_entry(id, TableId(1), &key).unwrap());
    m.insert_entry(
        id,
        TableId(1),
        Entry {
            key,
            priority: 0,
            action: ActionId(2),
            arg: 7,
        },
    )
    .unwrap();
    let want = m.fire("h", &mut chain_ctxt(1)).verdicts;
    assert_eq!(want, vec![(TableId(0), 10), (TableId(1), 47)]);
    let snap = m.snapshot();
    let mut r = RmtMachine::restore(snap, &VerifierConfig::default()).unwrap();
    assert_eq!(r.opt_stats(id).unwrap(), m.opt_stats(id).unwrap());
    assert!(r.opt_stats(id).unwrap().fused_chains >= 1);
    assert_eq!(r.fire("h", &mut chain_ctxt(1)).verdicts, want);
}

#[test]
fn model_hot_swap_validates() {
    use rkd_ml::cost::LatencyClass;
    use rkd_ml::dataset::{Dataset, Sample};
    use rkd_ml::fixed::Fix;
    use rkd_ml::svm::IntSvm;
    use rkd_ml::tree::{DecisionTree, TreeConfig};
    let ds = Dataset::from_samples(vec![
        Sample::from_f64(&[0.0], 0),
        Sample::from_f64(&[1.0], 0),
        Sample::from_f64(&[8.0], 1),
        Sample::from_f64(&[9.0], 1),
    ])
    .unwrap();
    let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
    let mut b = ProgramBuilder::new("p");
    let f = b.field_readonly("x");
    let slot = b.model("m", ModelSpec::Tree(tree), LatencyClass::Scheduler);
    let act = b.action(Action::new(
        "ml",
        vec![
            Insn::VectorLdCtxt {
                dst: crate::bytecode::VReg(0),
                base: f,
                len: 1,
            },
            Insn::CallMl {
                model: slot,
                src: crate::bytecode::VReg(0),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "h", &[f], MatchKind::Exact, Some(act), 4);
    let vp = verify(b.build()).unwrap();
    let mut m = RmtMachine::new();
    let id = m.install(vp, ExecMode::Interp).unwrap();
    let mut ctxt = Ctxt::from_values(vec![9]);
    assert_eq!(m.fire("h", &mut ctxt).verdict(), Some(1));
    // Swap in an SVM that always predicts 0 for x >= 0 w = -1.
    let svm = IntSvm {
        weights: vec![Fix::NEG_ONE],
        bias: Fix::ZERO,
    };
    m.update_model(id, slot, ModelSpec::Svm(svm)).unwrap();
    let mut ctxt = Ctxt::from_values(vec![9]);
    assert_eq!(m.fire("h", &mut ctxt).verdict(), Some(0));
    // Wrong arity rejected.
    let bad = IntSvm {
        weights: vec![Fix::ONE, Fix::ONE],
        bias: Fix::ZERO,
    };
    assert!(m.update_model(id, slot, ModelSpec::Svm(bad)).is_err());
    // Over-budget model rejected (scheduler class).
    let huge = IntSvm {
        weights: vec![Fix::ONE; 1],
        bias: Fix::ZERO,
    };
    // 1 weight is fine; build a huge tree instead via many weights.
    let too_big = IntSvm {
        weights: vec![Fix::ONE; 4096],
        bias: Fix::ZERO,
    };
    assert!(m.update_model(id, slot, ModelSpec::Svm(huge)).is_ok());
    assert!(matches!(
        m.update_model(id, slot, ModelSpec::Svm(too_big)),
        Err(VmError::BadEntry(_)) | Err(VmError::Verify(_))
    ));
}

/// Builds a one-model program (tree: x<4 -> class 0, else 1)
/// whose single table default-action runs `CallMl` on ctxt field
/// "x", and installs it.
fn ml_machine() -> (RmtMachine, ProgId, crate::bytecode::ModelSlot) {
    use rkd_ml::cost::LatencyClass;
    use rkd_ml::dataset::{Dataset, Sample};
    use rkd_ml::tree::{DecisionTree, TreeConfig};
    let ds = Dataset::from_samples(vec![
        Sample::from_f64(&[0.0], 0),
        Sample::from_f64(&[1.0], 0),
        Sample::from_f64(&[8.0], 1),
        Sample::from_f64(&[9.0], 1),
    ])
    .unwrap();
    let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
    let mut b = ProgramBuilder::new("mlprog");
    let f = b.field_readonly("x");
    let slot = b.model("clf", ModelSpec::Tree(tree), LatencyClass::Scheduler);
    let act = b.action(Action::new(
        "ml",
        vec![
            Insn::VectorLdCtxt {
                dst: crate::bytecode::VReg(0),
                base: f,
                len: 1,
            },
            Insn::CallMl {
                model: slot,
                src: crate::bytecode::VReg(0),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "h", &[f], MatchKind::Exact, Some(act), 4);
    let vp = verify(b.build()).unwrap();
    let mut m = RmtMachine::new();
    let id = m.install(vp, ExecMode::Jit).unwrap();
    (m, id, slot)
}

#[test]
fn model_telemetry_counts_served_predictions() {
    let (mut m, id, slot) = ml_machine();
    for x in [0i64, 1, 9, 9, 9] {
        let mut ctxt = Ctxt::from_values(vec![x]);
        m.fire("h", &mut ctxt);
    }
    let ms = m.model_stats(id, slot).unwrap();
    assert_eq!(ms.served, 5);
    assert_eq!(ms.class_counts[0], 2);
    assert_eq!(ms.class_counts[1], 3);
    assert_eq!(ms.name, "clf");
    assert_eq!(ms.outcomes, 0, "no ground truth reported yet");
    assert_eq!(ms.acc_permille, -1);
    // Default config times 1-in-8 fires: exactly the first fire
    // of this cold hook is sampled.
    assert_eq!(ms.latency.count(), 1);
}

#[test]
fn update_models_is_one_all_or_nothing_reconfiguration() {
    use rkd_ml::cost::LatencyClass;
    use rkd_ml::fixed::Fix;
    use rkd_ml::svm::IntSvm;
    // sign(w * x): class 1 for x > 0 when w = 1, class 0 when w = -1.
    let svm = |w: Fix| {
        ModelSpec::Svm(IntSvm {
            weights: vec![w],
            bias: Fix::ZERO,
        })
    };
    let mut b = ProgramBuilder::new("two_models");
    let f = b.field_readonly("x");
    let mut slots = Vec::new();
    for i in 0..2 {
        let slot = b.model(&format!("m{i}"), svm(Fix::ONE), LatencyClass::Scheduler);
        let act = b.action(Action::new(
            &format!("ml{i}"),
            vec![
                Insn::VectorLdCtxt {
                    dst: crate::bytecode::VReg(0),
                    base: f,
                    len: 1,
                },
                Insn::CallMl {
                    model: slot,
                    src: crate::bytecode::VReg(0),
                },
                Insn::Exit,
            ],
        ));
        b.table(
            &format!("t{i}"),
            &format!("h{i}"),
            &[f],
            MatchKind::Exact,
            Some(act),
            4,
        );
        slots.push(slot);
    }
    let mut m = RmtMachine::new();
    let id = m
        .install(verify(b.build()).unwrap(), ExecMode::Interp)
        .unwrap();
    let verdicts = |m: &mut RmtMachine| {
        ["h0", "h1"].map(|h| m.fire(h, &mut Ctxt::from_values(vec![9])).verdict())
    };
    assert_eq!(verdicts(&mut m), [Some(1), Some(1)]);
    // One bad spec (wrong arity) rejects the whole push: the good
    // one is not swapped in and the generation does not move.
    let gen = m.table_generation();
    let wide = ModelSpec::Svm(IntSvm {
        weights: vec![Fix::ONE; 2],
        bias: Fix::ZERO,
    });
    assert!(m
        .update_models(id, vec![(slots[0], svm(Fix::NEG_ONE)), (slots[1], wide)])
        .is_err());
    assert!(m
        .update_models(id, vec![(crate::bytecode::ModelSlot(9), svm(Fix::ONE))])
        .is_err());
    assert_eq!(m.table_generation(), gen);
    assert_eq!(verdicts(&mut m), [Some(1), Some(1)]);
    // Both good: both swapped, one bump.
    m.update_models(
        id,
        vec![(slots[0], svm(Fix::NEG_ONE)), (slots[1], svm(Fix::NEG_ONE))],
    )
    .unwrap();
    assert_eq!(m.table_generation(), gen + 1);
    assert_eq!(verdicts(&mut m), [Some(0), Some(0)]);
}

#[test]
fn model_outcomes_drive_drift_latch_and_swap_clears_it() {
    let (mut m, id, slot) = ml_machine();
    m.set_obs_config(ObsConfig {
        accuracy_window: 4,
        accuracy_windows: 2,
        drift_threshold_permille: 500,
        ..ObsConfig::default()
    });
    for _ in 0..4 {
        m.report_outcome(id, slot, 1, 1).unwrap();
    }
    let ms = m.model_stats(id, slot).unwrap();
    assert_eq!(ms.acc_permille, 1000);
    assert!(!ms.drift_suspected);
    for _ in 0..8 {
        m.report_outcome(id, slot, 1, 0).unwrap();
    }
    let ms = m.model_stats(id, slot).unwrap();
    assert!(ms.drift_suspected);
    assert_eq!(ms.confusion[0][1], 8);
    // Hot-swap clears the prequential windows and the latch but
    // keeps cumulative counters.
    let svm = rkd_ml::svm::IntSvm {
        weights: vec![rkd_ml::fixed::Fix::ONE],
        bias: rkd_ml::fixed::Fix::ZERO,
    };
    m.update_model(id, slot, ModelSpec::Svm(svm)).unwrap();
    let ms = m.model_stats(id, slot).unwrap();
    assert!(!ms.drift_suspected);
    assert_eq!(ms.acc_permille, -1, "windows cleared");
    assert_eq!(ms.outcomes, 12, "cumulative counters survive swap");
    // Bad slot / program errors.
    assert!(m
        .report_outcome(id, crate::bytecode::ModelSlot(9), 0, 0)
        .is_err());
    assert!(m.model_stats(ProgId(999), slot).is_err());
    // obs_reset clears everything.
    m.obs_reset();
    let ms = m.model_stats(id, slot).unwrap();
    assert_eq!((ms.served, ms.outcomes, ms.hits), (0, 0, 0));
}

#[test]
fn flight_recorder_captures_periodic_frames() {
    let (mut m, id, slot) = ml_machine();
    m.set_obs_config(ObsConfig {
        flight_interval: 4,
        flight_capacity: 2,
        ..ObsConfig::default()
    });
    for i in 0..10 {
        if i == 5 {
            m.report_outcome(id, slot, 1, 1).unwrap();
        }
        let mut ctxt = Ctxt::from_values(vec![9]);
        m.fire("h", &mut ctxt);
    }
    let fs = m.flight_snapshot();
    assert_eq!(fs.interval, 4);
    // Frames due at fires 4 and 8; capacity 2 keeps both.
    assert_eq!(fs.frames.len(), 2);
    assert_eq!(fs.dropped, 0);
    assert_eq!(fs.frames[0].fires, 4);
    assert_eq!(fs.frames[1].fires, 8);
    assert_eq!(fs.frames[1].counters.fires, 8);
    assert_eq!(fs.frames[1].hooks.len(), 1);
    assert_eq!(fs.frames[1].hooks[0].hook, "h");
    assert_eq!(fs.frames[1].models.len(), 1);
    assert_eq!(fs.frames[1].models[0].served, 8);
    assert_eq!(fs.frames[0].models[0].outcomes, 0);
    assert_eq!(fs.frames[1].models[0].outcomes, 1);
    // Reset clears the ring.
    m.obs_reset();
    assert!(m.flight_snapshot().frames.is_empty());
}

#[test]
fn obs_snapshot_includes_model_stats() {
    let (mut m, id, _slot) = ml_machine();
    let mut ctxt = Ctxt::from_values(vec![9]);
    m.fire("h", &mut ctxt);
    let snap = m.obs_snapshot();
    assert_eq!(snap.models.len(), 1);
    assert_eq!(snap.models[0].prog, id.0);
    assert_eq!(snap.models[0].served, 1);
    // And it still round-trips through JSON with models attached.
    let json = crate::snapshot::to_json_string(&snap);
    let back: ObsSnapshot = crate::snapshot::from_json_str(&json).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn control_plane_map_access_and_privacy() {
    use crate::maps::MapKind;
    let mut b = ProgramBuilder::new("p");
    let m_priv = b.map("local", MapKind::Hash, 8);
    let m_shared = b.shared_map("agg", MapKind::Histogram, 4);
    b.action(Action::new(
        "noop",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::Exit,
        ],
    ));
    let vp = verify(b.build()).unwrap();
    let mut m = RmtMachine::new();
    let id = m.install(vp, ExecMode::Interp).unwrap();
    m.map_update(id, m_priv, 5, 123).unwrap();
    assert_eq!(m.map_lookup(id, m_priv, 5).unwrap(), Some(123));
    assert_eq!(m.map_lookup(id, m_priv, 6).unwrap(), None);
    // Delete frees the key's slot; a second delete finds nothing.
    assert!(m.map_delete(id, m_priv, 5).unwrap());
    assert!(!m.map_delete(id, m_priv, 5).unwrap());
    assert_eq!(m.map_lookup(id, m_priv, 5).unwrap(), None);
    assert!(m.map_delete(id, MapId(9), 5).is_err());
    // Shared map reads are noised and charge the ledger.
    m.map_update(id, m_shared, 0, 1000).unwrap();
    let before = m.privacy_remaining(id).unwrap();
    let v = m.map_lookup(id, m_shared, 0).unwrap().unwrap();
    assert!((v - 1000).abs() < 500, "noised {v}");
    assert!(m.privacy_remaining(id).unwrap() < before);
}

#[test]
fn two_programs_share_a_hook() {
    let mut m = RmtMachine::new();
    m.install(doubling_program(), ExecMode::Interp).unwrap();
    m.install(doubling_program(), ExecMode::Jit).unwrap();
    let mut ctxt = ctxt_with_pid(7);
    let r = m.fire("test_hook", &mut ctxt);
    assert_eq!(r.verdicts.len(), 2);
    assert!(r.verdicts.iter().all(|(_, v)| *v == 42));
    assert_eq!(m.program_ids().len(), 2);
}

#[test]
fn obs_counters_track_fires_hits_and_misses() {
    let mut m = RmtMachine::new();
    m.install(doubling_program(), ExecMode::Interp).unwrap();
    m.fire("test_hook", &mut ctxt_with_pid(7)); // Hit.
    m.fire("test_hook", &mut ctxt_with_pid(8)); // Miss -> default.
    m.fire("nobody_home", &mut ctxt_with_pid(7)); // Unarmed.
    let c = m.machine_counters();
    assert_eq!(c.fires, 2);
    assert_eq!(c.fires_unarmed, 1);
    assert_eq!(c.table_hits, 1);
    assert_eq!(c.table_misses, 1);
    assert_eq!(c.aborts, 0);
}

#[test]
fn hook_stats_report_fires_and_latency() {
    let mut m = RmtMachine::with_obs_config(crate::obs::ObsConfig {
        sample_shift: 0, // Time every firing.
        ..crate::obs::ObsConfig::default()
    });
    m.install(doubling_program(), ExecMode::Interp).unwrap();
    for _ in 0..5 {
        m.fire("test_hook", &mut ctxt_with_pid(7));
    }
    let hs = m.hook_stats("test_hook").unwrap();
    assert_eq!(hs.fires, 5);
    // With sample_shift 0, every fire is recorded.
    assert_eq!(hs.hist.count(), 5);
    assert!(hs.hist.sum() > 0, "monotonic clock should advance");
    assert!(matches!(
        m.hook_stats("unknown"),
        Err(VmError::BadRequest(_))
    ));
}

#[test]
fn timing_sampling_and_disable() {
    let mut m = RmtMachine::new();
    m.set_obs_config(crate::obs::ObsConfig {
        sample_shift: 2, // 1 in 4 firings timed.
        ..crate::obs::ObsConfig::default()
    });
    m.install(doubling_program(), ExecMode::Interp).unwrap();
    for _ in 0..8 {
        m.fire("test_hook", &mut ctxt_with_pid(7));
    }
    assert_eq!(m.hook_stats("test_hook").unwrap().hist.count(), 2);
    m.set_obs_config(crate::obs::ObsConfig {
        timing: false,
        ..crate::obs::ObsConfig::default()
    });
    m.fire("test_hook", &mut ctxt_with_pid(7));
    let hs = m.hook_stats("test_hook").unwrap();
    assert_eq!(hs.fires, 9, "fires counted even with timing off");
    assert_eq!(hs.hist.count(), 2, "no new samples with timing off");
}

/// Acceptance criterion: overflowing the trace ring must be counted
/// in `dropped`, never silently lost.
#[test]
fn trace_ring_overflow_counts_dropped() {
    let mut m = RmtMachine::new();
    m.set_obs_config(crate::obs::ObsConfig {
        trace_fires: true,
        trace_capacity: 4,
        ..crate::obs::ObsConfig::default()
    });
    m.install(doubling_program(), ExecMode::Interp).unwrap();
    // 1 Install event + 10 Fire events into a 4-slot ring.
    for _ in 0..10 {
        m.fire("test_hook", &mut ctxt_with_pid(7));
    }
    let snap = m.trace_read(usize::MAX);
    assert_eq!(snap.events.len(), 4);
    assert_eq!(snap.dropped, 7, "11 events - 4 kept = 7 dropped");
    assert!(snap
        .events
        .iter()
        .all(|e| e.kind == crate::obs::TraceKind::Fire));
    assert_eq!(snap.events[3].info, 42, "Fire event carries verdict");
    // Drained: a second read is empty but keeps the dropped count.
    let again = m.trace_read(usize::MAX);
    assert!(again.events.is_empty());
    assert_eq!(again.dropped, 7);
    m.obs_reset();
    assert_eq!(m.trace_read(usize::MAX).dropped, 0);
}

/// Satellite 3: an over-long dynamic tail-call chain terminates the
/// pipeline instead of falling through to the rest of the queue,
/// and is counted as `tail_chain_overflows`, not a plain abort.
#[test]
fn tail_chain_overflow_terminates_pipeline() {
    use crate::verifier::{verify_with, VerifierConfig};
    // Tables t0..=t11; t_i's default action tail-calls t_{i+1},
    // t11's exits. Static depth 12 needs a relaxed verifier bound;
    // the dynamic MAX_TAIL_CHAIN (8) is what trips.
    let mut b = ProgramBuilder::new("chain");
    let pid = b.field_readonly("pid");
    let mut actions = Vec::new();
    for i in 0..12u16 {
        let code = if i < 11 {
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: i as i64,
                },
                Insn::TailCall {
                    table: TableId(i + 1),
                },
            ]
        } else {
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 11,
                },
                Insn::Exit,
            ]
        };
        actions.push(b.action(Action::new(&format!("a{i}"), code)));
    }
    for (i, &act) in actions.iter().enumerate() {
        b.table(
            &format!("t{i}"),
            "chain_hook",
            &[pid],
            MatchKind::Exact,
            Some(act),
            4,
        );
    }
    let vp = verify_with(
        b.build(),
        &VerifierConfig {
            max_tail_depth: 16,
            ..VerifierConfig::default()
        },
    )
    .unwrap();
    let mut m = RmtMachine::new();
    let id = m.install(vp, ExecMode::Interp).unwrap();
    let r = m.fire("chain_hook", &mut ctxt_with_pid(1));
    // t0 runs, then 8 successful redirects (t1..=t8); t8's call to
    // t9 is chain hop 9 > MAX_TAIL_CHAIN, terminating the pipeline.
    assert_eq!(r.verdicts.len(), 9, "t0..=t8 only: {:?}", r.verdicts);
    assert_eq!(r.verdicts.last().unwrap().1, 8);
    let stats = m.stats(id).unwrap();
    assert_eq!(stats.tail_calls, 8);
    assert_eq!(stats.tail_chain_overflows, 1);
    assert_eq!(stats.actions_aborted, 0, "overflow is not an abort");
    let c = m.machine_counters();
    assert_eq!(c.tail_calls, 8);
    assert_eq!(c.tail_chain_overflows, 1);
    let snap = m.trace_read(usize::MAX);
    assert!(snap
        .events
        .iter()
        .any(|e| e.kind == crate::obs::TraceKind::TailChainOverflow));
}

#[test]
fn obs_reset_preserves_program_stats() {
    let mut m = RmtMachine::new();
    let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
    m.fire("test_hook", &mut ctxt_with_pid(7));
    m.obs_reset();
    assert_eq!(m.machine_counters().fires, 0);
    assert_eq!(m.hook_stats("test_hook").unwrap().fires, 0);
    let stats = m.stats(id).unwrap();
    assert_eq!(stats.invocations, 1, "ProgStats survive an obs reset");
}

/// Program: one range table on "pid" matching 0..=100 (priority 1,
/// doubles arg 21 -> 42); default action returns -1.
fn range_program() -> VerifiedProgram {
    let mut b = ProgramBuilder::new("range");
    let pid = b.field_readonly("pid");
    let double = b.action(Action::new(
        "double",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: crate::bytecode::ARG_REG,
            },
            Insn::AluImm {
                op: AluOp::Mul,
                dst: Reg(0),
                imm: 2,
            },
            Insn::Exit,
        ],
    ));
    let fallback = b.action(Action::new(
        "fallback",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: -1,
            },
            Insn::Exit,
        ],
    ));
    let t = b.table(
        "t",
        "range_hook",
        &[pid],
        MatchKind::Range,
        Some(fallback),
        16,
    );
    b.entry(
        t,
        Entry {
            key: MatchKey::Range(vec![(0, 100)]),
            priority: 1,
            action: double,
            arg: 21,
        },
    );
    verify(b.build()).unwrap()
}

#[test]
fn decision_cache_replays_stable_flows() {
    let mut m = RmtMachine::new();
    m.install(range_program(), ExecMode::Interp).unwrap();
    for _ in 0..10 {
        let r = m.fire("range_hook", &mut ctxt_with_pid(50));
        assert_eq!(r.verdict(), Some(42));
    }
    let c = m.machine_counters();
    assert_eq!(c.decision_cache_misses, 1, "first firing records");
    assert_eq!(c.decision_cache_hits, 9, "repeat flows replay");
    assert_eq!(c.decision_cache_bypasses, 0);
    // A different flow key is its own cache line.
    assert_eq!(
        m.fire("range_hook", &mut ctxt_with_pid(200)).verdict(),
        Some(-1)
    );
    assert_eq!(
        m.fire("range_hook", &mut ctxt_with_pid(200)).verdict(),
        Some(-1)
    );
    let c = m.machine_counters();
    assert_eq!(c.decision_cache_misses, 2);
    assert_eq!(c.decision_cache_hits, 10);
    // Replayed firings keep TableStats faithful: 10 in-range hits,
    // 2 out-of-range misses.
    let ts = m.table_stats(ProgId(1), TableId(0)).unwrap();
    assert_eq!(
        ts,
        TableStats {
            hits: 10,
            misses: 2
        }
    );
}

#[test]
fn decision_cache_invalidated_by_control_plane_mutations() {
    let mut m = RmtMachine::new();
    let id = m.install(range_program(), ExecMode::Interp).unwrap();
    assert_eq!(
        m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
        Some(42)
    );
    assert_eq!(
        m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
        Some(42)
    );
    // A higher-priority entry shadows the cached decision; the
    // generation bump must force a live re-resolve.
    m.insert_entry(
        id,
        TableId(0),
        Entry {
            key: MatchKey::Range(vec![(40, 60)]),
            priority: 9,
            action: ActionId(0),
            arg: 100,
        },
    )
    .unwrap();
    assert_eq!(
        m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
        Some(200),
        "no stale decision after insert_entry"
    );
    assert!(m.machine_counters().decision_cache_invalidations >= 1);
    // Removing it must invalidate again.
    assert!(m
        .remove_entry(id, TableId(0), &MatchKey::Range(vec![(40, 60)]))
        .unwrap());
    assert_eq!(
        m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
        Some(42),
        "no stale decision after remove_entry"
    );
    assert!(m.machine_counters().decision_cache_invalidations >= 2);
}

/// A hook whose only live tables are exact-match bypasses the
/// cache (a lookup is already one hash probe), while an entry-less
/// exact table stays eligible — its key-independent default
/// decision replays without any key extraction.
#[test]
fn decision_cache_bypasses_exact_only_hooks() {
    let mut m = RmtMachine::new();
    let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
    m.fire("test_hook", &mut ctxt_with_pid(7));
    m.fire("test_hook", &mut ctxt_with_pid(7));
    let c = m.machine_counters();
    assert_eq!(c.decision_cache_bypasses, 2);
    assert_eq!(c.decision_cache_hits + c.decision_cache_misses, 0);
    // Empty the exact table: the hook becomes cache-eligible and
    // repeat firings replay the default-action decision.
    assert!(m
        .remove_entry(id, TableId(0), &MatchKey::Exact(vec![7]))
        .unwrap());
    m.fire("test_hook", &mut ctxt_with_pid(7));
    m.fire("test_hook", &mut ctxt_with_pid(7));
    let c = m.machine_counters();
    assert_eq!(c.decision_cache_misses, 1);
    assert_eq!(c.decision_cache_hits, 1);
}

#[test]
fn decision_cache_capacity_bounds_and_disable() {
    let mut m = RmtMachine::new();
    m.install(range_program(), ExecMode::Interp).unwrap();
    m.set_decision_cache_capacity(4);
    // Four flows fill the four free slots at once.
    for pid in 0..4 {
        m.fire("range_hook", &mut ctxt_with_pid(pid));
    }
    // The slab is full: a one-shot flow misses without taking a slot.
    m.fire("range_hook", &mut ctxt_with_pid(100));
    let c = m.machine_counters();
    assert_eq!(c.decision_cache_misses, 5);
    assert_eq!(c.decision_cache_evictions, 0, "one-shot flow not admitted");
    // A flow's second miss admits it, evicting the least recently used.
    for pid in 4..8 {
        m.fire("range_hook", &mut ctxt_with_pid(pid));
        m.fire("range_hook", &mut ctxt_with_pid(pid));
    }
    let c = m.machine_counters();
    assert_eq!(c.decision_cache_misses, 13);
    assert_eq!(c.decision_cache_hits, 0);
    assert_eq!(c.decision_cache_evictions, 4, "LRU bound enforced");
    // Touching flow 4 makes flow 5 the least recently used: admitting
    // flow 8 evicts 5, not 4.
    m.fire("range_hook", &mut ctxt_with_pid(4));
    m.fire("range_hook", &mut ctxt_with_pid(8));
    m.fire("range_hook", &mut ctxt_with_pid(8));
    assert_eq!(m.machine_counters().decision_cache_evictions, 5);
    m.fire("range_hook", &mut ctxt_with_pid(4));
    m.fire("range_hook", &mut ctxt_with_pid(5));
    let c = m.machine_counters();
    assert_eq!(c.decision_cache_hits, 2, "flow 4 survived");
    assert_eq!(c.decision_cache_misses, 16, "flow 8 twice, evicted flow 5");
    // Capacity 0 disables probing entirely.
    m.set_decision_cache_capacity(0);
    let before = m.machine_counters();
    m.fire("range_hook", &mut ctxt_with_pid(1));
    m.fire("range_hook", &mut ctxt_with_pid(1));
    let after = m.machine_counters();
    assert_eq!(after.decision_cache_hits, before.decision_cache_hits);
    assert_eq!(after.decision_cache_misses, before.decision_cache_misses);
    assert_eq!(
        after.decision_cache_bypasses,
        before.decision_cache_bypasses
    );
}

#[test]
fn obs_snapshot_aggregates_hooks_and_programs() {
    let mut m = RmtMachine::new();
    let id = m.install(doubling_program(), ExecMode::Interp).unwrap();
    m.fire("test_hook", &mut ctxt_with_pid(7));
    let snap = m.obs_snapshot();
    assert_eq!(snap.counters.fires, 1);
    assert_eq!(snap.hooks.len(), 1);
    assert_eq!(snap.hooks[0].hook, "test_hook");
    assert_eq!(snap.hooks[0].fires, 1);
    assert_eq!(snap.programs.len(), 1);
    assert_eq!(snap.programs[0].prog, id.0);
    assert_eq!(snap.programs[0].hist.count(), 1);
    assert_eq!(snap.trace_dropped, 0);
}

/// A hook whose listeners never write consumed fields and whose
/// non-empty tables key only consumed fields is key-stable: cached
/// decisions replay without per-step key re-extraction, and
/// distinct flows still resolve their own cache lines.
#[test]
fn key_stable_hook_replays_without_key_reextraction() {
    let mut m = RmtMachine::new();
    m.install(range_program(), ExecMode::Interp).unwrap();
    assert!(
        m.hook_index["range_hook"].key_stable,
        "no ctxt writes + keys within consumed => key-stable"
    );
    for _ in 0..3 {
        assert_eq!(
            m.fire("range_hook", &mut ctxt_with_pid(50)).verdict(),
            Some(42)
        );
        assert_eq!(
            m.fire("range_hook", &mut ctxt_with_pid(200)).verdict(),
            Some(-1)
        );
    }
    let c = m.machine_counters();
    assert_eq!(c.decision_cache_misses, 2, "one recording per flow");
    assert_eq!(c.decision_cache_hits, 4, "fast-path replays");
}

/// Cross-hook tail-call counterexample: the tail-call target keys
/// a field the origin hook does not consume, so two flows with the
/// same probe key can resolve different entries at the target. The
/// hook must not be key-stable, and the per-step validation must
/// catch the divergence.
#[test]
fn tail_call_to_unconsumed_key_defeats_key_stability() {
    let mut b = ProgramBuilder::new("xhook");
    let f0 = b.field_readonly("f0");
    let f1 = b.field_readonly("f1");
    let hit2 = b.action(Action::new(
        "hit2",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: crate::bytecode::ARG_REG,
            },
            Insn::Exit,
        ],
    ));
    let fallback = b.action(Action::new(
        "fallback",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: -1,
            },
            Insn::Exit,
        ],
    ));
    // t2 is declared first so the redirect action can name it.
    let t2 = b.table("t2", "h2", &[f1], MatchKind::Exact, Some(fallback), 16);
    let redirect = b.action(Action::new(
        "redirect",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::TailCall { table: t2 },
        ],
    ));
    let t1 = b.table("t1", "h1", &[f0], MatchKind::Range, Some(fallback), 16);
    b.entry(
        t1,
        Entry {
            key: MatchKey::Range(vec![(0, 100)]),
            priority: 1,
            action: redirect,
            arg: 0,
        },
    );
    b.entry(
        t2,
        Entry {
            key: MatchKey::Exact(vec![5]),
            priority: 0,
            action: hit2,
            arg: 111,
        },
    );
    let mut m = RmtMachine::new();
    m.install(verify(b.build()).unwrap(), ExecMode::Interp)
        .unwrap();
    assert!(
        !m.hook_index["h1"].key_stable,
        "t2 keys f1, which h1 does not consume"
    );
    // Same h1 probe key (f0 = 50), different f1: the second firing
    // must re-resolve at t2, not replay the cached entry.
    let mut a = Ctxt::from_values(vec![50, 5]);
    assert_eq!(m.fire("h1", &mut a).verdict(), Some(111));
    let mut b2 = Ctxt::from_values(vec![50, 6]);
    assert_eq!(
        m.fire("h1", &mut b2).verdict(),
        Some(-1),
        "divergent tail-call key must fall back, not replay"
    );
}

/// A listener that stores to a field some table at the hook keys
/// on also defeats key stability: the probe key cannot pin a field
/// the pipeline itself rewrites.
#[test]
fn consumed_field_write_defeats_key_stability() {
    let mut b = ProgramBuilder::new("selfwrite");
    let s = b.field_scratch("s");
    let act = b.action(Action::new(
        "bump",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 1,
            },
            Insn::StCtxt {
                field: s,
                src: Reg(0),
            },
            Insn::Exit,
        ],
    ));
    let t = b.table("t", "wh", &[s], MatchKind::Range, Some(act), 16);
    b.entry(
        t,
        Entry {
            key: MatchKey::Range(vec![(0, 100)]),
            priority: 1,
            action: act,
            arg: 0,
        },
    );
    let mut m = RmtMachine::new();
    m.install(verify(b.build()).unwrap(), ExecMode::Interp)
        .unwrap();
    assert!(!m.hook_index["wh"].key_stable);
}

/// Switching OptLevel recompiles through the optimize → re-verify
/// → compile path and never changes verdicts: O0 is the oracle.
#[test]
fn set_opt_level_is_behavior_preserving() {
    use crate::opt::OptLevel;
    let mut m = RmtMachine::new();
    let id = m.install(doubling_program(), ExecMode::Jit).unwrap();
    assert_eq!(m.opt_level(id).unwrap(), OptLevel::O2, "default on");
    let v_opt = m.fire("test_hook", &mut ctxt_with_pid(7)).verdict();
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        m.set_opt_level(id, level).unwrap();
        assert_eq!(m.opt_level(id).unwrap(), level);
        assert_eq!(
            m.fire("test_hook", &mut ctxt_with_pid(7)).verdict(),
            v_opt,
            "level {level:?} diverged from the oracle"
        );
    }
    assert!(matches!(
        m.set_opt_level(ProgId(999), OptLevel::O0),
        Err(VmError::NoSuchProgram(_))
    ));
}

#[test]
fn flow_key_hash_mixes_one_round_per_word() {
    use std::hash::{Hash, Hasher};
    let (a, b) = (0x0123_4567_89AB_CDEFu64, 7u64);
    let mut by_slice = cache::FlowKeyHasher::default();
    [a, b].as_slice().hash(&mut by_slice);
    let mut by_word = cache::FlowKeyHasher::default();
    by_word.write_usize(2);
    by_word.write_u64(a);
    by_word.write_u64(b);
    assert_eq!(by_slice.finish(), by_word.finish());
    // Trailing bytes that do not fill a word still count.
    let mut odd = cache::FlowKeyHasher::default();
    odd.write(&[1, 2, 3]);
    assert_ne!(odd.finish(), cache::FlowKeyHasher::default().finish());
}
