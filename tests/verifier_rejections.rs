//! Failure-injection corpus: one integration test per verifier
//! rejection class, exercised through the public `syscall_rmt` path so
//! the whole admission pipeline (not just `verify`) is covered.

use rkd::core::bytecode::{Action, AluOp, CmpOp, Helper, Insn, ModelSlot, Reg, VReg};
use rkd::core::ctrl::{syscall_rmt, syscall_rmt_with, CtrlRequest};
use rkd::core::machine::{ExecMode, RmtMachine};
use rkd::core::maps::MapKind;
use rkd::core::prog::{ModelSpec, PrivacyPolicy, ProgramBuilder, RmtProgram};
use rkd::core::table::{MatchKind, TableId};
use rkd::core::verifier::VerifierConfig;
use rkd::core::{VerifyError, VmError};
use rkd::ml::cost::LatencyClass;
use rkd::ml::fixed::Fix;
use rkd::ml::svm::IntSvm;

fn install(prog: RmtProgram) -> Result<(), VmError> {
    let mut vm = RmtMachine::new();
    syscall_rmt(
        &mut vm,
        CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Interp,
            seed: 0,
        },
    )
    .map(|_| ())
}

fn expect_verify_error(prog: RmtProgram) -> VerifyError {
    match install(prog) {
        Err(VmError::Verify(e)) => e,
        other => panic!("expected verification failure, got {other:?}"),
    }
}

#[test]
fn rejects_fall_through() {
    let mut b = ProgramBuilder::new("p");
    b.action(Action::new(
        "bad",
        vec![Insn::LdImm {
            dst: Reg(0),
            imm: 1,
        }],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::MissingExit(_)
    ));
}

#[test]
fn rejects_out_of_range_jump() {
    let mut b = ProgramBuilder::new("p");
    b.action(Action::new("bad", vec![Insn::Jmp { target: 99 }]));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::BadJumpTarget { .. }
    ));
}

#[test]
fn rejects_unbounded_loop() {
    let mut b = ProgramBuilder::new("p");
    b.action(Action::new(
        "spin",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::Jmp { target: 0 },
        ],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::UnboundedLoop { .. }
    ));
}

#[test]
fn rejects_execution_budget_blowout() {
    let mut b = ProgramBuilder::new("p");
    b.action(Action::with_loop_bound(
        "hot",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::JmpIfImm {
                cmp: CmpOp::Lt,
                lhs: Reg(0),
                imm: 1,
                target: 0,
            },
            Insn::Exit,
        ],
        u32::MAX,
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::ExecutionBudgetExceeded { .. }
    ));
}

#[test]
fn rejects_uninitialized_read() {
    let mut b = ProgramBuilder::new("p");
    b.action(Action::new(
        "uninit",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: Reg(5),
            },
            Insn::Exit,
        ],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::UninitializedRegister { reg: 5, .. }
    ));
}

#[test]
fn rejects_readonly_ctxt_store() {
    let mut b = ProgramBuilder::new("p");
    let pid = b.field_readonly("pid");
    b.action(Action::new(
        "w",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 1,
            },
            Insn::StCtxt {
                field: pid,
                src: Reg(0),
            },
            Insn::Exit,
        ],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::UnknownField { .. }
    ));
}

#[test]
fn rejects_unknown_map_model_table() {
    let mut b = ProgramBuilder::new("p");
    b.action(Action::new(
        "m",
        vec![
            Insn::LdImm {
                dst: Reg(2),
                imm: 0,
            },
            Insn::MapLookup {
                dst: Reg(0),
                map: rkd::core::maps::MapId(9),
                key: Reg(2),
                default: 0,
            },
            Insn::Exit,
        ],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::UnknownMap(9)
    ));
}

#[test]
fn rejects_over_budget_model() {
    let mut b = ProgramBuilder::new("p");
    b.model(
        "huge",
        ModelSpec::Svm(IntSvm {
            weights: vec![Fix::ONE; 8192],
            bias: Fix::ZERO,
        }),
        LatencyClass::Scheduler,
    );
    b.action(Action::new(
        "a",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::Exit,
        ],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::ModelOverBudget { .. }
    ));
}

#[test]
fn rejects_model_arity_mismatch() {
    let mut b = ProgramBuilder::new("p");
    let f = b.field_readonly("x");
    let svm = b.model(
        "svm",
        ModelSpec::Svm(IntSvm {
            weights: vec![Fix::ONE; 3],
            bias: Fix::ZERO,
        }),
        LatencyClass::Background,
    );
    b.action(Action::new(
        "ml",
        vec![
            Insn::VectorLdCtxt {
                dst: VReg(0),
                base: f,
                len: 1,
            },
            Insn::CallMl {
                model: svm,
                src: VReg(0),
            },
            Insn::Exit,
        ],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::ModelArityMismatch {
            expected: 3,
            got: 1,
            ..
        }
    ));
}

/// Branches on the entry argument, loads `v0` with `fall_len` features
/// on the fall-through arm and `jump_len` on the jump arm, then feeds
/// it to a 2-feature model.
fn mirrored_lengths(fall_len: u16, jump_len: u16) -> RmtProgram {
    let mut b = ProgramBuilder::new("p");
    let f = b.field_readonly("x");
    b.field_readonly("y");
    let svm = b.model(
        "svm",
        ModelSpec::Svm(IntSvm {
            weights: vec![Fix::ONE; 2],
            bias: Fix::ZERO,
        }),
        LatencyClass::Background,
    );
    let load = |len| Insn::VectorLdCtxt {
        dst: VReg(0),
        base: f,
        len,
    };
    b.action(Action::new(
        "ml",
        vec![
            Insn::JmpIfImm {
                cmp: CmpOp::Eq,
                lhs: Reg(9),
                imm: 0,
                target: 3,
            },
            load(fall_len),
            Insn::Jmp { target: 4 },
            load(jump_len),
            Insn::CallMl {
                model: svm,
                src: VReg(0),
            },
            Insn::Exit,
        ],
    ));
    b.build()
}

#[test]
fn rejects_model_input_whose_length_differs_between_paths() {
    // Either layout is rejected: admission does not depend on which
    // arm the verifier happens to visit first.
    for (fall, jump) in [(1, 2), (2, 1)] {
        assert!(
            matches!(
                expect_verify_error(mirrored_lengths(fall, jump)),
                VerifyError::VectorLengthUnknown {
                    action: 0,
                    at: 4,
                    model: 0
                }
            ),
            "lengths {fall}/{jump}"
        );
    }
    // One known length on both arms is admitted.
    assert!(install(mirrored_lengths(2, 2)).is_ok());
}

#[test]
fn rejects_shared_map_raw_read_and_budget_blowout() {
    // Raw read.
    let mut b = ProgramBuilder::new("p1");
    let m = b.shared_map("agg", MapKind::Histogram, 4);
    b.action(Action::new(
        "raw",
        vec![
            Insn::LdImm {
                dst: Reg(2),
                imm: 0,
            },
            Insn::VectorLdMap {
                dst: VReg(0),
                map: m,
            },
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::Exit,
        ],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::PrivacyViolation { .. }
    ));
    // Per-invocation charge over budget.
    let mut b = ProgramBuilder::new("p2");
    let m = b.shared_map("agg", MapKind::Histogram, 4);
    b.privacy(PrivacyPolicy {
        budget_milli_eps: 100,
        per_query_milli_eps: 80,
        sensitivity: 1,
    });
    b.action(Action::new(
        "two",
        vec![
            Insn::DpAggregate {
                dst: Reg(0),
                map: m,
            },
            Insn::DpAggregate {
                dst: Reg(1),
                map: m,
            },
            Insn::Exit,
        ],
    ));
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::PrivacyBudgetExceeded { .. }
    ));
}

#[test]
fn rejects_tail_call_cycle() {
    let mut b = ProgramBuilder::new("p");
    let f = b.field_readonly("k");
    let a0 = b.action(Action::new(
        "a0",
        vec![Insn::TailCall { table: TableId(1) }],
    ));
    let a1 = b.action(Action::new(
        "a1",
        vec![Insn::TailCall { table: TableId(0) }],
    ));
    b.table("t0", "h", &[f], MatchKind::Exact, Some(a0), 4);
    b.table("t1", "h", &[f], MatchKind::Exact, Some(a1), 4);
    assert!(matches!(
        expect_verify_error(b.build()),
        VerifyError::TailCallTooDeep { .. }
    ));
}

#[test]
fn deployment_policy_forbids_helpers() {
    let mut b = ProgramBuilder::new("p");
    b.action(Action::new(
        "h",
        vec![
            Insn::Call {
                helper: Helper::Rand,
            },
            Insn::Exit,
        ],
    ));
    let mut vcfg = VerifierConfig::default();
    vcfg.forbidden_helpers.push(Helper::Rand);
    let mut vm = RmtMachine::new();
    let err = syscall_rmt_with(
        &mut vm,
        CtrlRequest::Install {
            prog: Box::new(b.build()),
            mode: ExecMode::Interp,
            seed: 0,
        },
        &vcfg,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        VmError::Verify(VerifyError::HelperNotAllowed { .. })
    ));
}

#[test]
fn runtime_model_swap_is_reverified() {
    // A valid program whose model slot is then attacked with an
    // over-budget replacement: the control plane must reject it and
    // keep the old model serving.
    let mut b = ProgramBuilder::new("p");
    let f = b.field_readonly("x");
    let slot = b.model(
        "m",
        ModelSpec::Svm(IntSvm {
            weights: vec![Fix::ONE],
            bias: Fix::ZERO,
        }),
        LatencyClass::Scheduler,
    );
    let act = b.action(Action::new(
        "ml",
        vec![
            Insn::VectorLdCtxt {
                dst: VReg(0),
                base: f,
                len: 1,
            },
            Insn::CallMl {
                model: slot,
                src: VReg(0),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "h", &[f], MatchKind::Exact, Some(act), 4);
    let mut vm = RmtMachine::new();
    let id = match syscall_rmt(
        &mut vm,
        CtrlRequest::Install {
            prog: Box::new(b.build()),
            mode: ExecMode::Jit,
            seed: 0,
        },
    )
    .unwrap()
    {
        rkd::core::ctrl::CtrlResponse::Installed(id) => id,
        other => panic!("{other:?}"),
    };
    let attack = ModelSpec::Svm(IntSvm {
        weights: vec![Fix::ONE; 8192],
        bias: Fix::ZERO,
    });
    let err = syscall_rmt(
        &mut vm,
        CtrlRequest::UpdateModel {
            prog: id,
            slot: ModelSlot(0),
            spec: Box::new(attack),
        },
    )
    .unwrap_err();
    assert!(matches!(err, VmError::Verify(_) | VmError::BadEntry(_)));
    // Old model still serves.
    let mut ctxt = rkd::core::ctxt::Ctxt::from_values(vec![5]);
    assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(1));
}

#[test]
fn alu_helper_insertion_for_interference() {
    // The interference pass inserts a default rate limit when an
    // emitting program declares none; check the inserted guard is
    // observable post-install by blasting prefetches.
    let mut b = ProgramBuilder::new("p");
    let f = b.field_readonly("x");
    let act = b.action(Action::new(
        "blast",
        vec![
            Insn::LdImm {
                dst: Reg(2),
                imm: 0,
            },
            Insn::LdImm {
                dst: Reg(3),
                imm: 1_000,
            },
            Insn::Call {
                helper: Helper::EmitPrefetch,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(0),
                imm: 0,
            },
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "h", &[f], MatchKind::Exact, Some(act), 4);
    let mut vm = RmtMachine::new();
    let id = match syscall_rmt(
        &mut vm,
        CtrlRequest::Install {
            prog: Box::new(b.build()),
            mode: ExecMode::Interp,
            seed: 0,
        },
    )
    .unwrap()
    {
        rkd::core::ctrl::CtrlResponse::Installed(id) => id,
        other => panic!("{other:?}"),
    };
    // Each firing asks for 1000 pages; the default bucket (64 cap)
    // can never grant it.
    for _ in 0..5 {
        let mut ctxt = rkd::core::ctxt::Ctxt::from_values(vec![1]);
        let r = vm.fire("h", &mut ctxt);
        assert!(r.effects.is_empty(), "guard must drop the blast");
    }
    assert_eq!(vm.stats(id).unwrap().effects_rate_limited, 5);
}
