//! Integration: model-safety guardrails (§3.3) — wild or low-confidence
//! predictions are caught by the per-slot guard before they can steer
//! the datapath, in both execution engines and through the DSL.

use rkd::core::ctxt::Ctxt;
use rkd::core::guard::ModelGuard;
use rkd::core::machine::{ExecMode, RmtMachine};
use rkd::core::opt::OptLevel;
use rkd::core::prog::{ModelSpec, ProgramBuilder};
use rkd::core::table::MatchKind;
use rkd::core::verifier::verify;
use rkd::core::VerifyError;
use rkd::ml::cost::LatencyClass;
use rkd::ml::dataset::{Dataset, Sample};
use rkd::ml::fixed::Fix;
use rkd::ml::tree::{DecisionTree, TreeConfig};

/// A tree predicting class 7 for any input above the threshold —
/// standing in for a compromised or badly drifted model.
fn wild_tree() -> DecisionTree {
    let ds = Dataset::from_samples(vec![
        Sample::from_f64(&[0.0], 0),
        Sample::from_f64(&[1.0], 0),
        Sample::from_f64(&[99.0], 7),
        Sample::from_f64(&[100.0], 7),
    ])
    .unwrap();
    DecisionTree::train(&ds, &TreeConfig::default()).unwrap()
}

fn guarded_machine(guard: ModelGuard, level: OptLevel) -> RmtMachine {
    let mut b = ProgramBuilder::new("guarded");
    b.opt_level(level);
    let x = b.field_readonly("x");
    let slot = b.model_guarded(
        "m",
        ModelSpec::Tree(wild_tree()),
        LatencyClass::Background,
        guard,
    );
    let act = b.action(rkd::core::bytecode::Action::new(
        "ml",
        vec![
            rkd::core::bytecode::Insn::VectorLdCtxt {
                dst: rkd::core::bytecode::VReg(0),
                base: x,
                len: 1,
            },
            rkd::core::bytecode::Insn::CallMl {
                model: slot,
                src: rkd::core::bytecode::VReg(0),
            },
            rkd::core::bytecode::Insn::Exit,
        ],
    ));
    b.table("t", "h", &[x], MatchKind::Exact, Some(act), 4);
    let verified = verify(b.build()).unwrap();
    let mut vm = RmtMachine::new();
    vm.install(verified, ExecMode::Jit).unwrap();
    vm
}

#[test]
fn wild_class_clamped_at_o0_and_o2() {
    for level in [OptLevel::O0, OptLevel::O2] {
        let mut vm = guarded_machine(ModelGuard::clamp(1, 0), level);
        // Benign input: class 0 passes through.
        let mut ctxt = Ctxt::from_values(vec![0]);
        assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(0));
        // Adversarial input: raw class 7 would escape [0, 1]; the guard
        // forces the fallback.
        let mut ctxt = Ctxt::from_values(vec![100]);
        assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(0));
        let id = vm.program_ids()[0];
        assert_eq!(vm.stats(id).unwrap().guard_trips, 1);
    }
}

#[test]
fn unguarded_model_passes_wild_class_through() {
    // Control: same model without a guard emits the raw class — the
    // guard, not the model, is what contains the blast radius.
    let mut b = ProgramBuilder::new("unguarded");
    let x = b.field_readonly("x");
    let slot = b.model("m", ModelSpec::Tree(wild_tree()), LatencyClass::Background);
    let act = b.action(rkd::core::bytecode::Action::new(
        "ml",
        vec![
            rkd::core::bytecode::Insn::VectorLdCtxt {
                dst: rkd::core::bytecode::VReg(0),
                base: x,
                len: 1,
            },
            rkd::core::bytecode::Insn::CallMl {
                model: slot,
                src: rkd::core::bytecode::VReg(0),
            },
            rkd::core::bytecode::Insn::Exit,
        ],
    ));
    b.table("t", "h", &[x], MatchKind::Exact, Some(act), 4);
    let verified = verify(b.build()).unwrap();
    let mut vm = RmtMachine::new();
    vm.install(verified, ExecMode::Jit).unwrap();
    let mut ctxt = Ctxt::from_values(vec![100]);
    assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(7));
}

#[test]
fn confidence_floor_forces_conservative_fallback() {
    // A mixed-label leaf yields confidence 0.5; a 0.9 floor rejects it.
    let ds = Dataset::from_samples(vec![
        Sample::from_f64(&[10.0], 0),
        Sample::from_f64(&[10.0], 1),
    ])
    .unwrap();
    let ambivalent = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
    let mut b = ProgramBuilder::new("floor");
    let x = b.field_readonly("x");
    let slot = b.model_guarded(
        "m",
        ModelSpec::Tree(ambivalent),
        LatencyClass::Background,
        ModelGuard {
            max_class: 1,
            fallback_class: 1,
            min_confidence: Fix::from_f64(0.9),
        },
    );
    let act = b.action(rkd::core::bytecode::Action::new(
        "ml",
        vec![
            rkd::core::bytecode::Insn::VectorLdCtxt {
                dst: rkd::core::bytecode::VReg(0),
                base: x,
                len: 1,
            },
            rkd::core::bytecode::Insn::CallMl {
                model: slot,
                src: rkd::core::bytecode::VReg(0),
            },
            rkd::core::bytecode::Insn::Exit,
        ],
    ));
    b.table("t", "h", &[x], MatchKind::Exact, Some(act), 4);
    let verified = verify(b.build()).unwrap();
    let mut vm = RmtMachine::new();
    let id = vm.install(verified, ExecMode::Interp).unwrap();
    let mut ctxt = Ctxt::from_values(vec![10]);
    assert_eq!(
        vm.fire("h", &mut ctxt).verdict(),
        Some(1),
        "50% confidence < 90% floor -> fallback"
    );
    assert_eq!(vm.stats(id).unwrap().guard_trips, 1);
}

#[test]
fn malformed_guard_rejected_by_verifier() {
    let mut b = ProgramBuilder::new("bad");
    b.model_guarded(
        "m",
        ModelSpec::Tree(wild_tree()),
        LatencyClass::Background,
        ModelGuard::clamp(1, 5), // Fallback outside the clamp.
    );
    b.action(rkd::core::bytecode::Action::new(
        "a",
        vec![
            rkd::core::bytecode::Insn::LdImm {
                dst: rkd::core::bytecode::Reg(0),
                imm: 0,
            },
            rkd::core::bytecode::Insn::Exit,
        ],
    ));
    assert!(matches!(
        verify(b.build()),
        Err(VerifyError::BadGuard { model: 0 })
    ));
}

#[test]
fn guard_survives_model_hot_swap() {
    let mut vm = guarded_machine(ModelGuard::clamp(1, 0), OptLevel::default());
    let id = vm.program_ids()[0];
    // Swap in a fresh (equally wild) model: the slot's guard persists.
    vm.update_model(
        id,
        rkd::core::bytecode::ModelSlot(0),
        ModelSpec::Tree(wild_tree()),
    )
    .unwrap();
    let mut ctxt = Ctxt::from_values(vec![100]);
    assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(0));
    assert_eq!(vm.stats(id).unwrap().guard_trips, 1);
}

#[test]
fn dsl_guard_syntax_end_to_end() {
    let src = r#"
        program "dsl_guard" {
            ctxt x: ro;
            map feat: ring[1];
            model m: tree(1) @ bg guard(1, 0, 900);
            action ml {
                push(feat, ctxt.x);
                let v = window(feat);
                let c = predict(m, v);
                return c;
            }
            table t { hook h; match x; default ml; }
        }
    "#;
    let compiled = rkd::lang::compile(src).unwrap();
    let guard = compiled.program.models[0].guard.expect("guard lowered");
    assert_eq!(guard.max_class, 1);
    assert_eq!(guard.fallback_class, 0);
    assert_eq!(guard.min_confidence, Fix::from_f64(0.9));
    let verified = verify(compiled.program.clone()).unwrap();
    let mut vm = RmtMachine::new();
    let id = vm.install(verified, ExecMode::Jit).unwrap();
    // Swap the placeholder for the wild tree: guard still clamps.
    vm.update_model(id, compiled.models["m"], ModelSpec::Tree(wild_tree()))
        .unwrap();
    let mut ctxt = Ctxt::from_values(vec![100]);
    assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(0));
    assert!(vm.stats(id).unwrap().guard_trips >= 1);
    // Malformed DSL guard rejected at lowering.
    let bad = r#"program "b" { model m: tree(1) @ bg guard(1, 0, 5000); }"#;
    assert!(rkd::lang::compile(bad).is_err());
}
