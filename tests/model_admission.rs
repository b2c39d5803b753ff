//! Malformed models at every boundary a model crosses on its way to a
//! hook: program install, snapshot restore, model hot-swap and journal
//! replay. A quantized MLP whose `weights` array was truncated (and a
//! tree whose leaf label pointed past its histogram) used to decode,
//! pass admission on its declared shape, and panic the datapath on the
//! first fire. Now each boundary answers with an error and the machine
//! keeps serving the model it had.

use rkd::core::bytecode::{Action, Insn, ModelSlot, Reg, VReg};
use rkd::core::ctrl::{syscall_rmt, CtrlRequest, CtrlResponse};
use rkd::core::ctxt::Ctxt;
use rkd::core::error::{VerifyError, VmError};
use rkd::core::journal::{JournalError, JournaledMachine, JOURNAL_FILE};
use rkd::core::machine::{ExecMode, MachineSnapshot, ProgId, RmtMachine};
use rkd::core::prog::{ModelSpec, ProgramBuilder, RmtProgram};
use rkd::core::snapshot::{from_json_str, to_json_string};
use rkd::core::table::MatchKind;
use rkd::core::verifier::{verify, VerifierConfig};
use rkd::ml::cost::LatencyClass;
use rkd::ml::dataset::{Dataset, Sample};
use rkd::ml::fixed::Fix;
use rkd::ml::quant::{QuantLayer, QuantMlp};
use rkd::ml::svm::IntSvm;
use rkd::ml::tree::{DecisionTree, TreeConfig};
use rkd::testkit::tmp::TempDir;

const HOOK: &str = "can_migrate_task";
const ARITY: usize = 4;
const PLACEHOLDER_WEIGHTS: &str = "\"weights\":[0,0,0,0,0,0,0,0]";

/// `can_migrate.rmt` in miniature: four context fields into `CALL_ML`.
fn policy_program(spec: ModelSpec) -> (RmtProgram, ModelSlot) {
    let mut b = ProgramBuilder::new("admission");
    let fields: Vec<_> = (0..ARITY)
        .map(|i| b.field_readonly(&format!("f{i}")))
        .collect();
    let slot = b.model("m", spec, LatencyClass::Scheduler);
    let act = b.action(Action::new(
        "ask",
        vec![
            Insn::VectorLdCtxt {
                dst: VReg(0),
                base: fields[0],
                len: ARITY as u16,
            },
            Insn::CallMl {
                model: slot,
                src: VReg(0),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", HOOK, &[fields[0]], MatchKind::Exact, Some(act), 8);
    (b.build(), slot)
}

/// A model that answers 1 whatever it is asked (the placeholder
/// answers 0), so a swap that went through is visible in the verdict.
fn always_one() -> QuantMlp {
    let layer = QuantLayer::new(
        vec![0; ARITY * 2],
        vec![Fix::ZERO, Fix::ONE],
        vec![0; ARITY],
        ARITY,
        2,
    )
    .unwrap();
    QuantMlp::new(vec![layer], 8).unwrap()
}

fn xor_tree() -> DecisionTree {
    let samples = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        .iter()
        .cycle()
        .take(20)
        .map(|&(a, b)| Sample::from_f64(&[a, b, 0.0, 0.0], ((a as i32) ^ (b as i32)) as usize))
        .collect();
    DecisionTree::train(
        &Dataset::from_samples(samples).unwrap(),
        &TreeConfig::default(),
    )
    .unwrap()
}

fn empty_svm() -> ModelSpec {
    ModelSpec::Svm(IntSvm {
        weights: Vec::new(),
        bias: Fix::ZERO,
    })
}

fn fire(m: &mut RmtMachine) -> Option<i64> {
    m.fire(HOOK, &mut Ctxt::from_values(vec![3, 1, 4, 1]))
        .verdict()
}

fn installed(spec: ModelSpec) -> (RmtMachine, ProgId, ModelSlot) {
    let (prog, slot) = policy_program(spec);
    let mut m = RmtMachine::new();
    let id = m.install(verify(prog).unwrap(), ExecMode::Jit).unwrap();
    (m, id, slot)
}

/// `from` occurs in `json` and replacing its first occurrence by `to`
/// yields what the caller then tries to decode.
fn tamper(json: &str, from: &str, to: &str) -> String {
    assert!(json.contains(from), "{from} not in {json}");
    json.replacen(from, to, 1)
}

#[test]
fn install_rejects_malformed_models() {
    // Decode: the program never materialises.
    let (prog, _) = policy_program(ModelSpec::Qmlp(QuantMlp::placeholder(ARITY, 2)));
    let json = to_json_string(&prog);
    assert!(from_json_str::<RmtProgram>(&json).is_ok());
    let bad = tamper(&json, PLACEHOLDER_WEIGHTS, "\"weights\":[]");
    assert!(from_json_str::<RmtProgram>(&bad).is_err());
    let (prog, _) = policy_program(ModelSpec::Tree(xor_tree()));
    let json = to_json_string(&prog);
    assert!(from_json_str::<RmtProgram>(&json).is_ok());
    for (from, to) in [
        ("\"label\":1", "\"label\":9"),
        ("\"feature\":1", "\"feature\":4"),
    ] {
        assert!(from_json_str::<RmtProgram>(&tamper(&json, from, to)).is_err());
    }

    // Admission: a model value built in memory is checked all the same.
    let mut b = ProgramBuilder::new("svm");
    let f = b.field_readonly("f");
    let slot = b.model("m", empty_svm(), LatencyClass::Scheduler);
    let ret0 = vec![
        Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        },
        Insn::Exit,
    ];
    let act = b.action(Action::new("ret0", ret0));
    b.table("t", HOOK, &[f], MatchKind::Exact, Some(act), 8);
    let prog = b.build();
    assert!(matches!(
        verify(prog.clone()),
        Err(VerifyError::MalformedModel { model, .. }) if model == slot.0
    ));
    let mut m = RmtMachine::new();
    let req = CtrlRequest::Install {
        prog: Box::new(prog),
        mode: ExecMode::Jit,
        seed: 1,
    };
    assert!(matches!(
        syscall_rmt(&mut m, req),
        Err(VmError::Verify(VerifyError::MalformedModel { .. }))
    ));
}

#[test]
fn restore_rejects_malformed_models() {
    let (mut m, _, _) = installed(ModelSpec::Qmlp(QuantMlp::placeholder(ARITY, 2)));
    assert_eq!(fire(&mut m), Some(0));
    let json = to_json_string(&m.snapshot());
    let snap: MachineSnapshot = from_json_str(&json).unwrap();
    let mut back = RmtMachine::restore(snap, &VerifierConfig::default()).unwrap();
    assert_eq!(fire(&mut back), Some(0));

    // Snapshot JSON: truncated weights, layers that do not chain.
    let bad = tamper(&json, PLACEHOLDER_WEIGHTS, "\"weights\":[]");
    assert!(from_json_str::<MachineSnapshot>(&bad).is_err());
    let bad = tamper(&json, "\"out_dim\":2", "\"out_dim\":3");
    assert!(from_json_str::<MachineSnapshot>(&bad).is_err());

    // A snapshot value: restore re-verifies, and the verifier validates.
    let mut snap = m.snapshot();
    snap.programs[0].prog.models[0].spec = empty_svm();
    assert!(matches!(
        RmtMachine::restore(snap, &VerifierConfig::default()),
        Err(VmError::Verify(_))
    ));
}

#[test]
fn update_model_rejects_malformed_models() {
    let (mut m, prog, slot) = installed(ModelSpec::Qmlp(QuantMlp::placeholder(ARITY, 2)));
    let push = |spec| CtrlRequest::UpdateModel {
        prog,
        slot,
        spec: Box::new(spec),
    };
    // The request as it crosses the boundary.
    let json = to_json_string(&push(ModelSpec::Qmlp(QuantMlp::placeholder(ARITY, 2))));
    assert!(from_json_str::<CtrlRequest>(&json).is_ok());
    let bad = tamper(&json, PLACEHOLDER_WEIGHTS, "\"weights\":[0,0,0]");
    assert!(from_json_str::<CtrlRequest>(&bad).is_err());

    // Built in memory: refused by `update_model`, and the batch form
    // swaps in none of a push that carries one bad model.
    assert!(syscall_rmt(&mut m, push(empty_svm())).is_err());
    let pushes = vec![(slot, ModelSpec::Qmlp(always_one())), (slot, empty_svm())];
    assert!(m.update_models(prog, pushes).is_err());
    assert_eq!(fire(&mut m), Some(0), "the placeholder still answers");

    assert_eq!(
        syscall_rmt(&mut m, push(ModelSpec::Qmlp(always_one()))).unwrap(),
        CtrlResponse::Ok
    );
    assert_eq!(fire(&mut m), Some(1));
}

#[test]
fn journal_replay_never_applies_a_malformed_model() {
    let dir = TempDir::new("admission-journal");
    let (prog, slot) = policy_program(ModelSpec::Qmlp(QuantMlp::placeholder(ARITY, 2)));
    let mut jm =
        JournaledMachine::create(dir.path(), RmtMachine::new(), VerifierConfig::default()).unwrap();
    let CtrlResponse::Installed(id) = jm
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: 1,
        })
        .unwrap()
    else {
        panic!("install answers Installed");
    };
    // Two pushes of a real model, so that one can be damaged in the
    // journal's interior and the other at its tail.
    for _ in 0..2 {
        jm.ctrl(CtrlRequest::UpdateModel {
            prog: id,
            slot,
            spec: Box::new(ModelSpec::Qmlp(always_one())),
        })
        .unwrap();
    }
    assert_eq!(fire(jm.machine_mut()), Some(1));
    drop(jm);

    let path = dir.path().join(JOURNAL_FILE);
    let journal = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines.len(), 3, "install + two pushes");
    let damaged = tamper(lines[2], PLACEHOLDER_WEIGHTS, "\"weights\":[]");

    // At the tail it reads as a torn record: dropped, never applied.
    std::fs::write(&path, format!("{}\n{}\n{damaged}\n", lines[0], lines[1])).unwrap();
    let mut jm = JournaledMachine::open(dir.path(), VerifierConfig::default()).unwrap();
    assert_eq!(fire(jm.machine_mut()), Some(1));
    drop(jm);

    // In the interior it is damage: recovery refuses to replay around it.
    let damaged = tamper(lines[1], PLACEHOLDER_WEIGHTS, "\"weights\":[]");
    std::fs::write(&path, format!("{}\n{damaged}\n{}\n", lines[0], lines[2])).unwrap();
    assert!(matches!(
        JournaledMachine::open(dir.path(), VerifierConfig::default()),
        Err(JournalError::Corrupt { line: 2, .. })
    ));
}
