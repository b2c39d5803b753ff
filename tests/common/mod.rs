//! Shared harness for the VM differential tests: a PRNG-driven
//! generator of safe-subset bytecode and the two-way equivalence
//! checker (the verified body as written, O0, vs its O2-optimized
//! rewrite, both executed by `run_action`) that `vm_equivalence` and
//! `differential_smoke` drive.

#![allow(dead_code)] // Each test target uses a different subset.

use rkd::core::bytecode::{Action, AluOp, CmpOp, Insn, Reg, VReg};
use rkd::core::ctxt::Ctxt;
use rkd::core::dp::PrivacyLedger;
use rkd::core::interp::{run_action, ExecEnv};
use rkd::core::maps::{MapDef, MapId, MapInstance, MapKind};
use rkd::core::opt::{optimize_reverified, OptLevel};
use rkd::core::prog::{PrivacyPolicy, ProgramBuilder, RmtProgram};
use rkd::core::table::MatchKind;
use rkd::core::verifier::verify;
use rkd::testkit::rng::{Rng, SeedableRng, SliceRandom, StdRng};

const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Mod,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Min,
    AluOp::Max,
];

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// One random instruction from a safe subset. Registers are restricted
/// to r0..r7 plus r9 (always initialized by the harness's prologue),
/// jump targets are patched afterwards to stay in range and
/// forward-only.
pub fn gen_insn(g: &mut impl Rng) -> Insn {
    match g.gen_range(0u8..9) {
        0 => Insn::LdImm {
            dst: Reg(g.gen_range(0u8..8)),
            imm: g.gen_range(-1000i64..1000),
        },
        1 => Insn::Mov {
            dst: Reg(g.gen_range(0u8..8)),
            src: Reg(g.gen_range(0u8..8)),
        },
        2 => Insn::Alu {
            op: *ALU_OPS.choose(g).expect("nonempty"),
            dst: Reg(g.gen_range(0u8..8)),
            src: Reg(g.gen_range(0u8..8)),
        },
        3 => Insn::AluImm {
            op: *ALU_OPS.choose(g).expect("nonempty"),
            dst: Reg(g.gen_range(0u8..8)),
            imm: g.gen_range(-100i64..100),
        },
        4 => Insn::JmpIfImm {
            cmp: *CMP_OPS.choose(g).expect("nonempty"),
            lhs: Reg(g.gen_range(0u8..8)),
            imm: g.gen_range(-50i64..50),
            target: g.gen_range(0usize..64),
        },
        5 => Insn::MapUpdate {
            map: MapId(g.gen_range(0u16..2)),
            key: Reg(g.gen_range(0u8..8)),
            value: Reg(g.gen_range(0u8..8)),
        },
        6 => Insn::MapLookup {
            dst: Reg(g.gen_range(0u8..8)),
            map: MapId(g.gen_range(0u16..2)),
            key: Reg(g.gen_range(0u8..8)),
            default: g.gen_range(-5i64..5),
        },
        7 => Insn::VectorPush {
            dst: VReg(0),
            src: Reg(g.gen_range(0u8..8)),
        },
        _ => Insn::ScalarVal {
            dst: Reg(g.gen_range(0u8..8)),
            src: VReg(0),
            idx: g.gen_range(0u16..4),
        },
    }
}

/// Index of the first generated instruction: [`make_action`]'s
/// prologue initializes r0..r7 and v0.
pub const BODY_START: usize = 9;

/// Builds an action from random instructions: a prologue initializes
/// r0..r7 and v0, jump targets are forced forward and in range, and an
/// epilogue guarantees termination.
pub fn make_action(raw: Vec<Insn>) -> Action {
    let mut code: Vec<Insn> = (0..8u8)
        .map(|r| Insn::LdImm {
            dst: Reg(r),
            imm: r as i64,
        })
        .collect();
    code.push(Insn::VectorClear { dst: VReg(0) });
    let body_start = code.len();
    assert_eq!(body_start, BODY_START);
    let body_len = raw.len();
    for (i, mut insn) in raw.into_iter().enumerate() {
        if let Insn::JmpIfImm { target, .. } = &mut insn {
            // Forward-only, within [next insn, end-of-body].
            let lo = i + 1;
            let hi = body_len;
            let span = (hi - lo).max(1);
            *target = body_start + lo + (*target % span);
        }
        code.push(insn);
    }
    code.push(Insn::LdImm {
        dst: Reg(0),
        imm: 0,
    });
    code.push(Insn::Exit);
    Action::new("generated", code)
}

struct Fx {
    ctxt: Ctxt,
    maps: Vec<MapInstance>,
    rng: StdRng,
    ledger: PrivacyLedger,
}

impl Fx {
    fn new() -> Fx {
        let hash = MapInstance::new(&MapDef {
            name: "h".into(),
            kind: MapKind::Hash,
            capacity: 32,
            shared: false,
            per_cpu: false,
        })
        .unwrap();
        let ring = MapInstance::new(&MapDef {
            name: "r".into(),
            kind: MapKind::RingBuf,
            capacity: 8,
            shared: false,
            per_cpu: false,
        })
        .unwrap();
        Fx {
            ctxt: Ctxt::from_values(vec![7]),
            maps: vec![hash, ring],
            rng: StdRng::seed_from_u64(99),
            ledger: PrivacyLedger::new(10_000),
        }
    }
}

/// Runs `action` against a fresh fixture and returns the outcome plus
/// the fixture's final state.
fn run_body(action: &Action, fuel: u64, arg: i64) -> (rkd::core::interp::ActionOutcome, Fx) {
    let mut fx = Fx::new();
    let outcome = {
        let tensors = Vec::new();
        let models = Vec::new();
        let mut env = ExecEnv {
            ctxt: &mut fx.ctxt,
            maps: &mut fx.maps,
            tensors: &tensors,
            models: &models,
            tick: 5,
            rng: &mut fx.rng,
            ledger: &mut fx.ledger,
            privacy: PrivacyPolicy::default(),
            ml_stats: &mut [],
            time_ml: false,
        };
        run_action(action, fuel, arg, &mut env)
    };
    (
        outcome.expect("admitted program terminates within bound"),
        fx,
    )
}

/// The minimal program a generated action is verified in: one
/// read-only field, the two maps the generator addresses, and one
/// table whose default action is `action`.
pub fn program_for(action: &Action) -> RmtProgram {
    let mut b = ProgramBuilder::new("prop");
    let pid = b.field_readonly("pid");
    b.map("h", MapKind::Hash, 32);
    b.map("r", MapKind::RingBuf, 8);
    let act = b.action(action.clone());
    b.table("t", "hook", &[pid], MatchKind::Exact, Some(act), 4);
    b.build()
}

/// Returns `action` with one conditional back edge inserted at a random
/// point of its generated body and a declared `loop_bound`. The
/// generator forces every jump forward, so this is how a corpus gets
/// loops: the edge may close a natural loop or, when a forward jump
/// from before its target lands inside it, an irreducible one.
pub fn with_back_edge(mut action: Action, g: &mut impl Rng) -> Action {
    // Insert between the prologue and the two-instruction epilogue.
    let at = g.gen_range(BODY_START..=action.code.len() - 2);
    for insn in &mut action.code {
        if let Insn::JmpIfImm { target, .. } = insn {
            if *target > at {
                *target += 1;
            }
        }
    }
    let edge = Insn::JmpIfImm {
        cmp: *CMP_OPS.choose(g).expect("nonempty"),
        lhs: Reg(g.gen_range(0u8..8)),
        imm: g.gen_range(-50i64..50),
        target: g.gen_range(BODY_START..=at),
    };
    action.code.insert(at, edge);
    action.loop_bound = Some(g.gen_range(1u32..=8));
    action
}

/// Generates an action, routes it through the real verifier, and (for
/// admitted programs) asserts the two-way oracle: the body as written
/// (O0) and its O2 rewrite agree on outcome, context, and map state.
pub fn check_o0_o2_equivalence(raw: Vec<Insn>, arg: i64) {
    run_o0_o2_equivalence(raw, arg);
}

/// Like [`check_o0_o2_equivalence`], but reports whether the verifier
/// admitted the program (so callers can track coverage).
pub fn run_o0_o2_equivalence(raw: Vec<Insn>, arg: i64) -> bool {
    let action = make_action(raw);
    let verified = match verify(program_for(&action)) {
        Ok(v) => v,
        // Generated code can legitimately be rejected (e.g. a
        // conditional path reads a register the meet killed); the
        // property only covers admitted programs.
        Err(_) => return false,
    };
    let fuel = verified.worst_case_insns()[0];

    // Both bodies come out of the machine's own install path. O0 is
    // the reference: the verified body as written.
    let (o0, wc0) = optimize_reverified(0, &action, verified.prog(), OptLevel::O0, fuel)
        .expect("the verified body must re-pass the verifier");
    assert_eq!(o0.action.code, action.code, "O0 must not rewrite");
    assert_eq!(wc0, fuel, "re-verification must reproduce the bound");
    let (reference, mut fx_r) = run_body(&o0.action, fuel, arg);
    // Soundness: an admitted program must not exhaust its verified
    // fuel.
    assert!(reference.insns_executed <= fuel);

    // O2 re-verifies the rewritten body (meta-safety: a pass emitting
    // an inadmissible body is a hard install error, which this corpus
    // would surface) and runs on its own, never-looser, bound.
    let (o2, wc2) = optimize_reverified(0, &action, verified.prog(), OptLevel::O2, fuel)
        .expect("optimizer output must re-pass the verifier");
    assert!(wc2 <= fuel);
    let (opt, mut fx_o) = run_body(&o2.action, wc2, arg);
    // Same observable outcome; the optimized body may execute fewer
    // dynamic instructions, never more.
    assert_eq!(reference.verdict, opt.verdict);
    assert_eq!(reference.effects, opt.effects);
    assert_eq!(reference.tail_call, opt.tail_call);
    assert_eq!(reference.guard_trips, opt.guard_trips);
    assert!(
        opt.insns_executed <= reference.insns_executed,
        "optimization increased executed instructions ({} -> {})",
        reference.insns_executed,
        opt.insns_executed
    );
    assert_eq!(fx_r.ctxt, fx_o.ctxt);
    for (a, b) in fx_r.maps.iter_mut().zip(fx_o.maps.iter_mut()) {
        assert_eq!(a.aggregate_sum(), b.aggregate_sum());
        assert_eq!(a.len(), b.len());
    }
    true
}
