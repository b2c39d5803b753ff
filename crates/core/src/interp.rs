//! The RMT bytecode interpreter.
//!
//! §3.1: "The program runs in the virtual machine in interpreted mode or
//! it is just-in-time (JIT) compiled to machine code for efficiency."
//! This module is the machine's one execution engine: a
//! straightforward fetch/decode dispatch loop with full runtime
//! validation on every step. The "for efficiency" half happens before
//! it, over bytecode — [`crate::opt`] rewrites, re-verifies and fuses
//! the bodies [`run_action`] executes (DESIGN.md substitution #4) —
//! so the per-operand checks here are defense in depth on the
//! production path, not a slow mode.
//!
//! The interpreter is fueled with the worst-case instruction count the
//! verifier computed, so even a VM bug cannot produce unbounded kernel
//! execution (defense in depth — verified programs never exhaust fuel).
//!
//! Match resolution happens *before* execution, in
//! [`crate::machine::RmtMachine::fire`]: the action receives the entry
//! chosen by the shared indexed lookup engine ([`crate::table`]),
//! possibly replayed from the decision cache.

use crate::bytecode::{Action, Helper, Insn, MAX_VECTOR_LEN, NUM_REGS, NUM_VREGS};
use crate::ctxt::Ctxt;
use crate::dp::{noised_query, PrivacyLedger};
use crate::error::VmError;
use crate::maps::MapInstance;
use crate::prog::{ModelDef, PrivacyPolicy};
use crate::table::TableId;
use rkd_ml::fixed::Fix;
use rkd_ml::tensor::Tensor;
use rkd_testkit::rng::StdRng;

/// A side effect emitted by an action toward the surrounding kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Prefetch `count` pages starting at `base`.
    Prefetch {
        /// First page number.
        base: u64,
        /// Number of pages.
        count: u64,
    },
    /// A task-migration decision for the scheduler hook.
    Migrate {
        /// Whether the task should be migrated.
        migrate: bool,
    },
    /// A generic resource hint.
    Hint {
        /// Hint kind (program-defined).
        kind: i64,
        /// First argument.
        a: i64,
        /// Second argument.
        b: i64,
    },
}

impl Effect {
    /// Whether the effect consumes a rate-limited resource.
    pub fn is_resource(&self) -> bool {
        matches!(self, Effect::Prefetch { .. } | Effect::Hint { .. })
    }
}

/// The result of executing one action.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActionOutcome {
    /// The action's verdict (`r0` at `Exit`; 0 for tail calls that did
    /// not set it).
    pub verdict: i64,
    /// Effects emitted, in order.
    pub effects: Vec<Effect>,
    /// Set when the action ended in `TAIL_CALL`.
    pub tail_call: Option<TableId>,
    /// Dynamic instructions executed (for overhead accounting).
    pub insns_executed: u64,
    /// Model-guard rails tripped during the action (§3.3).
    pub guard_trips: u64,
}

/// Mutable execution environment an action runs against. Borrowed
/// pieces live in the installed-program state owned by the machine.
pub struct ExecEnv<'a> {
    /// The execution context being processed.
    pub ctxt: &'a mut Ctxt,
    /// Program map instances.
    pub maps: &'a mut [MapInstance],
    /// Weight tensor pool.
    pub tensors: &'a [Tensor],
    /// Model zoo.
    pub models: &'a [ModelDef],
    /// Machine tick (monotonic).
    pub tick: u64,
    /// Per-program RNG (helper `rand` and DP noise).
    pub rng: &'a mut StdRng,
    /// DP ledger.
    pub ledger: &'a mut PrivacyLedger,
    /// Privacy policy (per-query charge and sensitivity).
    pub privacy: PrivacyPolicy,
    /// Per-model-slot prediction telemetry, indexed like `models`. An
    /// empty slice disables recording (standalone action runs).
    pub ml_stats: &'a mut [crate::obs::ModelStats],
    /// Whether this firing was picked for latency sampling — bounds
    /// inference clock reads exactly like whole-fire timing.
    pub time_ml: bool,
}

/// Executes an action body — the machine's only dispatch loop.
///
/// `arg` is the matched entry's argument (delivered in `r9`); `fuel` is
/// the verifier-computed worst-case instruction count.
pub fn run_action(
    action: &Action,
    fuel: u64,
    arg: i64,
    env: &mut ExecEnv<'_>,
) -> Result<ActionOutcome, VmError> {
    let code = &action.code;
    let mut regs = [0i64; NUM_REGS as usize];
    regs[crate::bytecode::ARG_REG.0 as usize] = arg;
    let mut vregs: [Vec<Fix>; NUM_VREGS as usize] = Default::default();
    let mut out = ActionOutcome::default();
    let mut pc = 0usize;
    let mut remaining = fuel;
    loop {
        if remaining == 0 {
            return Err(VmError::FuelExhausted);
        }
        remaining -= 1;
        out.insns_executed += 1;
        let insn = code.get(pc).ok_or(VmError::Fault("pc out of range"))?;
        pc += 1;
        match insn {
            Insn::LdImm { dst, imm } => {
                regs[reg_idx(*dst)?] = *imm;
            }
            Insn::Mov { dst, src } => {
                regs[reg_idx(*dst)?] = regs[reg_idx(*src)?];
            }
            Insn::LdCtxt { dst, field } => {
                let v = env.ctxt.get(*field).ok_or(VmError::Fault("bad field"))?;
                regs[reg_idx(*dst)?] = v;
            }
            Insn::StCtxt { field, src } => {
                if !env.ctxt.set(*field, regs[reg_idx(*src)?]) {
                    return Err(VmError::Fault("bad field store"));
                }
            }
            Insn::Alu { op, dst, src } => {
                let d = reg_idx(*dst)?;
                regs[d] = op.eval(regs[d], regs[reg_idx(*src)?]);
            }
            Insn::AluImm { op, dst, imm } => {
                let d = reg_idx(*dst)?;
                regs[d] = op.eval(regs[d], *imm);
            }
            Insn::Jmp { target } => {
                pc = *target;
            }
            Insn::JmpIf {
                cmp,
                lhs,
                rhs,
                target,
            } => {
                if cmp.eval(regs[reg_idx(*lhs)?], regs[reg_idx(*rhs)?]) {
                    pc = *target;
                }
            }
            Insn::JmpIfImm {
                cmp,
                lhs,
                imm,
                target,
            } => {
                if cmp.eval(regs[reg_idx(*lhs)?], *imm) {
                    pc = *target;
                }
            }
            Insn::MapLookup {
                dst,
                map,
                key,
                default,
            } => {
                let m = map_mut(env.maps, map.0)?;
                let v = m.lookup(regs[reg_idx(*key)?] as u64).unwrap_or(*default);
                regs[reg_idx(*dst)?] = v;
            }
            Insn::MapUpdate { map, key, value } => {
                let k = regs[reg_idx(*key)?] as u64;
                let v = regs[reg_idx(*value)?];
                let m = map_mut(env.maps, map.0)?;
                regs[0] = match m.update(k, v) {
                    Ok(()) => 0,
                    Err(_) => 1,
                };
            }
            Insn::MapDelete { map, key } => {
                let k = regs[reg_idx(*key)?] as u64;
                let m = map_mut(env.maps, map.0)?;
                regs[0] = m.delete(k) as i64;
            }
            Insn::VectorLdMap { dst, map } => {
                let m = map_mut(env.maps, map.0)?;
                let snap = m.ring_snapshot();
                let v = &mut vregs[vreg_idx(*dst)?];
                v.clear();
                v.extend(snap.iter().take(MAX_VECTOR_LEN).map(|&x| Fix::from_int(x)));
            }
            Insn::VectorLdCtxt { dst, base, len } => {
                load_ctxt_window(env.ctxt, *base, *len, &mut vregs[vreg_idx(*dst)?])?;
            }
            Insn::VectorPush { dst, src } => {
                let val = Fix::from_int(regs[reg_idx(*src)?]);
                let v = &mut vregs[vreg_idx(*dst)?];
                if v.len() >= MAX_VECTOR_LEN {
                    return Err(VmError::Fault("vector overflow"));
                }
                v.push(val);
            }
            Insn::VectorClear { dst } => {
                vregs[vreg_idx(*dst)?].clear();
            }
            Insn::MatMul { dst, tensor, src } => {
                let t = env
                    .tensors
                    .get(tensor.0 as usize)
                    .ok_or(VmError::Fault("bad tensor"))?;
                mat_mul(t, &mut vregs, vreg_idx(*src)?, vreg_idx(*dst)?)?;
            }
            Insn::VecMap { op, dst } => {
                let v = &mut vregs[vreg_idx(*dst)?];
                for x in v.iter_mut() {
                    *x = match op {
                        crate::bytecode::VecUnary::Relu => x.relu(),
                        crate::bytecode::VecUnary::Sigmoid => x.sigmoid(),
                    };
                }
            }
            Insn::ScalarVal { dst, src, idx } => {
                let v = &vregs[vreg_idx(*src)?];
                let val = v
                    .get(*idx as usize)
                    .map(|f| f.round_int() as i64)
                    .unwrap_or(0);
                regs[reg_idx(*dst)?] = val;
            }
            Insn::CallMl { model, src } => {
                let m = env
                    .models
                    .get(model.0 as usize)
                    .ok_or(VmError::Fault("bad model"))?;
                let features = &vregs[vreg_idx(*src)?];
                let t0 = env.time_ml.then(std::time::Instant::now);
                let (mut class, conf) = m
                    .spec
                    .predict(features)
                    .map_err(|_| VmError::Fault("model arity"))?;
                if let Some(guard) = &m.guard {
                    let (guarded, tripped) = guard.apply(class, conf);
                    class = guarded;
                    if tripped {
                        out.guard_trips += 1;
                    }
                }
                // Telemetry records the post-guard class — what the
                // datapath actually served, the value ground-truth
                // outcomes are judged against.
                if let Some(st) = env.ml_stats.get_mut(model.0 as usize) {
                    st.record_prediction(class as i64, t0.map(|t| t.elapsed().as_nanos() as u64));
                }
                regs[0] = class as i64;
                regs[1] = conf.raw() as i64;
            }
            Insn::Call { helper } => match helper {
                Helper::GetTick => regs[0] = env.tick as i64,
                Helper::Rand => {
                    use rkd_testkit::rng::Rng;
                    regs[0] = env.rng.gen::<i64>();
                }
                Helper::EmitPrefetch => {
                    out.effects.push(Effect::Prefetch {
                        base: regs[2] as u64,
                        count: (regs[3].max(0)) as u64,
                    });
                    regs[0] = 0;
                }
                Helper::EmitMigrate => {
                    out.effects.push(Effect::Migrate {
                        migrate: regs[2] != 0,
                    });
                    regs[0] = 0;
                }
                Helper::EmitHint => {
                    out.effects.push(Effect::Hint {
                        kind: regs[2],
                        a: regs[3],
                        b: regs[4],
                    });
                    regs[0] = 0;
                }
            },
            Insn::DpAggregate { dst, map } => {
                let m = map_mut(env.maps, map.0)?;
                let sum = m.aggregate_sum();
                let noised = noised_query(
                    sum,
                    env.ledger,
                    env.privacy.per_query_milli_eps,
                    env.privacy.sensitivity,
                    env.rng,
                )?;
                regs[reg_idx(*dst)?] = noised;
            }
            Insn::Exit => {
                out.verdict = regs[0];
                return Ok(out);
            }
            Insn::TailCall { table } => {
                out.verdict = regs[0];
                out.tail_call = Some(*table);
                return Ok(out);
            }
        }
    }
}

/// `RMT_VECTOR_LD` from the context: `v = ctxt[base..base + len]` as
/// Q16.16, sized in one step. Out of line, like [`mat_mul`], so that the
/// dispatch loop's frame and register allocation do not pay for
/// instructions most actions never run.
#[inline(never)]
fn load_ctxt_window(
    ctxt: &Ctxt,
    base: crate::ctxt::FieldId,
    len: u16,
    v: &mut Vec<Fix>,
) -> Result<(), VmError> {
    let start = base.0 as usize;
    let window = ctxt
        .values()
        .get(start..start + len as usize)
        .ok_or(VmError::Fault("vector window"))?;
    v.clear();
    v.extend(window.iter().map(|&val| Fix::from_int(val)));
    Ok(())
}

/// `RMT_MAT_MUL`: `vregs[dst] = t * vregs[src]`, reusing `dst`'s
/// buffer.
#[inline(never)]
fn mat_mul(
    t: &Tensor,
    vregs: &mut [Vec<Fix>; NUM_VREGS as usize],
    src: usize,
    dst: usize,
) -> Result<(), VmError> {
    if vregs[src].is_empty() {
        return Err(VmError::Fault("matmul on empty vector"));
    }
    // Moved out, not cloned, so that `dst` can be written while it is
    // read (and may be the same register).
    let input = std::mem::take(&mut vregs[src]);
    let result = t.matvec_into(&input, &mut vregs[dst]);
    if src != dst {
        vregs[src] = input;
    }
    result.map_err(|_| VmError::Fault("matmul shape"))
}

#[inline]
fn reg_idx(r: crate::bytecode::Reg) -> Result<usize, VmError> {
    if r.0 < NUM_REGS {
        Ok(r.0 as usize)
    } else {
        Err(VmError::Fault("bad register"))
    }
}

#[inline]
fn vreg_idx(v: crate::bytecode::VReg) -> Result<usize, VmError> {
    if v.0 < NUM_VREGS {
        Ok(v.0 as usize)
    } else {
        Err(VmError::Fault("bad vector register"))
    }
}

#[inline]
fn map_mut(maps: &mut [MapInstance], id: u16) -> Result<&mut MapInstance, VmError> {
    maps.get_mut(id as usize).ok_or(VmError::Fault("bad map"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{AluOp, CmpOp, Reg, VReg};
    use crate::ctxt::CtxtSchema;
    use crate::maps::{MapDef, MapKind};
    use crate::prog::ModelSpec;
    use rkd_ml::cost::LatencyClass;
    use rkd_ml::dataset::{Dataset, Sample};
    use rkd_ml::tree::{DecisionTree, TreeConfig};
    use rkd_testkit::rng::SeedableRng;

    struct Fixture {
        ctxt: Ctxt,
        maps: Vec<MapInstance>,
        tensors: Vec<Tensor>,
        models: Vec<ModelDef>,
        rng: StdRng,
        ledger: PrivacyLedger,
        privacy: PrivacyPolicy,
    }

    impl Fixture {
        fn new() -> Fixture {
            let mut schema = CtxtSchema::new();
            schema.add_readonly("f0");
            schema.add_scratch("f1");
            schema.add_scratch("f2");
            let mut ctxt = schema.make_ctxt();
            ctxt.set(crate::ctxt::FieldId(0), 41);
            let ring = MapInstance::new(&MapDef {
                name: "ring".into(),
                kind: MapKind::RingBuf,
                capacity: 4,
                shared: false,
                per_cpu: false,
            })
            .unwrap();
            let hash = MapInstance::new(&MapDef {
                name: "hash".into(),
                kind: MapKind::Hash,
                capacity: 4,
                shared: false,
                per_cpu: false,
            })
            .unwrap();
            Fixture {
                ctxt,
                maps: vec![ring, hash],
                tensors: vec![Tensor::from_f64(2, 2, &[1.0, 0.0, 0.0, 2.0]).unwrap()],
                models: Vec::new(),
                rng: StdRng::seed_from_u64(7),
                ledger: PrivacyLedger::new(10_000),
                privacy: PrivacyPolicy::default(),
            }
        }

        fn env(&mut self) -> ExecEnv<'_> {
            ExecEnv {
                ctxt: &mut self.ctxt,
                maps: &mut self.maps,
                tensors: &self.tensors,
                models: &self.models,
                tick: 1234,
                rng: &mut self.rng,
                ledger: &mut self.ledger,
                privacy: self.privacy,
                ml_stats: &mut [],
                time_ml: false,
            }
        }
    }

    fn run(action: Action, fx: &mut Fixture) -> Result<ActionOutcome, VmError> {
        let mut env = fx.env();
        run_action(&action, 10_000, 99, &mut env)
    }

    #[test]
    fn arithmetic_and_exit() {
        let a = Action::new(
            "a",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 6,
                },
                Insn::AluImm {
                    op: AluOp::Mul,
                    dst: Reg(0),
                    imm: 7,
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        let out = run(a, &mut fx).unwrap();
        assert_eq!(out.verdict, 42);
        assert_eq!(out.insns_executed, 3);
        assert!(out.tail_call.is_none());
    }

    #[test]
    fn entry_arg_in_r9() {
        let a = Action::new(
            "a",
            vec![
                Insn::Mov {
                    dst: Reg(0),
                    src: crate::bytecode::ARG_REG,
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        assert_eq!(run(a, &mut fx).unwrap().verdict, 99);
    }

    #[test]
    fn ctxt_load_store() {
        let a = Action::new(
            "a",
            vec![
                Insn::LdCtxt {
                    dst: Reg(0),
                    field: crate::ctxt::FieldId(0),
                },
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg(0),
                    imm: 1,
                },
                Insn::StCtxt {
                    field: crate::ctxt::FieldId(1),
                    src: Reg(0),
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        let out = run(a, &mut fx).unwrap();
        assert_eq!(out.verdict, 42);
        assert_eq!(fx.ctxt.get(crate::ctxt::FieldId(1)), Some(42));
    }

    #[test]
    fn branches_and_bounded_loop() {
        // Sum 1..=5 with a loop.
        let a = Action::with_loop_bound(
            "sum",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                }, // 0: acc
                Insn::LdImm {
                    dst: Reg(1),
                    imm: 1,
                }, // 1: i
                Insn::Alu {
                    op: AluOp::Add,
                    dst: Reg(0),
                    src: Reg(1),
                }, // 2
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg(1),
                    imm: 1,
                }, // 3
                Insn::JmpIfImm {
                    cmp: CmpOp::Le,
                    lhs: Reg(1),
                    imm: 5,
                    target: 2,
                }, // 4
                Insn::Exit, // 5
            ],
            10,
        );
        let mut fx = Fixture::new();
        assert_eq!(run(a, &mut fx).unwrap().verdict, 15);
    }

    #[test]
    fn fuel_exhaustion_on_infinite_loop() {
        // Unverified action with a true infinite loop: fuel must stop it.
        let a = Action::new("inf", vec![Insn::Jmp { target: 0 }]);
        let mut fx = Fixture::new();
        let mut env = fx.env();
        assert!(matches!(
            run_action(&a, 100, 0, &mut env),
            Err(VmError::FuelExhausted)
        ));
    }

    #[test]
    fn map_roundtrip_and_status() {
        let a = Action::new(
            "m",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 5,
                }, // key
                Insn::LdImm {
                    dst: Reg(3),
                    imm: 77,
                }, // value
                Insn::MapUpdate {
                    map: crate::maps::MapId(1),
                    key: Reg(2),
                    value: Reg(3),
                },
                Insn::MapLookup {
                    dst: Reg(4),
                    map: crate::maps::MapId(1),
                    key: Reg(2),
                    default: -1,
                },
                Insn::Mov {
                    dst: Reg(0),
                    src: Reg(4),
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        assert_eq!(run(a, &mut fx).unwrap().verdict, 77);
        // Missing key takes the default.
        let b = Action::new(
            "miss",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 12345,
                },
                Insn::MapLookup {
                    dst: Reg(0),
                    map: crate::maps::MapId(1),
                    key: Reg(2),
                    default: -1,
                },
                Insn::Exit,
            ],
        );
        assert_eq!(run(b, &mut fx).unwrap().verdict, -1);
    }

    #[test]
    fn vector_pipeline_matmul() {
        // v0 = [3, 4]; v1 = diag(1,2) * v0 = [3, 8]; r0 = v1[1].
        let a = Action::new(
            "v",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 3,
                },
                Insn::VectorPush {
                    dst: VReg(0),
                    src: Reg(2),
                },
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 4,
                },
                Insn::VectorPush {
                    dst: VReg(0),
                    src: Reg(2),
                },
                Insn::MatMul {
                    dst: VReg(1),
                    tensor: crate::bytecode::TensorSlot(0),
                    src: VReg(0),
                },
                Insn::ScalarVal {
                    dst: Reg(0),
                    src: VReg(1),
                    idx: 1,
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        assert_eq!(run(a, &mut fx).unwrap().verdict, 8);
    }

    #[test]
    fn vector_ld_ctxt_and_relu() {
        let a = Action::new(
            "v",
            vec![
                Insn::VectorLdCtxt {
                    dst: VReg(0),
                    base: crate::ctxt::FieldId(0),
                    len: 2,
                },
                Insn::VecMap {
                    op: crate::bytecode::VecUnary::Relu,
                    dst: VReg(0),
                },
                Insn::ScalarVal {
                    dst: Reg(0),
                    src: VReg(0),
                    idx: 0,
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        assert_eq!(run(a, &mut fx).unwrap().verdict, 41);
    }

    #[test]
    fn call_ml_runs_model() {
        let ds = Dataset::from_samples(vec![
            Sample::from_f64(&[0.0], 0),
            Sample::from_f64(&[1.0], 0),
            Sample::from_f64(&[99.0], 1),
            Sample::from_f64(&[100.0], 1),
        ])
        .unwrap();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        let mut fx = Fixture::new();
        fx.models.push(ModelDef {
            name: "t".into(),
            spec: ModelSpec::Tree(tree),
            latency_class: LatencyClass::Background,
            guard: None,
        });
        let a = Action::new(
            "ml",
            vec![
                Insn::LdCtxt {
                    dst: Reg(2),
                    field: crate::ctxt::FieldId(0), // 41
                },
                Insn::VectorPush {
                    dst: VReg(0),
                    src: Reg(2),
                },
                Insn::CallMl {
                    model: crate::bytecode::ModelSlot(0),
                    src: VReg(0),
                },
                Insn::Exit,
            ],
        );
        let out = run(a, &mut fx).unwrap();
        assert_eq!(out.verdict, 1); // 41 is closer to class 1 threshold.
    }

    #[test]
    fn helpers_emit_effects() {
        let a = Action::new(
            "fx",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 100,
                },
                Insn::LdImm {
                    dst: Reg(3),
                    imm: 8,
                },
                Insn::Call {
                    helper: Helper::EmitPrefetch,
                },
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 1,
                },
                Insn::Call {
                    helper: Helper::EmitMigrate,
                },
                Insn::LdImm {
                    dst: Reg(4),
                    imm: -3,
                },
                Insn::Call {
                    helper: Helper::EmitHint,
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        let out = run(a, &mut fx).unwrap();
        assert_eq!(
            out.effects,
            vec![
                Effect::Prefetch {
                    base: 100,
                    count: 8
                },
                Effect::Migrate { migrate: true },
                Effect::Hint {
                    kind: 1,
                    a: 8,
                    b: -3
                },
            ]
        );
        assert!(out.effects[0].is_resource());
        assert!(!out.effects[1].is_resource());
    }

    #[test]
    fn get_tick_helper() {
        let a = Action::new(
            "t",
            vec![
                Insn::Call {
                    helper: Helper::GetTick,
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        assert_eq!(run(a, &mut fx).unwrap().verdict, 1234);
    }

    #[test]
    fn negative_prefetch_count_clamped() {
        let a = Action::new(
            "neg",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 5,
                },
                Insn::LdImm {
                    dst: Reg(3),
                    imm: -4,
                },
                Insn::Call {
                    helper: Helper::EmitPrefetch,
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        let out = run(a, &mut fx).unwrap();
        assert_eq!(out.effects, vec![Effect::Prefetch { base: 5, count: 0 }]);
    }

    #[test]
    fn dp_aggregate_charges_ledger() {
        let mut fx = Fixture::new();
        // Load the hash map with a known sum.
        fx.maps[1].update(1, 500).unwrap();
        fx.maps[1].update(2, 500).unwrap();
        let a = Action::new(
            "dp",
            vec![
                Insn::DpAggregate {
                    dst: Reg(0),
                    map: crate::maps::MapId(1),
                },
                Insn::Exit,
            ],
        );
        let out = run(a, &mut fx).unwrap();
        assert!((out.verdict - 1000).abs() < 400, "noised {}", out.verdict);
        assert_eq!(fx.ledger.spent_milli_eps(), 100);
    }

    #[test]
    fn dp_fails_closed_when_exhausted() {
        let mut fx = Fixture::new();
        fx.ledger = PrivacyLedger::new(50); // Below the 100 per query.
        let a = Action::new(
            "dp",
            vec![
                Insn::DpAggregate {
                    dst: Reg(0),
                    map: crate::maps::MapId(1),
                },
                Insn::Exit,
            ],
        );
        assert!(matches!(
            run(a, &mut fx),
            Err(VmError::PrivacyBudgetExhausted)
        ));
    }

    #[test]
    fn tail_call_outcome() {
        let a = Action::new(
            "tc",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 3,
                },
                Insn::TailCall { table: TableId(2) },
            ],
        );
        let mut fx = Fixture::new();
        let out = run(a, &mut fx).unwrap();
        assert_eq!(out.tail_call, Some(TableId(2)));
        assert_eq!(out.verdict, 3);
    }

    #[test]
    fn vector_ld_map_reads_ring_window() {
        let mut fx = Fixture::new();
        for v in [10, 20, 30] {
            fx.maps[0].update(0, v).unwrap();
        }
        let a = Action::new(
            "ring",
            vec![
                Insn::VectorLdMap {
                    dst: VReg(0),
                    map: crate::maps::MapId(0),
                },
                Insn::ScalarVal {
                    dst: Reg(0),
                    src: VReg(0),
                    idx: 2,
                },
                Insn::Exit,
            ],
        );
        assert_eq!(run(a, &mut fx).unwrap().verdict, 30);
    }

    #[test]
    fn scalar_val_out_of_range_reads_zero() {
        let a = Action::new(
            "z",
            vec![
                Insn::VectorClear { dst: VReg(0) },
                Insn::ScalarVal {
                    dst: Reg(0),
                    src: VReg(0),
                    idx: 5,
                },
                Insn::Exit,
            ],
        );
        let mut fx = Fixture::new();
        assert_eq!(run(a, &mut fx).unwrap().verdict, 0);
    }
}

rkd_testkit::impl_json_enum!(Effect {
    Prefetch { base, count },
    Migrate { migrate },
    Hint { kind, a, b },
});
