//! Property tests: the verifier's bound is sound and the optimizer is
//! semantically invisible on arbitrary programs.
//!
//! These are the two load-bearing correctness claims of the VM:
//! any program the verifier admits terminates within its computed
//! worst-case instruction count, and install-time optimization never
//! changes behaviour relative to the body as written.

mod common;

use common::check_o0_o2_equivalence;
use rkd::testkit::prop_check;
use rkd::testkit::rng::Rng;

// Any admitted program terminates within the verified bound, and its
// O2 rewrite produces identical outcomes and side effects.
prop_check!(
    verified_programs_terminate_and_o2_matches_o0,
    cases = 256,
    |g| {
        let raw = g.vec_of(0, 47, common::gen_insn);
        let arg = g.gen_range(-1000i64..1000);
        check_o0_o2_equivalence(raw, arg);
    }
);

mod batch {
    //! `fire` ≡ `fire_batch`: N scalar fires and one batch of N must
    //! leave two identically built machines indistinguishable, on a
    //! hook with two listeners and on a single-listener hook.

    use super::common::make_action;
    use rkd::core::bytecode::{Action, Helper, Insn, Reg, ARG_REG};
    use rkd::core::ctxt::Ctxt;
    use rkd::core::machine::{
        ExecMode, HookResult, ProgId, RmtMachine, DEFAULT_DECISION_CACHE_CAP,
    };
    use rkd::core::obs::{ObsConfig, TraceKind};
    use rkd::core::prog::{ProgramBuilder, RateLimitCfg};
    use rkd::core::table::{ActionId, Entry, MatchKey, MatchKind, TableId};
    use rkd::core::verifier::{verify, VerifiedProgram};

    const EVENTS: usize = 96;
    const FLIGHT_INTERVAL: u64 = 16;

    fn range(lo: u64, hi: u64, action: ActionId, arg: i64) -> Entry {
        Entry {
            key: MatchKey::Range(vec![(lo, hi)]),
            priority: 0,
            action,
            arg,
        }
    }

    /// Listener 1 of `shared`, and the only listener of `solo`. `t0`
    /// (range on `flow`) sends flows 0..=9 down a tail-call chain:
    /// `hop` → `t1` (range on `flow`, so the link is resolved per
    /// firing) → for flows 5..=9 its default `mid` → `t2` (empty, so
    /// `mid`'s link fuses at the default O2). Flows 10..=19 return
    /// their entry arg; everything else the default -1.
    fn classifier() -> VerifiedProgram {
        let mut b = ProgramBuilder::new("classifier");
        let flow = b.field_readonly("flow");
        let verdict_arg = Action::new(
            "arg",
            vec![
                Insn::Mov {
                    dst: Reg(0),
                    src: ARG_REG,
                },
                Insn::Exit,
            ],
        );
        let imm = |name: &str, imm: i64| {
            Action::new(name, vec![Insn::LdImm { dst: Reg(0), imm }, Insn::Exit])
        };
        let tail = |name: &str, imm: i64, table: u16| {
            Action::new(
                name,
                vec![
                    Insn::LdImm { dst: Reg(0), imm },
                    Insn::TailCall {
                        table: TableId(table),
                    },
                ],
            )
        };
        let arg = b.action(verdict_arg);
        let miss = b.action(imm("miss", -1));
        let hop = b.action(tail("hop", 1, 1));
        let mid = b.action(tail("mid", 2, 2));
        let leaf = b.action(imm("leaf", 77));
        let t0 = b.table("t0", "shared", &[flow], MatchKind::Range, Some(miss), 8);
        let t1 = b.table("t1", "aux", &[flow], MatchKind::Range, Some(mid), 8);
        b.table("t2", "aux2", &[flow], MatchKind::Range, Some(leaf), 8);
        let t3 = b.table("t3", "solo", &[flow], MatchKind::Range, Some(miss), 8);
        b.entry(t0, range(0, 9, hop, 0));
        b.entry(t0, range(10, 19, arg, 5));
        b.entry(t1, range(0, 4, arg, 40));
        b.entry(t3, range(0, 11, arg, 21));
        verify(b.build()).unwrap()
    }

    /// Listener 2 of `shared`: every firing asks to prefetch 3 pages
    /// (`make_action`'s prologue leaves r2 = 2, r3 = 3) against a
    /// 16-token bucket that never refills within the run.
    fn emitter() -> VerifiedProgram {
        let mut b = ProgramBuilder::new("emitter");
        let flow = b.field_readonly("flow");
        let emit = b.action(make_action(vec![Insn::Call {
            helper: Helper::EmitPrefetch,
        }]));
        b.table("t", "shared", &[flow], MatchKind::Exact, Some(emit), 4);
        b.rate_limit(RateLimitCfg {
            capacity: 16,
            refill_per_tick: 1,
        });
        verify(b.build()).unwrap()
    }

    fn machine(cache_cap: usize) -> (RmtMachine, [ProgId; 2]) {
        let mut m = RmtMachine::with_obs_config(ObsConfig {
            trace_fires: true,
            trace_capacity: 4 * EVENTS,
            flight_interval: FLIGHT_INTERVAL,
            ..ObsConfig::default()
        });
        m.set_decision_cache_capacity(cache_cap);
        let a = m.install(classifier(), ExecMode::Interp).unwrap();
        let b = m.install(emitter(), ExecMode::Interp).unwrap();
        (m, [a, b])
    }

    fn ctxts() -> Vec<Ctxt> {
        (0..EVENTS)
            .map(|i| Ctxt::from_values(vec![(i * 7 % 24) as i64]))
            .collect()
    }

    /// Everything a firing can change that is not the flight recorder.
    fn observe(m: &mut RmtMachine, ids: [ProgId; 2]) -> String {
        let mut out = format!("{:?}\n", m.machine_counters());
        for id in ids {
            out += &format!("{:?}\n", m.stats(id).unwrap());
        }
        for t in 0..4 {
            out += &format!("{:?}\n", m.table_stats(ids[0], TableId(t)).unwrap());
        }
        out += &format!("{:?}\n", m.table_stats(ids[1], TableId(0)).unwrap());
        for hook in ["shared", "solo"] {
            out += &format!("{hook} fires {}\n", m.hook_stats(hook).unwrap().fires);
        }
        out + &format!("{:?}", m.trace_read(usize::MAX))
    }

    #[test]
    fn fire_and_fire_batch_agree() {
        for cache_cap in [DEFAULT_DECISION_CACHE_CAP, 0] {
            let (mut scalar, ids) = machine(cache_cap);
            let (mut batched, _) = machine(cache_cap);
            for hook in ["shared", "solo"] {
                let (mut one_by_one, mut at_once) = (ctxts(), ctxts());
                let expected: Vec<HookResult> = one_by_one
                    .iter_mut()
                    .map(|c| scalar.fire(hook, c))
                    .collect();
                assert_eq!(batched.fire_batch(hook, &mut at_once), expected);
                assert_eq!(at_once, one_by_one);
                // Both listeners of `shared` ran on every event.
                let listeners = if hook == "shared" { 2 } else { 1 };
                assert!(expected.iter().all(|r| r.verdicts.len() >= listeners));
            }

            // The workload reached what it was built to reach.
            let [classifier, emitter] = ids;
            let stats = batched.stats(classifier).unwrap();
            assert_eq!(stats.invocations, 2 * EVENTS as u64);
            assert!(stats.tail_calls > 0);
            assert!(batched.opt_stats(classifier).unwrap().fused_chains > 0);
            let stats = batched.stats(emitter).unwrap();
            assert_eq!(stats.invocations, EVENTS as u64);
            assert_eq!(stats.effects_emitted, 5);
            assert_eq!(stats.effects_rate_limited, EVENTS as u64 - 5);
            let counters = batched.machine_counters();
            assert_eq!(counters.decision_cache_hits > 0, cache_cap > 0);

            // The one intended difference: a scalar fire checks the
            // flight recorder every time, a batch once.
            let frames = |m: &RmtMachine| m.flight_snapshot().frames.len() as u64;
            assert_eq!(frames(&scalar), 2 * EVENTS as u64 / FLIGHT_INTERVAL);
            assert_eq!(frames(&batched), 2);

            let (seen_scalar, seen_batched) =
                (observe(&mut scalar, ids), observe(&mut batched, ids));
            assert_eq!(seen_batched, seen_scalar);
            assert!(seen_scalar.contains(&format!("{:?}", TraceKind::RateLimitDrop)));
        }
    }
}
