//! A hook firing touches the heap exactly once — for the verdict list
//! of the `HookResult` it returns — whatever the decision cache does:
//! hit, first or second miss, eviction, replay divergence, or a decision
//! recorded under an older table generation. A batch adds one more
//! allocation for its result vector. Counted by a global allocator,
//! which is why this is a test binary of its own.

use rkd::core::bytecode::{Action, Insn, Reg, ARG_REG};
use rkd::core::ctxt::Ctxt;
use rkd::core::machine::{ExecMode, HookResult, RmtMachine};
use rkd::core::obs::ObsConfig;
use rkd::core::prog::ProgramBuilder;
use rkd::core::table::{Entry, MatchKey, MatchKind, TableId};
use rkd::core::verifier::{verify, VerifiedProgram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness runs tests on
    /// threads of their own, and allocates on others meanwhile).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn returns(b: &mut ProgramBuilder, name: &str, imm: i64) -> rkd::core::table::ActionId {
    b.action(Action::new(
        name,
        vec![Insn::LdImm { dst: Reg(0), imm }, Insn::Exit],
    ))
}

/// Hook `flows`, key-stable: Exact over `flow`, LPM over `addr`,
/// Ternary over `(addr, port)`, Range over `port`, each with a default
/// action, so every firing returns four verdicts.
fn pipeline() -> VerifiedProgram {
    let mut b = ProgramBuilder::new("pipeline");
    let flow = b.field_readonly("flow");
    let addr = b.field_readonly("addr");
    let port = b.field_readonly("port");
    let hit = b.action(Action::new(
        "hit",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: ARG_REG,
            },
            Insn::Exit,
        ],
    ));
    let miss = returns(&mut b, "miss", -1);
    let entry = |key, priority, arg| Entry {
        key,
        priority,
        action: hit,
        arg,
    };
    let t = b.table("exact", "flows", &[flow], MatchKind::Exact, Some(miss), 16);
    for f in 0..4 {
        b.entry(t, entry(MatchKey::Exact(vec![f]), 0, 100 + f as i64));
    }
    let t = b.table("lpm", "flows", &[addr], MatchKind::Lpm, Some(miss), 16);
    for (value, prefix_len) in [(0x0A00, 56), (0x0A10, 60)] {
        b.entry(
            t,
            entry(MatchKey::Lpm { value, prefix_len }, 0, prefix_len as i64),
        );
    }
    let t = b.table(
        "ternary",
        "flows",
        &[addr, port],
        MatchKind::Ternary,
        Some(miss),
        16,
    );
    b.entry(t, entry(MatchKey::Ternary(vec![(0, 1), (0, 1)]), 1, 7));
    let t = b.table("range", "flows", &[port], MatchKind::Range, Some(miss), 16);
    b.entry(t, entry(MatchKey::Range(vec![(0, 40)]), 0, 9));
    verify(b.build()).unwrap()
}

/// Hook `h1`, not key-stable: a Range table over `f0` whose hit tail
/// calls an Exact table over `f1`, a field `h1` does not consume. Two
/// firings with the same `f0` and different `f1` diverge at the second
/// step.
fn diverging() -> VerifiedProgram {
    let mut b = ProgramBuilder::new("diverging");
    let f0 = b.field_readonly("f0");
    let f1 = b.field_readonly("f1");
    let fallback = returns(&mut b, "fallback", -1);
    let found = returns(&mut b, "found", 111);
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
            action: found,
            arg: 0,
        },
    );
    verify(b.build()).unwrap()
}

fn flow_ctxt(flow: u64) -> Ctxt {
    Ctxt::from_values(vec![
        flow as i64,
        (0x0A00 + flow * 5) as i64,
        (flow * 7 % 64) as i64,
    ])
}

/// 24 flows over 8 slots, each twice in a row (the second miss admits
/// it) and the first eight again, so the stream hits, misses, admits
/// and evicts.
fn stream() -> Vec<u64> {
    let mut s: Vec<u64> = (0..24).flat_map(|f| [f, f]).collect();
    s.extend(16..24);
    s.extend(0..8);
    s
}

fn machine() -> (RmtMachine, rkd::core::machine::ProgId) {
    // Flight frames and sampled spans are read-outs that fill rings of
    // their own, not the fire path: both off.
    let mut m = RmtMachine::with_obs_config(ObsConfig {
        flight_interval: 0,
        ..ObsConfig::default()
    });
    m.set_span_config(64, 0);
    let id = m.install(pipeline(), ExecMode::Jit).unwrap();
    m.install(diverging(), ExecMode::Jit).unwrap();
    m.set_decision_cache_capacity(8);
    (m, id)
}

/// One pass of the workload, checking each `fire` allocates once.
fn fire_pass(m: &mut RmtMachine, check: bool) {
    for flow in stream() {
        let mut c = flow_ctxt(flow);
        let mut r = HookResult::default();
        let n = allocations_during(|| r = m.fire("flows", &mut c));
        assert_eq!(r.verdicts.len(), 4);
        assert!(!check || n == 1, "fire of flow {flow} allocated {n} times");
    }
    for f1 in [5, 6, 5, 5, 6, 6] {
        let mut c = Ctxt::from_values(vec![50, f1]);
        let mut r = HookResult::default();
        let n = allocations_during(|| r = m.fire("h1", &mut c));
        assert_eq!(r.verdict(), Some(if f1 == 5 { 111 } else { -1 }));
        assert!(!check || n == 1, "h1 fire (f1 = {f1}) allocated {n} times");
    }
}

#[test]
fn fire_allocates_only_its_result() {
    let (mut m, id) = machine();
    fire_pass(&mut m, false);
    fire_pass(&mut m, true);
    // A control-plane write makes every cached decision stale; the
    // firings that meet those decisions re-record in place.
    m.insert_entry(
        id,
        TableId(3),
        Entry {
            key: MatchKey::Range(vec![(50, 60)]),
            priority: 2,
            action: rkd::core::table::ActionId(0),
            arg: 11,
        },
    )
    .unwrap();
    let before = m.machine_counters();
    fire_pass(&mut m, true);
    let c = m.machine_counters();
    assert!(c.decision_cache_hits > before.decision_cache_hits);
    assert!(c.decision_cache_invalidations > before.decision_cache_invalidations);
    assert!(c.decision_cache_evictions > before.decision_cache_evictions);
    assert!(c.decision_cache_misses - before.decision_cache_misses > 8);
}

#[test]
fn fire_batch_allocates_once_per_firing_plus_its_vector() {
    let (mut m, _) = machine();
    let mut batch: Vec<Ctxt> = stream().into_iter().map(flow_ctxt).collect();
    m.fire_batch("flows", &mut batch);
    let mut batch: Vec<Ctxt> = stream().into_iter().map(flow_ctxt).collect();
    let before = m.machine_counters();
    let mut results = Vec::new();
    let n = allocations_during(|| results = m.fire_batch("flows", &mut batch));
    assert_eq!(n, batch.len() as u64 + 1);
    assert!(results.iter().all(|r| r.verdicts.len() == 4));
    let c = m.machine_counters();
    assert!(c.decision_cache_hits > before.decision_cache_hits);
    assert!(c.decision_cache_evictions > before.decision_cache_evictions);
}
