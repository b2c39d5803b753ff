//! A sharded machine's replication memory is bounded by its rings, not
//! by the number of commands it has ever published: a long stream of
//! table mutations leaves the process's live heap where it was.
//! Counted by a process-wide global allocator (the shard workers
//! allocate on threads of their own), which is why this is a test
//! binary of its own.

use rkd::core::bytecode::{Action, Insn, Reg, ARG_REG};
use rkd::core::ctrl::{CtrlRequest, CtrlResponse};
use rkd::core::machine::{ExecMode, ProgId};
use rkd::core::obs::ObsConfig;
use rkd::core::prog::{ProgramBuilder, RmtProgram};
use rkd::core::shard::ShardedMachine;
use rkd::core::table::{ActionId, Entry, MatchKey, MatchKind, TableId};
use rkd::core::verifier::VerifierConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated by every thread of the process.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a static
// atomic, so touching it neither allocates nor needs thread-local
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KEYS: u64 = 8;
const WARMUP_PAIRS: u64 = 1_000;
const MEASURED_PAIRS: u64 = 20_000;
/// Growth allowed over the measured pairs. Each shard worker's run
/// buffer keeps the capacity of the longest run it has popped, up to
/// one ring of messages (about 100 KB), and the measured phase may be
/// the first to reach it; the bound leaves room for both shards'.
/// A log that retained every command would grow by over 3 MB here.
const GROWTH_BOUND: isize = 512 * 1024;

/// One exact table over `flow` with no default action, and the
/// action its entries run.
fn program() -> (RmtProgram, ActionId) {
    let mut b = ProgramBuilder::new("bounded");
    let flow = b.field_readonly("flow");
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
    b.table("t", "pkt", &[flow], MatchKind::Exact, None, KEYS as usize);
    (b.build(), hit)
}

/// Publishes one `InsertEntry` + `RemoveEntry` pair per index.
fn churn(m: &ShardedMachine, prog: ProgId, action: ActionId, pairs: std::ops::Range<u64>) {
    let table = TableId(0);
    for i in pairs {
        let key = MatchKey::Exact(vec![i % KEYS]);
        m.ctrl(CtrlRequest::InsertEntry {
            prog,
            table,
            entry: Entry {
                key: key.clone(),
                priority: 0,
                action,
                arg: i as i64,
            },
        })
        .expect("insert");
        m.ctrl(CtrlRequest::RemoveEntry { prog, table, key })
            .expect("remove");
    }
}

#[test]
fn replication_memory_does_not_grow_with_published_commands() {
    // Flight frames and spans fill bounded rings of their own on a
    // schedule; switch both off so only the control path is measured.
    let obs = ObsConfig {
        flight_interval: 0,
        ..ObsConfig::default()
    };
    let m = ShardedMachine::with_config(2, obs, VerifierConfig::default());
    m.ctrl(CtrlRequest::SpanConfig {
        sample_shift: 64,
        capacity: 0,
    })
    .expect("span config");
    let (program, hit) = program();
    let prog = match m
        .ctrl(CtrlRequest::Install {
            prog: Box::new(program),
            mode: ExecMode::Interp,
            seed: 1,
        })
        .expect("install")
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    };

    churn(&m, prog, hit, 0..WARMUP_PAIRS);
    m.sync();
    let before = LIVE_BYTES.load(Ordering::Relaxed);

    churn(&m, prog, hit, WARMUP_PAIRS..WARMUP_PAIRS + MEASURED_PAIRS);
    let statuses = m.sync();
    let after = LIVE_BYTES.load(Ordering::Relaxed);

    for s in &statuses {
        assert_eq!(s.applied, m.published(), "shard {} lagging", s.shard);
        assert_eq!(s.ctrl_apply_errors, 0, "shard {} absorbed errors", s.shard);
    }
    let growth = after - before;
    assert!(
        growth < GROWTH_BOUND,
        "live heap grew {growth} B over {} published commands (bound {GROWTH_BOUND} B)",
        2 * MEASURED_PAIRS
    );
}
