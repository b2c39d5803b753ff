//! The decision cache against a reference model, and under a flood of
//! keys chosen to share one index home.

use super::{fingerprint, DecisionCache, Found, EMPTY, INDEX_PER_SLOT, PROBE_BOUND, TAG};
use crate::bytecode::{Action, AluOp, Insn, Reg, ARG_REG};
use crate::ctxt::Ctxt;
use crate::machine::{ExecMode, ProgId, RmtMachine};
use crate::obs::MachineCounters;
use crate::prog::ProgramBuilder;
use crate::table::{ActionId, Entry, MatchKey, MatchKind, TableId};
use crate::verifier::verify;
use rkd_testkit::rng::{Rng, SeedableRng, StdRng};
use std::collections::VecDeque;

const HOOK: &str = "flows";

/// One Range table over `pid`: `0..=100` doubles its argument 21 into
/// 42, anything else takes the default, -1.
fn machine(cap: usize) -> (RmtMachine, ProgId) {
    let mut b = ProgramBuilder::new("ranged");
    let pid = b.field_readonly("pid");
    let double = b.action(Action::new(
        "double",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: ARG_REG,
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
    let t = b.table("t", HOOK, &[pid], MatchKind::Range, Some(fallback), 16);
    b.entry(
        t,
        Entry {
            key: MatchKey::Range(vec![(0, 100)]),
            priority: 1,
            action: double,
            arg: 21,
        },
    );
    let mut m = RmtMachine::new();
    let id = m
        .install(verify(b.build()).unwrap(), ExecMode::Interp)
        .unwrap();
    m.set_decision_cache_capacity(cap);
    (m, id)
}

fn fire(m: &mut RmtMachine, pid: u64) -> Option<i64> {
    m.fire(HOOK, &mut Ctxt::from_values(vec![pid as i64]))
        .verdict()
}

/// The cache as documented: an exact LRU of (probe key, generation)
/// pairs, most recent at the back, and — once it is full — admission on
/// a key's second miss through a direct-mapped filter of `cap`
/// fingerprints.
struct Model {
    cap: usize,
    lru: VecDeque<(u64, u64)>,
    filter: Vec<u64>,
    counters: MachineCounters,
}

impl Model {
    fn new(cap: usize, counters: MachineCounters) -> Model {
        Model {
            cap,
            lru: VecDeque::new(),
            filter: vec![0; cap],
            counters,
        }
    }

    /// One firing of flow `pid` under table generation `gen`.
    fn fire(&mut self, pid: u64, gen: u64) {
        if self.cap == 0 {
            return;
        }
        let c = &mut self.counters;
        if let Some(i) = self.lru.iter().position(|&(k, _)| k == pid) {
            let (_, recorded) = self.lru.remove(i).unwrap();
            self.lru.push_back((pid, gen));
            if recorded == gen {
                c.decision_cache_hits += 1;
            } else {
                c.decision_cache_misses += 1;
                c.decision_cache_invalidations += 1;
            }
            return;
        }
        c.decision_cache_misses += 1;
        let fp = fingerprint(&[pid]);
        let at = ((fp as u128 * self.cap as u128) >> 64) as usize;
        let admitted =
            self.lru.len() < self.cap || std::mem::replace(&mut self.filter[at], fp) == fp;
        if admitted {
            if self.lru.len() == self.cap {
                self.lru.pop_front();
                c.decision_cache_evictions += 1;
            }
            self.lru.push_back((pid, gen));
        }
    }
}

fn cache_counters(c: MachineCounters) -> [u64; 4] {
    [
        c.decision_cache_hits,
        c.decision_cache_misses,
        c.decision_cache_evictions,
        c.decision_cache_invalidations,
    ]
}

// Seeded streams over a skewed flow universe, interleaved with entry
// churn (every insert or remove bumps the table generation) and
// capacity changes (shrink, grow, 0): after every step the hit, miss,
// eviction and invalidation counters equal the model's, and every
// verdict equals a machine with the cache off.
rkd_testkit::prop_check!(decision_cache_matches_reference_model, cases = 256, |g| {
    const CAPS: [usize; 5] = [1, 2, 3, 64, 0];
    let cap = CAPS[g.gen_range(0..4usize)];
    let (mut m, id) = machine(cap);
    let (mut oracle, _) = machine(0);
    let mut model = Model::new(cap, m.machine_counters());
    let universe = g.gen_range(2..200u64);
    let mut shadows: Vec<MatchKey> = Vec::new();
    for _ in 0..g.gen_range(1..400usize) {
        match g.gen_range(0..100u32) {
            0..=2 if shadows.len() < 8 => {
                let lo = g.gen_range(0..universe);
                let key = MatchKey::Range(vec![(lo, lo + g.gen_range(0..10u64))]);
                let entry = Entry {
                    key: key.clone(),
                    priority: 5,
                    action: ActionId(0),
                    arg: g.gen_range(-50..50i64),
                };
                m.insert_entry(id, TableId(0), entry.clone()).unwrap();
                oracle.insert_entry(id, TableId(0), entry).unwrap();
                shadows.push(key);
            }
            0..=4 if !shadows.is_empty() => {
                let key = shadows.swap_remove(g.gen_range(0..shadows.len()));
                assert!(m.remove_entry(id, TableId(0), &key).unwrap());
                assert!(oracle.remove_entry(id, TableId(0), &key).unwrap());
            }
            5 => {
                let cap = CAPS[g.gen_range(0..5usize)];
                m.set_decision_cache_capacity(cap);
                model = Model::new(cap, m.machine_counters());
            }
            _ => {
                // Nested draws skew toward small ids: hot flows repeat.
                let hot = g.gen_range(1..=universe);
                let pid = g.gen_range(0..hot);
                assert_eq!(fire(&mut m, pid), fire(&mut oracle, pid), "flow {pid}");
                model.fire(pid, m.table_generation());
            }
        }
        assert_eq!(
            cache_counters(m.machine_counters()),
            cache_counters(model.counters)
        );
    }
});

/// Every indexed key sits within [`PROBE_BOUND`] positions of its home
/// with its fingerprint's tag, the index and the recency list hold the
/// same slots, and every cached key is found in its own slot.
fn assert_index_consistent(c: &DecisionCache) {
    let mask = c.index.len() - 1;
    let mut indexed = 0;
    for (pos, &e) in c.index.iter().enumerate() {
        if e == EMPTY {
            continue;
        }
        let slot = e as u32 as usize;
        let home = c.fps[slot] as usize & mask;
        assert!(
            pos.wrapping_sub(home) & mask < PROBE_BOUND,
            "slot {slot} at {pos}, home {home}"
        );
        assert_eq!(e & TAG, c.fps[slot] & TAG);
        indexed += 1;
    }
    let kw = c.layout.key_words;
    let mut linked = 0;
    for s in c.recency.oldest_first() {
        let s = s as usize;
        let key = &c.keys[s * kw..(s + 1) * kw];
        assert!(matches!(c.find(c.fps[s], key), Found::Slot(x) if x == s));
        linked += 1;
    }
    assert_eq!(indexed, linked);
}

/// Traffic picks the keys, so the probe bound is a §3.3 property: 4×cap
/// flows whose fingerprints share one index home (found by brute force
/// with the cache's own hash, at a home whose window wraps the index
/// end) crowd that window, and still no probe visits more than
/// [`PROBE_BOUND`] positions, every verdict matches a machine with the
/// cache off, and a hot flow homed elsewhere keeps hitting. At 16 slots
/// the flood churns the slab through LRU eviction; at 64 it fills the
/// window and the rest of the flood is not cached.
#[test]
fn flood_of_one_home_stays_correct_and_bounded() {
    for cap in [16, 64] {
        let (mut m, _) = machine(cap);
        let (mut oracle, _) = machine(0);
        let index_len = (cap * INDEX_PER_SLOT).next_power_of_two();
        let home = |pid: u64| fingerprint(&[pid]) as usize & (index_len - 1);
        let target = index_len - 4;
        let flood: Vec<u64> = (0..).filter(|&p| home(p) == target).take(4 * cap).collect();
        let hot = (0..)
            .find(|&p| home(p).abs_diff(index_len / 2) < 8)
            .unwrap();
        let mut hot_fires = 0;
        for _ in 0..3 {
            for &pid in &flood {
                // Twice, so a full slab admits the flow.
                for pid in [pid, pid, hot] {
                    assert_eq!(fire(&mut m, pid), fire(&mut oracle, pid), "flow {pid}");
                }
                hot_fires += 1;
            }
        }
        let c = m.machine_counters();
        assert!(
            c.decision_cache_hits >= hot_fires - 1,
            "hot flow evicted: {c:?}"
        );
        assert_eq!(c.decision_cache_evictions > 0, cap == 16, "{c:?}");
        let cache = &m.hook_index[HOOK].cache;
        assert_eq!(cache.max_probe.get(), PROBE_BOUND, "cap {cap}");
        assert_index_consistent(cache);
    }
}

/// The slab is allocated whole, so a capacity past its ceiling — say
/// from a control-plane request — behaves as the ceiling instead of
/// allocating what it names.
#[test]
fn huge_capacity_is_clamped_not_allocated() {
    let (mut m, _) = machine(usize::MAX);
    assert_eq!(m.decision_cache_capacity(), usize::MAX);
    for _ in 0..3 {
        assert_eq!(fire(&mut m, 7), Some(42));
    }
    assert_eq!(m.machine_counters().decision_cache_hits, 2);
    assert_eq!(m.hook_index[HOOK].cache.gens.len(), super::MAX_SLOTS);
}

/// Random churn at a small capacity exercises backward-shift deletion
/// across the index end; the index stays consistent throughout.
#[test]
fn eviction_keeps_the_index_consistent() {
    let (mut m, _) = machine(3);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..5_000 {
        let pid = rng.gen_range(0..40u64);
        fire(&mut m, pid);
        assert_index_consistent(&m.hook_index[HOOK].cache);
    }
    assert!(m.machine_counters().decision_cache_evictions > 100);
}
