//! The per-hook decision cache (the megaflow-style memo in front of the
//! pipeline walk): its slab storage, the probe and finish that bracket a
//! firing, the per-step replay validation in between, and the hook
//! metadata (probe key, eligibility, key stability, slab strides) that
//! steers it.
//!
//! Each hook's cache is one slab LRU that never allocates on the fire
//! path. A slot holds the probe key inline (`consumed.len()` words), its
//! fingerprint, the generation it was recorded under and its step chain
//! inline (a fixed per-hook number of steps, plus per-step key words
//! only on hooks that are not key-stable). An open-addressed index of
//! slot ids finds a key within [`PROBE_BOUND`] positions, and a
//! [`RecencyList`] orders the slots for exact LRU eviction. Once the
//! slab is full, an absent key takes a slot only on its second miss
//! (see [`DecisionCache::admit`]). The slab is allocated whole on a hook's
//! first probe after its layout was set and is never grown again.

use super::fire::FireCtx;
use super::{HookSlot, RmtMachine, MAX_TAIL_CHAIN};
use crate::ctxt::{Ctxt, FieldId};
use crate::recency::RecencyList;
use crate::table::{MatchKind, Table};
use std::hash::Hasher;

/// "No matched entry" (a miss: the default action) in [`Step::entry`].
const NO_ENTRY: u32 = u32::MAX;

/// One memoized table step of a hook firing: which table the pipeline
/// visited and how its match resolved. Replay re-validates each step
/// (and always re-executes the action) — only the match resolution is
/// memoized.
#[derive(Clone, Copy, Debug, Default)]
struct Step {
    prog: u32,
    table: u16,
    /// The table extracted a key. On a hook that is not key-stable the
    /// key's words sit beside the step in `step_keys` and replay
    /// re-checks them. `false` is a key-independent decision: the table
    /// was empty, so its default action fired without a key, and replay
    /// revalidates with `is_empty()` alone.
    keyed: bool,
    /// Matched entry slot, or [`NO_ENTRY`].
    entry: u32,
}

/// Index positions one probe may visit. Insertion places a key within
/// this many positions of its home and deletion only ever moves keys
/// toward home, so every probe — hit, miss, or a flood of keys chosen
/// to share one home — costs at most this many tag compares. A key
/// whose window is full is not cached; nothing else is displaced.
const PROBE_BOUND: usize = 16;

/// Index positions per slot. At most 1/8 of the index is occupied,
/// where a full window is a ~1e-9 event for keys traffic did not pick.
const INDEX_PER_SLOT: usize = 8;

/// Largest per-hook capacity: the slab is allocated whole, so a larger
/// [`RmtMachine::set_decision_cache_capacity`] behaves as this.
const MAX_SLOTS: usize = 1 << 16;

/// An empty index position.
const EMPTY: u64 = u64::MAX;

/// The fingerprint bits an index entry keeps beside its slot id.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// Cheap deterministic hasher for decision-cache flow keys. Flow keys
/// are short `u64` words extracted from ctxt fields. SipHash's flood
/// resistance buys nothing here by construction: the index bounds
/// every probe at [`PROBE_BOUND`] positions whatever keys arrive, and
/// the cache is bounded and kernel-internal.
#[derive(Default)]
pub(super) struct FlowKeyHasher(u64);

impl Hasher for FlowKeyHasher {
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: full avalanche over the mixed words.
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// std hashes a `[u64]` key as a length prefix plus one `write`
    /// over the raw words: mix a word per round, not a byte.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_ne_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        for &b in words.remainder() {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A probe key's fingerprint: [`FlowKeyHasher`] over the words, equal
/// to std's `key.hash(&mut FlowKeyHasher)` without the byte detour.
/// The low bits pick the index home, the high bits are the index tag.
pub(super) fn fingerprint(key: &[u64]) -> u64 {
    let mut h = FlowKeyHasher::default();
    h.write_usize(key.len());
    for &w in key {
        h.write_u64(w);
    }
    h.finish()
}

/// What a keyed probe found.
enum Found {
    /// The key's slot.
    Slot(usize),
    /// Not cached; `room` says its probe window has an empty position.
    Absent { room: bool },
}

/// A hook slab's shape, set only by
/// [`RmtMachine::refresh_hook_cache_meta`] and
/// [`RmtMachine::set_decision_cache_capacity`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Layout {
    /// Capacity in slots.
    cap: usize,
    /// Probe-key words per slot: the hook's `consumed.len()`.
    key_words: usize,
    /// Steps per slot: for every listener, its pipeline length plus
    /// [`MAX_TAIL_CHAIN`] — the most tables one firing can visit.
    step_stride: usize,
    /// Key words per step: the widest table key of any listener on a
    /// hook that is not key-stable, else 0.
    step_key_words: usize,
}

/// One hook's decision slab (see the module docs). Flow-independent
/// hooks (no consumed fields) use slot 0 alone, with no key, index or
/// recency order.
#[derive(Default)]
pub(super) struct DecisionCache {
    layout: Layout,
    /// Open-addressed index: `fingerprint & TAG | slot`, or [`EMPTY`].
    index: Vec<u64>,
    /// Per slot: the key's fingerprint (the index home on deletion).
    fps: Vec<u64>,
    /// Per slot: the table generation the chain was recorded under.
    gens: Vec<u64>,
    /// Per slot: steps in the chain.
    lens: Vec<u32>,
    /// Probe keys, `key_words` per slot.
    keys: Vec<u64>,
    /// Step chains, `step_stride` per slot.
    steps: Vec<Step>,
    /// Per-step keys, `step_key_words` per step.
    step_keys: Vec<u64>,
    /// Slot recency, least recently used at the back.
    recency: RecencyList,
    /// Slots handed out; at capacity, inserts evict the LRU slot.
    used: usize,
    /// Second-miss admission filter: one fingerprint per slot,
    /// direct-mapped by the fingerprint's high bits (0: empty).
    filter: Vec<u64>,
    /// A flow-independent hook has a decision in slot 0.
    flowless_live: bool,
    /// Most index positions one probe visited (test instrumentation
    /// for the [`PROBE_BOUND`] property).
    #[cfg(test)]
    max_probe: std::cell::Cell<usize>,
}

impl DecisionCache {
    /// Sets the capacity and strides; a change drops every decision
    /// (the arrays keep their allocations for the next layout).
    fn set_layout(&mut self, layout: Layout) {
        let layout = Layout {
            cap: layout.cap.min(MAX_SLOTS),
            ..layout
        };
        if layout != self.layout {
            self.layout = layout;
            self.clear();
        }
    }

    /// Drops every decision. The slab is re-sized on the next probe.
    fn clear(&mut self) {
        self.index.clear();
        self.fps.clear();
        self.gens.clear();
        self.keys.clear();
        self.lens.clear();
        self.steps.clear();
        self.step_keys.clear();
        self.recency.clear();
        self.used = 0;
        self.filter.clear();
        self.flowless_live = false;
    }

    /// Sizes the slab for the current layout, once: every array is
    /// resized to its final length here and never grows afterwards.
    fn ensure_slab(&mut self) {
        if !self.gens.is_empty() {
            return;
        }
        let Layout {
            cap,
            key_words,
            step_stride,
            step_key_words,
        } = self.layout;
        let slots = if key_words == 0 { 1 } else { cap };
        self.gens.resize(slots, 0);
        self.lens.resize(slots, 0);
        self.steps.resize(slots * step_stride, Step::default());
        self.step_keys
            .resize(slots * step_stride * step_key_words, 0);
        if key_words > 0 {
            self.fps.resize(slots, 0);
            self.keys.resize(slots * key_words, 0);
            self.index
                .resize((slots * INDEX_PER_SLOT).next_power_of_two(), EMPTY);
            self.recency.reserve_ids(slots);
            self.filter.resize(slots, 0);
        }
    }

    /// Whether an absent key takes a slot. While the slab has a
    /// never-used slot, at once: inserting evicts nothing. Once it is
    /// full, only on the key's second miss — its fingerprint still holds
    /// its filter position — and every miss remembers the key there. On
    /// a skewed stream most misses are one-shot flows; admitted on their
    /// first miss they would each evict a flow that is hit again, never
    /// being hit themselves.
    fn admit(&mut self, fp: u64) -> bool {
        if self.used < self.layout.cap {
            return true;
        }
        let at = ((fp as u128 * self.filter.len() as u128) >> 64) as usize;
        std::mem::replace(&mut self.filter[at], fp) == fp
    }

    /// The index positions `fp`'s probes visit, home first.
    fn window(&self, fp: u64) -> impl Iterator<Item = usize> {
        let mask = self.index.len() - 1;
        let home = fp as usize & mask;
        (0..PROBE_BOUND.min(self.index.len())).map(move |i| (home + i) & mask)
    }

    fn find(&self, fp: u64, key: &[u64]) -> Found {
        #[cfg(test)]
        let mut visited = 0;
        for pos in self.window(fp) {
            #[cfg(test)]
            {
                visited += 1;
                self.max_probe.set(self.max_probe.get().max(visited));
            }
            let e = self.index[pos];
            if e == EMPTY {
                return Found::Absent { room: true };
            }
            if e & TAG == fp & TAG {
                let slot = e as u32 as usize;
                let kw = self.layout.key_words;
                if self.keys[slot * kw..(slot + 1) * kw] == *key {
                    return Found::Slot(slot);
                }
            }
        }
        Found::Absent { room: false }
    }

    /// Caches `key` (absent, its window has room) in a fresh slot,
    /// evicting the least recently used slot when the slab is full:
    /// the slot and whether it evicted.
    fn insert(&mut self, fp: u64, key: &[u64]) -> Option<(usize, bool)> {
        let evict = self.used == self.layout.cap;
        let slot = if evict {
            let victim = self.recency.back()? as usize;
            self.recency.unlink(victim as u32);
            self.unindex(victim);
            victim
        } else {
            self.used += 1;
            self.used - 1
        };
        // Removing a key only ever empties positions, so the room the
        // probe saw is still there (possibly nearer home).
        let pos = self.window(fp).find(|&p| self.index[p] == EMPTY)?;
        self.index[pos] = fp & TAG | slot as u64;
        self.fps[slot] = fp;
        let kw = self.layout.key_words;
        self.keys[slot * kw..(slot + 1) * kw].copy_from_slice(key);
        self.recency.push_front(slot as u32);
        Some((slot, evict))
    }

    /// Removes `slot`'s key from the index by backward shift: each
    /// later key of the run moves into the hole when that brings it
    /// nearer its home (never past it), so no key drifts out of its
    /// window and no tombstones accumulate.
    fn unindex(&mut self, slot: usize) {
        let Some(mut hole) = self
            .window(self.fps[slot])
            .find(|&p| self.index[p] != EMPTY && self.index[p] as u32 as usize == slot)
        else {
            return;
        };
        let mask = self.index.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let e = self.index[j];
            if e == EMPTY {
                break;
            }
            let home = self.fps[e as u32 as usize] as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.index[hole] = e;
                hole = j;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Whether the key words stored for step `at` equal `fields`' live
    /// values.
    fn step_key_matches(&self, at: usize, fields: &[FieldId], ctxt: &Ctxt) -> bool {
        let from = at * self.layout.step_key_words;
        self.step_keys
            .get(from..from + fields.len())
            .is_some_and(|words| {
                fields
                    .iter()
                    .zip(words)
                    .all(|(f, &w)| ctxt.get(*f).unwrap_or(0) as u64 == w)
            })
    }
}

/// What one firing does with the decision cache.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Caching is off for this firing (capacity 0 or hook ineligible).
    Off,
    /// Replaying the slot's chain, step by step.
    Replay,
    /// Writing a fresh chain into the slot.
    Record,
    /// A miss that records nothing (the key was not admitted).
    Pass,
}

/// Decision-cache state for one firing, threaded between the probe
/// ([`FireCtx::cache_probe`]), the per-listener pipeline walk
/// ([`FireCtx::run_pipeline`]) and the publish
/// ([`FireCtx::cache_finish`]). It borrows the hook's slab and carries
/// the probed slot, so replay reads steps in place, recording writes
/// them in place, and the finish neither restores nor rehashes.
pub(super) struct CacheRun<'c> {
    store: &'c mut DecisionCache,
    mode: Mode,
    /// The slot replayed or recorded into; `None` when the probe
    /// attached none (`Off`, or a miss that was not admitted).
    slot: Option<usize>,
    /// Steps in the chain: its length while replaying, the steps
    /// written so far while recording.
    len: usize,
    /// Next replay step to validate.
    cursor: usize,
    /// The probe found a stale-generation decision (counted on miss).
    invalidated: bool,
    /// The hook's [`HookSlot::key_stable`]: replayed steps skip
    /// per-table key re-checks.
    key_stable: bool,
}

/// How the decision cache answered for one pipeline step
/// ([`CacheRun::replay_next`]).
pub(super) enum Replayed {
    /// The next memoized step validated against the live table: the
    /// matched entry slot (`None` = miss / default action).
    Step(Option<usize>),
    /// Resolve live.
    Live,
}

impl CacheRun<'_> {
    /// Caching is on for this firing.
    pub(super) fn enabled(&self) -> bool {
        self.mode != Mode::Off
    }

    /// Validates the next memoized step for table `ti` of program
    /// `pid`, or — on the first step that fails, or when the live
    /// pipeline outruns the memo (e.g. a tail call fires now that
    /// didn't before) — keeps the validated prefix and records on from
    /// there.
    pub(super) fn replay_next(&mut self, pid: u32, ti: usize, t: &Table, ctxt: &Ctxt) -> Replayed {
        if self.mode != Mode::Replay {
            return Replayed::Live;
        }
        if let Some(slot) = self.slot.filter(|_| self.cursor < self.len) {
            let at = slot * self.store.layout.step_stride + self.cursor;
            let st = self.store.steps[at];
            let ok = st.prog == pid
                && st.table as usize == ti
                && if st.keyed {
                    // Key-stable hook: the probe-key match already
                    // pinned every reachable match key for this firing.
                    self.key_stable || self.store.step_key_matches(at, &t.def().key_fields, ctxt)
                } else {
                    // Key-independent decision: still valid iff the
                    // table is still empty.
                    t.is_empty()
                }
                && (st.entry == NO_ENTRY || (st.entry as usize) < t.entries().len());
            if ok {
                self.cursor += 1;
                return Replayed::Step((st.entry != NO_ENTRY).then_some(st.entry as usize));
            }
        }
        self.mode = Mode::Record;
        self.len = self.cursor;
        Replayed::Live
    }

    /// Memoizes one live-resolved step while recording: `key` is the
    /// table's match key, `None` for a key-independent decision.
    pub(super) fn record(
        &mut self,
        pid: u32,
        ti: usize,
        key: Option<&[u64]>,
        entry: Option<usize>,
    ) {
        let Some(slot) = self.slot.filter(|_| self.mode == Mode::Record) else {
            return;
        };
        let s = &mut *self.store;
        let Layout {
            step_stride,
            step_key_words,
            ..
        } = s.layout;
        let at = slot * step_stride + self.len;
        let key_overflows = key.is_some_and(|k| step_key_words > 0 && k.len() > step_key_words);
        if self.len == step_stride || key_overflows {
            // Cannot happen with strides from `refresh_hook_cache_meta`;
            // if it did, the prefix recorded so far replays and the
            // firings that outrun it miss.
            self.mode = Mode::Pass;
            return;
        }
        s.steps[at] = Step {
            prog: pid,
            table: ti as u16,
            keyed: key.is_some(),
            entry: entry.map_or(NO_ENTRY, |e| e as u32),
        };
        if let Some(k) = key.filter(|_| step_key_words > 0) {
            let from = at * step_key_words;
            s.step_keys[from..from + k.len()].copy_from_slice(k);
        }
        self.len += 1;
    }
}

impl RmtMachine {
    /// Resizes the per-hook decision caches (0 disables caching).
    /// Existing cached decisions are dropped. Each hook holds at most
    /// 65,536 decisions (its slab is allocated whole), so a larger
    /// capacity behaves as that.
    pub fn set_decision_cache_capacity(&mut self, cap: usize) {
        self.decision_cache_cap = cap;
        for slot in self.hook_index.values_mut() {
            let c = &mut slot.cache;
            c.set_layout(Layout { cap, ..c.layout });
            c.clear();
        }
    }

    /// Current per-hook decision-cache capacity.
    pub fn decision_cache_capacity(&self) -> usize {
        self.decision_cache_cap
    }

    /// Recomputes a hook's decision-cache metadata (probe-key field
    /// union, eligibility, key stability and the slab strides) after a
    /// structural change. Cached decisions survive unless the strides
    /// changed — the generation bump already made them stale, and
    /// counting them as invalidations at probe time keeps the obs story
    /// faithful; they are overwritten or evicted lazily.
    pub(super) fn refresh_hook_cache_meta(&mut self, hook: &str) {
        let Some(slot) = self.hook_index.get_mut(hook) else {
            return;
        };
        let mut consumed: Vec<FieldId> = Vec::new();
        let mut nonempty = 0usize;
        let mut non_exact = false;
        for (pid, pipeline) in &slot.listeners {
            let Some(inst) = self.programs.get(pid) else {
                continue;
            };
            for &ti in pipeline {
                let t = &inst.tables[ti];
                if t.is_empty() {
                    continue;
                }
                nonempty += 1;
                if t.def().kind != MatchKind::Exact {
                    non_exact = true;
                }
                for f in &t.def().key_fields {
                    if !consumed.contains(f) {
                        consumed.push(*f);
                    }
                }
            }
        }
        // Per-hook specialization: decide whether cached decisions can
        // replay without per-step key re-extraction. Requires, for
        // every listener program, that (a) no action writes a consumed
        // field (so the probe key pins those fields for the whole
        // firing) and (b) every non-empty table of the program — tail
        // calls can reach tables registered at other hooks — keys only
        // consumed fields. Empty tables memoize key-independent steps
        // and keep their cheap is-still-empty validation.
        let mut key_stable = true;
        for (pid, _) in &slot.listeners {
            let Some(inst) = self.programs.get(pid) else {
                continue;
            };
            if inst.ctxt_writes.iter().any(|f| consumed.contains(f)) {
                key_stable = false;
                break;
            }
            let all_keys_consumed = inst
                .tables
                .iter()
                .all(|t| t.is_empty() || t.def().key_fields.iter().all(|f| consumed.contains(f)));
            if !all_keys_consumed {
                key_stable = false;
                break;
            }
        }
        // A firing visits at most its pipeline plus one table per tail
        // call followed; a tail call stays inside its program, so the
        // program's widest table key bounds every step key.
        let mut step_stride = 0;
        let mut step_key_words = 0;
        for (pid, pipeline) in &slot.listeners {
            step_stride += pipeline.len() + MAX_TAIL_CHAIN;
            if let Some(inst) = self.programs.get(pid).filter(|_| !key_stable) {
                for t in &inst.tables {
                    step_key_words = step_key_words.max(t.def().key_fields.len());
                }
            }
        }
        slot.cache.set_layout(Layout {
            cap: self.decision_cache_cap,
            key_words: consumed.len(),
            step_stride,
            step_key_words,
        });
        slot.consumed = consumed;
        slot.key_stable = key_stable;
        // A hook whose live tables are all exact-match already costs
        // one hash probe per table; the cache would only add overhead.
        slot.eligible = nonempty == 0 || non_exact;
    }
}

impl FireCtx<'_> {
    /// Decision-cache probe for one firing: hash the consumed ctxt
    /// fields (into the machine's reusable key scratch) and find the
    /// flow's slot. A current-generation slot replays (validated per
    /// table in [`FireCtx::run_pipeline`]; actions always re-execute);
    /// a stale one records at once (its flow already proved itself),
    /// and an absent key records into a fresh slot once admitted.
    /// Every path is allocation-free once the hook's slab exists.
    pub(super) fn cache_probe<'c>(
        &mut self,
        slot: &'c mut HookSlot,
        ctxt: &Ctxt,
    ) -> (&'c [(u32, Vec<usize>)], CacheRun<'c>) {
        let HookSlot {
            listeners,
            consumed,
            eligible,
            key_stable,
            cache: store,
            ..
        } = slot;
        let mut run = CacheRun {
            store,
            mode: Mode::Off,
            slot: None,
            len: 0,
            cursor: 0,
            invalidated: false,
            key_stable: *key_stable,
        };
        if self.cache_cap == 0 {
            return (listeners, run);
        }
        if !*eligible {
            self.obs.counters.decision_cache_bypasses += 1;
            return (listeners, run);
        }
        let store = &mut *run.store;
        store.ensure_slab();
        // Whether the flow already had a decision (current or stale).
        let found = if consumed.is_empty() {
            // Flow-independent hook: one shared slot, no key
            // extraction, no hash probe.
            run.slot = Some(0);
            std::mem::replace(&mut store.flowless_live, true)
        } else {
            ctxt.key_into(consumed, self.key_scratch);
            let fp = fingerprint(self.key_scratch);
            match store.find(fp, self.key_scratch) {
                Found::Slot(s) => {
                    store.recency.touch(s as u32);
                    run.slot = Some(s);
                    true
                }
                Found::Absent { room } => {
                    if let Some((s, evicted)) = (store.admit(fp) && room)
                        .then(|| store.insert(fp, self.key_scratch))
                        .flatten()
                    {
                        self.obs.counters.decision_cache_evictions += evicted as u64;
                        run.slot = Some(s);
                    }
                    false
                }
            }
        };
        run.mode = match run.slot {
            Some(s) if found && store.gens[s] == self.table_gen => {
                run.len = store.lens[s] as usize;
                Mode::Replay
            }
            Some(_) => {
                run.invalidated = found;
                Mode::Record
            }
            None => Mode::Pass,
        };
        (listeners, run)
    }

    /// Publishes the firing's decision-cache outcome: count a clean
    /// replay as a hit; on a miss, seal the recorded chain (or the
    /// validated prefix of a replay the pipeline ended early) under the
    /// current generation.
    pub(super) fn cache_finish(&mut self, run: CacheRun) {
        match run.mode {
            Mode::Off => return,
            Mode::Replay if run.cursor == run.len => {
                self.obs.counters.decision_cache_hits += 1;
                return;
            }
            _ => {}
        }
        self.obs.counters.decision_cache_misses += 1;
        if run.invalidated {
            self.obs.counters.decision_cache_invalidations += 1;
        }
        if let Some(s) = run.slot {
            let len = if run.mode == Mode::Replay {
                run.cursor
            } else {
                run.len
            };
            run.store.lens[s] = len as u32;
            run.store.gens[s] = self.table_gen;
        }
    }
}

#[cfg(test)]
#[path = "cache_tests.rs"]
mod tests;
