//! The per-hook decision cache (the megaflow-style memo in front of the
//! pipeline walk): its storage, the probe and finish that bracket a
//! firing, the per-step replay validation in between, and the hook
//! metadata (probe key, eligibility, key stability) that steers it.

use super::fire::FireCtx;
use super::{HookSlot, RmtMachine};
use crate::ctxt::{Ctxt, FieldId};
use crate::table::{MatchKind, Table};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// One memoized table step of a hook firing: which table the pipeline
/// visited and how its match resolved. Replay re-validates each step
/// (and always re-executes the action) — only the match resolution is
/// memoized.
#[derive(Clone, Debug)]
struct CachedStep {
    prog: u32,
    table: u16,
    /// The key values the table extracted, re-checked on replay — or
    /// `None` for a key-independent decision (the table was empty, so
    /// the default action fired without extracting a key). `None`
    /// revalidates via `is_empty()`, letting replay skip the per-table
    /// key allocation entirely on default-action-only pipelines.
    key: Option<Vec<u64>>,
    /// Matched entry slot (`None` = miss / default action).
    entry: Option<u32>,
}

/// Cheap deterministic hasher for decision-cache flow keys. Flow keys
/// are short `u64` words extracted from ctxt fields; SipHash's
/// flood-resistance buys nothing here (the cache is bounded and
/// kernel-internal) and costs a large fraction of the replay budget.
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
    /// over the raw words, so this — not `write_u64` — is what every
    /// probe runs: mix a word per round, not a byte.
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

type FlowKeyMap = HashMap<Vec<u64>, CachedDecision, BuildHasherDefault<FlowKeyHasher>>;

/// A memoized pipeline decision for one flow key.
#[derive(Clone, Debug)]
struct CachedDecision {
    /// [`RmtMachine`] table generation this decision was recorded
    /// under; any control-plane table/model mutation bumps the
    /// machine's counter, making the decision stale.
    generation: u64,
    steps: Vec<CachedStep>,
}

/// Bounded FIFO map of flow key -> memoized decision for one hook
/// (the megaflow-style cache in front of the full pipeline walk).
#[derive(Default)]
pub(super) struct DecisionCache {
    map: FlowKeyMap,
    fifo: VecDeque<Vec<u64>>,
    /// Degenerate megaflow: when the hook consumes no ctxt fields
    /// (every non-empty table is gone — default-action pipelines),
    /// every flow shares one decision. Kept out of `map` so the hot
    /// path is an `Option` move instead of a hash probe.
    flowless: Option<CachedDecision>,
}

impl DecisionCache {
    /// Inserts (or overwrites) a decision, evicting oldest-inserted
    /// keys past `cap`; returns how many were evicted.
    fn insert(&mut self, key: Vec<u64>, dec: CachedDecision, cap: usize) -> u64 {
        let mut evicted = 0;
        if self.map.insert(key.clone(), dec).is_none() {
            self.fifo.push_back(key);
            while self.map.len() > cap {
                let Some(old) = self.fifo.pop_front() else {
                    break;
                };
                if self.map.remove(&old).is_some() {
                    evicted += 1;
                }
            }
        }
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.fifo.clear();
        self.flowless = None;
    }
}

/// Decision-cache state for one firing, threaded between the probe
/// ([`FireCtx::cache_probe`]), the per-listener pipeline walk
/// ([`FireCtx::run_pipeline`]) and the publish
/// ([`FireCtx::cache_finish`]). The cached step chain is *moved*
/// out of the map for the duration of the firing (and restored on a
/// clean hit) rather than borrowed: a live borrow into the hook slot
/// would pin the whole listener loop, and the moves are pointer
/// swaps.
pub(super) struct CacheRun {
    /// Caching is on for this firing (capacity > 0, hook eligible).
    pub(super) enabled: bool,
    /// The hook consumes no ctxt fields: one shared decision slot,
    /// no key extraction, no hash probe.
    flowless: bool,
    /// The probe found a stale-generation entry (counted on miss).
    invalidated: bool,
    /// Recording a fresh step chain (probe missed or replay
    /// diverged).
    recording: bool,
    /// Steps recorded so far while `recording`.
    recorded: Vec<CachedStep>,
    /// Step chain moved out of the cache on a current-generation
    /// probe hit.
    replay: Option<Vec<CachedStep>>,
    /// Next replay step to validate.
    cursor: usize,
    /// A replayed step failed validation mid-firing.
    diverged: bool,
    /// The hook's [`HookSlot::key_stable`]: replayed steps skip
    /// per-table key re-extraction.
    key_stable: bool,
}

/// How the decision cache answered for one pipeline step
/// ([`CacheRun::replay_next`]).
pub(super) enum Replayed {
    /// The next memoized step validated against the live table: the
    /// matched entry slot (`None` = miss / default action).
    Step(Option<usize>),
    /// Resolve live — carrying the table's match key when validation
    /// already extracted it.
    Live(Option<Vec<u64>>),
}

impl CacheRun {
    /// Validates the next memoized step for table `ti` of program
    /// `pid`, or — on the first step that fails, or when the live
    /// pipeline outruns the memo (e.g. a tail call fires now that
    /// didn't before) — turns the validated prefix into the start of
    /// a fresh recording.
    pub(super) fn replay_next(&mut self, pid: u32, ti: usize, t: &Table, ctxt: &Ctxt) -> Replayed {
        if !self.enabled || self.recording {
            return Replayed::Live(None);
        }
        let mut fresh_key = None;
        if let Some(st) = self.replay.as_deref().unwrap_or(&[]).get(self.cursor) {
            let ok = st.prog == pid
                && st.table as usize == ti
                && match &st.key {
                    // Key-independent decision: still valid iff the
                    // table is still empty (no key extraction).
                    None => t.is_empty(),
                    // Key-stable hook: the probe-key match already
                    // pinned every reachable match key for this
                    // firing, so skip re-extraction.
                    Some(_) if self.key_stable => true,
                    Some(mk) => {
                        let k = ctxt.key(&t.def().key_fields);
                        let same = *mk == k;
                        fresh_key = Some(k);
                        same
                    }
                }
                && match st.entry {
                    Some(ei) => (ei as usize) < t.entries().len(),
                    None => true,
                };
            if ok {
                let entry = st.entry.map(|ei| ei as usize);
                self.cursor += 1;
                return Replayed::Step(entry);
            }
        }
        let mut prefix = self.replay.take().unwrap_or_default();
        prefix.truncate(self.cursor);
        self.recorded = prefix;
        self.recording = true;
        self.diverged = true;
        Replayed::Live(fresh_key)
    }

    /// Memoizes one live-resolved step while recording.
    pub(super) fn record(
        &mut self,
        pid: u32,
        ti: usize,
        key: Option<Vec<u64>>,
        entry: Option<usize>,
    ) {
        if self.recording {
            self.recorded.push(CachedStep {
                prog: pid,
                table: ti as u16,
                key,
                entry: entry.map(|ei| ei as u32),
            });
        }
    }
}

impl RmtMachine {
    /// Resizes the per-hook decision caches (0 disables caching).
    /// Existing cached decisions are dropped.
    pub fn set_decision_cache_capacity(&mut self, cap: usize) {
        self.decision_cache_cap = cap;
        for slot in self.hook_index.values_mut() {
            slot.cache.clear();
        }
    }

    /// Current per-hook decision-cache capacity.
    pub fn decision_cache_capacity(&self) -> usize {
        self.decision_cache_cap
    }

    /// Recomputes a hook's decision-cache metadata (probe-key field
    /// union and eligibility) after a structural change. Cached
    /// decisions are not dropped here — the generation bump already
    /// made them stale, and counting them as invalidations at probe
    /// time keeps the obs story faithful; they are overwritten or
    /// FIFO-evicted lazily.
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
        slot.consumed = consumed;
        slot.key_stable = key_stable;
        // A hook whose live tables are all exact-match already costs
        // one hash probe per table; the cache would only add overhead.
        slot.eligible = nonempty == 0 || non_exact;
    }
}

impl FireCtx<'_> {
    /// Decision-cache probe for one firing: hash the consumed ctxt
    /// fields (into the machine's reusable key scratch — no
    /// allocation on repeat flows) and, if a current-generation
    /// decision is cached, move its step chain out for replay
    /// (validated per table in [`FireCtx::run_pipeline`]; actions
    /// always re-execute).
    pub(super) fn cache_probe(&mut self, slot: &mut HookSlot, ctxt: &Ctxt) -> CacheRun {
        let enabled = self.cache_cap > 0 && slot.eligible;
        if self.cache_cap > 0 && !slot.eligible {
            self.obs.counters.decision_cache_bypasses += 1;
        }
        let mut cache = CacheRun {
            enabled,
            // Flow-independent hooks (no consumed fields) share a
            // single decision slot: no key extraction, no hash probe.
            flowless: slot.consumed.is_empty(),
            invalidated: false,
            recording: false,
            recorded: Vec::new(),
            replay: None,
            cursor: 0,
            diverged: false,
            key_stable: slot.key_stable,
        };
        if enabled && cache.flowless {
            match slot.cache.flowless.take() {
                Some(c) if c.generation == self.table_gen => cache.replay = Some(c.steps),
                Some(_) => cache.invalidated = true,
                None => {}
            }
        } else if enabled {
            ctxt.key_into(&slot.consumed, self.key_scratch);
            match slot.cache.map.get_mut(self.key_scratch.as_slice()) {
                Some(c) if c.generation == self.table_gen => {
                    cache.replay = Some(std::mem::take(&mut c.steps));
                }
                Some(_) => cache.invalidated = true,
                None => {}
            }
        }
        cache.recording = enabled && cache.replay.is_none();
        cache
    }

    /// Publishes the firing's decision-cache outcome: restore the
    /// step chain on a clean hit, or insert the recorded chain on a
    /// miss. The probe key is cloned out of the machine scratch only
    /// on insert — the hot hit path never allocates.
    pub(super) fn cache_finish(&mut self, slot: &mut HookSlot, mut cache: CacheRun) {
        if !cache.enabled {
            return;
        }
        let hit = !cache.diverged
            && cache
                .replay
                .as_deref()
                .is_some_and(|s| s.len() == cache.cursor);
        if hit {
            self.obs.counters.decision_cache_hits += 1;
            // Restore the step chain taken at probe time; nothing
            // evicts mid-firing.
            let steps = cache.replay.take().unwrap_or_default();
            if cache.flowless {
                slot.cache.flowless = Some(CachedDecision {
                    generation: self.table_gen,
                    steps,
                });
            } else if let Some(c) = slot.cache.map.get_mut(self.key_scratch.as_slice()) {
                c.steps = steps;
            }
        } else {
            self.obs.counters.decision_cache_misses += 1;
            if cache.invalidated {
                self.obs.counters.decision_cache_invalidations += 1;
            }
            if !cache.recording {
                // Every replayed step validated but the live
                // pipeline ended early: memoize what actually ran.
                cache.recorded = cache.replay.take().map_or_else(Vec::new, |mut s| {
                    s.truncate(cache.cursor);
                    s
                });
            }
            let dec = CachedDecision {
                generation: self.table_gen,
                steps: cache.recorded,
            };
            if cache.flowless {
                slot.cache.flowless = Some(dec);
            } else {
                let evicted = slot
                    .cache
                    .insert(self.key_scratch.to_vec(), dec, self.cache_cap);
                self.obs.counters.decision_cache_evictions += evicted;
            }
        }
    }
}
