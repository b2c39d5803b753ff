//! In-kernel map data structures.
//!
//! §3.1: "The virtual machine also provides an additional set of data
//! structures for in-kernel ML. This includes data structures for
//! monitoring purposes (e.g., akin to different types of eBPF maps), as
//! well as ones for training and inference."
//!
//! Five kinds are provided, mirroring the eBPF map families the paper
//! gestures at: hash, array, LRU hash, ring buffer (access-history
//! windows for online training), and histogram (latency/measurement
//! aggregation that the DP layer can noise before export).

use crate::error::VmError;
use crate::recency::RecencyList;
use std::collections::HashMap;

/// Identifies a map within a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MapId(pub u16);

/// The kind of a declared map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// Unordered key/value hash with capacity cap.
    Hash,
    /// Fixed-size array indexed by key (key < capacity).
    Array,
    /// Hash that evicts the least-recently-used entry at capacity.
    LruHash,
    /// Bounded FIFO ring; `push` overwrites the oldest when full.
    RingBuf,
    /// Fixed-bucket histogram; `update` adds to the bucket of
    /// `key.min(buckets - 1)`.
    Histogram,
}

/// Static declaration of a map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapDef {
    /// Map name (control-plane visible).
    pub name: String,
    /// Kind of map.
    pub kind: MapKind,
    /// Capacity (entries / slots / ring length / buckets).
    pub capacity: usize,
    /// Whether the map aggregates cross-application data. Shared maps
    /// may only be read through the differentially private
    /// `DpAggregate` instruction (§3.3 privacy); the verifier rejects
    /// raw reads.
    pub shared: bool,
    /// Per-CPU semantics, mirroring eBPF's `BPF_MAP_TYPE_PERCPU_*`
    /// families: under [`crate::shard::ShardedMachine`] every shard
    /// writes its own replica contention-free, and control-plane reads
    /// aggregate (sum per key) across shards. Only meaningful for
    /// [`MapKind::Hash`] and [`MapKind::Array`] — the verifier rejects
    /// the flag on other kinds (and on `shared` maps, whose DP-noised
    /// reads compose per replica, not per aggregate). On a single
    /// [`crate::machine::RmtMachine`] the flag is a no-op: there is
    /// exactly one "CPU".
    pub per_cpu: bool,
}

/// A runtime map instance.
#[derive(Clone, Debug)]
pub enum MapInstance {
    /// See [`MapKind::Hash`].
    Hash {
        /// Declared capacity.
        capacity: usize,
        /// Key/value storage.
        data: HashMap<u64, i64>,
    },
    /// See [`MapKind::Array`].
    Array {
        /// Slot storage, length = capacity.
        data: Vec<i64>,
    },
    /// See [`MapKind::LruHash`].
    ///
    /// A slab of `(key, value)` slots ordered by a [`RecencyList`]: a
    /// touch relinks one slot at the front, and an insert at capacity
    /// reuses the least recently used slot, so every operation is O(1).
    LruHash {
        /// Declared capacity.
        capacity: usize,
        /// Key -> slot.
        index: HashMap<u64, u32>,
        /// `(key, value)` per slot.
        slots: Vec<(u64, i64)>,
        /// Slots emptied by `delete`, refilled before the slab grows.
        free: Vec<u32>,
        /// Slot recency, least recently used at the back.
        recency: RecencyList,
    },
    /// See [`MapKind::RingBuf`].
    ///
    /// Until `slots` has grown to `capacity`, the buffered elements are
    /// `slots[head..]` and a push appends; from then on they wrap
    /// around `slots` and a push at capacity overwrites the oldest.
    RingBuf {
        /// Declared capacity.
        capacity: usize,
        /// Ring storage, grown by pushes up to `capacity`.
        slots: Vec<i64>,
        /// Slot of the oldest element.
        head: usize,
        /// Buffered elements.
        len: usize,
    },
    /// See [`MapKind::Histogram`].
    Histogram {
        /// Bucket counters.
        buckets: Vec<i64>,
    },
}

impl MapInstance {
    /// Instantiates a map from its definition.
    ///
    /// Returns [`VmError::MapError`] for a zero capacity.
    pub fn new(def: &MapDef) -> Result<MapInstance, VmError> {
        if def.capacity == 0 {
            return Err(VmError::MapError("zero capacity"));
        }
        Ok(match def.kind {
            MapKind::Hash => MapInstance::Hash {
                capacity: def.capacity,
                data: HashMap::new(),
            },
            MapKind::Array => MapInstance::Array {
                data: vec![0; def.capacity],
            },
            MapKind::LruHash => MapInstance::empty_lru(def.capacity),
            MapKind::RingBuf => MapInstance::RingBuf {
                capacity: def.capacity,
                slots: Vec::with_capacity(def.capacity),
                head: 0,
                len: 0,
            },
            MapKind::Histogram => MapInstance::Histogram {
                buckets: vec![0; def.capacity],
            },
        })
    }

    fn empty_lru(capacity: usize) -> MapInstance {
        MapInstance::LruHash {
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            recency: RecencyList::new(),
        }
    }

    /// Looks up `key`. For ring buffers, `key` indexes from the oldest
    /// element; for histograms it reads a bucket. Missing keys return
    /// `None` (the bytecode helper maps this to 0 with a flag). LRU
    /// lookups refresh the key's recency in O(1).
    pub fn lookup(&mut self, key: u64) -> Option<i64> {
        match self {
            MapInstance::LruHash {
                index,
                slots,
                recency,
                ..
            } => {
                let &slot = index.get(&key)?;
                recency.touch(slot);
                Some(slots[slot as usize].1)
            }
            _ => self.peek(key),
        }
    }

    /// Non-mutating lookup: same value as [`MapInstance::lookup`] but
    /// without refreshing LRU recency. This is the read the sharded
    /// control plane uses to aggregate per-CPU replicas — an
    /// observability read must not perturb eviction order.
    pub fn peek(&self, key: u64) -> Option<i64> {
        match self {
            MapInstance::Hash { data, .. } => data.get(&key).copied(),
            MapInstance::Array { data } => data.get(key as usize).copied(),
            MapInstance::LruHash { index, slots, .. } => {
                index.get(&key).map(|&slot| slots[slot as usize].1)
            }
            MapInstance::RingBuf {
                slots, head, len, ..
            } => {
                ((key as usize) < *len).then(|| slots[ring_slot(*head, key as usize, slots.len())])
            }
            MapInstance::Histogram { buckets } => buckets.get(key as usize).copied(),
        }
    }

    /// Updates `key -> value` with kind-specific semantics:
    /// hash/LRU insert-or-replace (LRU evicting the coldest at
    /// capacity), array writes a slot, ring buffer pushes `value`
    /// (ignoring `key`), histogram adds `value` to the clamped bucket.
    pub fn update(&mut self, key: u64, value: i64) -> Result<(), VmError> {
        match self {
            MapInstance::Hash { capacity, data } => {
                if !data.contains_key(&key) && data.len() >= *capacity {
                    return Err(VmError::MapError("hash map full"));
                }
                data.insert(key, value);
                Ok(())
            }
            MapInstance::Array { data } => match data.get_mut(key as usize) {
                Some(slot) => {
                    *slot = value;
                    Ok(())
                }
                None => Err(VmError::MapError("array index out of range")),
            },
            MapInstance::LruHash {
                capacity,
                index,
                slots,
                free,
                recency,
            } => {
                if let Some(&slot) = index.get(&key) {
                    slots[slot as usize].1 = value;
                    recency.touch(slot);
                    return Ok(());
                }
                let slot = if let Some(cold) = recency.back().filter(|_| index.len() >= *capacity) {
                    recency.unlink(cold);
                    index.remove(&slots[cold as usize].0);
                    slots[cold as usize] = (key, value);
                    cold
                } else if let Some(slot) = free.pop() {
                    slots[slot as usize] = (key, value);
                    slot
                } else {
                    slots.push((key, value));
                    (slots.len() - 1) as u32
                };
                index.insert(key, slot);
                recency.push_front(slot);
                Ok(())
            }
            MapInstance::RingBuf {
                capacity,
                slots,
                head,
                len,
            } => {
                if slots.len() < *capacity {
                    slots.push(value);
                    *len += 1;
                } else {
                    slots[ring_slot(*head, *len, *capacity)] = value;
                    if *len == *capacity {
                        *head = ring_slot(*head, 1, *capacity);
                    } else {
                        *len += 1;
                    }
                }
                Ok(())
            }
            MapInstance::Histogram { buckets } => {
                let idx = (key as usize).min(buckets.len() - 1);
                buckets[idx] = buckets[idx].saturating_add(value);
                Ok(())
            }
        }
    }

    /// Deletes by kind-specific semantics:
    ///
    /// - hash / LRU hash: removes `key`, returning whether it existed;
    /// - array / histogram: zeroes the slot/bucket at `key` (returns
    ///   `false` if `key` is out of range);
    /// - ring buffer: **pops the oldest element, ignoring `key`** — it
    ///   is a FIFO consumer operation, not keyed removal.
    pub fn delete(&mut self, key: u64) -> bool {
        match self {
            MapInstance::Hash { data, .. } => data.remove(&key).is_some(),
            MapInstance::Array { data } => match data.get_mut(key as usize) {
                Some(slot) => {
                    *slot = 0;
                    true
                }
                None => false,
            },
            MapInstance::LruHash {
                index,
                free,
                recency,
                ..
            } => match index.remove(&key) {
                Some(slot) => {
                    recency.unlink(slot);
                    free.push(slot);
                    true
                }
                None => false,
            },
            MapInstance::RingBuf {
                capacity,
                slots,
                head,
                len,
            } => {
                if *len == 0 {
                    return false;
                }
                // Storage still growing: the elements end at its end.
                *head = if slots.len() < *capacity {
                    *head + 1
                } else {
                    ring_slot(*head, 1, *capacity)
                };
                *len -= 1;
                true
            }
            MapInstance::Histogram { buckets } => match buckets.get_mut(key as usize) {
                Some(b) => {
                    *b = 0;
                    true
                }
                None => false,
            },
        }
    }

    /// Number of elements, by kind: hash / LRU hash / ring buffer
    /// report *live* entries; array / histogram report the *slot count*
    /// (always equal to [`MapInstance::capacity`] — every slot exists
    /// from creation, zero-valued). Use `capacity()` for the declared
    /// bound regardless of kind.
    pub fn len(&self) -> usize {
        match self {
            MapInstance::Hash { data, .. } => data.len(),
            MapInstance::Array { data } => data.len(),
            MapInstance::LruHash { index, .. } => index.len(),
            MapInstance::RingBuf { len, .. } => *len,
            MapInstance::Histogram { buckets } => buckets.len(),
        }
    }

    /// Declared capacity: maximum live entries (hash / LRU / ring
    /// buffer) or allocated slot count (array / histogram).
    pub fn capacity(&self) -> usize {
        match self {
            MapInstance::Hash { capacity, .. } => *capacity,
            MapInstance::Array { data } => data.len(),
            MapInstance::LruHash { capacity, .. } => *capacity,
            MapInstance::RingBuf { capacity, .. } => *capacity,
            MapInstance::Histogram { buckets } => buckets.len(),
        }
    }

    /// Returns `true` if the map holds no elements.
    pub fn is_empty(&self) -> bool {
        match self {
            MapInstance::Hash { data, .. } => data.is_empty(),
            MapInstance::LruHash { index, .. } => index.is_empty(),
            MapInstance::RingBuf { len, .. } => *len == 0,
            // Arrays and histograms are always fully allocated.
            MapInstance::Array { .. } | MapInstance::Histogram { .. } => false,
        }
    }

    /// Sum of all values — the aggregate-statistics read that the
    /// privacy layer (§3.3) noises before export.
    pub fn aggregate_sum(&self) -> i64 {
        match self {
            MapInstance::Hash { data, .. } => data.values().fold(0i64, |a, &v| a.saturating_add(v)),
            MapInstance::Array { data } => data.iter().fold(0i64, |a, &v| a.saturating_add(v)),
            MapInstance::LruHash { slots, recency, .. } => recency
                .oldest_first()
                .fold(0i64, |a, s| a.saturating_add(slots[s as usize].1)),
            MapInstance::RingBuf { .. } => {
                self.ring_values().fold(0i64, |a, v| a.saturating_add(v))
            }
            MapInstance::Histogram { buckets } => {
                buckets.iter().fold(0i64, |a, &v| a.saturating_add(v))
            }
        }
    }

    /// Snapshot of the ring buffer contents (oldest first); empty for
    /// other kinds. Used to assemble feature windows for `RMT_VECTOR_LD`.
    pub fn ring_snapshot(&self) -> Vec<i64> {
        self.ring_values().collect()
    }

    /// A ring buffer's values, oldest first; nothing for other kinds.
    fn ring_values(&self) -> impl Iterator<Item = i64> + '_ {
        let (slots, head, len) = match self {
            MapInstance::RingBuf {
                slots, head, len, ..
            } => (slots.as_slice(), *head, *len),
            _ => (&[][..], 0, 0),
        };
        (0..len).map(move |i| slots[ring_slot(head, i, slots.len())])
    }

    /// Serializable copy of the map's contents for machine
    /// snapshot/restore.
    ///
    /// Hash kinds list entries in sorted key order so snapshots are
    /// byte-deterministic. LRU hash entries are listed **coldest
    /// first**: [`MapInstance::import_state`] replays them through
    /// [`MapInstance::update`], and since every replayed insert is also
    /// a recency touch, the rebuilt map evicts in exactly the
    /// snapshotted order. The slab layout is rebuilt, not restored — it
    /// is not observable state.
    pub fn export_state(&self) -> MapState {
        match self {
            MapInstance::Hash { capacity, data } => {
                let mut entries: Vec<(u64, i64)> = data.iter().map(|(&k, &v)| (k, v)).collect();
                entries.sort_unstable_by_key(|&(k, _)| k);
                MapState::Hash {
                    capacity: *capacity,
                    entries,
                }
            }
            MapInstance::Array { data } => MapState::Array { data: data.clone() },
            MapInstance::LruHash {
                capacity,
                slots,
                recency,
                ..
            } => MapState::LruHash {
                capacity: *capacity,
                entries: recency.oldest_first().map(|s| slots[s as usize]).collect(),
            },
            MapInstance::RingBuf { capacity, .. } => MapState::RingBuf {
                capacity: *capacity,
                data: self.ring_snapshot(),
            },
            MapInstance::Histogram { buckets } => MapState::Histogram {
                buckets: buckets.clone(),
            },
        }
    }

    /// Rebuilds a map from [`MapInstance::export_state`] output,
    /// re-validating capacity bounds (a snapshot is untrusted input:
    /// an over-capacity entry list fails instead of silently growing
    /// the map past its declared bound).
    pub fn import_state(state: MapState) -> Result<MapInstance, VmError> {
        match state {
            MapState::Hash { capacity, entries } => {
                if capacity == 0 {
                    return Err(VmError::MapError("zero capacity"));
                }
                if entries.len() > capacity {
                    return Err(VmError::MapError("hash snapshot exceeds capacity"));
                }
                Ok(MapInstance::Hash {
                    capacity,
                    data: entries.into_iter().collect(),
                })
            }
            MapState::Array { data } => {
                if data.is_empty() {
                    return Err(VmError::MapError("zero capacity"));
                }
                Ok(MapInstance::Array { data })
            }
            MapState::LruHash { capacity, entries } => {
                if capacity == 0 {
                    return Err(VmError::MapError("zero capacity"));
                }
                if entries.len() > capacity {
                    return Err(VmError::MapError("lru snapshot exceeds capacity"));
                }
                let mut m = MapInstance::empty_lru(capacity);
                // Coldest-first replay: each update is also a touch.
                for (k, v) in entries {
                    m.update(k, v)?;
                }
                Ok(m)
            }
            MapState::RingBuf { capacity, data } => {
                if capacity == 0 {
                    return Err(VmError::MapError("zero capacity"));
                }
                if data.len() > capacity {
                    return Err(VmError::MapError("ring snapshot exceeds capacity"));
                }
                Ok(MapInstance::RingBuf {
                    capacity,
                    head: 0,
                    len: data.len(),
                    slots: data,
                })
            }
            MapState::Histogram { buckets } => {
                if buckets.is_empty() {
                    return Err(VmError::MapError("zero capacity"));
                }
                Ok(MapInstance::Histogram { buckets })
            }
        }
    }
}

/// Serializable contents of one runtime map (see
/// [`MapInstance::export_state`]). One variant per [`MapKind`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapState {
    /// Hash entries in sorted key order.
    Hash {
        /// Declared capacity.
        capacity: usize,
        /// `(key, value)` pairs, sorted by key.
        entries: Vec<(u64, i64)>,
    },
    /// Array slots in index order.
    Array {
        /// Slot values; length = capacity.
        data: Vec<i64>,
    },
    /// LRU hash entries in recency order, coldest first.
    LruHash {
        /// Declared capacity.
        capacity: usize,
        /// `(key, value)` pairs, coldest first.
        entries: Vec<(u64, i64)>,
    },
    /// Ring-buffer contents, oldest first.
    RingBuf {
        /// Declared capacity.
        capacity: usize,
        /// Buffered values, oldest first.
        data: Vec<i64>,
    },
    /// Histogram bucket values in bucket order.
    Histogram {
        /// Bucket values; length = bucket count.
        buckets: Vec<i64>,
    },
}

/// The ring slot `i` places after slot `head` in a ring of `cap` slots
/// (`head < cap`, `i <= cap`): one compare instead of a division.
fn ring_slot(head: usize, i: usize, cap: usize) -> usize {
    let j = head + i;
    if j >= cap {
        j - cap
    } else {
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(kind: MapKind, capacity: usize) -> MapInstance {
        MapInstance::new(&MapDef {
            name: "m".into(),
            kind,
            capacity,
            shared: false,
            per_cpu: false,
        })
        .unwrap()
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(MapInstance::new(&MapDef {
            name: "m".into(),
            kind: MapKind::Hash,
            capacity: 0,
            shared: false,
            per_cpu: false,
        })
        .is_err());
    }

    /// `peek` returns `lookup`'s value without touching LRU recency:
    /// after peeking the coldest key, an at-capacity insert must still
    /// evict it.
    #[test]
    fn peek_does_not_refresh_lru_recency() {
        let mut m = mk(MapKind::LruHash, 2);
        m.update(1, 10).unwrap();
        m.update(2, 20).unwrap();
        assert_eq!(m.peek(1), Some(10)); // No touch: key 1 stays coldest.
        m.update(3, 30).unwrap();
        assert_eq!(m.peek(1), None, "peeked key still evicted first");
        assert_eq!(m.peek(2), Some(20));
        // And peek agrees with lookup on every other kind.
        let mut h = mk(MapKind::Hash, 4);
        h.update(7, 70).unwrap();
        assert_eq!(h.peek(7), h.lookup(7));
        assert_eq!(h.peek(8), None);
    }

    #[test]
    fn hash_semantics() {
        let mut m = mk(MapKind::Hash, 2);
        assert!(m.is_empty());
        m.update(1, 10).unwrap();
        m.update(2, 20).unwrap();
        assert_eq!(m.lookup(1), Some(10));
        assert_eq!(m.lookup(3), None);
        assert!(matches!(m.update(3, 30), Err(VmError::MapError(_))));
        m.update(1, 11).unwrap(); // Replace at capacity is fine.
        assert_eq!(m.lookup(1), Some(11));
        assert!(m.delete(1));
        assert!(!m.delete(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn array_semantics() {
        let mut m = mk(MapKind::Array, 3);
        m.update(0, 5).unwrap();
        m.update(2, 7).unwrap();
        assert!(m.update(3, 1).is_err());
        assert_eq!(m.lookup(2), Some(7));
        assert_eq!(m.lookup(3), None);
        assert!(m.delete(2));
        assert_eq!(m.lookup(2), Some(0));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut m = mk(MapKind::LruHash, 2);
        m.update(1, 10).unwrap();
        m.update(2, 20).unwrap();
        // Touch key 1 so key 2 is coldest.
        assert_eq!(m.lookup(1), Some(10));
        m.update(3, 30).unwrap();
        assert_eq!(m.lookup(2), None, "coldest key should be evicted");
        assert_eq!(m.lookup(1), Some(10));
        assert_eq!(m.lookup(3), Some(30));
        // Updating an existing key refreshes without eviction.
        m.update(1, 11).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.delete(3));
        assert_eq!(m.len(), 1);
    }

    /// Regression for the O(n) recency scan: at 10k capacity the old
    /// `order.iter().position` implementation made every touch a linear
    /// walk, turning this workload quadratic. With the lazy touch log
    /// it completes instantly, and eviction order stays correct.
    #[test]
    fn lru_large_capacity_recency_regression() {
        const CAP: u64 = 10_000;
        let mut m = mk(MapKind::LruHash, CAP as usize);
        for k in 0..CAP {
            m.update(k, k as i64).unwrap();
        }
        // Touch the upper half (hot set), repeatedly, so the touch log
        // churns well past capacity and exercises compaction.
        for _ in 0..5 {
            for k in CAP / 2..CAP {
                assert_eq!(m.lookup(k), Some(k as i64));
            }
        }
        // Insert a fresh 10k keys: the cold lower half must be evicted
        // first, then the hot half in its (re-touched) order.
        for k in CAP..2 * CAP {
            m.update(k, k as i64).unwrap();
        }
        assert_eq!(m.len(), CAP as usize);
        for k in 0..CAP {
            assert_eq!(m.lookup(k), None, "cold key {k} should be evicted");
        }
        for k in CAP..2 * CAP {
            assert_eq!(m.lookup(k), Some(k as i64), "fresh key {k} retained");
        }
    }

    #[test]
    fn lru_delete_leaves_stale_log_entries_harmless() {
        let mut m = mk(MapKind::LruHash, 2);
        m.update(1, 10).unwrap();
        m.update(2, 20).unwrap();
        assert!(m.delete(1));
        assert!(!m.delete(1));
        // Key 1's log entries are now stale; inserting two more keys
        // must evict key 2 (the only remaining cold key), not panic or
        // over-evict.
        m.update(3, 30).unwrap();
        m.update(4, 40).unwrap();
        assert_eq!(m.lookup(2), None);
        assert_eq!(m.lookup(3), Some(30));
        assert_eq!(m.lookup(4), Some(40));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn capacity_reported_for_all_kinds() {
        assert_eq!(mk(MapKind::Hash, 7).capacity(), 7);
        assert_eq!(mk(MapKind::Array, 7).capacity(), 7);
        assert_eq!(mk(MapKind::LruHash, 7).capacity(), 7);
        assert_eq!(mk(MapKind::RingBuf, 7).capacity(), 7);
        assert_eq!(mk(MapKind::Histogram, 7).capacity(), 7);
    }

    /// Pins the documented kind-specific `len` semantics: array and
    /// histogram report slot count (== capacity) even when untouched,
    /// the others report live entries.
    #[test]
    fn len_semantics_by_kind() {
        assert_eq!(mk(MapKind::Array, 5).len(), 5);
        assert_eq!(mk(MapKind::Histogram, 5).len(), 5);
        assert_eq!(mk(MapKind::Hash, 5).len(), 0);
        assert_eq!(mk(MapKind::LruHash, 5).len(), 0);
        assert_eq!(mk(MapKind::RingBuf, 5).len(), 0);
    }

    /// Pins the documented FIFO-consumer semantics of ring-buffer
    /// delete: the key is ignored and the oldest element pops.
    #[test]
    fn ringbuf_delete_pops_oldest_ignoring_key() {
        let mut m = mk(MapKind::RingBuf, 3);
        m.update(0, 10).unwrap();
        m.update(0, 20).unwrap();
        m.update(0, 30).unwrap();
        assert!(m.delete(999)); // Arbitrary key: still pops 10.
        assert_eq!(m.ring_snapshot(), vec![20, 30]);
        assert!(m.delete(0));
        assert!(m.delete(0));
        assert!(!m.delete(0)); // Empty ring: nothing to pop.
    }

    #[test]
    fn ring_buffer_overwrites_oldest() {
        let mut m = mk(MapKind::RingBuf, 3);
        for v in 1..=5 {
            m.update(0, v).unwrap();
        }
        assert_eq!(m.ring_snapshot(), vec![3, 4, 5]);
        assert_eq!(m.lookup(0), Some(3));
        assert_eq!(m.lookup(2), Some(5));
        assert_eq!(m.lookup(3), None);
        assert!(m.delete(0)); // Pops the oldest.
        assert_eq!(m.ring_snapshot(), vec![4, 5]);
    }

    #[test]
    fn histogram_accumulates_and_clamps() {
        let mut m = mk(MapKind::Histogram, 4);
        m.update(0, 1).unwrap();
        m.update(0, 2).unwrap();
        m.update(99, 5).unwrap(); // Clamped into the last bucket.
        assert_eq!(m.lookup(0), Some(3));
        assert_eq!(m.lookup(3), Some(5));
        assert_eq!(m.aggregate_sum(), 8);
        assert!(m.delete(3));
        assert_eq!(m.lookup(3), Some(0));
    }

    #[test]
    fn aggregate_sum_all_kinds() {
        let mut h = mk(MapKind::Hash, 4);
        h.update(1, 5).unwrap();
        h.update(2, -2).unwrap();
        assert_eq!(h.aggregate_sum(), 3);
        let mut a = mk(MapKind::Array, 2);
        a.update(0, 7).unwrap();
        assert_eq!(a.aggregate_sum(), 7);
        let mut r = mk(MapKind::RingBuf, 2);
        r.update(0, 1).unwrap();
        r.update(0, 2).unwrap();
        assert_eq!(r.aggregate_sum(), 3);
        let mut l = mk(MapKind::LruHash, 2);
        l.update(9, 9).unwrap();
        assert_eq!(l.aggregate_sum(), 9);
    }

    /// A snapshot is outside input: the capacity it declares bounds the
    /// ring but is not allocated up front.
    #[test]
    fn ring_snapshot_capacity_is_not_allocated_up_front() {
        let state = MapState::RingBuf {
            capacity: usize::MAX / 2,
            data: vec![1, 2],
        };
        let mut m = MapInstance::import_state(state.clone()).unwrap();
        assert_eq!(m.export_state(), state);
        m.update(0, 3).unwrap();
        assert!(m.delete(0));
        assert_eq!(m.ring_snapshot(), vec![2, 3]);
    }

    #[test]
    fn ring_snapshot_empty_for_other_kinds() {
        let m = mk(MapKind::Hash, 2);
        assert!(m.ring_snapshot().is_empty());
    }
}

rkd_testkit::impl_json_newtype!(MapId(u16));

rkd_testkit::impl_json_unit_enum!(MapKind {
    Hash,
    Array,
    LruHash,
    RingBuf,
    Histogram,
});

rkd_testkit::impl_json_struct!(MapDef {
    name,
    kind,
    capacity,
    shared,
    per_cpu
});

rkd_testkit::impl_json_enum!(MapState {
    Hash { capacity, entries },
    Array { data },
    LruHash { capacity, entries },
    RingBuf { capacity, data },
    Histogram { buckets },
});
