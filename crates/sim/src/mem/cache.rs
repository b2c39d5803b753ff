//! The simulated page cache (swap cache).
//!
//! An LRU-managed set of resident pages with prefetch tagging: pages
//! brought in by a prefetcher are marked until first touch, so the
//! simulator can account *useful* vs *wasted* prefetches exactly as
//! Table 1's accuracy metric requires (a prefetched page evicted
//! untouched is wasted; a first touch converts it to useful).

use rkd_core::recency::RecencyList;
use std::collections::HashMap;

/// Why a page became resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// Faulted in on demand.
    Demand,
    /// Brought in by a prefetcher and not yet touched.
    PrefetchedUntouched,
    /// Brought in by a prefetcher and touched at least once.
    PrefetchedUsed,
}

/// Outcome of an access against the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Page was resident from a demand fault or already-used prefetch.
    Hit,
    /// Page was resident thanks to an untouched prefetch — a fault
    /// avoided (counts toward coverage).
    PrefetchHit,
    /// Page was absent: demand fault.
    Miss,
}

/// One resident page.
#[derive(Clone, Debug)]
struct Slot {
    page: u64,
    residency: Residency,
}

/// An LRU page cache with prefetch accounting.
///
/// Recency is a [`RecencyList`] over a slab of slots: a touch relinks
/// one slot at the front and a fill reuses the least recently used
/// one, so every operation is O(1) however large the cache is.
#[derive(Clone, Debug)]
pub struct PageCache {
    capacity: usize,
    /// page -> slot index.
    index: HashMap<u64, u32>,
    slots: Vec<Slot>,
    recency: RecencyList,
    /// Resident prefetched pages not yet touched.
    untouched: u64,
    /// Prefetched pages evicted without ever being touched.
    wasted_evictions: u64,
}

impl PageCache {
    /// Creates a cache holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a 32-bit slot index.
    pub fn new(capacity: usize) -> PageCache {
        assert!(capacity > 0, "page cache capacity must be nonzero");
        assert!(
            capacity < u32::MAX as usize,
            "page cache capacity must fit a 32-bit slot index"
        );
        PageCache {
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            recency: RecencyList::new(),
            untouched: 0,
            wasted_evictions: 0,
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether a page is currently resident.
    pub fn resident(&self, page: u64) -> bool {
        self.index.contains_key(&page)
    }

    /// Accesses a page: classifies the access, faults it in if absent,
    /// refreshes LRU, and converts untouched prefetches to used.
    pub fn access(&mut self, page: u64) -> AccessKind {
        let Some(&slot) = self.index.get(&page) else {
            self.insert(page, Residency::Demand);
            return AccessKind::Miss;
        };
        self.recency.touch(slot);
        let residency = &mut self.slots[slot as usize].residency;
        if *residency == Residency::PrefetchedUntouched {
            *residency = Residency::PrefetchedUsed;
            self.untouched -= 1;
            AccessKind::PrefetchHit
        } else {
            AccessKind::Hit
        }
    }

    /// Prefetches a page; returns `true` if it was actually brought in
    /// (already-resident pages are a no-op and not counted as issued).
    pub fn prefetch(&mut self, page: u64) -> bool {
        if self.index.contains_key(&page) {
            return false;
        }
        self.insert(page, Residency::PrefetchedUntouched);
        true
    }

    /// Prefetched pages evicted without being touched, so far.
    pub fn wasted_evictions(&self) -> u64 {
        self.wasted_evictions
    }

    /// Counts currently resident untouched prefetches (wasted if the
    /// run ended now) — the simulator folds these into the final
    /// accounting.
    pub fn untouched_resident(&self) -> u64 {
        self.untouched
    }

    /// Makes an absent page the most recently used one, evicting the
    /// least recently used page when the cache is full.
    fn insert(&mut self, page: u64, residency: Residency) {
        let full = self.slots.len() == self.capacity;
        let slot = match self.recency.back().filter(|_| full) {
            Some(slot) => {
                let victim = &mut self.slots[slot as usize];
                self.index.remove(&victim.page);
                if victim.residency == Residency::PrefetchedUntouched {
                    self.wasted_evictions += 1;
                    self.untouched -= 1;
                }
                *victim = Slot { page, residency };
                self.recency.touch(slot);
                slot
            }
            None => {
                self.slots.push(Slot { page, residency });
                let slot = (self.slots.len() - 1) as u32;
                self.recency.push_front(slot);
                slot
            }
        };
        if residency == Residency::PrefetchedUntouched {
            self.untouched += 1;
        }
        self.index.insert(page, slot);
    }
}

/// The cache this module had before the linked recency list: a stamp
/// per page and a scan of every resident page on each fill. Kept as the
/// model the property test and `bench_train` compare against; nothing
/// else may use it.
#[doc(hidden)]
pub mod reference {
    use super::{AccessKind, Residency};
    use std::collections::HashMap;

    /// [`super::PageCache`] as it was.
    #[derive(Clone, Debug)]
    pub struct PageCache {
        capacity: usize,
        /// page -> (residency, lru_stamp).
        pages: HashMap<u64, (Residency, u64)>,
        clock: u64,
        wasted_evictions: u64,
    }

    impl PageCache {
        pub fn new(capacity: usize) -> PageCache {
            assert!(capacity > 0, "page cache capacity must be nonzero");
            PageCache {
                capacity,
                pages: HashMap::new(),
                clock: 0,
                wasted_evictions: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.pages.len()
        }

        pub fn is_empty(&self) -> bool {
            self.pages.is_empty()
        }

        pub fn resident(&self, page: u64) -> bool {
            self.pages.contains_key(&page)
        }

        pub fn access(&mut self, page: u64) -> AccessKind {
            self.clock += 1;
            match self.pages.get_mut(&page) {
                Some((residency, stamp)) => {
                    *stamp = self.clock;
                    match *residency {
                        Residency::PrefetchedUntouched => {
                            *residency = Residency::PrefetchedUsed;
                            AccessKind::PrefetchHit
                        }
                        _ => AccessKind::Hit,
                    }
                }
                None => {
                    self.insert(page, Residency::Demand);
                    AccessKind::Miss
                }
            }
        }

        pub fn prefetch(&mut self, page: u64) -> bool {
            if self.pages.contains_key(&page) {
                return false;
            }
            self.clock += 1;
            self.insert(page, Residency::PrefetchedUntouched);
            true
        }

        pub fn wasted_evictions(&self) -> u64 {
            self.wasted_evictions
        }

        pub fn untouched_resident(&self) -> u64 {
            self.pages
                .values()
                .filter(|(r, _)| *r == Residency::PrefetchedUntouched)
                .count() as u64
        }

        fn insert(&mut self, page: u64, residency: Residency) {
            if self.pages.len() >= self.capacity {
                // Evict the LRU page.
                if let Some((&victim, _)) = self.pages.iter().min_by_key(|(_, (_, stamp))| *stamp) {
                    if let Some((r, _)) = self.pages.remove(&victim) {
                        if r == Residency::PrefetchedUntouched {
                            self.wasted_evictions += 1;
                        }
                    }
                }
            }
            self.pages.insert(page, (residency, self.clock));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_fault_then_hit() {
        let mut c = PageCache::new(4);
        assert_eq!(c.access(10), AccessKind::Miss);
        assert_eq!(c.access(10), AccessKind::Hit);
        assert!(c.resident(10));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn prefetch_hit_counted_once() {
        let mut c = PageCache::new(4);
        assert!(c.prefetch(5));
        assert_eq!(c.access(5), AccessKind::PrefetchHit);
        // Second touch is a plain hit.
        assert_eq!(c.access(5), AccessKind::Hit);
    }

    #[test]
    fn prefetch_of_resident_page_is_noop() {
        let mut c = PageCache::new(4);
        c.access(1);
        assert!(!c.prefetch(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PageCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // Refresh 1; 2 is now LRU.
        c.access(3); // Evicts 2.
        assert!(c.resident(1));
        assert!(!c.resident(2));
        assert!(c.resident(3));
    }

    #[test]
    fn wasted_prefetch_on_eviction() {
        let mut c = PageCache::new(2);
        c.prefetch(1);
        c.access(2);
        c.access(3); // Evicts the untouched prefetch of 1.
        assert_eq!(c.wasted_evictions(), 1);
        // A used prefetch is not wasted on eviction.
        let mut c = PageCache::new(2);
        c.prefetch(1);
        c.access(1); // Touch it.
        c.access(2);
        c.access(3);
        assert_eq!(c.wasted_evictions(), 0);
    }

    #[test]
    fn untouched_resident_accounting() {
        let mut c = PageCache::new(8);
        c.prefetch(1);
        c.prefetch(2);
        c.access(1);
        assert_eq!(c.untouched_resident(), 1);
    }

    // Random access/prefetch streams over a page universe a few times
    // the capacity: every return value and every counter must match
    // the scan-based model after every step.
    rkd_testkit::prop_check!(matches_scanning_model, cases = 1000, |g| {
        use rkd_testkit::rng::Rng;
        let capacity = [1usize, 2, 512][g.gen_range(0..3usize)];
        let universe = (capacity as u64) * g.gen_range(1..4u64) + g.gen_range(0..3u64);
        let steps = g.gen_range(1..(capacity * 4 + 40));
        let mut cache = PageCache::new(capacity);
        let mut model = reference::PageCache::new(capacity);
        for _ in 0..steps {
            let page = g.gen_range(0..universe);
            if g.gen_bool(0.4) {
                assert_eq!(cache.prefetch(page), model.prefetch(page));
            } else {
                assert_eq!(cache.access(page), model.access(page));
            }
            assert_eq!(cache.len(), model.len());
            assert_eq!(cache.wasted_evictions(), model.wasted_evictions());
            assert_eq!(cache.untouched_resident(), model.untouched_resident());
        }
        for page in 0..universe {
            assert_eq!(cache.resident(page), model.resident(page), "page {page}");
        }
    });

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = PageCache::new(0);
    }
}
