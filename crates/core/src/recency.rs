//! An index-linked recency list: the one LRU order shared by the
//! machine's decision cache, [`crate::maps::MapKind::LruHash`] and the
//! simulator's page cache.
//!
//! The list threads `u32` ids (slab slot numbers owned by the caller)
//! through two parallel link arrays, so a touch, an unlink and the
//! victim read are all O(1) with no allocation once the arrays have
//! grown to the caller's slab size. The caller keeps its payload and
//! its key index; the list only knows the order.

/// "No neighbour" in the link arrays.
const NIL: u32 = u32::MAX;

/// A doubly linked most-recent-first order over slot ids `0..n`.
#[derive(Clone, Debug)]
pub struct RecencyList {
    /// `prev[id]`: the neighbour toward the most recently used end.
    prev: Vec<u32>,
    /// `next[id]`: the neighbour toward the least recently used end.
    next: Vec<u32>,
    /// Most recently used id.
    head: u32,
    /// Least recently used id: the next victim.
    tail: u32,
}

impl Default for RecencyList {
    fn default() -> RecencyList {
        RecencyList::new()
    }
}

impl RecencyList {
    /// An empty list with no link storage.
    pub fn new() -> RecencyList {
        RecencyList {
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Sizes the link arrays for ids `0..n` up front (one allocation
    /// each), so linking those ids never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit a 32-bit id.
    pub fn reserve_ids(&mut self, n: usize) {
        assert!(n < NIL as usize, "recency ids must fit 32 bits");
        if self.prev.len() < n {
            self.prev.resize(n, NIL);
            self.next.resize(n, NIL);
        }
    }

    /// Unlinks every id in O(1); the link storage is kept.
    pub fn clear(&mut self) {
        self.head = NIL;
        self.tail = NIL;
    }

    /// The least recently used id, if any is linked.
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Links an unlinked `id` as the most recently used, growing the
    /// link arrays if `id` is past them.
    pub fn push_front(&mut self, id: u32) {
        if id as usize >= self.prev.len() {
            self.reserve_ids(id as usize + 1);
        }
        let i = id as usize;
        self.prev[i] = NIL;
        self.next[i] = self.head;
        match self.head {
            NIL => self.tail = id,
            h => self.prev[h as usize] = id,
        }
        self.head = id;
    }

    /// Removes a linked `id` from the order.
    pub fn unlink(&mut self, id: u32) {
        let i = id as usize;
        let (prev, next) = (self.prev[i], self.next[i]);
        match prev {
            NIL => self.head = next,
            p => self.next[p as usize] = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.prev[n as usize] = prev,
        }
    }

    /// Makes a linked `id` the most recently used.
    pub fn touch(&mut self, id: u32) {
        if self.head != id {
            self.unlink(id);
            self.push_front(id);
        }
    }

    /// Linked ids from the least to the most recently used.
    pub fn oldest_first(&self) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.tail;
        std::iter::from_fn(move || {
            let id = (at != NIL).then_some(at)?;
            at = self.prev[id as usize];
            Some(id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(l: &RecencyList) -> Vec<u32> {
        l.oldest_first().collect()
    }

    #[test]
    fn touch_unlink_and_victim_order() {
        let mut l = RecencyList::new();
        assert_eq!(l.back(), None);
        for id in 0..4 {
            l.push_front(id);
        }
        assert_eq!(order(&l), [0, 1, 2, 3]);
        l.touch(0);
        assert_eq!(order(&l), [1, 2, 3, 0]);
        l.touch(0); // Already the head: no change.
        l.unlink(2);
        assert_eq!(order(&l), [1, 3, 0]);
        assert_eq!(l.back(), Some(1));
        l.unlink(1);
        l.unlink(0);
        assert_eq!(order(&l), [3]);
        l.unlink(3);
        assert_eq!(l.back(), None);
        l.push_front(2);
        assert_eq!(order(&l), [2]);
        l.clear();
        assert!(order(&l).is_empty());
    }

    #[test]
    fn reserved_ids_link_without_growing() {
        let mut l = RecencyList::new();
        l.reserve_ids(8);
        let cap = l.prev.capacity();
        for id in (0..8).rev() {
            l.push_front(id);
        }
        assert_eq!(l.prev.capacity(), cap);
        assert_eq!(order(&l), [7, 6, 5, 4, 3, 2, 1, 0]);
    }
}
