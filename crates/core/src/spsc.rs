//! Bounded lock-free single-producer/single-consumer ingress ring.
//!
//! The sharded datapath's ingress path ([`crate::shard`]) moves every
//! event batch from the driver thread to a shard worker. `std::sync::
//! mpsc` pays an allocation and a lock-shaped handoff per message;
//! this ring replaces it with the classic bounded SPSC design kernels
//! use for per-CPU work queues:
//!
//! - **Storage** — a power-of-two slot array. Head and tail are
//!   *monotonic* `u64` counters (never wrapped to the buffer index
//!   until the actual slot access), so "empty" is `head == tail`,
//!   "full" is `tail - head == capacity`, and a capacity-1 ring works
//!   with no special cases.
//! - **Cache-line padding** — head and tail live on their own 64-byte
//!   lines ([`CachePadded`]) so the producer's tail stores never
//!   false-share with the consumer's head stores.
//! - **Memory ordering** — exactly two Acquire/Release pairs carry
//!   all synchronization. The producer writes a slot, then publishes
//!   with `tail.store(Release)`; the consumer observes via
//!   `tail.load(Acquire)`, so the slot write *happens-before* the
//!   slot read. Symmetrically the consumer retires slots with
//!   `head.store(Release)` and the producer reuses them only after
//!   `head.load(Acquire)`, so the read happens-before the overwrite.
//!   SPSC suffices per shard because each ring has exactly one
//!   producer (the driver holds the unique [`Producer`]) and one
//!   consumer (the shard worker holds the unique [`Consumer`]) — no
//!   CAS loops, no ABA, each cursor has a single writer.
//! - **Batch reserve/commit** — [`Producer::push_deferred`] writes
//!   slots without publishing; one [`Producer::publish`] makes the
//!   whole run visible with a single Release store and at most one
//!   wakeup. [`Consumer::pop_run`] symmetrically drains a run of
//!   messages with one Acquire load and retires it with one Release
//!   store.
//! - **Spin-then-park wakeup** — an empty consumer spins briefly
//!   (ingress is bursty; the next batch is usually nanoseconds away),
//!   then advertises `sleeping` and parks. The producer checks the
//!   flag *after* publishing and unparks. The store-load race between
//!   "consumer: set sleeping, re-check tail" and "producer: publish
//!   tail, check sleeping" is closed with `SeqCst` on the flag plus
//!   the consumer re-checking the ring between advertising and
//!   parking; `park_timeout` bounds the cost of the theoretical
//!   missed-wakeup window to one tick.
//!
//! This module is the one place in `rkd-core` that uses `unsafe`
//! (slot storage is `UnsafeCell<MaybeUninit<T>>`); the crate is
//! otherwise `deny(unsafe_code)`. Every unsafe block carries its
//! invariant, and the whole protocol is property-tested (wrap, full,
//! capacity-1, cross-thread FIFO) in this file and stress-tested by
//! the shard suite.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Pads (and aligns) a value to a 64-byte cache line so the two ring
/// cursors never share a line.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Spins before the consumer considers parking. Ingress is bursty:
/// when the driver is active the next message lands within the spin
/// budget and the park syscall is never paid.
const SPIN_BUDGET: u32 = 128;
/// `yield_now` rounds between spinning and parking (lets a same-CPU
/// producer run — the common case on the 1-CPU CI host).
const YIELD_BUDGET: u32 = 16;
/// Backstop for the theoretical missed-wakeup window: a parked
/// consumer re-checks the ring at least this often.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// State shared by the two endpoints. Slot ownership protocol:
/// slot `i` (indices modulo capacity) is writable by the producer iff
/// `head + capacity > tail` and readable by the consumer iff
/// `head < tail`; the Acquire/Release pairs on `head`/`tail` order
/// every access (see the module docs).
struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: u64,
    /// Consumer cursor: slots below it have been consumed. Written
    /// only by the consumer (Release), read by the producer (Acquire).
    head: CachePadded<AtomicU64>,
    /// Producer cursor: slots below it are initialized. Written only
    /// by the producer (Release), read by the consumer (Acquire).
    tail: CachePadded<AtomicU64>,
    /// Consumer advertises it is about to park (SeqCst on both sides
    /// — see the wakeup protocol in the module docs).
    sleeping: AtomicBool,
    /// Producer endpoint dropped: the consumer drains what remains
    /// and then reads this as end-of-stream.
    closed: AtomicBool,
    /// Consumer endpoint dropped: pushes fail fast instead of
    /// filling a ring nobody will drain.
    consumer_gone: AtomicBool,
    /// Thread to unpark; registered by the consumer before its first
    /// park. Locked by the producer only when `sleeping` was seen
    /// set, so it is never on the fast path.
    waiter: Mutex<Option<Thread>>,
    /// Messages pushed (producer-written, Relaxed — telemetry).
    pushed: AtomicU64,
    /// Times the producer found the ring full (telemetry).
    full_stalls: AtomicU64,
    /// Times the consumer parked (telemetry).
    parks: AtomicU64,
}

// SAFETY: `Shared<T>` is a channel: items of `T` are moved from the
// producer thread to the consumer thread through the slots, so `T:
// Send` is required and sufficient. The `UnsafeCell` slots are not
// accessed concurrently: the head/tail protocol (single writer per
// cursor, Acquire/Release pairs documented on the struct) gives each
// slot exactly one owner at a time.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: as above — shared `&Shared<T>` access from the two
// endpoint threads only touches a slot when the cursor protocol
// grants that endpoint exclusive ownership of it.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both endpoints are gone (`Arc` strong count reached zero),
        // so plain loads are fully synchronized by the `Arc` drop.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.buf[(i & self.mask) as usize];
            // SAFETY: slots in `head..tail` were initialized by the
            // producer and never consumed; `&mut self` proves no
            // endpoint can race this drain.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// Error returned by [`Producer::push`]; the rejected message is
/// handed back in both cases.
#[derive(Debug)]
pub enum PushError<T> {
    /// The ring is at capacity; retry after the consumer drains.
    Full(T),
    /// The consumer endpoint was dropped; the message can never be
    /// delivered.
    Disconnected(T),
}

/// The write endpoint. Exactly one exists per ring; dropping it
/// closes the stream (the consumer drains what remains, then sees
/// end-of-stream).
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Local tail — the producer is the only writer, so it never
    /// reloads its own cursor.
    tail: u64,
    /// Cached head: refreshed (Acquire) only when the ring looks
    /// full, so the fast path does no cross-core load at all.
    head_cache: u64,
    /// Slots written since the last publish (deferred batch).
    unpublished: u64,
}

impl<T> Producer<T> {
    /// Ring capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }

    /// Messages currently buffered (approximate under concurrency).
    pub fn depth(&self) -> u64 {
        self.tail
            .saturating_sub(self.shared.head.0.load(Ordering::Relaxed))
    }

    /// A cloneable telemetry handle on this ring (depth and the
    /// stall/park counters) that does not borrow the endpoint.
    pub fn observer(&self) -> Observer<T> {
        Observer {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Writes a message into its slot *without publishing it* — the
    /// reserve half of batch reserve/commit. Call
    /// [`Producer::publish`] to make every deferred message visible
    /// with one Release store and at most one consumer wakeup.
    pub fn push_deferred(&mut self, item: T) -> Result<(), PushError<T>> {
        if self.shared.consumer_gone.load(Ordering::Acquire) {
            return Err(PushError::Disconnected(item));
        }
        let cap = self.shared.buf.len() as u64;
        if self.tail.wrapping_sub(self.head_cache) >= cap {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) >= cap {
                self.shared.full_stalls.fetch_add(1, Ordering::Relaxed);
                return Err(PushError::Full(item));
            }
        }
        let slot = &self.shared.buf[(self.tail & self.shared.mask) as usize];
        // SAFETY: `tail - head <= capacity` was just established, so
        // this slot's previous occupant (if any) was consumed; the
        // producer has exclusive write ownership until the Release
        // store in `publish` hands it to the consumer.
        unsafe { (*slot.get()).write(item) };
        self.tail += 1;
        self.unpublished += 1;
        Ok(())
    }

    /// Publishes every deferred message (commit half of
    /// reserve/commit): one Release store of the tail, then one
    /// wakeup if the consumer advertised it was parking.
    pub fn publish(&mut self) {
        if self.unpublished == 0 {
            return;
        }
        self.shared
            .pushed
            .fetch_add(self.unpublished, Ordering::Relaxed);
        self.unpublished = 0;
        self.shared.tail.0.store(self.tail, Ordering::Release);
        self.wake();
    }

    /// Pushes and publishes one message.
    pub fn push(&mut self, item: T) -> Result<(), PushError<T>> {
        self.push_deferred(item)?;
        self.publish();
        Ok(())
    }

    /// Pushes one message, spinning (with `yield_now`) while the ring
    /// is full. Errors only if the consumer endpoint is gone.
    pub fn push_wait(&mut self, item: T) -> Result<(), T> {
        let mut item = item;
        loop {
            match self.push(item) {
                Ok(()) => return Ok(()),
                Err(PushError::Disconnected(it)) => return Err(it),
                Err(PushError::Full(it)) => {
                    item = it;
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Unparks the consumer if (and only if) it advertised that it is
    /// parking. SeqCst pairs with the consumer's advertise-then-
    /// re-check sequence so either the producer sees `sleeping` or
    /// the consumer's re-check sees the new tail.
    fn wake(&self) {
        if self.shared.sleeping.swap(false, Ordering::SeqCst) {
            if let Some(t) = self
                .shared
                .waiter
                .lock()
                .expect("spsc waiter poisoned")
                .as_ref()
            {
                t.unpark();
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Anything written-but-unpublished is still handed over:
        // `Shared::drop` would leak-free reclaim it anyway, but the
        // consumer draining it preserves "every accepted message is
        // delivered or dropped with the ring", never silently lost
        // while the consumer is still live.
        self.publish();
        self.shared.closed.store(true, Ordering::Release);
        self.wake();
    }
}

/// The read endpoint. Exactly one exists per ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Local head — the consumer is the only writer of this cursor.
    head: u64,
    /// Cached tail: refreshed (Acquire) when the cache is exhausted.
    tail_cache: u64,
}

impl<T> Consumer<T> {
    /// Ring capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }

    /// Messages currently visible to the consumer.
    pub fn len(&self) -> usize {
        self.shared
            .tail
            .0
            .load(Ordering::Acquire)
            .saturating_sub(self.head) as usize
    }

    /// True if no published message is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops one message if any is published.
    pub fn try_pop(&mut self) -> Option<T> {
        if self.head == self.tail_cache {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let slot = &self.shared.buf[(self.head & self.shared.mask) as usize];
        // SAFETY: `head < tail` (Acquire on tail ordered after the
        // producer's slot write), so the slot is initialized and the
        // consumer owns it until the Release store below recycles it.
        let item = unsafe { (*slot.get()).assume_init_read() };
        self.head += 1;
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Drains up to `max` published messages into `out` with one
    /// Acquire load and one Release store — the batch half of the
    /// protocol, which lets the shard worker pay the cursor handshake
    /// once per run instead of once per message. Returns the number
    /// of messages appended.
    pub fn pop_run(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        if self.head == self.tail_cache {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        }
        let avail = self.tail_cache.saturating_sub(self.head);
        let n = avail.min(max as u64);
        if n == 0 {
            return 0;
        }
        out.reserve(n as usize);
        for i in 0..n {
            let slot = &self.shared.buf[((self.head + i) & self.shared.mask) as usize];
            // SAFETY: `head + i < tail_cache <= tail`, so every slot
            // in the run is initialized (ordered by the Acquire load
            // of tail) and owned by the consumer until the single
            // Release store below.
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
        self.head += n;
        self.shared.head.0.store(self.head, Ordering::Release);
        n as usize
    }

    /// Like [`Consumer::pop_run`], but blocks (spin, then yield, then
    /// park) until at least one message is available or the producer
    /// endpoint is dropped and the ring is fully drained — in which
    /// case it returns 0, the end-of-stream signal.
    pub fn pop_run_wait(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        self.pop_run_wait_timed(max, out).0
    }

    /// [`Consumer::pop_run_wait`] plus a wait measurement: how many
    /// nanoseconds the consumer spent idle (spinning, yielding,
    /// parking) before messages arrived — 0 when messages were
    /// already published. The clock is read lazily on the first empty
    /// poll, so the loaded fast path pays nothing; the span layer
    /// turns nonzero waits into `IngressPark` spans.
    pub fn pop_run_wait_timed(&mut self, max: usize, out: &mut Vec<T>) -> (usize, u64) {
        let mut spins = 0u32;
        let mut yields = 0u32;
        let mut wait_start: Option<Instant> = None;
        let waited = |start: Option<Instant>| start.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        loop {
            let n = self.pop_run(max, out);
            if n > 0 {
                return (n, waited(wait_start));
            }
            if self.shared.closed.load(Ordering::Acquire) {
                // The close raced a final publish: one more look at
                // the ring (the producer published before closing).
                return (self.pop_run(max, out), waited(wait_start));
            }
            if wait_start.is_none() {
                wait_start = Some(Instant::now());
            }
            if spins < SPIN_BUDGET {
                spins += 1;
                std::hint::spin_loop();
            } else if yields < YIELD_BUDGET {
                yields += 1;
                std::thread::yield_now();
            } else {
                self.park();
                spins = 0;
                yields = 0;
            }
        }
    }

    /// Advertise-recheck-park. The SeqCst store of `sleeping`
    /// followed by a SeqCst re-check of the tail pairs with the
    /// producer's publish-then-SeqCst-swap: either the producer's
    /// swap sees `sleeping == true` (and unparks), or this re-check
    /// sees the published tail (and skips the park). `park_timeout`
    /// bounds any window the argument misses.
    fn park(&mut self) {
        {
            let mut w = self.shared.waiter.lock().expect("spsc waiter poisoned");
            if w.is_none() {
                *w = Some(std::thread::current());
            }
        }
        self.shared.sleeping.store(true, Ordering::SeqCst);
        let published = self.shared.tail.0.load(Ordering::SeqCst);
        if published != self.head || self.shared.closed.load(Ordering::SeqCst) {
            self.shared.sleeping.store(false, Ordering::SeqCst);
            return;
        }
        self.shared.parks.fetch_add(1, Ordering::Relaxed);
        std::thread::park_timeout(PARK_TIMEOUT);
        self.shared.sleeping.store(false, Ordering::SeqCst);
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Ordering::Release);
        // Remaining items are reclaimed by `Shared::drop` once the
        // producer endpoint is gone too.
    }
}

/// Cloneable telemetry view of one ring (no endpoint borrow): feeds
/// the per-shard queue-depth counters in the merged obs snapshot.
pub struct Observer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Observer<T> {
    fn clone(&self) -> Self {
        Observer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Observer<T> {
    /// Published-but-unconsumed messages (approximate under
    /// concurrency; exact when the ring is quiesced).
    pub fn depth(&self) -> u64 {
        let tail = self.shared.tail.0.load(Ordering::Acquire);
        tail.saturating_sub(self.shared.head.0.load(Ordering::Acquire))
    }

    /// Messages ever published.
    pub fn pushed(&self) -> u64 {
        self.shared.pushed.load(Ordering::Relaxed)
    }

    /// Times the producer found the ring full.
    pub fn full_stalls(&self) -> u64 {
        self.shared.full_stalls.load(Ordering::Relaxed)
    }

    /// Times the consumer parked waiting for ingress.
    pub fn parks(&self) -> u64 {
        self.shared.parks.load(Ordering::Relaxed)
    }
}

/// Creates a bounded SPSC ring holding at least `capacity` messages
/// (rounded up to a power of two, minimum 1).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: (cap - 1) as u64,
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        sleeping: AtomicBool::new(false),
        closed: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
        waiter: Mutex::new(None),
        pushed: AtomicU64::new(0),
        full_stalls: AtomicU64::new(0),
        parks: AtomicU64::new(0),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
            unpublished: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkd_testkit::prop_check;
    use rkd_testkit::rng::{Rng, SeedableRng, StdRng};
    use rkd_testkit::stress::run_threads;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fifo_and_wraparound() {
        let (mut tx, mut rx) = ring::<u64>(4);
        assert_eq!(tx.capacity(), 4);
        let mut next = 0u64;
        let mut expect = 0u64;
        // Many laps around a tiny ring: every index wraps repeatedly.
        for _ in 0..1000 {
            for _ in 0..3 {
                tx.push(next).unwrap();
                next += 1;
            }
            let mut out = Vec::new();
            rx.pop_run(usize::MAX, &mut out);
            for v in out {
                assert_eq!(v, expect);
                expect += 1;
            }
        }
        assert_eq!(expect, next);
    }

    #[test]
    fn full_ring_rejects_then_recovers() {
        let (mut tx, mut rx) = ring::<u32>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        match tx.push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(tx.observer().full_stalls(), 1);
        assert_eq!(rx.try_pop(), Some(1));
        tx.push(3).unwrap();
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), Some(3));
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_one_ping_pong_across_threads() {
        let (tx, rx) = ring::<u64>(1);
        assert_eq!(tx.capacity(), 1);
        let tx = Mutex::new(Some(tx));
        let rx = Mutex::new(Some(rx));
        const N: u64 = 20_000;
        run_threads(2, |who| {
            if who == 0 {
                let mut tx = tx.lock().unwrap().take().unwrap();
                for i in 0..N {
                    tx.push_wait(i).unwrap();
                }
            } else {
                let mut rx = rx.lock().unwrap().take().unwrap();
                let mut out = Vec::new();
                let mut expect = 0u64;
                while expect < N {
                    out.clear();
                    let n = rx.pop_run_wait(64, &mut out);
                    assert!(n > 0, "closed before all messages arrived");
                    for v in &out {
                        assert_eq!(*v, expect);
                        expect += 1;
                    }
                }
            }
        });
    }

    #[test]
    fn deferred_pushes_invisible_until_publish() {
        let (mut tx, mut rx) = ring::<u32>(8);
        tx.push_deferred(1).unwrap();
        tx.push_deferred(2).unwrap();
        assert!(rx.is_empty());
        assert_eq!(rx.try_pop(), None);
        tx.publish();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.try_pop(), Some(2));
    }

    #[test]
    fn producer_drop_flushes_then_closes() {
        let (mut tx, mut rx) = ring::<u32>(8);
        tx.push(7).unwrap();
        tx.push_deferred(8).unwrap(); // unpublished at drop time
        drop(tx);
        let mut out = Vec::new();
        assert_eq!(rx.pop_run_wait(16, &mut out), 2);
        assert_eq!(out, vec![7, 8]);
        assert_eq!(rx.pop_run_wait(16, &mut out), 0, "end of stream");
    }

    #[test]
    fn consumer_drop_disconnects_producer() {
        let (mut tx, rx) = ring::<u32>(4);
        drop(rx);
        match tx.push(1) {
            Err(PushError::Disconnected(1)) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        assert!(tx.push_wait(2).is_err());
    }

    /// Every accepted message is dropped exactly once, whether it was
    /// consumed or still in flight when the endpoints died.
    #[test]
    fn in_flight_items_dropped_exactly_once() {
        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut tx, mut rx) = ring::<Counted>(8);
        for _ in 0..6 {
            tx.push(Counted(Arc::clone(&drops))).unwrap();
        }
        // Consume two, leave four in the ring.
        drop(rx.try_pop());
        drop(rx.try_pop());
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        drop(tx);
        drop(rx);
        assert_eq!(drops.load(Ordering::Relaxed), 6);
    }

    // Cross-thread FIFO under randomized batch sizes and ring
    // capacities — the wrap/full/empty edges all get exercised by
    // the skewed sizes.
    prop_check!(prop_cross_thread_fifo_random_batches, cases = 24, |g| {
        {
            let mut rng = StdRng::seed_from_u64(g.gen_range(0..u64::MAX));
            let cap = 1usize << (rng.next_u64() % 6); // 1..=32
            let total = 2_000 + (rng.next_u64() % 3_000);
            let (tx, rx) = ring::<u64>(cap);
            let tx = Mutex::new(Some(tx));
            let rx = Mutex::new(Some(rx));
            let batch_seed = rng.next_u64();
            run_threads(2, |who| {
                if who == 0 {
                    let mut tx = tx.lock().unwrap().take().unwrap();
                    let mut rng = StdRng::seed_from_u64(batch_seed);
                    let mut sent = 0u64;
                    while sent < total {
                        // Random-size deferred runs exercise
                        // reserve/commit batching under contention.
                        let run = 1 + rng.next_u64() % 7;
                        for _ in 0..run {
                            if sent >= total {
                                break;
                            }
                            let mut v = sent;
                            loop {
                                match tx.push_deferred(v) {
                                    Ok(()) => break,
                                    Err(PushError::Full(back)) => {
                                        v = back;
                                        tx.publish();
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Disconnected(_)) => {
                                        panic!("consumer died early")
                                    }
                                }
                            }
                            sent += 1;
                        }
                        tx.publish();
                    }
                } else {
                    let mut rx = rx.lock().unwrap().take().unwrap();
                    let mut rng = StdRng::seed_from_u64(batch_seed ^ 0xDEAD);
                    let mut out = Vec::new();
                    let mut expect = 0u64;
                    while expect < total {
                        out.clear();
                        let max = 1 + (rng.next_u64() % 16) as usize;
                        let n = rx.pop_run_wait(max, &mut out);
                        assert!(n > 0, "closed early at {expect}/{total}");
                        assert!(n <= max);
                        for v in &out {
                            assert_eq!(*v, expect, "FIFO violated");
                            expect += 1;
                        }
                    }
                }
            });
        }
    });

    #[test]
    fn observer_reports_depth_and_counters() {
        let (mut tx, mut rx) = ring::<u32>(8);
        let obs = tx.observer();
        assert_eq!(obs.depth(), 0);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(obs.depth(), 2);
        assert_eq!(obs.pushed(), 2);
        rx.try_pop();
        assert_eq!(obs.depth(), 1);
    }
}
