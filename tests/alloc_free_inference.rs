//! `QuantMlp::predict` — what `CALL_ML` runs for a quantized MLP inside
//! `can_migrate_task` — touches the heap zero times, on either
//! accumulator width. Counted by a global allocator, which is why this
//! is a test binary of its own.

use rkd::ml::fixed::Fix;
use rkd::ml::quant::{QuantLayer, QuantMlp};
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

/// 15 → 16 → 16 → 2, the case-study shape, every scale `scale`.
fn model(scale: i64) -> QuantMlp {
    let layer = |in_dim: usize, out_dim: usize| {
        QuantLayer::new(
            (0..in_dim * out_dim).map(|i| (i % 7) as i32 - 3).collect(),
            vec![Fix::ONE; out_dim],
            vec![scale; in_dim],
            in_dim,
            out_dim,
        )
        .unwrap()
    };
    QuantMlp::new(vec![layer(15, 16), layer(16, 16), layer(16, 2)], 8).unwrap()
}

#[test]
fn predict_does_not_allocate() {
    let x: Vec<Fix> = (0..15).map(Fix::from_int).collect();
    // 2^20: what `quantize` produces, `i64` throughout. 2^40: every
    // nonzero input overflows the narrow limit, `i128` throughout.
    for scale in [1 << 20, 1 << 40] {
        let q = model(scale);
        let mut class = 0;
        let n = allocations_during(|| class = q.predict(&x).unwrap());
        assert_eq!(n, 0, "predict allocated at scale {scale}");
        assert!(class < 2);
        // The counter does see the allocating wrapper.
        assert!(allocations_during(|| drop(q.logits(&x))) > 0);
    }
}
