//! Two-way differential smoke test over 1,000 PRNG-generated valid
//! programs: the verified body as written (O0) vs its O2 rewrite, both
//! executed by the machine's one engine, `run_action`.
//!
//! Unlike the property test in `vm_equivalence.rs` (which explores
//! random case seeds per run configuration), this suite pins a single
//! base seed so the exact same 1,000 programs are checked on every run
//! — a reproducible regression net for the optimizer. Each program is
//! built from the safe instruction subset, routed through the real
//! verifier, and (when admitted) executed at both levels, asserting
//! identical outcomes, context, and map state; the optimized body
//! additionally re-passes the verifier (the corpus-wide meta-safety
//! check) and must never execute more dynamic instructions than the
//! body as written.

mod common;

use rkd::testkit::rng::{Rng, SeedableRng, StdRng};

const PROGRAMS: usize = 1_000;
const BASE_SEED: u64 = 0xD1FF_5EED_2026_0806;

#[test]
fn o0_and_o2_bodies_agree_on_1000_seeded_programs() {
    let mut admitted = 0usize;
    for i in 0..PROGRAMS {
        // One independent, reproducible stream per program.
        let seed = BASE_SEED.wrapping_add(i as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..=48);
        let raw: Vec<_> = (0..len).map(|_| common::gen_insn(&mut rng)).collect();
        let arg = rng.gen_range(-1000i64..1000);
        if common::run_o0_o2_equivalence(raw, arg) {
            admitted += 1;
        }
    }
    // The generator is tuned so the verifier admits the large majority
    // of programs; if this drops, the smoke test has silently lost its
    // coverage and must be re-tuned.
    assert!(
        admitted >= PROGRAMS / 2,
        "only {admitted}/{PROGRAMS} generated programs were admitted"
    );
}
