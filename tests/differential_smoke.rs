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
//!
//! A second test folds what the analyses decide over the same corpus
//! (verifier outcomes, O2 bodies and bounds, with and without an
//! inserted loop) into one pinned fingerprint.

mod common;

use rkd::core::bytecode::Insn;
use rkd::core::opt::{optimize_reverified, OptLevel};
use rkd::core::verifier::verify;
use rkd::testkit::rng::{Rng, SeedableRng, StdRng};

const PROGRAMS: usize = 1_000;
const BASE_SEED: u64 = 0xD1FF_5EED_2026_0806;

/// Program `i` of the corpus: its raw instructions and entry argument,
/// from one independent, reproducible stream per program.
fn corpus_program(i: usize) -> (Vec<Insn>, i64) {
    let mut rng = StdRng::seed_from_u64(BASE_SEED.wrapping_add(i as u64));
    let len = rng.gen_range(0usize..=48);
    let raw: Vec<_> = (0..len).map(|_| common::gen_insn(&mut rng)).collect();
    let arg = rng.gen_range(-1000i64..1000);
    (raw, arg)
}

#[test]
fn o0_and_o2_bodies_agree_on_1000_seeded_programs() {
    let mut admitted = 0usize;
    for i in 0..PROGRAMS {
        let (raw, arg) = corpus_program(i);
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

/// FNV-1a, folded over the `Debug` text of each analysis result.
struct Fingerprint(u64);

impl Fingerprint {
    fn fold(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What the analyses decide about one action: the verifier's outcome
/// and, when admitted, the O2 body and the bound the optimizer's
/// re-verification returns.
fn fold_analysis(fp: &mut Fingerprint, action: &rkd::core::bytecode::Action) {
    match verify(common::program_for(action)) {
        Err(e) => fp.fold(&format!("{e:?}")),
        Ok(v) => {
            let fuel = v.worst_case_insns()[0];
            fp.fold(&format!("Ok({fuel})"));
            match optimize_reverified(0, action, v.prog(), OptLevel::O2, fuel) {
                Ok((o2, wc)) => fp.fold(&format!("{:?} {wc}", o2.action.code)),
                Err(e) => fp.fold(&format!("{e:?}")),
            }
        }
    }
}

/// The verifier's and the optimizer's decisions over the corpus, once
/// as generated (forward jumps only) and once with one bounded back
/// edge inserted per program, pinned as one constant. A refactor of
/// the analyses must leave it unchanged; a change that moves it
/// changes what is admitted, the bounds, or the optimized code.
const ANALYSIS_FINGERPRINT: u64 = 0xd058_607b_66ad_8f13;

#[test]
fn analysis_fingerprint_is_pinned() {
    let mut fp = Fingerprint(0xcbf2_9ce4_8422_2325);
    for i in 0..PROGRAMS {
        let (raw, _) = corpus_program(i);
        let action = common::make_action(raw);
        fold_analysis(&mut fp, &action);
        let mut rng = StdRng::seed_from_u64(BASE_SEED.wrapping_add(i as u64) ^ 0x100B);
        fold_analysis(&mut fp, &common::with_back_edge(action, &mut rng));
    }
    assert_eq!(
        fp.0, ANALYSIS_FINGERPRINT,
        "analysis fingerprint moved: {:#018x}",
        fp.0
    );
}
