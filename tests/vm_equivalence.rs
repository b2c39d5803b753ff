//! Property tests: the verifier's bound is sound and the optimizer is
//! semantically invisible on arbitrary programs.
//!
//! These are the two load-bearing correctness claims of the VM:
//! any program the verifier admits terminates within its computed
//! worst-case instruction count, and install-time optimization never
//! changes behaviour relative to the body as written.

mod common;

use common::check_o0_o2_equivalence;
use rkd::testkit::prop_check;
use rkd::testkit::rng::Rng;

// Any admitted program terminates within the verified bound, and its
// O2 rewrite produces identical outcomes and side effects.
prop_check!(
    verified_programs_terminate_and_o2_matches_o0,
    cases = 256,
    |g| {
        let raw = g.vec_of(0, 47, common::gen_insn);
        let arg = g.gen_range(-1000i64..1000);
        check_o0_o2_equivalence(raw, arg);
    }
);
