//! # rkd-core — the in-kernel RMT virtual machine
//!
//! The primary contribution of *"Toward Reconfigurable Kernel Datapaths
//! with Learned Optimizations"* (HotOS '21): a reconfigurable-match-
//! table virtual machine that lets learned policies be installed into
//! kernel datapaths safely.
//!
//! The lifecycle mirrors the paper's Figure 1:
//!
//! 1. Build an [`prog::RmtProgram`] — tables at kernel hook points,
//!    match/action entries over the execution context
//!    ([`ctxt::Ctxt`]), bytecode actions ([`bytecode`]), eBPF-style
//!    maps ([`maps`]), and ML models ([`prog::ModelSpec`]).
//! 2. Admit it through the verifier (`rmt_verify()` →
//!    [`verifier::verify`]), which checks well-formedness, bounded
//!    execution, model cost budgets, interference guards, and privacy.
//! 3. Install it ([`ctrl::syscall_rmt`] /
//!    [`machine::RmtMachine::install`]): every action is optimized
//!    ([`opt`]), re-verified, and — where tail-call chains resolve
//!    statically — fused, all over bytecode. One interpreter
//!    ([`interp`]) executes the result; [`opt::OptLevel`] is the only
//!    selector of what runs (`machine::ExecMode` is an inert tag).
//! 4. Kernel hooks fire ([`machine::RmtMachine::fire`]); actions match
//!    context, consult models, and emit effects; the control plane
//!    retunes entries and hot-swaps models as workloads drift.
//!
//! # Examples
//!
//! ```
//! use rkd_core::bytecode::{Action, Insn, Reg};
//! use rkd_core::ctxt::Ctxt;
//! use rkd_core::machine::{ExecMode, RmtMachine};
//! use rkd_core::prog::ProgramBuilder;
//! use rkd_core::table::MatchKind;
//! use rkd_core::verifier::verify;
//!
//! let mut b = ProgramBuilder::new("hello");
//! let pid = b.field_readonly("pid");
//! let act = b.action(Action::new(
//!     "ret1",
//!     vec![Insn::LdImm { dst: Reg(0), imm: 1 }, Insn::Exit],
//! ));
//! b.table("t", "my_hook", &[pid], MatchKind::Exact, Some(act), 16);
//! let verified = verify(b.build()).unwrap();
//!
//! let mut vm = RmtMachine::new();
//! vm.install(verified, ExecMode::Jit).unwrap();
//! let mut ctxt = Ctxt::from_values(vec![42]);
//! assert_eq!(vm.fire("my_hook", &mut ctxt).verdict(), Some(1));
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the SPSC ingress ring ([`spsc`]) is the one
// audited exception (slot storage is `UnsafeCell<MaybeUninit<T>>`)
// and opts in with a module-scoped allow; everything else stays
// unsafe-free.
#![deny(unsafe_code)]

mod analysis;
pub mod bytecode;
pub mod ctrl;
pub mod ctxt;
pub mod dp;
pub mod error;
pub mod guard;
pub mod interp;
pub mod journal;
pub mod machine;
pub mod maps;
pub mod obs;
pub mod opt;
pub mod prog;
pub mod recency;
pub mod shard;
pub mod snapshot;
pub mod spsc;
pub mod table;
pub mod verifier;

pub use error::{VerifyError, VmError};
pub use machine::RmtMachine;
