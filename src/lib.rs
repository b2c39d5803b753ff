//! # rkd — reconfigurable kernel datapaths with learned optimizations
//!
//! A from-scratch Rust reproduction of the HotOS '21 paper *"Toward
//! Reconfigurable Kernel Datapaths with Learned Optimizations"* (Qiu,
//! Liu, Anderson, Lin, Chen). This facade crate re-exports the whole
//! workspace:
//!
//! - [`core`] — the in-kernel RMT virtual machine: match/action
//!   tables, bytecode, verifier, optimizer, interpreter, control plane,
//!   differential privacy.
//! - [`ml`] — integer-only in-kernel ML: fixed point, decision trees,
//!   quantized MLPs, SVMs, online learning, distillation, feature
//!   ranking, cost models.
//! - [`lang`] — the constrained-C DSL compiler.
//! - [`sim`] — the simulated kernel substrate: paging/swap memory
//!   subsystem and CFS scheduler, with the paper's two case studies.
//! - [`workloads`] — synthetic workload generators reproducing the
//!   paper's benchmark structure.
//! - [`testkit`] — the zero-dependency support kit (deterministic
//!   PRNGs, property-testing harness, JSON codec) that keeps the
//!   build hermetic.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rkd_core as core;
pub use rkd_lang as lang;
pub use rkd_ml as ml;
pub use rkd_sim as sim;
pub use rkd_testkit as testkit;
pub use rkd_workloads as workloads;
