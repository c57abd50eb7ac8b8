//! And-inverter-graph (AIG) logic synthesis substrate for the ALMOST
//! reproduction.
//!
//! This crate is a compact, from-scratch reimplementation of the parts of the
//! ABC synthesis system that the ALMOST paper relies on:
//!
//! - an append-only, structurally hashed [`Aig`] data structure ([`aig`]),
//! - 64-bit parallel random simulation ([`sim`]), and a batch compiler
//!   lowering the output cone to a flat instruction buffer for
//!   oracle-grade throughput ([`compile`]),
//! - truth tables up to 16 variables with NPN canonisation ([`truth`],
//!   [`npn`]),
//! - k-feasible cut enumeration ([`cut`]),
//! - irredundant sum-of-products extraction (Minato–Morreale ISOP,
//!   [`isop`]),
//! - the seven recipe transformations used by the paper —
//!   [`rewrite`](passes::rewrite), [`refactor`](passes::refactor),
//!   [`resub`](passes::resub) (each with a `-z` zero-cost variant) and
//!   [`balance`](passes::balance) — plus the `resyn2` baseline script.
//!
//! The passes are *real* DAG-rewriting algorithms (cut-based rewriting with
//! MFFC gain accounting, reconvergence-driven refactoring, simulation-guided
//! resubstitution, AND-tree balancing), so distinct synthesis recipes induce
//! genuinely distinct local structure around key-gates — the property the
//! ALMOST defence and the ML attacks both exploit.
//!
//! # Example
//!
//! ```
//! use almost_aig::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let c = aig.add_input();
//! let ab = aig.and(a, b);
//! let f = aig.xor(ab, c);
//! aig.add_output(f);
//! assert_eq!(aig.num_inputs(), 3);
//! assert!(aig.num_ands() >= 3); // XOR costs three AND nodes
//! ```

pub mod aig;
pub mod aiger;
pub mod compile;
pub mod cut;
pub mod fraig;
pub mod hash;
pub mod isop;
pub mod mffc;
pub mod npn;
pub mod passes;
pub mod sim;
pub mod truth;

pub use crate::aig::{Aig, Lit, NodeKind, Var};
pub use crate::compile::{CompileError, CompileStats, CompiledAig};
pub use crate::fraig::{fraig, fraig_with, FraigConfig, FraigStats};
pub use crate::passes::{Pass, Script};
pub use crate::truth::{Tt, Tt8};
