//! The AIG-independent CDCL core of the ALMOST reproduction.
//!
//! This crate was split out of `almost_sat` so that lower layers — above
//! all the `almost_aig` fraig/SAT-sweeping engine — can pose incremental
//! SAT queries without depending on the circuit-level plumbing (Tseitin
//! encoding, CEC, key-conditioned miters), which stays in `almost_sat`
//! and depends on `almost_aig` in turn.
//!
//! Contents:
//!
//! - [`solver`] — the incremental CDCL solver (two-watched-literal
//!   propagation, first-UIP learning, VSIDS, phase saving, Luby restarts,
//!   learnt-DB reduction, conflict budgets, cancellation, clause
//!   exchange hooks). Clause literals live in one flat arena, binary
//!   clauses are resolved from their watch entries alone, and truth values
//!   are indexed by literal; none of this layout may change a decision
//!   (see the solver's byte-identity contract).
//! - [`heap`] — the indexed max-heap behind the VSIDS decision order,
//!   with each variable's activity stored inline in its entry.
//! - [`portfolio`] — N diversified racing solver instances over one
//!   shared formula (`ALMOST_SOLVERS`), glue-clause exchange included.
//!
//! `almost_sat` re-exports these modules under their historical paths
//! (`almost_sat::solver`, `almost_sat::heap`, `almost_sat::portfolio`),
//! so existing callers are unaffected by the split.

pub mod heap;
pub mod portfolio;
pub mod solver;

pub use heap::ActivityHeap;
pub use portfolio::{PortfolioSolver, PortfolioStats};
pub use solver::{ClauseExchange, Interrupt, SatLit, SatResult, SatVar, Solver, SolverStats};
