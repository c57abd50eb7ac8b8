//! The AIG-independent CDCL core of the ALMOST reproduction.
//!
//! This crate was split out of `almost_sat` so that lower layers — above
//! all the `almost_aig` fraig/SAT-sweeping engine and its Tseitin encoder
//! (`almost_aig::cnf`) — can pose incremental SAT queries without
//! depending on the circuit-level plumbing (CEC, ATPG, key-conditioned
//! miters), which stays in `almost_sat` and depends on `almost_aig` in
//! turn.
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
//! - [`ClauseSink`] — the one clause-accepting surface both solvers
//!   implement, so an encoder writes into either.
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

/// Anything clauses can be emitted into: the plain [`Solver`] or a
/// [`PortfolioSolver`] broadcasting to its racing workers.
pub trait ClauseSink {
    /// Allocates a fresh solver variable.
    fn new_var(&mut self) -> SatVar;
    /// Adds a clause over existing variables.
    fn add_clause(&mut self, lits: &[SatLit]);
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> SatVar {
        Solver::new_var(self)
    }
    fn add_clause(&mut self, lits: &[SatLit]) {
        Solver::add_clause(self, lits)
    }
}

impl ClauseSink for PortfolioSolver {
    fn new_var(&mut self) -> SatVar {
        PortfolioSolver::new_var(self)
    }
    fn add_clause(&mut self, lits: &[SatLit]) {
        PortfolioSolver::add_clause(self, lits)
    }
}
