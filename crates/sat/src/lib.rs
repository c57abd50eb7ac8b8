//! A compact CDCL SAT solver with combinational equivalence checking
//! (CEC), stuck-at-fault test generation and key-conditioned miters.
//!
//! This crate provides the "proof engine" substrate of the ALMOST
//! reproduction: the synthesis passes are validated by [`equiv`]'s
//! SAT-based CEC, and the redundancy attack (`almost-attacks`) uses
//! [`equiv::test_stuck_at`] as its ATPG oracle.
//!
//! The CDCL solver itself lives in [`almost_cdcl`], so that `almost_aig`'s
//! fraig engine can use it without a dependency cycle; its main types are
//! re-exported here. [`Solver`] implements the standard modern recipe:
//! two-watched-literal propagation, first-UIP conflict analysis with
//! clause learning, a heap-indexed VSIDS decision order
//! ([`almost_cdcl::heap`]), phase saving, Luby restarts, learnt-clause
//! database reduction (activity/LBD ranked), and incremental solving under
//! assumptions — plus conflict-budgeted queries ([`Solver::solve_limited`])
//! for approximate attacks. Effort counters are surfaced as
//! [`SolverStats`] on every attack row.
//!
//! [`miter`] builds *key-conditioned* miters over locked circuits, the
//! substrate of the oracle-guided SAT attack implemented in
//! `almost-attacks`, and [`miter::KeyMiter::two_dip`] builds the
//! four-copy 2-DIP miter that defeats point-function defences (SARLock,
//! Anti-SAT). Every miter encodes through one structurally hashed
//! [`almost_aig::cnf::StrashEncoder`], so key copies share their key-free
//! logic and I/O residues share gates; CEC and ATPG encode only the
//! output cones they query, through the lazy
//! [`almost_aig::cnf::encode_cone`]. Tseitin encoding itself lives in
//! `almost_aig::cnf`, next to the fraig sweep that uses it.
//!
//! # Example
//!
//! ```
//! use almost_sat::{Solver, SatLit, SatResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[SatLit::positive(a), SatLit::positive(b)]);
//! s.add_clause(&[SatLit::negative(a)]);
//! assert_eq!(s.solve(&[]), SatResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

pub mod equiv;
pub mod miter;

pub use almost_cdcl::{
    ClauseExchange, Interrupt, PortfolioSolver, PortfolioStats, SatLit, SatResult, SatVar, Solver,
    SolverStats,
};
pub use equiv::{check_equivalence, test_stuck_at, Equivalence};
pub use miter::{DipSearch, KeyMiter};
