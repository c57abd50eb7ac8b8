//! ISCAS85-profile combinational benchmark circuit generators.
//!
//! The ALMOST paper evaluates on the largest ISCAS85 benchmarks
//! (c1355…c7552). Those netlists cannot be redistributed here, so this
//! crate generates deterministic circuits with the same interface widths
//! and functional flavour — adders, comparators, parity/ECC logic, priority
//! controllers and the classic c6288 16×16 array multiplier — at the same
//! size scale. Real `.bench` files can be substituted at any time through
//! `almost_netlist::bench_format::parse_bench`. [`redundify`] derives
//! a functionally identical, structurally divergent copy of any of them
//! for equivalence-checking workloads.
//!
//! # Example
//!
//! ```
//! use almost_circuits::IscasBenchmark;
//!
//! for b in IscasBenchmark::PAPER_SEVEN {
//!     let aig = b.build();
//!     assert!(aig.num_ands() > 100, "{b} is a real circuit");
//! }
//! ```

pub mod blocks;
pub mod iscas;
pub mod restructure;

pub use iscas::IscasBenchmark;
pub use restructure::redundify;
