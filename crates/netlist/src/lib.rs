//! Standard-cell library, technology mapping and PPA analysis.
//!
//! This crate substitutes for the commercial backend of the ALMOST paper
//! (NanGate 45 nm library + Synopsys DC): a cut-based, NPN-matching
//! technology mapper ([`map`]) covers an AIG with cells from a
//! NanGate-45-flavoured library ([`cell`]), and [`ppa`] reports
//! power/performance/area on the mapped netlist. The `.bench` reader/writer
//! ([`bench_format`]) makes the pipeline file-compatible with the real
//! ISCAS85 benchmark distribution.
//!
//! # Example
//!
//! ```
//! use almost_aig::Aig;
//! use almost_netlist::{cell::CellLibrary, map::{map_aig, MapConfig}, ppa::analyze};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let f = aig.xor(a, b);
//! aig.add_output(f);
//! let lib = CellLibrary::nangate45();
//! let netlist = map_aig(&aig, &lib, &MapConfig::default());
//! let report = analyze(&netlist, &aig, &lib, 8, 1);
//! assert!(report.area > 0.0);
//! assert!(report.delay > 0.0);
//! ```

pub mod bench_format;
pub mod cell;
pub mod map;
pub mod netlist;
pub mod ppa;

pub use cell::{Cell, CellLibrary};
pub use map::{map_aig, MapConfig};
pub use netlist::MappedNetlist;
pub use ppa::{analyze, PpaReport};
