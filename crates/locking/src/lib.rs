//! Logic locking schemes and key management.
//!
//! The ALMOST paper deliberately uses the *weakest* scheme — random logic
//! locking ([`Rll`], XOR/XNOR key gates with bubble pushing [EPIC, DATE'08])
//! — and shows that security-aware synthesis alone makes it ML-resilient.
//! This crate implements:
//!
//! - [`Rll`]: random XOR/XNOR key-gate insertion. Key bit 0 binds to an XOR
//!   key gate, key bit 1 to an XNOR, and bubble pushing (complement
//!   absorption in the AIG) obfuscates the binding exactly as in the paper.
//! - [`MuxLock`]: MUX-based locking (extension; the paper notes ALMOST
//!   "applies to other locking techniques").
//! - [`AntiSat`] / [`SarLock`]: SAT-attack-resilient point-function
//!   countermeasures (comparator trees keyed on the correct key) whose
//!   defence metric is *DIPs required*, not attack accuracy.
//! - [`Stacked`]: compound locks — a point function over RLL/MuxLock, the
//!   SARLock+SSL shape the Double-DIP attack was built to break.
//! - [`relock`]: the re-locking step of self-referencing attacks (insert
//!   additional key gates with *known* bits to manufacture training data).
//! - [`apply_key`]: specialise a locked circuit under a key (the oracle
//!   check used to validate locking correctness).
//! - [`Oracle`] / [`BatchOracle`] / [`CircuitOracle`]: the activated-IC
//!   black box of the oracle-guided threat model (SAT attacks query it for
//!   correct outputs). [`CircuitOracle`] serves queries from a compiled
//!   instruction buffer and is differential-tested against the node-walk
//!   reference ([`InterpretedOracle`]).
//!
//! # Example
//!
//! ```
//! use almost_circuits::IscasBenchmark;
//! use almost_locking::{LockingScheme, Rll, apply_key};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let aig = IscasBenchmark::C1355.build();
//! let locked = Rll::new(32).lock(&aig, &mut rng).expect("enough gates");
//! let unlocked = apply_key(&locked.aig, locked.key_input_start, locked.key.bits());
//! assert!(almost_aig::sim::probably_equivalent(&aig, &unlocked, 16, 7));
//! ```

pub mod anti_sat;
pub mod key;
pub mod mux_lock;
pub mod oracle;
mod point;
pub mod rll;
pub mod sar_lock;
pub mod scheme;
pub mod specialize;
pub mod stacked;

pub use anti_sat::AntiSat;
pub use key::Key;
pub use mux_lock::MuxLock;
pub use oracle::{BatchOracle, CircuitOracle, InterpretedOracle, Oracle};
pub use rll::Rll;
pub use sar_lock::SarLock;
pub use scheme::{relock, LockError, LockedCircuit, LockingScheme};
pub use specialize::apply_key;
pub use stacked::Stacked;
