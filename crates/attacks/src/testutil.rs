//! Shared attack-test preludes.
//!
//! Every oracle-guided test used to open with the same copy-pasted
//! ritual: seed an RNG, lock a benchmark, build the activated-chip
//! oracle (and sometimes wrap the lock in an [`AttackTarget`]). These
//! constructors are that ritual, written once — used by this crate's
//! unit tests and by the repo-level differential suite
//! (`tests/oracle_parity.rs`), so every harness exercises the exact same
//! setup path.

use crate::report::AttackTarget;
use almost_aig::{Aig, Script};
use almost_locking::{BatchOracle, CircuitOracle, LockedCircuit, LockingScheme, Oracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

/// Locks `design` with `scheme` under a deterministic seed.
///
/// # Panics
///
/// Panics when the scheme rejects the circuit (too few gates for the
/// configured key size) — test circuits are chosen to fit.
pub fn lock_with(design: &Aig, scheme: &dyn LockingScheme, seed: u64) -> LockedCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    scheme
        .lock(design, &mut rng)
        .unwrap_or_else(|e| panic!("{} must lock the test circuit: {e}", scheme.name()))
}

/// The standard oracle-guided prelude: lock `design`, then build the
/// activated-chip oracle from the locked circuit's correct key.
pub fn locked_oracle(
    design: &Aig,
    scheme: &dyn LockingScheme,
    seed: u64,
) -> (LockedCircuit, CircuitOracle) {
    let locked = lock_with(design, scheme, seed);
    let oracle = CircuitOracle::from_locked(&locked);
    (locked, oracle)
}

/// The trait-level prelude: lock, wrap in an [`AttackTarget`] deployed
/// with `recipe`, and build the oracle.
pub fn locked_target(
    design: &Aig,
    scheme: &dyn LockingScheme,
    recipe: Script,
    seed: u64,
) -> (AttackTarget, CircuitOracle) {
    let locked = lock_with(design, scheme, seed);
    let oracle = CircuitOracle::from_locked(&locked);
    (AttackTarget::new(locked, recipe), oracle)
}

/// A faulty chip: answers like `inner`, but inverts every output of every
/// second query, so its answers soon admit no key at all.
pub struct AlternatingLiar {
    inner: CircuitOracle,
    answered: Cell<usize>,
}

impl AlternatingLiar {
    /// Wraps the activated-chip oracle of `locked`.
    pub fn new(locked: &LockedCircuit) -> Self {
        AlternatingLiar {
            inner: CircuitOracle::from_locked(locked),
            answered: Cell::new(0),
        }
    }
}

impl Oracle for AlternatingLiar {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&self, pattern: &[bool]) -> Vec<bool> {
        let n = self.answered.get() + 1;
        self.answered.set(n);
        let y = self.inner.query(pattern);
        if n.is_multiple_of(2) {
            y.into_iter().map(|b| !b).collect()
        } else {
            y
        }
    }

    fn queries_served(&self) -> usize {
        self.inner.queries_served()
    }
}

impl BatchOracle for AlternatingLiar {}
