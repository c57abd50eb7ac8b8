//! The node-walk reference oracle.

use super::{BatchOracle, Oracle};
use crate::scheme::LockedCircuit;
use crate::specialize::apply_key;
use almost_aig::Aig;
use std::cell::Cell;

/// An [`Oracle`] that interprets the [`Aig`] per pattern via
/// [`Aig::eval`]: the differential reference [`super::CircuitOracle`] is
/// pinned against (`tests/oracle_parity.rs`).
///
/// Its [`BatchOracle`] methods are the trait defaults: a batch is served
/// one scalar query at a time, defining the counter and ordering
/// semantics [`super::CircuitOracle`] must reproduce.
pub struct InterpretedOracle {
    design: Aig,
    queries: Cell<usize>,
}

impl InterpretedOracle {
    /// Wraps an already-unlocked design.
    pub fn new(design: Aig) -> Self {
        InterpretedOracle {
            design,
            queries: Cell::new(0),
        }
    }

    /// Builds the reference oracle for a locked circuit under its
    /// correct key.
    pub fn from_locked(locked: &LockedCircuit) -> Self {
        Self::new(apply_key(
            &locked.aig,
            locked.key_input_start,
            locked.key.bits(),
        ))
    }

    /// The underlying design.
    pub fn design(&self) -> &Aig {
        &self.design
    }
}

impl Oracle for InterpretedOracle {
    fn num_inputs(&self) -> usize {
        self.design.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.design.num_outputs()
    }

    fn query(&self, pattern: &[bool]) -> Vec<bool> {
        self.queries.set(self.queries.get() + 1);
        self.design.eval(pattern)
    }

    fn queries_served(&self) -> usize {
        self.queries.get()
    }
}

impl BatchOracle for InterpretedOracle {}
