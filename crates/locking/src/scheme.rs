//! The locking-scheme abstraction, locked-circuit metadata and re-locking.

use crate::key::Key;
use almost_aig::{Aig, Var};
use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;

/// Error returned when a circuit cannot be locked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The circuit has fewer lockable sites than the requested key size.
    NotEnoughGates {
        /// Lockable sites available.
        available: usize,
        /// Key bits requested.
        requested: usize,
    },
    /// The scheme was configured with a zero-bit key, which locks nothing.
    EmptyKey,
    /// The circuit has no primary output for the scheme to corrupt.
    NoOutputs,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::NotEnoughGates {
                available,
                requested,
            } => write!(
                f,
                "circuit has only {available} lockable gates for a {requested}-bit key"
            ),
            LockError::EmptyKey => write!(f, "a 0-bit key locks nothing"),
            LockError::NoOutputs => write!(f, "circuit has no outputs to lock"),
        }
    }
}

impl std::error::Error for LockError {}

/// A locked circuit plus its ground truth.
#[derive(Clone, Debug)]
pub struct LockedCircuit {
    /// The locked AIG. Key inputs are appended after the functional inputs
    /// and named `keyinput<k>`.
    pub aig: Aig,
    /// Index (into the AIG's input list) of the first key input.
    pub key_input_start: usize,
    /// The correct key.
    pub key: Key,
    /// For each key bit, the AIG node that was locked (in the *original*
    /// circuit's node numbering at lock time; synthesis invalidates these,
    /// key-input positions do not).
    pub locked_nodes: Vec<Var>,
}

impl LockedCircuit {
    /// Number of key bits.
    pub fn key_size(&self) -> usize {
        self.key.len()
    }

    /// Input positions of the key inputs.
    pub fn key_input_positions(&self) -> std::ops::Range<usize> {
        self.key_input_start..self.key_input_start + self.key.len()
    }

    /// Re-derives key-input vars after the AIG field has been replaced by a
    /// synthesised version (input order is preserved by all passes).
    pub fn with_aig(mut self, aig: Aig) -> Self {
        assert_eq!(
            aig.num_inputs(),
            self.aig.num_inputs(),
            "synthesis must preserve the input interface"
        );
        self.aig = aig;
        self
    }
}

/// A logic-locking scheme.
pub trait LockingScheme {
    /// Locks `aig`, inserting this scheme's key gates.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::EmptyKey`] for a zero-width key and
    /// [`LockError::NotEnoughGates`] if the circuit is too small for the
    /// configured key size. Point-function schemes also return
    /// [`LockError::NoOutputs`] for a circuit without outputs.
    fn lock(&self, aig: &Aig, rng: &mut StdRng) -> Result<LockedCircuit, LockError>;

    /// The scheme's display name.
    fn name(&self) -> &'static str;

    /// How many of the circuit's *leading* inputs the scheme taps
    /// (point-function schemes compare them against the key), or `None`
    /// for schemes that lock internal gates only.
    ///
    /// Composition uses this to refuse stacks whose point function would
    /// silently tap another scheme's key inputs — which would void the
    /// one-point-corruption guarantee and the DIP floor.
    fn tap_width(&self) -> Option<usize> {
        None
    }
}

/// Re-locks an already locked circuit with `additional` fresh key gates —
/// the data-generation step of self-referencing attacks (SAIL, SnapShot,
/// OMLA): the attacker knows the *new* bits and trains on their localities.
///
/// The previous key inputs are treated as ordinary inputs; the returned
/// [`LockedCircuit`] describes only the newly inserted key gates.
///
/// # Errors
///
/// Propagates [`LockError`] from the underlying scheme.
pub fn relock(
    scheme: &dyn LockingScheme,
    locked: &Aig,
    rng: &mut StdRng,
) -> Result<LockedCircuit, LockError> {
    let _ = rng.random::<u64>(); // decouple the stream from the caller's
    scheme.lock(locked, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rll::Rll;
    use rand::SeedableRng;

    #[test]
    fn lock_error_displays() {
        let e = LockError::NotEnoughGates {
            available: 3,
            requested: 64,
        };
        assert!(e.to_string().contains("64-bit"));
        assert!(LockError::EmptyKey.to_string().contains("0-bit key"));
        assert!(LockError::NoOutputs.to_string().contains("no outputs"));
    }

    #[test]
    fn relock_adds_fresh_key_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = almost_circuits::IscasBenchmark::C1355.build();
        let first = Rll::new(16).lock(&base, &mut rng).expect("lockable");
        let second = relock(&Rll::new(8), &first.aig, &mut rng).expect("relockable");
        assert_eq!(
            second.aig.num_inputs(),
            base.num_inputs() + 16 + 8,
            "both key generations present"
        );
        assert_eq!(second.key_input_start, base.num_inputs() + 16);
        assert_eq!(second.key_size(), 8);
    }
}
