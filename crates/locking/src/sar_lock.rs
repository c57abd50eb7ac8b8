//! SARLock: SAT-attack-resilient locking via a one-point flip function.
//!
//! SARLock [Yasin et al., HOST'16] compares `n` tapped inputs against the
//! `n` key inputs and flips one primary output when they match — masked by
//! a second comparator keyed on the *correct* key so the correct key never
//! flips anything:
//!
//! ```text
//! flip = (X_taps == K) ∧ (K != K*)
//! out  = out ⊕ flip
//! ```
//!
//! Every wrong key `K` corrupts exactly the tap pattern `X_taps = K`, so a
//! DIP of the oracle-guided SAT attack eliminates exactly *one* wrong key
//! and the attack needs `2^n − 1` DIPs — the exponential floor the
//! DIP-count regression tests assert. The flip column is one-hot per key,
//! which is also SARLock's weakness: the Double-DIP attack refuses to
//! spend queries on inputs where only a single key class errs, strips the
//! flip, and recovers whatever base scheme SARLock was stacked on (see
//! [`Stacked`](crate::Stacked) and `almost_attacks::DoubleDip`).

use crate::key::Key;
use crate::point::{tap_lits, xnor_compare, xnor_compare_signals};
use crate::scheme::{LockError, LockedCircuit, LockingScheme};
use almost_aig::Aig;
use rand::rngs::StdRng;
use rand::RngExt;

/// SARLock with an `n`-bit key compared against `n` tapped inputs.
#[derive(Clone, Copy, Debug)]
pub struct SarLock {
    key_size: usize,
}

impl SarLock {
    /// A SARLock locker with `key_size` key bits (DIP floor `2^k − 1`).
    pub fn new(key_size: usize) -> Self {
        SarLock { key_size }
    }

    /// The configured key size.
    pub fn key_size(&self) -> usize {
        self.key_size
    }
}

impl LockingScheme for SarLock {
    fn lock(&self, aig: &Aig, rng: &mut StdRng) -> Result<LockedCircuit, LockError> {
        let n = self.key_size;
        // The lockable sites of a point-function scheme are the tappable
        // inputs; the comparator needs n of them.
        if n == 0 {
            return Err(LockError::EmptyKey);
        }
        if aig.num_outputs() == 0 {
            return Err(LockError::NoOutputs);
        }
        if aig.num_inputs() < n {
            return Err(LockError::NotEnoughGates {
                available: aig.num_inputs(),
                requested: n,
            });
        }

        let mut new = aig.clone();
        let key = Key::random(n, rng);
        let key_lits: Vec<_> = (0..n)
            .map(|k| new.add_named_input(format!("keyinput{k}")))
            .collect();
        let taps = tap_lits(&new, n);

        // flip = (taps == K) ∧ (K != K*): the mask comparator hard-codes
        // the correct key, exactly like the shipped SARLock mask logic.
        let eq = xnor_compare_signals(&mut new, &taps, &key_lits);
        let k_is_correct = xnor_compare(&mut new, &key_lits, key.bits());
        let flip = new.and(eq, !k_is_correct);

        let out_idx = rng.random_range(0..new.num_outputs());
        let out_lit = new.outputs()[out_idx];
        let flipped = new.xor(out_lit, flip);
        new.set_output(out_idx, flipped);

        Ok(LockedCircuit {
            aig: new,
            key_input_start: aig.num_inputs(),
            key,
            locked_nodes: vec![aig.outputs()[out_idx].var()],
        })
    }

    fn name(&self) -> &'static str {
        "SARLock"
    }

    fn tap_width(&self) -> Option<usize> {
        Some(self.key_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::apply_key;
    use almost_circuits::IscasBenchmark;
    use rand::SeedableRng;

    #[test]
    fn correct_key_restores_function_proved_by_sat() {
        let mut rng = StdRng::seed_from_u64(41);
        let base = IscasBenchmark::C432.build();
        let locked = SarLock::new(8).lock(&base, &mut rng).expect("lockable");
        assert_eq!(locked.aig.num_inputs(), base.num_inputs() + 8);
        let restored = apply_key(&locked.aig, locked.key_input_start, locked.key.bits());
        assert_eq!(
            almost_sat::check_equivalence(&base, &restored),
            almost_sat::Equivalence::Equivalent
        );
    }

    #[test]
    fn wrong_key_errs_on_exactly_its_own_tap_pattern() {
        let mut rng = StdRng::seed_from_u64(42);
        let base = IscasBenchmark::C432.build();
        let locked = SarLock::new(4).lock(&base, &mut rng).expect("lockable");
        let mut wrong = locked.key.bits().to_vec();
        wrong[2] = !wrong[2];
        let broken = apply_key(&locked.aig, locked.key_input_start, &wrong);
        let m = base.num_inputs();
        for pat in 0..16u32 {
            let mut x = vec![false; m];
            for (i, bit) in x.iter_mut().enumerate().take(4) {
                *bit = pat >> i & 1 != 0;
            }
            let hits_wrong_key = (0..4).all(|i| (pat >> i & 1 != 0) == wrong[i]);
            assert_eq!(
                broken.eval(&x) != base.eval(&x),
                hits_wrong_key,
                "flip must fire exactly on taps == K (pat {pat})"
            );
        }
    }

    #[test]
    fn too_few_inputs_is_rejected() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut tiny = Aig::new();
        let a = tiny.add_input();
        let b = tiny.add_input();
        let f = tiny.or(a, b);
        tiny.add_output(f);
        assert!(matches!(
            SarLock::new(3).lock(&tiny, &mut rng),
            Err(LockError::NotEnoughGates {
                available: 2,
                requested: 3
            })
        ));
    }
}
