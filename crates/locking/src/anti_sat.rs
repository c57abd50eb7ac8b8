//! Anti-SAT: a SAT-attack-resilient point-function countermeasure.
//!
//! Anti-SAT [Xie & Srivastava, CHES'16] appends two complementary
//! comparator blocks over the same `n` tapped inputs, each keyed with its
//! own `n`-bit half: `Y = g(X ⊕ Kl1) ∧ ¬g(X ⊕ Kl2)` with `g = AND`. When
//! the two key halves are equal the blocks cancel and `Y ≡ 0`; any key
//! with `Kl1 ≠ Kl2` raises `Y` on *exactly one* tap pattern
//! (`X = ¬Kl1`), which is XORed into a primary output.
//!
//! Because each wrong key corrupts a single tap pattern, one
//! distinguishing input pattern (DIP) of the oracle-guided SAT attack
//! eliminates only the keys flipping at that pattern — the `2^n` groups
//! `{Kl1 = c}` must *all* be ruled out before the miter goes UNSAT, so the
//! attack needs at least `2^n` DIPs regardless of solver strength. The
//! trade-off the literature reports (and this workspace's DIP-floor
//! regression tests pin down) is that the protection is output-corruption
//! starved: an approximate attacker who tolerates one wrong tap pattern is
//! already done, which is what the Double-DIP attack exploits.
//!
//! The scheme composes with structural schemes via
//! [`Stacked`](crate::Stacked) (e.g. Anti-SAT over RLL), so PPA and
//! oracle-less attack rows still apply to the compound lock.

use crate::key::Key;
use crate::point::tap_lits;
use crate::scheme::{LockError, LockedCircuit, LockingScheme};
use almost_aig::Aig;
use rand::rngs::StdRng;
use rand::RngExt;

/// Anti-SAT locking with an `n`-input point-function block.
///
/// The inserted key is `2n` bits wide: halves `Kl1 = keyinput0..n` and
/// `Kl2 = keyinputn..2n`. The correct key has `Kl1 = Kl2` (a uniformly
/// random value), and the security parameter — the DIP-count floor `2^n`
/// — is set by the *block width* `n`, not the total key length.
#[derive(Clone, Copy, Debug)]
pub struct AntiSat {
    block_width: usize,
}

impl AntiSat {
    /// An Anti-SAT locker with an `n`-input block (`2n` key bits).
    pub fn new(block_width: usize) -> Self {
        AntiSat { block_width }
    }

    /// The point-function width `n` (DIP floor is `2^n`).
    pub fn block_width(&self) -> usize {
        self.block_width
    }

    /// Total key bits inserted (`2n`).
    pub fn key_size(&self) -> usize {
        2 * self.block_width
    }
}

impl LockingScheme for AntiSat {
    fn lock(&self, aig: &Aig, rng: &mut StdRng) -> Result<LockedCircuit, LockError> {
        let n = self.block_width;
        // The lockable sites of a point-function scheme are the tappable
        // inputs; the block needs n of them (and a circuit to protect).
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
        let secret = Key::random(n, rng);
        let kl1: Vec<_> = (0..n)
            .map(|k| new.add_named_input(format!("keyinput{k}")))
            .collect();
        let kl2: Vec<_> = (0..n)
            .map(|k| new.add_named_input(format!("keyinput{}", n + k)))
            .collect();
        let taps = tap_lits(&new, n);

        // g(X ⊕ Kl1) with g = AND: one only on the single pattern X = ¬Kl1.
        let v: Vec<_> = taps
            .iter()
            .zip(&kl1)
            .map(|(&x, &k)| new.xor(x, k))
            .collect();
        let w: Vec<_> = taps
            .iter()
            .zip(&kl2)
            .map(|(&x, &k)| new.xor(x, k))
            .collect();
        let g1 = new.and_many(&v);
        let g2 = new.and_many(&w);
        let y = new.and(g1, !g2);

        // Inject into a primary output so every raised Y is observable —
        // the DIP floor below depends on it.
        let out_idx = rng.random_range(0..new.num_outputs());
        let out_lit = new.outputs()[out_idx];
        let flipped = new.xor(out_lit, y);
        new.set_output(out_idx, flipped);
        let locked_nodes = vec![aig.outputs()[out_idx].var()];

        // Correct key: Kl1 = Kl2 = secret (both halves equal).
        let mut bits = secret.bits().to_vec();
        bits.extend_from_slice(secret.bits());
        Ok(LockedCircuit {
            aig: new,
            key_input_start: aig.num_inputs(),
            key: Key::from_bits(bits),
            locked_nodes,
        })
    }

    fn name(&self) -> &'static str {
        "Anti-SAT"
    }

    fn tap_width(&self) -> Option<usize> {
        Some(self.block_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::xnor_compare;
    use crate::specialize::apply_key;
    use almost_circuits::IscasBenchmark;
    use rand::SeedableRng;

    #[test]
    fn correct_key_restores_function_proved_by_sat() {
        let mut rng = StdRng::seed_from_u64(31);
        let base = IscasBenchmark::C432.build();
        let locked = AntiSat::new(6).lock(&base, &mut rng).expect("lockable");
        assert_eq!(locked.key_size(), 12);
        assert_eq!(locked.aig.num_inputs(), base.num_inputs() + 12);
        let restored = apply_key(&locked.aig, locked.key_input_start, locked.key.bits());
        assert_eq!(
            almost_sat::check_equivalence(&base, &restored),
            almost_sat::Equivalence::Equivalent
        );
    }

    #[test]
    fn key_halves_are_equal_and_secret_is_random() {
        let mut rng = StdRng::seed_from_u64(32);
        let base = IscasBenchmark::C432.build();
        let locked = AntiSat::new(8).lock(&base, &mut rng).expect("lockable");
        let bits = locked.key.bits();
        assert_eq!(&bits[..8], &bits[8..], "correct key has Kl1 = Kl2");
        let again = AntiSat::new(8)
            .lock(&base, &mut StdRng::seed_from_u64(33))
            .expect("lockable");
        assert_ne!(locked.key, again.key, "secret varies with the seed");
    }

    #[test]
    fn mismatched_halves_flip_exactly_the_point_pattern() {
        let mut rng = StdRng::seed_from_u64(34);
        let base = IscasBenchmark::C432.build();
        let locked = AntiSat::new(4).lock(&base, &mut rng).expect("lockable");
        // Flip one bit of Kl2: Y rises exactly on taps == ¬Kl1.
        let mut wrong = locked.key.bits().to_vec();
        wrong[5] = !wrong[5];
        let broken = apply_key(&locked.aig, locked.key_input_start, &wrong);
        let m = base.num_inputs();
        let mut flips = 0usize;
        for pat in 0..16u32 {
            let mut x = vec![false; m];
            for (i, bit) in x.iter_mut().enumerate().take(4) {
                *bit = pat >> i & 1 != 0;
            }
            if broken.eval(&x) != base.eval(&x) {
                flips += 1;
            }
        }
        assert_eq!(flips, 1, "Anti-SAT corrupts a single tap pattern");
    }

    #[test]
    fn too_few_inputs_is_rejected() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut tiny = Aig::new();
        let a = tiny.add_input();
        let b = tiny.add_input();
        let f = tiny.and(a, b);
        tiny.add_output(f);
        let err = AntiSat::new(8)
            .lock(&tiny, &mut rng)
            .expect_err("too small");
        assert!(matches!(
            err,
            LockError::NotEnoughGates {
                available: 2,
                requested: 8
            }
        ));
    }

    #[test]
    fn xnor_compare_helper_is_exercised() {
        // Keep the shared point-function helper covered from this module
        // too (SARLock is its main consumer).
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let eq = xnor_compare(&mut aig, &[a, b], &[true, false]);
        aig.add_output(eq);
        assert_eq!(aig.eval(&[true, false]), vec![true]);
        assert_eq!(aig.eval(&[true, true]), vec![false]);
    }
}
