//! Random logic locking (RLL) with XOR/XNOR key gates and bubble pushing.
//!
//! RLL [EPIC, DATE'08] inserts a key gate on a randomly chosen internal
//! signal: key bit 0 → XOR (pass-through when `k = 0`), key bit 1 → XNOR
//! (pass-through when `k = 1`). In an AIG the XNOR's output bubble is
//! immediately absorbed into the fanout edges — the structural "bubble
//! pushing" that locking schemes rely on to hide the gate-type/bit binding,
//! and that the ML attacks of the paper learn to see through.

use crate::key::Key;
use crate::scheme::{LockError, LockedCircuit, LockingScheme};
use almost_aig::{Aig, Lit, NodeKind, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

/// Random logic locking.
#[derive(Clone, Copy, Debug)]
pub struct Rll {
    key_size: usize,
}

impl Rll {
    /// An RLL locker inserting `key_size` key gates.
    pub fn new(key_size: usize) -> Self {
        Rll { key_size }
    }

    /// The configured key size.
    pub fn key_size(&self) -> usize {
        self.key_size
    }
}

impl LockingScheme for Rll {
    fn lock(&self, aig: &Aig, rng: &mut StdRng) -> Result<LockedCircuit, LockError> {
        if self.key_size == 0 {
            return Err(LockError::EmptyKey);
        }
        // Lockable sites: AND nodes (internal signals).
        let candidates: Vec<Var> = aig.iter_ands().collect();
        if candidates.len() < self.key_size {
            return Err(LockError::NotEnoughGates {
                available: candidates.len(),
                requested: self.key_size,
            });
        }
        let mut sites = candidates;
        sites.shuffle(rng);
        sites.truncate(self.key_size);
        sites.sort_unstable(); // process in topological order
        let key = Key::random(self.key_size, rng);

        // Rebuild with key gates spliced in after each chosen node.
        let mut new = Aig::new();
        let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
        for i in 0..aig.num_inputs() {
            map[aig.inputs()[i] as usize] = new.add_named_input(aig.input_name(i).to_string());
        }
        let key_input_start = new.num_inputs();
        let key_lits: Vec<Lit> = (0..self.key_size)
            .map(|k| new.add_named_input(format!("keyinput{k}")))
            .collect();

        let mut idx = 0usize; // the next site, in topological order
        for v in aig.iter_vars() {
            if let NodeKind::And(a, b) = aig.node(v) {
                let fa = map[a.var() as usize].xor_complement(a.is_complement());
                let fb = map[b.var() as usize].xor_complement(b.is_complement());
                let mut lit = new.and(fa, fb);
                if sites.get(idx) == Some(&v) {
                    let k = key_lits[idx];
                    // Bit 0 -> XOR, bit 1 -> XNOR; bubble pushing happens
                    // automatically through complemented-edge absorption.
                    lit = if key.bits()[idx] {
                        new.xnor(lit, k)
                    } else {
                        new.xor(lit, k)
                    };
                    idx += 1;
                }
                map[v as usize] = lit;
            }
        }
        for (i, out) in aig.outputs().iter().enumerate() {
            let lit = map[out.var() as usize].xor_complement(out.is_complement());
            new.add_named_output(lit, aig.output_name(i).to_string());
        }

        let _ = rng.random::<u64>();
        Ok(LockedCircuit {
            aig: new,
            key_input_start,
            key,
            locked_nodes: sites,
        })
    }

    fn name(&self) -> &'static str {
        "RLL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::apply_key;
    use almost_aig::sim::probably_equivalent;
    use almost_circuits::IscasBenchmark;
    use rand::SeedableRng;

    #[test]
    fn correct_key_restores_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = IscasBenchmark::C1355.build();
        let locked = Rll::new(64).lock(&base, &mut rng).expect("lockable");
        assert_eq!(locked.aig.num_inputs(), base.num_inputs() + 64);
        let restored = apply_key(&locked.aig, locked.key_input_start, locked.key.bits());
        assert!(probably_equivalent(&base, &restored, 32, 5));
    }

    #[test]
    fn correct_key_restores_function_proved_by_sat() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(16).lock(&base, &mut rng).expect("lockable");
        let restored = apply_key(&locked.aig, locked.key_input_start, locked.key.bits());
        assert_eq!(
            almost_sat::check_equivalence(&base, &restored),
            almost_sat::Equivalence::Equivalent
        );
    }

    #[test]
    fn wrong_key_breaks_function() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = IscasBenchmark::C1355.build();
        let locked = Rll::new(64).lock(&base, &mut rng).expect("lockable");
        let mut wrong = locked.key.bits().to_vec();
        for b in wrong.iter_mut().take(16) {
            *b = !*b;
        }
        let broken = apply_key(&locked.aig, locked.key_input_start, &wrong);
        assert!(
            !probably_equivalent(&base, &broken, 32, 5),
            "flipping 16 key bits must corrupt the function"
        );
    }

    #[test]
    fn too_small_circuit_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut tiny = Aig::new();
        let a = tiny.add_input();
        let b = tiny.add_input();
        let f = tiny.and(a, b);
        tiny.add_output(f);
        let err = Rll::new(8).lock(&tiny, &mut rng).expect_err("too small");
        assert!(matches!(
            err,
            LockError::NotEnoughGates { available: 1, .. }
        ));
    }

    #[test]
    fn locking_survives_synthesis() {
        // Synthesise the locked circuit with resyn2, then apply the key:
        // function must still be restored (the core soundness property the
        // whole paper relies on).
        let mut rng = StdRng::seed_from_u64(5);
        let base = IscasBenchmark::C1908.build();
        let locked = Rll::new(32).lock(&base, &mut rng).expect("lockable");
        let synthesized = almost_aig::Script::resyn2().apply(&locked.aig);
        let restored = apply_key(&synthesized, locked.key_input_start, locked.key.bits());
        assert!(probably_equivalent(&base, &restored, 32, 9));
    }

    #[test]
    fn key_gate_count_matches_key_size() {
        let mut rng = StdRng::seed_from_u64(6);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(24).lock(&base, &mut rng).expect("lockable");
        assert_eq!(locked.key_size(), 24);
        assert_eq!(locked.locked_nodes.len(), 24);
        // Each XOR/XNOR costs up to 3 AND nodes.
        assert!(locked.aig.num_ands() > base.num_ands());
        assert!(locked.aig.num_ands() <= base.num_ands() + 3 * 24);
        // Key input names follow the convention.
        let pos = locked.key_input_start;
        assert_eq!(locked.aig.input_name(pos), "keyinput0");
    }
}
