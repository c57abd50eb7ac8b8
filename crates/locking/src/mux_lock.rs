//! MUX-based logic locking (extension).
//!
//! Each key bit drives a 2:1 multiplexer selecting between the true signal
//! and a decoy signal picked elsewhere in the circuit. With the correct key
//! the MUX forwards the true signal. The paper's conclusion notes ALMOST
//! "applies to other locking techniques"; this scheme is provided to
//! exercise that claim in the test suite and examples.

use crate::key::Key;
use crate::scheme::{LockError, LockedCircuit, LockingScheme};
use almost_aig::{Aig, Lit, NodeKind, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

/// MUX-based locking.
#[derive(Clone, Copy, Debug)]
pub struct MuxLock {
    key_size: usize,
}

impl MuxLock {
    /// A MUX locker inserting `key_size` key-controlled multiplexers.
    pub fn new(key_size: usize) -> Self {
        MuxLock { key_size }
    }

    /// The configured key size.
    pub fn key_size(&self) -> usize {
        self.key_size
    }
}

impl LockingScheme for MuxLock {
    fn lock(&self, aig: &Aig, rng: &mut StdRng) -> Result<LockedCircuit, LockError> {
        if self.key_size == 0 {
            return Err(LockError::EmptyKey);
        }
        let candidates: Vec<Var> = aig.iter_ands().collect();
        // Need a site and a distinct decoy for each key gate (compared
        // without adding, so no key size overflows).
        if candidates.len() <= self.key_size {
            return Err(LockError::NotEnoughGates {
                available: candidates.len().saturating_sub(1),
                requested: self.key_size,
            });
        }
        let mut sites = candidates.clone();
        sites.shuffle(rng);
        sites.truncate(self.key_size);
        sites.sort_unstable();
        let key = Key::random(self.key_size, rng);

        let mut new = Aig::new();
        let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
        for i in 0..aig.num_inputs() {
            map[aig.inputs()[i] as usize] = new.add_named_input(aig.input_name(i).to_string());
        }
        let key_input_start = new.num_inputs();
        let key_lits: Vec<Lit> = (0..self.key_size)
            .map(|k| new.add_named_input(format!("keyinput{k}")))
            .collect();

        let mut site_pos = 0usize;
        for v in aig.iter_vars() {
            if let NodeKind::And(a, b) = aig.node(v) {
                let fa = map[a.var() as usize].xor_complement(a.is_complement());
                let fb = map[b.var() as usize].xor_complement(b.is_complement());
                let mut lit = new.and(fa, fb);
                if site_pos < sites.len() && sites[site_pos] == v {
                    // Decoy: any earlier node (strictly before v keeps the
                    // graph acyclic); fall back to the complement if v is
                    // the first AND node.
                    let eligible: Vec<Var> =
                        candidates.iter().copied().filter(|&d| d < v).collect();
                    let decoy_src = if eligible.is_empty() {
                        !lit
                    } else {
                        map[eligible[rng.random_range(0..eligible.len())] as usize]
                    };
                    let k = key_lits[site_pos];
                    // Correct bit selects the true signal.
                    lit = if key.bits()[site_pos] {
                        new.mux(k, lit, decoy_src)
                    } else {
                        new.mux(k, decoy_src, lit)
                    };
                    site_pos += 1;
                }
                map[v as usize] = lit;
            }
        }
        for (i, out) in aig.outputs().iter().enumerate() {
            let lit = map[out.var() as usize].xor_complement(out.is_complement());
            new.add_named_output(lit, aig.output_name(i).to_string());
        }

        Ok(LockedCircuit {
            aig: new,
            key_input_start,
            key,
            locked_nodes: sites,
        })
    }

    fn name(&self) -> &'static str {
        "MUX"
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
        let mut rng = StdRng::seed_from_u64(21);
        let base = IscasBenchmark::C880.build();
        let locked = MuxLock::new(24).lock(&base, &mut rng).expect("lockable");
        let restored = apply_key(&locked.aig, locked.key_input_start, locked.key.bits());
        assert!(probably_equivalent(&base, &restored, 16, 3));
    }

    #[test]
    fn flipped_key_usually_breaks_function() {
        let mut rng = StdRng::seed_from_u64(22);
        let base = IscasBenchmark::C880.build();
        let locked = MuxLock::new(24).lock(&base, &mut rng).expect("lockable");
        let wrong: Vec<bool> = locked.key.bits().iter().map(|b| !b).collect();
        let broken = apply_key(&locked.aig, locked.key_input_start, &wrong);
        assert!(!probably_equivalent(&base, &broken, 16, 3));
    }

    #[test]
    fn rejects_tiny_circuits() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut tiny = Aig::new();
        let a = tiny.add_input();
        let b = tiny.add_input();
        let f = tiny.and(a, b);
        tiny.add_output(f);
        assert!(MuxLock::new(4).lock(&tiny, &mut rng).is_err());
    }
}
