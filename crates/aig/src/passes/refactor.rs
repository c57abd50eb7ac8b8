//! Large-cut refactoring (ABC `refactor` / `refactor -z`).
//!
//! For every node, a reconvergence-driven cut of up to 8 leaves is computed
//! and collapsed into a truth table; the function is then re-synthesised
//! from an irredundant SOP (or its complement, or a Shannon decomposition —
//! whichever is cheapest through the structural hash). The replacement is
//! accepted when it adds fewer nodes than the node's MFFC frees.

use crate::aig::{Aig, Lit};
use crate::isop::Resynth;
use crate::mffc::mffc_size;
use crate::passes::window::{reconvergence_cut, Window};

/// Maximum cut width for refactoring (truth tables of 2^8 bits).
const MAX_LEAVES: usize = 8;

/// Refactors the AIG; `zero_cost` enables `-z` semantics.
pub fn refactor(aig: &Aig, zero_cost: bool) -> Aig {
    Resynth::with_library(|resynth| refactor_with(aig, zero_cost, resynth))
}

fn refactor_with(aig: &Aig, zero_cost: bool, resynth: &mut Resynth) -> Aig {
    let mut refs = aig.fanout_counts();
    let mut window = Window::new(aig.num_nodes());
    let mut new = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_inputs() {
        map[aig.inputs()[i] as usize] = new.add_named_input(aig.input_name(i).to_string());
    }
    let mut leaves_new: Vec<Lit> = Vec::with_capacity(MAX_LEAVES);

    for v in aig.iter_ands() {
        let (a, b) = aig.and_fanins(v).expect("iterating ANDs");
        let fa = map[a.var() as usize].xor_complement(a.is_complement());
        let fb = map[b.var() as usize].xor_complement(b.is_complement());
        let default = new.and(fa, fb);
        map[v as usize] = default;

        let leaves = reconvergence_cut(aig, v, MAX_LEAVES);
        if leaves.len() < 3 {
            continue; // too small to beat plain copying
        }
        let credit = mffc_size(aig, v, &leaves, &mut refs) as isize;
        if credit <= 1 && !zero_cost {
            continue;
        }
        window.load(aig, v, &leaves);
        leaves_new.clear();
        leaves_new.extend(leaves.iter().map(|&l| map[l as usize]));

        // Accepted at a positive gain, or a zero one under -z: that caps
        // the nodes the candidate may add.
        let max_added = if zero_cost { credit } else { credit - 1 };
        let cp = new.checkpoint();
        let Some(cand) =
            resynth.build_within(&mut new, window.table(v), &leaves_new, max_added as usize)
        else {
            continue;
        };
        let gain = credit - (new.checkpoint() - cp) as isize;
        if gain > 0 || (zero_cost && gain == 0 && cand != default) {
            map[v as usize] = cand;
        } else {
            new.rollback(cp);
        }
    }

    for (i, out) in aig.outputs().iter().enumerate() {
        let lit = map[out.var() as usize].xor_complement(out.is_complement());
        new.add_named_output(lit, aig.output_name(i).to_string());
    }
    new.compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tests::random_aig;
    use crate::sim::probably_equivalent;

    #[test]
    fn refactor_preserves_function() {
        for seed in 0..6 {
            let aig = random_aig(8, 80, seed + 300);
            let out = refactor(&aig, false);
            assert!(
                probably_equivalent(&aig, &out, 16, seed),
                "seed {seed}: refactor broke equivalence"
            );
        }
    }

    #[test]
    fn refactor_z_preserves_function() {
        for seed in 0..4 {
            let aig = random_aig(8, 80, seed + 400);
            let out = refactor(&aig, true);
            assert!(probably_equivalent(&aig, &out, 16, seed));
        }
    }

    #[test]
    fn refactor_collapses_wide_redundancy() {
        // A 6-input function built wastefully: f = OR of all 3-input ANDs
        // that are subsumed by a & b -- equal to a & b with heavy
        // redundancy.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        let abd = aig.and(ab, d);
        let abcd = aig.and(abc, d);
        let t1 = aig.or(abc, abd);
        let t2 = aig.or(t1, abcd);
        let f = aig.or(ab, t2);
        aig.add_output(f);
        let out = refactor(&aig, false);
        assert!(probably_equivalent(&aig, &out, 8, 1));
        assert!(
            out.num_ands() < aig.num_ands(),
            "expected shrink: {} -> {}",
            aig.num_ands(),
            out.num_ands()
        );
    }

    #[test]
    fn refactor_keeps_interface_names() {
        let mut aig = Aig::new();
        let a = aig.add_named_input("alpha");
        let b = aig.add_named_input("beta");
        let f = aig.xor(a, b);
        aig.add_named_output(f, "gamma");
        let out = refactor(&aig, false);
        assert_eq!(out.input_name(0), "alpha");
        assert_eq!(out.input_name(1), "beta");
        assert_eq!(out.output_name(0), "gamma");
    }
}
