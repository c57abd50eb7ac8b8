//! Cut-based rewriting (ABC `rewrite` / `rewrite -z`).
//!
//! For every AND node, enumerate 4-feasible cuts (each carrying its
//! function) and re-synthesise each cut function over the cut leaves
//! through the structural hash of the graph being built. A candidate is
//! accepted if the number of nodes it adds is smaller than the MFFC it
//! frees (gain > 0), or — for the `-z` variant — equal (gain = 0,
//! structural perturbation at zero cost).
//!
//! # Known defect: the default AND competes as a candidate
//!
//! The default copy `new.and(fa, fb)` is built before the cuts are costed,
//! on top of the already copied cone below it. A cut whose resynthesis
//! reproduces that structure (the fanin cut always does) therefore adds
//! no node through the structural hash and scores gain = its MFFC size,
//! with the unchanged node as its candidate. Every later cut must beat
//! that gain, so a cut that would save a single node (or none, under
//! `-z`) is never accepted, and a cut without the credit to beat it is
//! not even built. When a later, larger cut rebuilds the default, it
//! replaces any earlier positive-gain candidate.
//!
//! Measured on c1908 and c3540 under 64 RLL key gates and c5315 and c7552
//! under 128 (lock seeds `0x1908`, `0x3540`, `0x5315`, `0x7552`), over
//! `rewrite` and the four rewrites (two of them `-z`) inside `resyn2`:
//! the first cut costed rebuilt the default on 31,796 of 31,913 nodes (it
//! was the fanin cut on 27,178 of them), the default was taken as the
//! best candidate 42,125 times, 118,359 later cuts were skipped for it,
//! and 157 earlier candidates were replaced by it. `rewrite -z` returns
//! byte-identical graphs to `rewrite` on nine of the ten raw and
//! `resyn2`'d networks of those four locks and c432 under 16 RLL key
//! gates; only raw c7552 differs. Fixing this moves every pinned
//! `synthesis_golden` digest and every benchmark fingerprint, so it is
//! left for a change of its own; the pass behaves as described here.

use crate::aig::{Aig, Lit};
use crate::cut::{CutConfig, CutSet};
use crate::isop::Resynth;
use crate::mffc::mffc_size;
use crate::truth::Tt8;

/// Rewrites the AIG; `zero_cost` enables `-z` semantics.
pub fn rewrite(aig: &Aig, zero_cost: bool) -> Aig {
    Resynth::with_library(|resynth| rewrite_with(aig, zero_cost, resynth))
}

fn rewrite_with(aig: &Aig, zero_cost: bool, resynth: &mut Resynth) -> Aig {
    let cuts = CutSet::compute(aig, CutConfig { max_cuts: 8 });
    let mut refs = aig.fanout_counts();
    let mut new = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_inputs() {
        map[aig.inputs()[i] as usize] = new.add_named_input(aig.input_name(i).to_string());
    }
    let mut leaves_new: Vec<Lit> = Vec::with_capacity(4);

    for v in aig.iter_ands() {
        let (a, b) = aig.and_fanins(v).expect("iterating ANDs");
        let fa = map[a.var() as usize].xor_complement(a.is_complement());
        let fb = map[b.var() as usize].xor_complement(b.is_complement());
        let default = new.and(fa, fb);
        let mut best: Option<(isize, Lit)> = None;

        for cut in cuts.cuts_of(v) {
            if cut.size() < 2 || cut.leaves() == [v] {
                continue;
            }
            let gain_credit = mffc_size(aig, v, cut.leaves(), &mut refs) as isize;
            // A candidate is kept only if it beats the best so far, and
            // otherwise only at a positive gain (or a zero one under -z):
            // that caps the nodes it may add. Nothing can be added below
            // zero, so a cut without room is not even built.
            let max_added = match best {
                Some((bg, _)) => gain_credit - bg - 1,
                None if zero_cost => gain_credit,
                None => gain_credit - 1,
            };
            if max_added < 0 {
                continue;
            }
            leaves_new.clear();
            leaves_new.extend(cut.leaves().iter().map(|&l| map[l as usize]));
            let cp = new.checkpoint();
            let tt = Tt8::from_u16(cut.truth());
            let Some(cand) = resynth.build_within(&mut new, tt, &leaves_new, max_added as usize)
            else {
                continue;
            };
            let gain = gain_credit - (new.checkpoint() - cp) as isize;
            if gain > 0 || (zero_cost && gain == 0 && cand != default) {
                // Kept as built: it is the best candidate so far.
                best = Some((gain, cand));
            } else {
                new.rollback(cp);
            }
        }

        map[v as usize] = best.map_or(default, |(_, lit)| lit);
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
    fn rewrite_preserves_function() {
        for seed in 0..6 {
            let aig = random_aig(8, 80, seed);
            let out = rewrite(&aig, false);
            assert!(
                probably_equivalent(&aig, &out, 16, seed),
                "seed {seed}: rewrite broke equivalence"
            );
        }
    }

    #[test]
    fn rewrite_shrinks_redundant_structure() {
        // Build (a AND b) OR (a AND b AND c) == a AND b -- heavy redundancy
        // a cut-based rewrite should collapse.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        let f = aig.or(ab, abc);
        aig.add_output(f);
        let out = rewrite(&aig, false);
        assert!(probably_equivalent(&aig, &out, 8, 0));
        assert!(
            out.num_ands() < aig.num_ands(),
            "expected shrink: {} -> {}",
            aig.num_ands(),
            out.num_ands()
        );
    }

    #[test]
    fn rewrite_z_preserves_function_and_size_bound() {
        for seed in 0..4 {
            let aig = random_aig(8, 80, seed + 100);
            let out = rewrite(&aig, true);
            assert!(probably_equivalent(&aig, &out, 16, seed));
            // Gain accounting is MFFC-based and sharing is re-discovered in
            // the rebuilt graph, so allow a small slack instead of strict
            // monotonicity.
            assert!(
                out.num_ands() <= aig.num_ands() + aig.num_ands() / 10 + 2,
                "-z grew the graph too much: {} -> {}",
                aig.num_ands(),
                out.num_ands()
            );
        }
    }

    #[test]
    fn rewrite_z_can_change_structure_without_growth() {
        // Run both variants on the same graph; -z may produce a different
        // node count or structure, but never a larger one.
        let aig = random_aig(10, 150, 42);
        let plain = rewrite(&aig, false);
        let z = rewrite(&aig, true);
        assert!(z.num_ands() <= aig.num_ands() + aig.num_ands() / 10 + 2);
        assert!(probably_equivalent(&plain, &z, 16, 9));
    }

    #[test]
    fn rewrite_on_trivial_graphs() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        aig.add_output(a);
        aig.add_output(!a);
        aig.add_output(Lit::TRUE);
        let out = rewrite(&aig, false);
        assert_eq!(out.num_ands(), 0);
        assert!(probably_equivalent(&aig, &out, 2, 0));
    }
}
