//! Function-preserving restructuring for equivalence-checking workloads.

use almost_aig::{Aig, Lit, NodeKind};

/// Rebuilds `aig` with every `stride`-th AND wrapped in the absorption
/// identity `u -> (u & s) | (u & !s)` (select `s` = first input).
///
/// The wrapper survives strash (the hash only folds one-level patterns),
/// so the result is functionally identical but structurally divergent
/// from the wrapper onward — the profile a resynthesized or key-locked
/// netlist presents to CEC, which has to prove every wrapper away with
/// real SAT queries before the output cones collapse. `resyn2` is a
/// fixpoint on the array multiplier (it returns c6288 unchanged), so this
/// transform is what stands in for "the same function, restructured".
pub fn redundify(aig: &Aig, stride: usize) -> Aig {
    let mut out = Aig::new();
    let inputs: Vec<Lit> = (0..aig.num_inputs()).map(|_| out.add_input()).collect();
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for (i, &v) in aig.inputs().iter().enumerate() {
        map[v as usize] = inputs[i];
    }
    let mut ands = 0usize;
    for v in 0..aig.num_nodes() {
        if let NodeKind::And(fa, fb) = aig.node(v as u32) {
            let a = map[fa.var() as usize].xor_complement(fa.is_complement());
            let b = map[fb.var() as usize].xor_complement(fb.is_complement());
            let mut lit = out.and(a, b);
            ands += 1;
            if ands.is_multiple_of(stride) && !lit.is_const() {
                let select = inputs[0];
                let then_arm = out.and(lit, select);
                let else_arm = out.and(lit, !select);
                lit = out.or(then_arm, else_arm);
            }
            map[v] = lit;
        }
    }
    for &o in aig.outputs() {
        out.add_output(map[o.var() as usize].xor_complement(o.is_complement()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IscasBenchmark;
    use almost_aig::sim::probably_equivalent;

    #[test]
    fn redundify_preserves_function_and_adds_ands() {
        let original = IscasBenchmark::C432.build();
        let restructured = redundify(&original, 16);
        assert!(restructured.num_ands() > original.num_ands());
        assert!(probably_equivalent(&original, &restructured, 16, 3));
    }
}
