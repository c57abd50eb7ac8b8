//! Level-minimising AND-tree balancing.
//!
//! For every node, the pass collapses the maximal single-fanout,
//! non-complemented AND tree rooted there into one "super-gate", then
//! rebuilds it as a balanced tree, pairing the shallowest operands first
//! (Huffman-style). This is ABC's `balance` command restricted to AND
//! decomposition.

use crate::aig::{Aig, Lit, NodeKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Balances the AIG to reduce depth; the result computes the same functions.
pub fn balance(aig: &Aig) -> Aig {
    let refs = aig.fanout_counts();
    let mut new = Aig::with_capacity(aig.num_nodes());
    // Level of each node in the NEW graph (grown lazily).
    let mut new_levels: Vec<u32> = vec![0];
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];

    for i in 0..aig.num_inputs() {
        let var = aig.inputs()[i];
        map[var as usize] = new.add_named_input(aig.input_name(i).to_string());
        new_levels.push(0);
    }

    for v in aig.iter_ands() {
        // Collect the super-gate operands in the old graph.
        let mut operands: Vec<Lit> = Vec::new();
        collect_supergate(aig, Lit::positive(v), &refs, true, &mut operands);

        // Map operands to the new graph and combine shallowest-first.
        let mut heap: BinaryHeap<Reverse<(u32, Lit)>> = operands
            .iter()
            .map(|l| {
                let mapped = map[l.var() as usize].xor_complement(l.is_complement());
                Reverse((new_levels[mapped.var() as usize], mapped))
            })
            .collect();
        let result = loop {
            let Reverse((la, a)) = heap.pop().expect("supergate has operands");
            let Some(Reverse((lb, b))) = heap.pop() else {
                break a;
            };
            let lit = and_tracked(&mut new, &mut new_levels, a, b);
            let lvl = new_levels[lit.var() as usize].max(la.max(lb));
            heap.push(Reverse((lvl, lit)));
        };
        map[v as usize] = result;
    }

    for (i, out) in aig.outputs().iter().enumerate() {
        let lit = map[out.var() as usize].xor_complement(out.is_complement());
        new.add_named_output(lit, aig.output_name(i).to_string());
    }
    new.compact()
}

/// AND with new-graph level tracking.
fn and_tracked(new: &mut Aig, levels: &mut Vec<u32>, a: Lit, b: Lit) -> Lit {
    let before = new.num_nodes();
    let lit = new.and(a, b);
    if new.num_nodes() > before {
        let la = levels[a.var() as usize];
        let lb = levels[b.var() as usize];
        debug_assert_eq!(levels.len(), before);
        levels.push(1 + la.max(lb));
    }
    lit
}

/// Expands `lit` into super-gate operands: descends through positive-phase
/// AND nodes whose only fanout is the super-gate being collected.
fn collect_supergate(aig: &Aig, lit: Lit, refs: &[u32], is_root: bool, out: &mut Vec<Lit>) {
    let v = lit.var();
    let expandable = matches!(aig.node(v), NodeKind::And(..))
        && !lit.is_complement()
        && (is_root || refs[v as usize] == 1);
    if !expandable {
        out.push(lit);
        return;
    }
    let (a, b) = aig.and_fanins(v).expect("checked is AND");
    collect_supergate(aig, a, refs, false, out);
    collect_supergate(aig, b, refs, false, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::probably_equivalent;

    #[test]
    fn balances_a_chain() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..8).map(|_| aig.add_input()).collect();
        // Left-leaning chain of depth 7.
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = aig.and(acc, i);
        }
        aig.add_output(acc);
        assert_eq!(aig.depth(), 7);
        let out = balance(&aig);
        assert_eq!(out.depth(), 3, "8-input AND balances to depth 3");
        assert!(probably_equivalent(&aig, &out, 8, 1));
    }

    #[test]
    fn respects_shared_nodes() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_output(abc);
        aig.add_output(ab); // shared: must not be dissolved
        let out = balance(&aig);
        assert!(probably_equivalent(&aig, &out, 8, 2));
        assert_eq!(out.num_outputs(), 2);
    }

    #[test]
    fn complemented_edges_are_operand_boundaries() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let nab = aig.nand(a, b);
        let f = aig.and(nab, c);
        aig.add_output(f);
        let out = balance(&aig);
        assert!(probably_equivalent(&aig, &out, 8, 3));
    }

    #[test]
    fn repeated_balance_never_increases_depth() {
        let aig = crate::passes::tests::random_aig(8, 80, 11);
        let once = balance(&aig);
        assert!(once.depth() <= aig.depth());
        let twice = balance(&once);
        assert!(twice.depth() <= once.depth());
        assert!(probably_equivalent(&aig, &twice, 16, 4));
    }
}
