//! Maximum fanout-free cone (MFFC) computation.
//!
//! The MFFC of a node `n` with respect to a cut is the set of AND nodes that
//! would become dead if `n` were replaced by new logic built from the cut
//! leaves. Its size is the "gain credit" used by the rewriting and
//! resubstitution passes.

use crate::aig::{Aig, Var};

/// Computes the size (in AND nodes, including `root`) of the MFFC of `root`
/// with respect to `leaves` (a cut of at most a few nodes, so membership is
/// a scan of the slice).
///
/// `refs` must be the current fanout counts (see [`Aig::fanout_counts`]);
/// it is mutated during the computation but restored before returning.
pub fn mffc_size(aig: &Aig, root: Var, leaves: &[Var], refs: &mut [u32]) -> usize {
    let mut count = 0;
    deref(aig, root, leaves, refs, &mut |_| count += 1);
    reref(aig, root, leaves, refs);
    count
}

/// Collects the MFFC node set itself (including `root`).
pub fn mffc_nodes(aig: &Aig, root: Var, leaves: &[Var], refs: &mut [u32]) -> Vec<Var> {
    let mut nodes = Vec::new();
    deref(aig, root, leaves, refs, &mut |v| nodes.push(v));
    reref(aig, root, leaves, refs);
    nodes
}

/// Dereferences the cone of `v` down to `leaves`, visiting every node whose
/// reference count drops to zero (and `v` itself).
fn deref(aig: &Aig, v: Var, leaves: &[Var], refs: &mut [u32], visit: &mut impl FnMut(Var)) {
    visit(v);
    let (a, b) = aig.and_fanins(v).expect("MFFC root must be an AND node");
    for fanin in [a.var(), b.var()] {
        if leaves.contains(&fanin) || !aig.is_and(fanin) {
            continue;
        }
        debug_assert!(refs[fanin as usize] > 0);
        refs[fanin as usize] -= 1;
        if refs[fanin as usize] == 0 {
            deref(aig, fanin, leaves, refs, visit);
        }
    }
}

fn reref(aig: &Aig, v: Var, leaves: &[Var], refs: &mut [u32]) {
    let (a, b) = aig.and_fanins(v).expect("MFFC root must be an AND node");
    for fanin in [a.var(), b.var()] {
        if leaves.contains(&fanin) || !aig.is_and(fanin) {
            continue;
        }
        if refs[fanin as usize] == 0 {
            reref(aig, fanin, leaves, refs);
        }
        refs[fanin as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;

    #[test]
    fn chain_mffc_is_whole_cone() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_output(abc);
        let mut refs = aig.fanout_counts();
        let leaves = [a.var(), b.var(), c.var()];
        let size = mffc_size(&aig, abc.var(), &leaves, &mut refs);
        assert_eq!(size, 2);
        // refs restored
        assert_eq!(refs, aig.fanout_counts());
    }

    #[test]
    fn shared_node_not_in_mffc() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_output(abc);
        aig.add_output(ab); // ab now has external fanout
        let mut refs = aig.fanout_counts();
        let leaves = [a.var(), b.var(), c.var()];
        let size = mffc_size(&aig, abc.var(), &leaves, &mut refs);
        assert_eq!(size, 1, "ab is shared, only abc is freed");
        assert_eq!(refs, aig.fanout_counts());
    }

    #[test]
    fn leaves_stop_the_recursion() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_output(abc);
        let mut refs = aig.fanout_counts();
        // Treat ab as a cut leaf: only abc itself is in the MFFC.
        let leaves = [ab.var(), c.var()];
        let size = mffc_size(&aig, abc.var(), &leaves, &mut refs);
        assert_eq!(size, 1);
    }

    #[test]
    fn mffc_nodes_matches_size() {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..4).map(|_| aig.add_input()).collect();
        let x = aig.and(ins[0], ins[1]);
        let y = aig.and(ins[2], ins[3]);
        let z = aig.and(x, y);
        aig.add_output(z);
        let mut refs = aig.fanout_counts();
        let leaves: Vec<Var> = ins.iter().map(|l| l.var()).collect();
        let nodes = mffc_nodes(&aig, z.var(), &leaves, &mut refs);
        assert_eq!(nodes.len(), 3);
        assert_eq!(refs, aig.fanout_counts());
    }
}
