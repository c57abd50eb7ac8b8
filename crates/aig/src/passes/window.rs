//! Reconvergence-driven cut growth and the window kernel, shared by
//! `refactor` and `resub`.

use crate::aig::{Aig, Var};
use crate::truth::Tt8;

/// Grows a reconvergence-driven cut of `root` with at most `max_leaves`
/// leaves.
///
/// Starting from the fanins of `root`, the leaf whose expansion increases
/// the leaf count least (reconvergent leaves may even *decrease* it) is
/// expanded repeatedly until no expansion fits within `max_leaves`.
///
/// Returns the sorted leaf variables.
///
/// # Panics
///
/// Panics if `root` is not an AND node.
pub fn reconvergence_cut(aig: &Aig, root: Var, max_leaves: usize) -> Vec<Var> {
    let (a, b) = aig
        .and_fanins(root)
        .expect("reconvergence cut root must be an AND node");
    let mut leaves: Vec<Var> = vec![a.var(), b.var()];
    leaves.dedup();

    loop {
        let mut best: Option<(isize, usize)> = None; // (cost, leaf index)
        for (i, &leaf) in leaves.iter().enumerate() {
            let Some((fa, fb)) = aig.and_fanins(leaf) else {
                continue; // inputs / constant cannot be expanded
            };
            let mut added = 0isize;
            for f in [fa.var(), fb.var()] {
                if !leaves.contains(&f) {
                    added += 1;
                }
            }
            if fa.var() == fb.var() {
                added = added.min(1);
            }
            let cost = added - 1; // we remove the expanded leaf itself
            let new_total = leaves.len() as isize + cost;
            if new_total as usize > max_leaves {
                continue;
            }
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, i));
            }
        }
        let Some((_, idx)) = best else {
            break;
        };
        let leaf = leaves.swap_remove(idx);
        let (fa, fb) = aig.and_fanins(leaf).expect("expandable leaf is an AND");
        for f in [fa.var(), fb.var()] {
            if !leaves.contains(&f) {
                leaves.push(f);
            }
        }
    }
    leaves.sort_unstable();
    leaves
}

/// The window kernel shared by `refactor` and `resub`: collects the
/// interior "volume" of a cut and simulates it into 8-variable truth
/// tables, reusing its buffers from one window to the next.
pub struct Window {
    /// `mark[v] == epoch` iff `v` is in the current volume.
    mark: Vec<u32>,
    epoch: u32,
    volume: Vec<Var>,
    /// Per-node tables, valid for the current leaves and volume.
    tables: Vec<Tt8>,
}

impl Window {
    /// An empty window over a graph of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Window {
            mark: vec![0; num_nodes],
            epoch: 0,
            volume: Vec::new(),
            tables: vec![Tt8::ZERO; num_nodes],
        }
    }

    /// Loads the window of `root` over `leaves` (a cut of `root`, at most 8
    /// nodes): the volume is every node on a path from the leaves to `root`,
    /// including `root` and excluding the leaves, and each of those nodes
    /// gets its table as a function of the leaves (leaf `i` is variable
    /// `i`).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` has more than 8 entries.
    pub fn load(&mut self, aig: &Aig, root: Var, leaves: &[Var]) {
        self.epoch += 1;
        self.volume.clear();
        self.collect(aig, root, leaves);
        self.tables[0] = Tt8::ZERO;
        for (i, &leaf) in leaves.iter().enumerate() {
            self.tables[leaf as usize] = Tt8::var(i);
        }
        for &v in &self.volume {
            let (a, b) = aig.and_fanins(v).expect("volume nodes are ANDs");
            let ta = self.tables[a.var() as usize].xor_complement(a.is_complement());
            let tb = self.tables[b.var() as usize].xor_complement(b.is_complement());
            self.tables[v as usize] = ta.and(tb);
        }
    }

    /// Depth-first collection in topological order (fanin 0 before
    /// fanin 1 before the node).
    fn collect(&mut self, aig: &Aig, v: Var, leaves: &[Var]) {
        if leaves.contains(&v) || self.mark[v as usize] == self.epoch {
            return;
        }
        let Some((a, b)) = aig.and_fanins(v) else {
            debug_assert_eq!(v, 0, "leaves must cut every input of the cone");
            return;
        };
        self.mark[v as usize] = self.epoch;
        self.collect(aig, a.var(), leaves);
        self.collect(aig, b.var(), leaves);
        self.volume.push(v);
    }

    /// The volume of the loaded window, in topological order (the root is
    /// last).
    pub fn volume(&self) -> &[Var] {
        &self.volume
    }

    /// The table of a leaf or volume node of the loaded window.
    pub fn table(&self, v: Var) -> Tt8 {
        self.tables[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;

    #[test]
    fn cut_of_simple_tree() {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..4).map(|_| aig.add_input()).collect();
        let x = aig.and(ins[0], ins[1]);
        let y = aig.and(ins[2], ins[3]);
        let z = aig.and(x, y);
        aig.add_output(z);
        let cut = reconvergence_cut(&aig, z.var(), 8);
        let mut want: Vec<Var> = ins.iter().map(|l| l.var()).collect();
        want.sort_unstable();
        assert_eq!(cut, want);
    }

    #[test]
    fn cut_respects_limit() {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..16).map(|_| aig.add_input()).collect();
        let f = aig.and_many(&ins);
        aig.add_output(f);
        let cut = reconvergence_cut(&aig, f.var(), 6);
        assert!(cut.len() <= 6);
    }

    #[test]
    fn reconvergence_shrinks_leaf_count() {
        // f = (a&b) & (a&c): expanding both fanins reconverges on a.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let ac = aig.and(a, c);
        let f = aig.and(ab, ac);
        aig.add_output(f);
        let cut = reconvergence_cut(&aig, f.var(), 8);
        let mut want = vec![a.var(), b.var(), c.var()];
        want.sort_unstable();
        assert_eq!(cut, want);
    }

    #[test]
    fn volume_is_topological_and_excludes_leaves() {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..4).map(|_| aig.add_input()).collect();
        let x = aig.and(ins[0], ins[1]);
        let y = aig.and(ins[2], ins[3]);
        let z = aig.and(x, y);
        aig.add_output(z);
        let leaves: Vec<Var> = ins.iter().map(|l| l.var()).collect();
        let mut window = Window::new(aig.num_nodes());
        window.load(&aig, z.var(), &leaves);
        assert_eq!(window.volume(), &[x.var(), y.var(), z.var()]);
        // Reloading a sub-window reuses the buffers.
        window.load(&aig, x.var(), &leaves[..2]);
        assert_eq!(window.volume(), &[x.var()]);
        assert_eq!(window.table(x.var()), Tt8::var(0).and(Tt8::var(1)));
    }
}
