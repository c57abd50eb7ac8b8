//! Reconvergence-driven cut growth and the window kernel, shared by
//! `refactor`, `resub` and the fraig sweep.
//!
//! A window is grown for a *root set*: `refactor` and `resub` pass one
//! node, the sweep a candidate pair, whose shared cut lets one
//! simulation compare the two nodes as functions of the same leaves.

use crate::aig::{Aig, Var};
use crate::truth::Tt8;
use std::ops::Deref;

/// Most leaves a window may have (its tables are [`Tt8`]s).
pub const MAX_WINDOW_LEAVES: usize = 8;

/// The sorted leaves of a reconvergence-driven cut, held inline (unused
/// slots are 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowLeaves {
    vars: [Var; MAX_WINDOW_LEAVES],
    len: usize,
}

impl WindowLeaves {
    fn push(&mut self, v: Var) {
        self.vars[self.len] = v;
        self.len += 1;
    }

    fn swap_remove(&mut self, i: usize) -> Var {
        let v = self.vars[i];
        self.len -= 1;
        self.vars[i] = self.vars[self.len];
        self.vars[self.len] = 0;
        v
    }
}

impl Deref for WindowLeaves {
    type Target = [Var];

    fn deref(&self) -> &[Var] {
        &self.vars[..self.len]
    }
}

/// The window kernel shared by `refactor`, `resub` and the fraig sweep:
/// grows a reconvergence-driven cut of a root set, collects the cut's
/// interior "volume" and simulates it into 8-variable truth tables,
/// reusing its buffers from one window to the next. The buffers grow
/// with the graph, so one window serves a graph that is still being
/// built.
///
/// Leaf membership is one array read: `stamp[v] == epoch` iff `v` is a
/// leaf of the cut being grown or, during [`Window::load`], a leaf or an
/// already collected volume node. Each cut and each load starts a new
/// epoch (from 1), so no stamp is cleared between windows; an expanded
/// leaf's stamp is reset to 0, which no epoch equals.
pub struct Window {
    stamp: Vec<u32>,
    epoch: u32,
    volume: Vec<Var>,
    /// Per-node tables, valid for the current leaves and volume.
    tables: Vec<Tt8>,
}

impl Window {
    /// An empty window over a graph of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Window {
            stamp: vec![0; num_nodes],
            epoch: 0,
            volume: Vec::new(),
            tables: vec![Tt8::ZERO; num_nodes],
        }
    }

    /// Starts a new epoch, so no node carries a current stamp.
    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// Sizes the per-node buffers for `aig` (new nodes carry no stamp).
    fn fit(&mut self, aig: &Aig) {
        if self.stamp.len() < aig.num_nodes() {
            self.stamp.resize(aig.num_nodes(), 0);
            self.tables.resize(aig.num_nodes(), Tt8::ZERO);
        }
    }

    /// Grows a reconvergence-driven cut of the nodes `roots` with at most
    /// `max_leaves` leaves.
    ///
    /// Starting from the fanins of the roots, in root order, the leaf
    /// whose expansion increases the leaf count least (reconvergent leaves
    /// may even *decrease* it) is expanded repeatedly until no expansion
    /// fits within `max_leaves`; ties go to the first such leaf in the
    /// working order, which an expansion changes by moving the last leaf
    /// into the expanded one's place. A root in the cone of another root
    /// may itself end up a leaf.
    ///
    /// Returns the sorted leaf variables. An expansion never takes the cut
    /// past `max_leaves`, so the leaves fit inline and nothing is
    /// allocated.
    ///
    /// # Panics
    ///
    /// Panics if a root is not an AND node, `max_leaves` exceeds
    /// [`MAX_WINDOW_LEAVES`], or the roots' fanins alone do.
    pub fn reconvergence_cut(
        &mut self,
        aig: &Aig,
        roots: &[Var],
        max_leaves: usize,
    ) -> WindowLeaves {
        assert!(
            max_leaves <= MAX_WINDOW_LEAVES,
            "a window has at most {MAX_WINDOW_LEAVES} leaves"
        );
        self.fit(aig);
        let epoch = self.next_epoch();
        let mut leaves = WindowLeaves {
            vars: [0; MAX_WINDOW_LEAVES],
            len: 0,
        };
        for &root in roots {
            let (a, b) = aig
                .and_fanins(root)
                .expect("reconvergence cut roots must be AND nodes");
            for f in [a.var(), b.var()] {
                if self.stamp[f as usize] != epoch {
                    self.stamp[f as usize] = epoch;
                    leaves.push(f);
                }
            }
        }

        loop {
            let mut best: Option<(isize, usize)> = None; // (cost, leaf index)
            for (i, &leaf) in leaves.iter().enumerate() {
                let Some((fa, fb)) = aig.and_fanins(leaf) else {
                    continue; // inputs / constant cannot be expanded
                };
                let mut added = 0isize;
                for f in [fa.var(), fb.var()] {
                    if self.stamp[f as usize] != epoch {
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
            self.stamp[leaf as usize] = 0;
            let (fa, fb) = aig.and_fanins(leaf).expect("expandable leaf is an AND");
            for f in [fa.var(), fb.var()] {
                if self.stamp[f as usize] != epoch {
                    self.stamp[f as usize] = epoch;
                    leaves.push(f);
                }
            }
        }
        leaves.vars[..leaves.len].sort_unstable();
        leaves
    }

    /// Loads the window of `roots` over `leaves` (a cut of the roots, at
    /// most 8 nodes): the volume is every node on a path from the leaves
    /// to a root, including each root that is not itself a leaf and
    /// excluding the leaves, and each
    /// of those nodes gets its table as a function of the leaves (leaf `i`
    /// is variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` has more than 8 entries.
    pub fn load(&mut self, aig: &Aig, roots: &[Var], leaves: &[Var]) {
        self.fit(aig);
        let epoch = self.next_epoch();
        self.volume.clear();
        for &leaf in leaves {
            self.stamp[leaf as usize] = epoch;
        }
        for &root in roots {
            self.collect(aig, root);
        }
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
    /// fanin 1 before the node), stopping at stamped nodes: the leaves and
    /// the volume collected so far.
    fn collect(&mut self, aig: &Aig, v: Var) {
        if self.stamp[v as usize] == self.epoch {
            return;
        }
        let Some((a, b)) = aig.and_fanins(v) else {
            debug_assert_eq!(v, 0, "leaves must cut every input of the cone");
            return;
        };
        self.stamp[v as usize] = self.epoch;
        self.collect(aig, a.var());
        self.collect(aig, b.var());
        self.volume.push(v);
    }

    /// The volume of the loaded window, in topological order (with one
    /// root, the root is last).
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
        let cut = Window::new(aig.num_nodes()).reconvergence_cut(&aig, &[z.var()], 8);
        let mut want: Vec<Var> = ins.iter().map(|l| l.var()).collect();
        want.sort_unstable();
        assert_eq!(&cut[..], &want[..]);
    }

    #[test]
    fn cut_respects_limit() {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..16).map(|_| aig.add_input()).collect();
        let f = aig.and_many(&ins);
        aig.add_output(f);
        let cut = Window::new(aig.num_nodes()).reconvergence_cut(&aig, &[f.var()], 6);
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
        let cut = Window::new(aig.num_nodes()).reconvergence_cut(&aig, &[f.var()], 8);
        let mut want = [a.var(), b.var(), c.var()];
        want.sort_unstable();
        assert_eq!(&cut[..], &want[..]);
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
        window.load(&aig, &[z.var()], &leaves);
        assert_eq!(window.volume(), &[x.var(), y.var(), z.var()]);
        // Reloading a sub-window reuses the buffers.
        window.load(&aig, &[x.var()], &leaves[..2]);
        assert_eq!(window.volume(), &[x.var()]);
        assert_eq!(window.table(x.var()), Tt8::var(0).and(Tt8::var(1)));
    }
}
