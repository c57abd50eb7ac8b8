//! K-feasible cut enumeration.
//!
//! A *cut* of node `n` is a set of nodes (leaves) such that every path from
//! the inputs to `n` passes through a leaf. Cuts of at most [`K`] leaves are
//! enumerated bottom-up by merging the fanin cut sets, with dominance
//! filtering and a per-node cap — the classical priority-cuts algorithm used
//! by ABC's rewriting and technology mapping.
//!
//! Every cut carries its function: a 16-bit truth table over its leaves,
//! derived during the merge from the fanin cuts' tables, so consumers never
//! re-simulate a cone. [`cut_function`] recomputes a cone's table from the
//! graph and stays as the differential reference.

use crate::aig::{Aig, NodeKind, Var};
use crate::truth::Tt;

/// Maximum number of leaves of an enumerated cut.
pub const K: usize = 4;

/// The projection table of leaf 0 in a 4-variable truth table.
const VAR0: u16 = 0xAAAA;

/// A single cut: a sorted set of at most [`K`] leaf variables, together with
/// the function of its root over them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    leaves: [Var; K],
    size: u8,
    truth: u16,
    signature: u64,
}

impl Cut {
    /// The trivial cut of a node: the node itself.
    pub fn trivial(var: Var) -> Self {
        Cut {
            leaves: [var, 0, 0, 0],
            size: 1,
            truth: VAR0,
            signature: 1 << (var % 64),
        }
    }

    /// The sorted leaf variables.
    pub fn leaves(&self) -> &[Var] {
        &self.leaves[..self.size as usize]
    }

    /// Number of leaves.
    pub fn size(&self) -> usize {
        self.size as usize
    }

    /// The root's function as a 4-variable truth table: leaf `i` is
    /// variable `i`, and the table does not depend on variables
    /// `size()..4`.
    pub fn truth(&self) -> u16 {
        self.truth
    }

    /// The root's function over exactly [`Cut::size`] variables.
    pub fn function(&self) -> Tt {
        Tt::from_u64(self.size(), self.truth as u64)
    }

    /// Merges the leaf sets of two cuts; returns `None` if the union exceeds
    /// [`K`] leaves. The merged cut's truth table is not yet known: the
    /// caller sets it with [`Cut::with_and_truth`].
    fn merge(&self, other: &Cut) -> Option<Cut> {
        // Quick reject: distinct signature bits are a lower bound on the
        // union size (hash collisions only make the bound smaller).
        let signature = self.signature | other.signature;
        if signature.count_ones() as usize > K {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut leaves = [0; K];
        let mut size = 0;
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = if j == b.len() || (i < a.len() && a[i] < b[j]) {
                i += 1;
                a[i - 1]
            } else {
                if i < a.len() && a[i] == b[j] {
                    i += 1;
                }
                j += 1;
                b[j - 1]
            };
            if size == K {
                return None;
            }
            leaves[size] = next;
            size += 1;
        }
        Some(Cut {
            leaves,
            size: size as u8,
            truth: VAR0,
            signature,
        })
    }

    /// Returns true if `self`'s leaves are a subset of `other`'s (then
    /// `other` is dominated and can be discarded).
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.size > other.size {
            return false;
        }
        if self.signature & !other.signature != 0 {
            return false;
        }
        self.leaves()
            .iter()
            .all(|l| other.leaves().binary_search(l).is_ok())
    }

    /// This cut's table re-expressed over the leaves of `wider`, a superset
    /// of this cut's leaves.
    fn truth_over(&self, wider: &Cut) -> u16 {
        if self.leaves() == wider.leaves() {
            return self.truth;
        }
        // Position of each of this cut's leaves among the wider leaves.
        let mut pos = [0usize; K];
        let mut p = 0;
        for (i, &l) in self.leaves().iter().enumerate() {
            while wider.leaves[p] != l {
                p += 1;
            }
            pos[i] = p;
        }
        let mut out = 0u16;
        for row in 0..16 {
            let mut src = 0;
            for (i, &p) in pos[..self.size()].iter().enumerate() {
                src |= (row >> p & 1) << i;
            }
            out |= (self.truth >> src & 1) << row;
        }
        out
    }

    /// Sets the truth table of `self`, a merge of fanin cuts `x` and `y`,
    /// as the AND of their (optionally complemented) functions.
    fn with_and_truth(mut self, x: (&Cut, bool), y: (&Cut, bool)) -> Cut {
        let tx = x.0.truth_over(&self) ^ if x.1 { u16::MAX } else { 0 };
        let ty = y.0.truth_over(&self) ^ if y.1 { u16::MAX } else { 0 };
        self.truth = tx & ty;
        self
    }
}

/// Per-node cut sets for an entire AIG.
#[derive(Debug)]
pub struct CutSet {
    cuts: Vec<Vec<Cut>>,
}

/// Configuration for cut enumeration.
#[derive(Clone, Copy, Debug)]
pub struct CutConfig {
    /// Maximum cuts kept per node (the trivial cut does not count).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig { max_cuts: 8 }
    }
}

impl CutSet {
    /// Enumerates cuts (with their truth tables) for every node of `aig`.
    pub fn compute(aig: &Aig, config: CutConfig) -> Self {
        let mut cuts: Vec<Vec<Cut>> = Vec::with_capacity(aig.num_nodes());
        for v in aig.iter_vars() {
            let node_cuts = match aig.node(v) {
                NodeKind::Const0 | NodeKind::Input(_) => vec![Cut::trivial(v)],
                NodeKind::And(a, b) => {
                    let (ca, cb) = (a.is_complement(), b.is_complement());
                    let mut new_cuts: Vec<Cut> = Vec::new();
                    for x in &cuts[a.var() as usize] {
                        for y in &cuts[b.var() as usize] {
                            if let Some(m) = x.merge(y) {
                                if !new_cuts.iter().any(|c| c.dominates(&m)) {
                                    new_cuts.retain(|c| !m.dominates(c));
                                    new_cuts.push(m.with_and_truth((x, ca), (y, cb)));
                                }
                            }
                        }
                    }
                    // Prefer smaller cuts when trimming to the cap.
                    new_cuts.sort_by_key(Cut::size);
                    new_cuts.truncate(config.max_cuts);
                    // The structural fanin cut must always survive: the
                    // technology mapper and rewriting rely on every node
                    // having at least one matchable cut.
                    let (ta, tb) = (Cut::trivial(a.var()), Cut::trivial(b.var()));
                    let fanin_cut = ta.merge(&tb).expect("two leaves always fit");
                    if !new_cuts.iter().any(|c| c.leaves() == fanin_cut.leaves()) {
                        new_cuts.push(fanin_cut.with_and_truth((&ta, ca), (&tb, cb)));
                    }
                    new_cuts.push(Cut::trivial(v));
                    new_cuts
                }
            };
            cuts.push(node_cuts);
        }
        CutSet { cuts }
    }

    /// The cuts of node `var` (the last entry is the trivial cut).
    pub fn cuts_of(&self, var: Var) -> &[Cut] {
        &self.cuts[var as usize]
    }
}

/// Computes the truth table of `root` as a function of the cut `leaves`
/// by simulating its cone.
///
/// Leaf `i` becomes variable `i` of the table. All interior nodes must be
/// AND nodes. This is the reference the cut and window kernels are checked
/// against.
///
/// # Panics
///
/// Panics if `leaves` is not a cut of `root` or has more than 16 entries.
pub fn cut_function(aig: &Aig, root: Var, leaves: &[Var]) -> Tt {
    let nvars = leaves.len();
    let mut memo: std::collections::HashMap<Var, Tt> = std::collections::HashMap::new();
    memo.insert(0, Tt::zero(nvars));
    for (i, &leaf) in leaves.iter().enumerate() {
        memo.insert(leaf, Tt::var(i, nvars));
    }
    fn go(aig: &Aig, v: Var, memo: &mut std::collections::HashMap<Var, Tt>) -> Tt {
        if let Some(t) = memo.get(&v) {
            return t.clone();
        }
        match aig.node(v) {
            NodeKind::And(a, b) => {
                let mut ta = go(aig, a.var(), memo);
                let mut tb = go(aig, b.var(), memo);
                if a.is_complement() {
                    ta = ta.not();
                }
                if b.is_complement() {
                    tb = tb.not();
                }
                let t = ta.and(&tb);
                memo.insert(v, t.clone());
                t
            }
            _ => panic!("cut does not cover node {v}"),
        }
    }
    go(aig, root, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;

    fn cut_of(leaves: &[Var]) -> Cut {
        leaves[1..].iter().fold(Cut::trivial(leaves[0]), |c, &l| {
            c.merge(&Cut::trivial(l)).expect("fits")
        })
    }

    #[test]
    fn merge_respects_limit() {
        let a = Cut::trivial(1);
        let b = Cut::trivial(2);
        let ab = a.merge(&b).expect("fits");
        assert_eq!(ab.leaves(), &[1, 2]);
        let c = cut_of(&[3, 4, 5]);
        assert!(ab.merge(&c).is_none());
        assert_eq!(
            ab.merge(&cut_of(&[2, 3])).expect("fits").leaves(),
            &[1, 2, 3]
        );
    }

    #[test]
    fn dominance() {
        let small = cut_of(&[1, 2]);
        let big = cut_of(&[1, 2, 3]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small.clone()));
    }

    #[test]
    fn cut_enumeration_finds_mux_cut() {
        let mut aig = Aig::new();
        let s = aig.add_input();
        let t = aig.add_input();
        let e = aig.add_input();
        let m = aig.mux(s, t, e);
        aig.add_output(m);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        let root_cuts = cuts.cuts_of(m.var());
        // Some cut must be exactly the three inputs.
        let want: Vec<Var> = {
            let mut v = vec![s.var(), t.var(), e.var()];
            v.sort_unstable();
            v
        };
        assert!(
            root_cuts.iter().any(|c| c.leaves() == want.as_slice()),
            "cuts: {root_cuts:?}"
        );
    }

    #[test]
    fn cut_function_matches_semantics() {
        let mut aig = Aig::new();
        let s = aig.add_input();
        let t = aig.add_input();
        let e = aig.add_input();
        let m = aig.mux(s, t, e);
        aig.add_output(m);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        let want: Vec<Var> = {
            let mut v = vec![s.var(), t.var(), e.var()];
            v.sort_unstable();
            v
        };
        let cut = cuts
            .cuts_of(m.var())
            .iter()
            .find(|c| c.leaves() == want.as_slice())
            .expect("input cut exists");
        let tt = cut_function(&aig, m.var(), cut.leaves());
        // The carried table agrees with the reference.
        assert_eq!(cut.function(), tt);
        // Cut leaves are sorted by var; inputs were created in order s,t,e so
        // leaf order is (s,t,e) -> vars (0,1,2) of the table. cut_function
        // computes the function of the *node*, so complement through the
        // root literal's phase.
        for idx in 0..8usize {
            let vs = (idx & 1) != 0;
            let vt = (idx & 2) != 0;
            let ve = (idx & 4) != 0;
            let expect = (if vs { vt } else { ve }) ^ m.is_complement();
            assert_eq!(tt.get_bit(idx), expect, "idx={idx}");
        }
    }

    #[test]
    fn trivial_cut_function_is_projection() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        let triv = cuts.cuts_of(f.var()).last().expect("has trivial");
        assert_eq!(triv.leaves(), &[f.var()]);
        let tt = cut_function(&aig, f.var(), triv.leaves());
        assert_eq!(tt, Tt::var(0, 1));
        assert_eq!(triv.function(), tt);
    }
}
