//! Windowed resubstitution (ABC `resub` / `resub -z`).
//!
//! For every node `n`, a reconvergence-driven window of at most 8 leaves is
//! computed. The exact truth tables (with respect to the window leaves) of
//! every node inside the window are derived; a *divisor* is a window node
//! outside the MFFC of `n`. The pass replaces `n` by:
//!
//! - **resub-0**: a single divisor equal (or complement-equal) to `n`, or
//! - **resub-1**: a one-gate combination `g(d1, d2)` with
//!   `g ∈ {AND, OR with any input phases, XOR}` of two divisors,
//!
//! whenever the replacement's cost is smaller than the MFFC it frees
//! (or equal, for the `-z` variant). Because divisor equality is checked on
//! *exact* window truth tables — both functions of the same leaves — every
//! accepted substitution is functionally sound by construction, no SAT call
//! needed.
//!
//! # Pair search
//!
//! resub-1 tries divisor pairs `(i, j)`, `i < j`, in lexicographic order
//! and takes the first whose gate pays. An AND of two divisors (in some
//! phases) can equal the target, or its complement, only if both divisors
//! host the target in the same phase: each contains or excludes the
//! target's on-set, or each contains or excludes its off-set. An XOR can
//! only if the two tables XOR to the target up to complement. Every other
//! pair fails [`match_gate`], so it is never visited: a [`PairFilter`]
//! holds the two host classes as `u64` bitmasks (there are at most
//! [`MAX_DIVISORS`] divisors) and every table up to complement in a
//! sorted list, so the admitted partners of `i` are two mask reads plus
//! one binary search, and they come out in ascending `j`. The visited
//! sequence is exactly what the all-pairs filter would admit, so the
//! output does not depend on this.

use crate::aig::{Aig, Lit, Var};
use crate::mffc::mffc_nodes;
use crate::passes::window::Window;
use crate::truth::Tt8;

/// Maximum window width.
const MAX_LEAVES: usize = 8;
/// Maximum number of divisors considered per node.
const MAX_DIVISORS: usize = 48;
const _: () = assert!(MAX_DIVISORS <= 64, "a divisor set must fit a u64 mask");

/// Resubstitutes nodes of the AIG; `zero_cost` enables `-z` semantics.
pub fn resub(aig: &Aig, zero_cost: bool) -> Aig {
    let mut refs = aig.fanout_counts();
    let mut window = Window::new(aig.num_nodes());
    // Per-node buffers, reused from node to node.
    let mut divisors: Vec<(Var, Tt8)> = Vec::with_capacity(MAX_DIVISORS);
    let mut pairs = PairFilter::default();
    let mut in_mffc: Vec<Var> = Vec::new();
    // `mffc_root[w] == v` iff `w` is in the MFFC of the current node `v`
    // (no AND node is 0, so the initial value marks nothing).
    let mut mffc_root: Vec<Var> = vec![0; aig.num_nodes()];
    let mut new = Aig::with_capacity(aig.num_nodes());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_inputs() {
        map[aig.inputs()[i] as usize] = new.add_named_input(aig.input_name(i).to_string());
    }

    for v in aig.iter_ands() {
        let (a, b) = aig.and_fanins(v).expect("iterating ANDs");
        let fa = map[a.var() as usize].xor_complement(a.is_complement());
        let fb = map[b.var() as usize].xor_complement(b.is_complement());
        let default = new.and(fa, fb);
        map[v as usize] = default;

        let leaves = window.reconvergence_cut(aig, &[v], MAX_LEAVES);
        if leaves.len() < 2 {
            continue;
        }
        // The MFFC always holds `v` itself, so the credit is positive.
        mffc_nodes(aig, v, &leaves, &mut refs, &mut in_mffc);
        let credit = in_mffc.len() as isize;
        for &w in &in_mffc {
            mffc_root[w as usize] = v;
        }

        // One simulation of the window gives the target's table and every
        // divisor's, all as functions of the same leaves.
        window.load(aig, &[v], &leaves);
        let target_tt = window.table(v);

        // Divisors: the leaves themselves, then window nodes outside the
        // MFFC of v (which holds v), in topological order.
        divisors.clear();
        divisors.extend(leaves.iter().map(|&l| (l, window.table(l))));
        for &w in window.volume() {
            if mffc_root[w as usize] == v {
                continue;
            }
            divisors.push((w, window.table(w)));
            if divisors.len() >= MAX_DIVISORS {
                break;
            }
        }

        // resub-0: a free replacement.
        let mut chosen: Option<(isize, Lit)> = None;
        for &(d, tt) in &divisors {
            let dl = map[d as usize];
            if tt == target_tt {
                chosen = Some((credit, dl));
                break;
            }
            if tt.not() == target_tt {
                chosen = Some((credit, !dl));
                break;
            }
        }

        // resub-1: one new gate from two divisors, tried only on the
        // pairs the filter admits (see the module docs).
        if chosen.is_none() && (credit >= 2 || zero_cost) {
            pairs.load(&divisors, target_tt);
            'outer: for (i, &(d1, t1)) in divisors.iter().enumerate() {
                let mut partners = pairs.partners(i);
                while partners != 0 {
                    let j = partners.trailing_zeros() as usize;
                    partners &= partners - 1;
                    let (d2, t2) = divisors[j];
                    if let Some(build) = match_gate(t1, t2, target_tt) {
                        let l1 = map[d1 as usize];
                        let l2 = map[d2 as usize];
                        let cp = new.checkpoint();
                        let lit = build.construct(&mut new, l1, l2);
                        let added = (new.checkpoint() - cp) as isize;
                        let gain = credit - added;
                        if gain > 0 || (zero_cost && gain == 0 && lit != default) {
                            chosen = Some((gain, lit));
                            break 'outer;
                        }
                        new.rollback(cp);
                    }
                }
            }
        }

        if let Some((_, lit)) = chosen {
            map[v as usize] = lit;
        }
    }

    for (i, out) in aig.outputs().iter().enumerate() {
        let lit = map[out.var() as usize].xor_complement(out.is_complement());
        new.add_named_output(lit, aig.output_name(i).to_string());
    }
    new.compact()
}

/// The divisor pairs resub-1 may try for one target: those that can pass
/// [`match_gate`] (see the module docs). Its buffers are reused from node
/// to node.
#[derive(Default)]
struct PairFilter {
    /// Bit `j` is set iff divisor `j` contains or excludes the target.
    hosts_on: u64,
    /// Bit `j` is set iff divisor `j` contains or excludes the target's
    /// complement.
    hosts_off: u64,
    /// Per divisor, its table XOR the target, up to complement.
    xor_keys: Vec<[u64; 4]>,
    /// `(table up to complement, j)` for every divisor `j`, sorted.
    classes: Vec<([u64; 4], usize)>,
}

/// `t` up to complement: one key for `t` and `!t`.
fn up_to_complement(t: Tt8) -> [u64; 4] {
    t.0.min(t.not().0)
}

impl PairFilter {
    /// Loads the divisor tables of one node and its target.
    fn load(&mut self, divisors: &[(Var, Tt8)], target: Tt8) {
        debug_assert!(divisors.len() <= MAX_DIVISORS);
        let hosts = |t: Tt8, f: Tt8| f.and(t.not()).is_zero() || f.and(t).is_zero();
        self.hosts_on = 0;
        self.hosts_off = 0;
        self.xor_keys.clear();
        self.classes.clear();
        for (j, &(_, t)) in divisors.iter().enumerate() {
            self.hosts_on |= (hosts(t, target) as u64) << j;
            self.hosts_off |= (hosts(t, target.not()) as u64) << j;
            self.xor_keys.push(up_to_complement(t.xor(target)));
            self.classes.push((up_to_complement(t), j));
        }
        self.classes.sort_unstable();
    }

    /// The admitted partners `j > i` of divisor `i`, as a bitmask.
    fn partners(&self, i: usize) -> u64 {
        let bit = 1u64 << i;
        let mut mask = 0;
        if self.hosts_on & bit != 0 {
            mask |= self.hosts_on;
        }
        if self.hosts_off & bit != 0 {
            mask |= self.hosts_off;
        }
        let key = self.xor_keys[i];
        let first = self.classes.partition_point(|&(k, _)| k < key);
        for &(_, j) in self.classes[first..].iter().take_while(|&&(k, _)| k == key) {
            mask |= 1 << j;
        }
        mask & !((bit << 1) - 1)
    }
}

/// A two-divisor gate that realises the target function.
#[derive(Clone, Copy, Debug)]
enum GateMatch {
    And { c1: bool, c2: bool, cout: bool },
    Xor { cout: bool },
}

impl GateMatch {
    fn construct(self, aig: &mut Aig, l1: Lit, l2: Lit) -> Lit {
        match self {
            GateMatch::And { c1, c2, cout } => {
                let lit = aig.and(l1.xor_complement(c1), l2.xor_complement(c2));
                lit.xor_complement(cout)
            }
            GateMatch::Xor { cout } => {
                let lit = aig.xor(l1, l2);
                lit.xor_complement(cout)
            }
        }
    }
}

/// Finds a single-gate combination of `t1` and `t2` equal to `target`, if
/// any. AND with all phase combinations covers OR/NOR/NAND/ANDNOT via
/// De Morgan; XOR covers XNOR via the output phase.
fn match_gate(t1: Tt8, t2: Tt8, target: Tt8) -> Option<GateMatch> {
    for c1 in [false, true] {
        for c2 in [false, true] {
            let g = t1.xor_complement(c1).and(t2.xor_complement(c2));
            if g == target {
                return Some(GateMatch::And {
                    c1,
                    c2,
                    cout: false,
                });
            }
            if g.not() == target {
                return Some(GateMatch::And { c1, c2, cout: true });
            }
        }
    }
    let x = t1.xor(t2);
    if x == target {
        return Some(GateMatch::Xor { cout: false });
    }
    if x.not() == target {
        return Some(GateMatch::Xor { cout: true });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tests::random_aig;
    use crate::sim::probably_equivalent;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The all-pairs scan [`PairFilter`] replaced, kept as its reference:
    /// every `(i, j)` it admits, in the order it tries them.
    fn all_pairs_admitted(divisors: &[(Var, Tt8)], target: Tt8) -> Vec<(usize, usize)> {
        let contains = |t: Tt8, f: Tt8| f.and(t.not()).is_zero() || f.and(t).is_zero();
        let hosts: Vec<(bool, bool)> = divisors
            .iter()
            .map(|&(_, t)| (contains(t, target), contains(t, target.not())))
            .collect();
        let mut admitted = Vec::new();
        for i in 0..divisors.len() {
            for j in (i + 1)..divisors.len() {
                let x = divisors[i].1.xor(divisors[j].1).xor(target);
                let may_and = (hosts[i].0 && hosts[j].0) || (hosts[i].1 && hosts[j].1);
                if !may_and && !x.is_zero() && !x.is_one() {
                    continue;
                }
                admitted.push((i, j));
            }
        }
        admitted
    }

    /// A random 8-variable function: the root of a random AND/INV
    /// expression.
    fn random_expr(rng: &mut StdRng) -> Tt8 {
        let mut t = Tt8::var(rng.random_range(0..8usize));
        for _ in 0..rng.random_range(0..6) {
            let v = Tt8::var(rng.random_range(0..8usize)).xor_complement(rng.random());
            t = t.xor_complement(rng.random()).and(v);
        }
        t
    }

    /// A random divisor set for `target` mixing unrelated tables, both
    /// host classes (tables containing or excluding the target or its
    /// complement), XOR and complemented-XOR partners of earlier
    /// divisors, and repeated tables.
    fn random_divisors(rng: &mut StdRng, target: Tt8) -> Vec<(Var, Tt8)> {
        let len = rng.random_range(2..=MAX_DIVISORS);
        let mut divisors: Vec<(Var, Tt8)> = Vec::with_capacity(len);
        for d in 0..len {
            let r = random_expr(rng);
            let earlier = divisors
                .get(rng.random_range(0..d.max(1)))
                .map_or(r, |&(_, t)| t);
            let t = match rng.random_range(0..8) {
                0 => target.or(r),
                1 => target.not().and(r),
                2 => target.not().or(r),
                3 => target.and(r),
                4 => earlier.xor(target),
                5 => earlier.xor(target).not(),
                6 => earlier.xor_complement(rng.random()),
                _ => r,
            };
            divisors.push((d as Var + 1, t));
        }
        divisors
    }

    #[test]
    fn filtered_pairs_follow_the_all_pairs_order() {
        let mut rng = StdRng::seed_from_u64(0x5e5b);
        let mut filter = PairFilter::default();
        let mut admitted_total = 0;
        for _ in 0..400 {
            let target = random_expr(&mut rng);
            let divisors = random_divisors(&mut rng, target);
            filter.load(&divisors, target);
            let mut visited = Vec::new();
            for i in 0..divisors.len() {
                let mut partners = filter.partners(i);
                while partners != 0 {
                    visited.push((i, partners.trailing_zeros() as usize));
                    partners &= partners - 1;
                }
            }
            let want = all_pairs_admitted(&divisors, target);
            assert_eq!(visited, want);
            admitted_total += want.len();
            // The filter is exact for the gate search: a pair it drops
            // cannot be matched.
            for i in 0..divisors.len() {
                for j in (i + 1)..divisors.len() {
                    if !want.contains(&(i, j)) {
                        assert!(match_gate(divisors[i].1, divisors[j].1, target).is_none());
                    }
                }
            }
        }
        assert!(admitted_total > 1000, "the sets must exercise the filter");
    }

    #[test]
    fn resub_preserves_function() {
        for seed in 0..6 {
            let aig = random_aig(8, 80, seed + 500);
            let out = resub(&aig, false);
            assert!(
                probably_equivalent(&aig, &out, 16, seed),
                "seed {seed}: resub broke equivalence"
            );
        }
    }

    #[test]
    fn resub_z_preserves_function() {
        for seed in 0..4 {
            let aig = random_aig(8, 80, seed + 600);
            let out = resub(&aig, true);
            assert!(probably_equivalent(&aig, &out, 16, seed));
        }
    }

    #[test]
    fn resub_finds_existing_divisor() {
        // g = a&b exists; f rebuilt redundantly as (a&b&c) | (a&b&!c) == g.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let g = aig.and(a, b);
        let f1 = aig.and(g, c);
        let g2 = aig.and(a, b);
        let f2 = aig.and(g2, !c);
        let f = aig.or(f1, f2);
        aig.add_output(g);
        aig.add_output(f);
        let out = resub(&aig, false);
        assert!(probably_equivalent(&aig, &out, 8, 2));
        assert!(
            out.num_ands() <= 2,
            "f should collapse onto g: {} ANDs left",
            out.num_ands()
        );
    }

    #[test]
    fn match_gate_covers_basic_functions() {
        let t1 = Tt8::var(0);
        let t2 = Tt8::var(1);
        let and = t1.and(t2);
        let or = t1.or(t2);
        let xor = t1.xor(t2);
        assert!(match_gate(t1, t2, and).is_some());
        assert!(match_gate(t1, t2, or).is_some());
        assert!(match_gate(t1, t2, xor).is_some());
        assert!(match_gate(t1, t2, and.not()).is_some());
        // A function not expressible by one gate of t1,t2.
        assert!(match_gate(t1, t2, t1).is_none());
    }
}
