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

use crate::aig::{Aig, Lit, Var};
use crate::mffc::mffc_nodes;
use crate::passes::window::{reconvergence_cut, Window};
use crate::truth::Tt8;

/// Maximum window width.
const MAX_LEAVES: usize = 8;
/// Maximum number of divisors considered per node.
const MAX_DIVISORS: usize = 48;

/// Resubstitutes nodes of the AIG; `zero_cost` enables `-z` semantics.
pub fn resub(aig: &Aig, zero_cost: bool) -> Aig {
    let mut refs = aig.fanout_counts();
    let mut window = Window::new(aig.num_nodes());
    // Per-node buffers, reused from node to node.
    let mut divisors: Vec<(Var, Tt8)> = Vec::with_capacity(MAX_DIVISORS);
    let mut hosts: Vec<(bool, bool)> = Vec::with_capacity(MAX_DIVISORS);
    let mut in_mffc: Vec<Var> = Vec::new();
    let mut new = Aig::new();
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

        let leaves = reconvergence_cut(aig, v, MAX_LEAVES);
        if leaves.len() < 2 {
            continue;
        }
        // The MFFC always holds `v` itself, so the credit is positive.
        mffc_nodes(aig, v, &leaves, &mut refs, &mut in_mffc);
        let credit = in_mffc.len() as isize;

        // One simulation of the window gives the target's table and every
        // divisor's, all as functions of the same leaves.
        window.load(aig, v, &leaves);
        let target_tt = window.table(v);

        // Divisors: the leaves themselves, then window nodes outside the
        // MFFC of v, in topological order.
        divisors.clear();
        divisors.extend(leaves.iter().map(|&l| (l, window.table(l))));
        for &w in window.volume() {
            if w == v || in_mffc.contains(&w) {
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

        // resub-1: one new gate from two divisors.
        if chosen.is_none() && (credit >= 2 || zero_cost) {
            // An AND of two divisors (in some phases) can only equal the
            // target, or its complement, if each divisor contains it in
            // some phase: pairs failing that and the XOR test are skipped
            // without trying the gate.
            let contains = |t: Tt8, f: Tt8| f.and(t.not()).is_zero() || f.and(t).is_zero();
            hosts.clear();
            hosts.extend(
                divisors
                    .iter()
                    .map(|&(_, t)| (contains(t, target_tt), contains(t, target_tt.not()))),
            );
            'outer: for i in 0..divisors.len() {
                for j in (i + 1)..divisors.len() {
                    let (d1, t1) = divisors[i];
                    let (d2, t2) = divisors[j];
                    let x = t1.xor(t2).xor(target_tt);
                    let may_and = (hosts[i].0 && hosts[j].0) || (hosts[i].1 && hosts[j].1);
                    if !may_and && !x.is_zero() && !x.is_one() {
                        continue;
                    }
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
