//! Tseitin encoding of AIGs into CNF: the one place the workspace writes
//! an AND gate's clauses.
//!
//! An AND node `v = a ∧ b` becomes the three clauses
//! `(¬v ∨ a) (¬v ∨ b) (v ∨ ¬a ∨ ¬b)` ([`and_gate`]). Two encoders build
//! on it, both writing into any [`ClauseSink`] (the plain solver or a
//! racing portfolio):
//!
//! - [`encode_cone`] encodes the cone of one literal lazily, memoised
//!   per node in a map the caller keeps ([`cone_memo`]). The fraig sweep
//!   grows one map across all its queries; CEC's residual query and
//!   ATPG encode only the output cones they ask about. Pre-seeding a
//!   node in the map with a constant literal encodes a stuck-at fault.
//! - [`StrashEncoder`] is the structurally hashed form the key miters
//!   use: it maps AIG copies onto caller-given solver literals, folds
//!   constants and reuses the variable of any AND whose fanin literal
//!   pair it has already encoded. Copies that share inputs then share
//!   every gate those inputs alone determine.

use crate::aig::{Aig, Lit, NodeKind};
use crate::hash::FastBuild;
use almost_cdcl::{ClauseSink, SatLit, SatVar};
use std::collections::HashMap;

/// Allocates a fresh variable `out` with the three clauses of
/// `out = a ∧ b`, and returns it.
pub fn and_gate<S: ClauseSink>(sink: &mut S, a: SatLit, b: SatLit) -> SatLit {
    let out = SatLit::positive(sink.new_var());
    sink.add_clause(&[!out, a]);
    sink.add_clause(&[!out, b]);
    sink.add_clause(&[out, !a, !b]);
    out
}

/// Adds an XOR constraint `out = a ⊕ b` and returns `out`.
pub fn encode_xor<S: ClauseSink>(sink: &mut S, a: SatLit, b: SatLit) -> SatLit {
    let out = SatLit::positive(sink.new_var());
    sink.add_clause(&[!out, a, b]);
    sink.add_clause(&[!out, !a, !b]);
    sink.add_clause(&[out, !a, b]);
    sink.add_clause(&[out, a, !b]);
    out
}

/// Allocates a variable fixed false by a unit clause and returns its
/// positive literal: what the constant node encodes to.
pub fn constant_false<S: ClauseSink>(sink: &mut S) -> SatLit {
    let v = sink.new_var();
    sink.add_clause(&[SatLit::negative(v)]);
    SatLit::positive(v)
}

/// A fresh [`encode_cone`] memo for `aig`: the constant node bound to
/// `const_false`, input `i` to `inputs[i]`, every AND unencoded.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the AIG's input count.
pub fn cone_memo(aig: &Aig, const_false: SatLit, inputs: &[SatVar]) -> Vec<Option<SatLit>> {
    assert_eq!(inputs.len(), aig.num_inputs(), "one variable per input");
    let mut memo = vec![None; aig.num_nodes()];
    memo[0] = Some(const_false);
    for (&iv, &sv) in aig.inputs().iter().zip(inputs) {
        memo[iv as usize] = Some(SatLit::positive(sv));
    }
    memo
}

/// Tseitin-encodes the cone of `root` into `sink`, memoised in `memo`
/// (indexed by node; the constant and every input in the cone must be
/// pre-encoded, see [`cone_memo`]). Nodes already in `memo` are not
/// re-encoded, nor is anything below them. Returns the SAT literal of
/// `root`.
///
/// # Panics
///
/// Panics if the cone reaches an input or the constant missing from
/// `memo`.
pub fn encode_cone<S: ClauseSink>(
    sink: &mut S,
    aig: &Aig,
    memo: &mut [Option<SatLit>],
    root: Lit,
) -> SatLit {
    let mut stack = vec![root.var()];
    while let Some(&v) = stack.last() {
        if memo[v as usize].is_some() {
            stack.pop();
            continue;
        }
        let (a, b) = aig
            .and_fanins(v)
            .expect("inputs and the constant are pre-encoded");
        let mut ready = true;
        for child in [a.var(), b.var()] {
            if memo[child as usize].is_none() {
                stack.push(child);
                ready = false;
            }
        }
        if !ready {
            continue;
        }
        stack.pop();
        let out = and_gate(sink, memo_lit(memo, a), memo_lit(memo, b));
        memo[v as usize] = Some(out);
    }
    memo_lit(memo, root)
}

#[inline]
fn memo_lit(memo: &[Option<SatLit>], lit: Lit) -> SatLit {
    with_phase(memo[lit.var() as usize].expect("cone encoded"), lit)
}

/// `s`, complemented when `lit` is.
#[inline]
fn with_phase(s: SatLit, lit: Lit) -> SatLit {
    if lit.is_complement() {
        !s
    } else {
        s
    }
}

/// A hash-consing Tseitin encoder over one solver: the structural hash of
/// [`Aig::and`] lifted to solver literals.
///
/// [`and`](Self::and) folds `a ∧ 0`, `a ∧ 1`, `a ∧ a` and `a ∧ ¬a`, and
/// returns the existing variable when the ordered fanin pair was encoded
/// before; otherwise it emits a fresh [`and_gate`]. Every variable it
/// hands out is therefore fully defined by its fanins, so sharing one
/// between copies, or between a copy and a constant-input residue, leaves
/// the solution set over the caller's input literals unchanged.
#[derive(Debug)]
pub struct StrashEncoder {
    table: HashMap<(SatLit, SatLit), SatLit, FastBuild>,
    const_false: SatLit,
    /// Per-node literals of the copy being encoded (scratch).
    node_lits: Vec<SatLit>,
}

impl StrashEncoder {
    /// Creates an encoder, allocating its constant-false variable in
    /// `sink`.
    pub fn new<S: ClauseSink>(sink: &mut S) -> Self {
        StrashEncoder {
            table: HashMap::default(),
            const_false: constant_false(sink),
            node_lits: Vec::new(),
        }
    }

    /// The literal fixed to `value`.
    pub fn constant(&self, value: bool) -> SatLit {
        if value {
            !self.const_false
        } else {
            self.const_false
        }
    }

    /// Returns a literal equivalent to `a ∧ b`.
    pub fn and<S: ClauseSink>(&mut self, sink: &mut S, a: SatLit, b: SatLit) -> SatLit {
        let f = self.const_false;
        if a == f || b == f || a == !b {
            return f;
        }
        if a == !f {
            return b;
        }
        if b == !f || a == b {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        *self
            .table
            .entry(key)
            .or_insert_with(|| and_gate(sink, a, b))
    }

    /// Encodes `aig` with its inputs bound to `inputs` (constants allowed:
    /// [`constant`](Self::constant)) and returns its output literals.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the AIG's input count.
    pub fn encode<S: ClauseSink>(
        &mut self,
        sink: &mut S,
        aig: &Aig,
        inputs: &[SatLit],
    ) -> Vec<SatLit> {
        assert_eq!(inputs.len(), aig.num_inputs());
        let mut node_lits = std::mem::take(&mut self.node_lits);
        node_lits.clear();
        for v in aig.iter_vars() {
            let lit = match aig.node(v) {
                NodeKind::Const0 => self.const_false,
                NodeKind::Input(i) => inputs[i as usize],
                NodeKind::And(a, b) => {
                    let la = with_phase(node_lits[a.var() as usize], a);
                    let lb = with_phase(node_lits[b.var() as usize], b);
                    self.and(sink, la, lb)
                }
            };
            node_lits.push(lit);
        }
        let outputs = aig
            .outputs()
            .iter()
            .map(|&l| with_phase(node_lits[l.var() as usize], l))
            .collect();
        self.node_lits = node_lits;
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_cdcl::{SatResult, Solver};

    fn build_xor() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.xor(a, b);
        aig.add_output(f);
        aig
    }

    #[test]
    fn encoding_matches_eval() {
        let aig = build_xor();
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut s = Solver::new();
            let inputs: Vec<SatVar> = (0..2).map(|_| s.new_var()).collect();
            let f = constant_false(&mut s);
            let mut memo = cone_memo(&aig, f, &inputs);
            let out = encode_cone(&mut s, &aig, &mut memo, aig.outputs()[0]);
            let vars = s.num_vars();
            assert_eq!(
                encode_cone(&mut s, &aig, &mut memo, aig.outputs()[0]),
                out,
                "the memo makes a second encoding free"
            );
            assert_eq!(s.num_vars(), vars);
            let assumptions = [SatLit::new(inputs[0], !va), SatLit::new(inputs[1], !vb)];
            assert_eq!(s.solve(&assumptions), SatResult::Sat);
            let got = s.lit_bool(out).expect("assigned");
            assert_eq!(got, aig.eval(&[va, vb])[0]);
        }
    }

    #[test]
    fn override_forces_constant() {
        // A node pre-seeded with a constant literal is a stuck-at fault:
        // its cone is not encoded and its fanout sees the constant.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        let g = aig.or(f, b);
        aig.add_output(g);
        let mut s = Solver::new();
        let inputs: Vec<SatVar> = (0..2).map(|_| s.new_var()).collect();
        let fl = constant_false(&mut s);
        let mut memo = cone_memo(&aig, fl, &inputs);
        memo[f.var() as usize] = Some(!fl); // stuck-at-1
        let out = encode_cone(&mut s, &aig, &mut memo, g);
        assert_eq!(memo[f.var() as usize], Some(!fl));
        // With a = b = 0, the output must still be 1 because of the
        // stuck-at.
        let assumptions = [SatLit::negative(inputs[0]), SatLit::negative(inputs[1])];
        assert_eq!(s.solve(&assumptions), SatResult::Sat);
        assert_eq!(s.lit_bool(out), Some(true));
    }

    #[test]
    fn strash_folds_constants_and_reuses_gates() {
        let mut s = Solver::new();
        let mut enc = StrashEncoder::new(&mut s);
        let a = SatLit::positive(s.new_var());
        let b = SatLit::positive(s.new_var());
        let (f, t) = (enc.constant(false), enc.constant(true));
        assert_eq!(enc.and(&mut s, a, f), f);
        assert_eq!(enc.and(&mut s, t, a), a);
        assert_eq!(enc.and(&mut s, a, a), a);
        assert_eq!(enc.and(&mut s, a, !a), f);
        assert_eq!(s.num_vars(), 3, "folds allocate nothing");
        let ab = enc.and(&mut s, a, b);
        assert_eq!(enc.and(&mut s, b, a), ab, "fanin order is normalised");
        assert_ne!(enc.and(&mut s, a, !b), ab);
        assert_eq!(s.num_vars(), 5);
        // Two copies of one AIG over the same inputs share every gate.
        let aig = build_xor();
        let first = enc.encode(&mut s, &aig, &[a, b]);
        let vars = s.num_vars();
        assert_eq!(enc.encode(&mut s, &aig, &[a, b]), first);
        assert_eq!(s.num_vars(), vars);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let assumptions = [if va { a } else { !a }, if vb { b } else { !b }];
            assert_eq!(s.solve(&assumptions), SatResult::Sat);
            assert_eq!(s.lit_bool(first[0]), Some(va ^ vb));
        }
    }

    #[test]
    fn xor_gadget() {
        let mut s = Solver::new();
        let a = SatLit::positive(s.new_var());
        let b = SatLit::positive(s.new_var());
        let x = encode_xor(&mut s, a, b);
        // Force x=1 and a=1 => b must be 0.
        s.add_clause(&[x]);
        s.add_clause(&[a]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.lit_bool(b), Some(false));
    }
}
