//! Tseitin encoding of AIGs into CNF.
//!
//! Every AIG node gets a solver variable; an AND node `v = a ∧ b` produces
//! the three clauses `(¬v ∨ a) (¬v ∨ b) (v ∨ ¬a ∨ ¬b)`. Node overrides allow
//! encoding *faulty* copies (stuck-at values) for ATPG.
//!
//! [`StrashEncoder`] is the structurally hashed form the key miters use:
//! it maps AIG copies onto caller-given solver literals, folds constants
//! and reuses the variable of any AND whose fanin literal pair it has
//! already encoded. Copies that share inputs then share every gate those
//! inputs alone determine.

use crate::portfolio::PortfolioSolver;
use crate::solver::{SatLit, SatVar, Solver};
use almost_aig::hash::FastBuild;
use almost_aig::{Aig, Lit, NodeKind, Var};
use std::collections::HashMap;

/// Anything Tseitin clauses can be emitted into: the plain [`Solver`] or
/// a [`PortfolioSolver`] broadcasting to its racing workers.
pub trait ClauseSink {
    /// Allocates a fresh solver variable.
    fn new_var(&mut self) -> SatVar;
    /// Adds a clause over existing variables.
    fn add_clause(&mut self, lits: &[SatLit]);
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> SatVar {
        Solver::new_var(self)
    }
    fn add_clause(&mut self, lits: &[SatLit]) {
        Solver::add_clause(self, lits)
    }
}

impl ClauseSink for PortfolioSolver {
    fn new_var(&mut self) -> SatVar {
        PortfolioSolver::new_var(self)
    }
    fn add_clause(&mut self, lits: &[SatLit]) {
        PortfolioSolver::add_clause(self, lits)
    }
}

/// The result of encoding one AIG copy into a solver.
#[derive(Clone, Debug)]
pub struct AigCnf {
    /// Solver variable for each primary input, in input order.
    pub input_vars: Vec<SatVar>,
    /// Solver literal for each primary output, in output order.
    pub output_lits: Vec<SatLit>,
    /// Solver literal for every AIG node (by node index).
    pub node_lits: Vec<SatLit>,
}

/// Encodes `aig` into `solver`, creating fresh input variables.
pub fn encode<S: ClauseSink>(solver: &mut S, aig: &Aig) -> AigCnf {
    let input_vars: Vec<SatVar> = (0..aig.num_inputs()).map(|_| solver.new_var()).collect();
    encode_with_inputs(solver, aig, &input_vars, &HashMap::new())
}

/// Encodes `aig` into `solver` re-using the given input variables (for
/// miters), with optional stuck-at `overrides` (AIG node → forced constant).
///
/// An overridden node's defining clauses are skipped; the node is replaced
/// by the constant. Fanout logic then sees the faulty value.
///
/// # Panics
///
/// Panics if `input_vars.len()` differs from the AIG's input count.
pub fn encode_with_inputs<S: ClauseSink>(
    solver: &mut S,
    aig: &Aig,
    input_vars: &[SatVar],
    overrides: &HashMap<Var, bool>,
) -> AigCnf {
    assert_eq!(input_vars.len(), aig.num_inputs());
    // A dedicated "false" variable keeps constants uniform.
    let false_var = solver.new_var();
    solver.add_clause(&[SatLit::negative(false_var)]);
    let const_false = SatLit::positive(false_var);

    let mut node_lits: Vec<SatLit> = Vec::with_capacity(aig.num_nodes());
    for v in aig.iter_vars() {
        if let Some(&value) = overrides.get(&v) {
            node_lits.push(if value { !const_false } else { const_false });
            continue;
        }
        let lit = match aig.node(v) {
            NodeKind::Const0 => const_false,
            NodeKind::Input(i) => SatLit::positive(input_vars[i as usize]),
            NodeKind::And(a, b) => {
                let la = lit_of(&node_lits, a);
                let lb = lit_of(&node_lits, b);
                let out = SatLit::positive(solver.new_var());
                solver.add_clause(&[!out, la]);
                solver.add_clause(&[!out, lb]);
                solver.add_clause(&[out, !la, !lb]);
                out
            }
        };
        node_lits.push(lit);
    }
    let output_lits = aig
        .outputs()
        .iter()
        .map(|l| lit_of(&node_lits, *l))
        .collect();
    AigCnf {
        input_vars: input_vars.to_vec(),
        output_lits,
        node_lits,
    }
}

fn lit_of(node_lits: &[SatLit], lit: Lit) -> SatLit {
    let base = node_lits[lit.var() as usize];
    if lit.is_complement() {
        !base
    } else {
        base
    }
}

/// A hash-consing Tseitin encoder over one solver: the structural hash of
/// [`Aig::and`] lifted to solver literals.
///
/// [`and`](Self::and) folds `a ∧ 0`, `a ∧ 1`, `a ∧ a` and `a ∧ ¬a`, and
/// returns the existing variable when the ordered fanin pair was encoded
/// before; otherwise it allocates a variable with its three Tseitin
/// clauses. Every variable it hands out is therefore fully defined by its
/// fanins, so sharing one between copies, or between a copy and a
/// constant-input residue, leaves the solution set over the caller's
/// input literals unchanged.
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
        let false_var = sink.new_var();
        sink.add_clause(&[SatLit::negative(false_var)]);
        StrashEncoder {
            table: HashMap::default(),
            const_false: SatLit::positive(false_var),
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
        *self.table.entry(key).or_insert_with(|| {
            let out = SatLit::positive(sink.new_var());
            sink.add_clause(&[!out, a]);
            sink.add_clause(&[!out, b]);
            sink.add_clause(&[out, !a, !b]);
            out
        })
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
                    let la = lit_of(&node_lits, a);
                    let lb = lit_of(&node_lits, b);
                    self.and(sink, la, lb)
                }
            };
            node_lits.push(lit);
        }
        let outputs = aig
            .outputs()
            .iter()
            .map(|&l| lit_of(&node_lits, l))
            .collect();
        self.node_lits = node_lits;
        outputs
    }
}

/// Adds an XOR constraint `out = a ⊕ b` and returns `out`.
pub fn encode_xor<S: ClauseSink>(solver: &mut S, a: SatLit, b: SatLit) -> SatLit {
    let out = SatLit::positive(solver.new_var());
    solver.add_clause(&[!out, a, b]);
    solver.add_clause(&[!out, !a, !b]);
    solver.add_clause(&[out, !a, b]);
    solver.add_clause(&[out, a, !b]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;
    use almost_aig::Aig;

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
            let cnf = encode(&mut s, &aig);
            let assumptions = [
                SatLit::new(cnf.input_vars[0], !va),
                SatLit::new(cnf.input_vars[1], !vb),
            ];
            assert_eq!(s.solve(&assumptions), SatResult::Sat);
            let got = s.lit_bool(cnf.output_lits[0]).expect("assigned");
            assert_eq!(got, aig.eval(&[va, vb])[0]);
        }
    }

    #[test]
    fn override_forces_constant() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let mut s = Solver::new();
        let inputs: Vec<SatVar> = (0..2).map(|_| s.new_var()).collect();
        let mut overrides = HashMap::new();
        overrides.insert(f.var(), true); // stuck-at-1
        let cnf = encode_with_inputs(&mut s, &aig, &inputs, &overrides);
        // With a=0, output must still be 1 because of the stuck-at.
        let assumptions = [SatLit::negative(inputs[0])];
        assert_eq!(s.solve(&assumptions), SatResult::Sat);
        assert_eq!(s.lit_bool(cnf.output_lits[0]), Some(true));
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
