//! Bit-parallel random simulation of AIGs.
//!
//! Simulation backs three users in this workspace: equivalence spot-checks in
//! tests, divisor filtering in [resubstitution](crate::passes::resub), and
//! switching-activity estimation for power analysis in `almost-netlist`.

use crate::aig::{Aig, Lit, NodeKind, Var};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Bit-parallel simulation vectors: one `Vec<u64>` of `num_words` words per
/// node, 64 input patterns per word.
///
/// # Example
///
/// ```
/// use almost_aig::Aig;
/// use almost_aig::sim::SimVectors;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.and(a, b);
/// aig.add_output(f);
/// let sim = SimVectors::random(&aig, 4, 42);
/// let pa = sim.node_pattern(a.var());
/// let pb = sim.node_pattern(b.var());
/// let pf = sim.lit_pattern(f);
/// for w in 0..4 {
///     assert_eq!(pf[w], pa[w] & pb[w]);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SimVectors {
    num_words: usize,
    patterns: Vec<Vec<u64>>,
}

impl SimVectors {
    /// Simulates `aig` on `num_words * 64` uniformly random input patterns
    /// drawn from a deterministic generator seeded with `seed`.
    pub fn random(aig: &Aig, num_words: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let input_patterns: Vec<Vec<u64>> = (0..aig.num_inputs())
            .map(|_| (0..num_words).map(|_| rng.random()).collect())
            .collect();
        Self::with_input_patterns(aig, &input_patterns)
    }

    /// Simulates `aig` with caller-provided input patterns (one vector of
    /// words per input).
    ///
    /// # Panics
    ///
    /// Panics if the number of pattern vectors differs from the number of
    /// inputs, or the vectors have inconsistent lengths.
    pub fn with_input_patterns(aig: &Aig, input_patterns: &[Vec<u64>]) -> Self {
        assert_eq!(input_patterns.len(), aig.num_inputs());
        let num_words = input_patterns.first().map_or(1, Vec::len);
        for p in input_patterns {
            assert_eq!(p.len(), num_words, "inconsistent pattern lengths");
        }
        let mut patterns: Vec<Vec<u64>> = Vec::with_capacity(aig.num_nodes());
        for v in aig.iter_vars() {
            let row = match aig.node(v) {
                NodeKind::Const0 => vec![0u64; num_words],
                NodeKind::Input(i) => input_patterns[i as usize].clone(),
                NodeKind::And(a, b) => {
                    let (pa, pb) = (&patterns[a.var() as usize], &patterns[b.var() as usize]);
                    let (ca, cb) = (a.is_complement(), b.is_complement());
                    (0..num_words)
                        .map(|w| {
                            let wa = if ca { !pa[w] } else { pa[w] };
                            let wb = if cb { !pb[w] } else { pb[w] };
                            wa & wb
                        })
                        .collect()
                }
            };
            patterns.push(row);
        }
        SimVectors {
            num_words,
            patterns,
        }
    }

    /// Number of 64-bit words per node.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Total number of simulated patterns.
    pub fn num_patterns(&self) -> usize {
        self.num_words * 64
    }

    /// The raw pattern words of node `var`.
    pub fn node_pattern(&self, var: Var) -> &[u64] {
        &self.patterns[var as usize]
    }

    /// The pattern of a literal (complemented if needed), as an owned vector.
    pub fn lit_pattern(&self, lit: Lit) -> Vec<u64> {
        let p = &self.patterns[lit.var() as usize];
        if lit.is_complement() {
            p.iter().map(|&w| !w).collect()
        } else {
            p.to_vec()
        }
    }

    /// Fraction of simulated patterns on which the node evaluates to 1.
    ///
    /// Used as the signal probability for power estimation.
    pub fn signal_probability(&self, var: Var) -> f64 {
        let ones: u32 = self.patterns[var as usize]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        ones as f64 / self.num_patterns() as f64
    }

    /// Estimate of switching activity: `2 p (1 - p)` where `p` is the signal
    /// probability (the probability two independent consecutive patterns
    /// differ).
    pub fn switching_activity(&self, var: Var) -> f64 {
        let p = self.signal_probability(var);
        2.0 * p * (1.0 - p)
    }

    /// One pattern word of a literal (complemented on the fly).
    ///
    /// The allocation-free building block behind [`Self::lits_equal`] and
    /// [`Self::lits_equal_across`]; prefer it over [`Self::lit_pattern`]
    /// (which materialises an owned vector) anywhere comparisons happen in
    /// a loop — the fraig class-refinement loop above all.
    #[inline]
    pub fn lit_word(&self, lit: Lit, word: usize) -> u64 {
        let w = self.patterns[lit.var() as usize][word];
        if lit.is_complement() {
            !w
        } else {
            w
        }
    }

    /// Returns true if two literals agree on every simulated pattern.
    ///
    /// Complement-aware and allocation-free: the comparison walks the two
    /// nodes' word vectors directly instead of materialising complemented
    /// copies via [`Self::lit_pattern`].
    pub fn lits_equal(&self, a: Lit, b: Lit) -> bool {
        let pa = &self.patterns[a.var() as usize];
        let pb = &self.patterns[b.var() as usize];
        let flip = a.is_complement() != b.is_complement();
        pa.iter()
            .zip(pb)
            .all(|(&wa, &wb)| if flip { wa == !wb } else { wa == wb })
    }

    /// Returns true if literal `a` of these vectors agrees with literal `b`
    /// of `other` on every pattern (the vectors must have been simulated
    /// with the same input patterns and word count).
    ///
    /// Like [`Self::lits_equal`], complement-aware with no allocation —
    /// this is what [`probably_equivalent`] compares outputs with.
    ///
    /// # Panics
    ///
    /// Panics if the two vector sets have different word counts.
    pub fn lits_equal_across(&self, a: Lit, other: &SimVectors, b: Lit) -> bool {
        assert_eq!(
            self.num_words, other.num_words,
            "comparing vectors of different widths"
        );
        let pa = &self.patterns[a.var() as usize];
        let pb = &other.patterns[b.var() as usize];
        let flip = a.is_complement() != b.is_complement();
        pa.iter()
            .zip(pb)
            .all(|(&wa, &wb)| if flip { wa == !wb } else { wa == wb })
    }
}

/// Compares two AIGs with the same interface on random patterns.
///
/// Returns `true` if no counterexample is found within `num_words * 64`
/// random patterns; this is a probabilistic check, not a proof (use
/// `almost-sat`'s CEC for proofs).
///
/// # Panics
///
/// Panics if the two AIGs have different input or output counts.
pub fn probably_equivalent(a: &Aig, b: &Aig, num_words: usize, seed: u64) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    let mut rng = StdRng::seed_from_u64(seed);
    let input_patterns: Vec<Vec<u64>> = (0..a.num_inputs())
        .map(|_| (0..num_words).map(|_| rng.random()).collect())
        .collect();
    let sa = SimVectors::with_input_patterns(a, &input_patterns);
    let sb = SimVectors::with_input_patterns(b, &input_patterns);
    a.outputs()
        .iter()
        .zip(b.outputs())
        .all(|(&oa, &ob)| sa.lits_equal_across(oa, &sb, ob))
}

/// A three-valued logic value: `0`, `1`, or unknown (`X`).
///
/// Ternary simulation propagates controlling values through the AND/NOT
/// structure: `0 AND X = 0`, `1 AND X = X`. A node that settles to a
/// definite value with **every input at `X`** is structurally constant —
/// the cheap constant-detection pre-pass of the fraig engine
/// ([`crate::fraig`]), which SAT-confirms each candidate before merging.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ternary {
    /// Definitely 0.
    Zero,
    /// Definitely 1.
    One,
    /// Unknown.
    X,
}

impl Ternary {
    /// Three-valued AND: 0 dominates, X absorbs 1.
    #[inline]
    pub fn and(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::Zero, _) | (_, Ternary::Zero) => Ternary::Zero,
            (Ternary::One, Ternary::One) => Ternary::One,
            _ => Ternary::X,
        }
    }

    /// Applies a complement flag (three-valued NOT when `complement`).
    #[inline]
    pub fn xor_complement(self, complement: bool) -> Ternary {
        if complement {
            !self
        } else {
            self
        }
    }
}

/// Three-valued NOT: X stays X.
impl std::ops::Not for Ternary {
    type Output = Ternary;

    #[inline]
    fn not(self) -> Ternary {
        match self {
            Ternary::Zero => Ternary::One,
            Ternary::One => Ternary::Zero,
            Ternary::X => Ternary::X,
        }
    }
}

/// Ternary (X-valued) simulation of every node of `aig` under the given
/// input values; returns one [`Ternary`] per node, indexed by variable.
///
/// Any node that comes back definite is guaranteed to hold that value
/// for *every* completion of the `X` inputs. On a strashed AIG all-X
/// inputs never yield a definite AND (every fanin is a non-constant
/// `X`), so the interesting uses pin a subset of inputs: a node definite
/// to the *same* value under both cofactors of an input is a constant
/// (how the fraig pass seeds constant candidates — see
/// `fraig`), and observability analyses watch which
/// cones go definite as inputs are pinned.
///
/// # Panics
///
/// Panics if `inputs` does not have one value per primary input.
pub fn ternary_node_values(aig: &Aig, inputs: &[Ternary]) -> Vec<Ternary> {
    assert_eq!(inputs.len(), aig.num_inputs(), "one value per input");
    let mut values = vec![Ternary::Zero; aig.num_nodes()];
    for v in aig.iter_vars() {
        values[v as usize] = match aig.node(v) {
            NodeKind::Const0 => Ternary::Zero,
            NodeKind::Input(i) => inputs[i as usize],
            NodeKind::And(a, b) => {
                let va = values[a.var() as usize].xor_complement(a.is_complement());
                let vb = values[b.var() as usize].xor_complement(b.is_complement());
                va.and(vb)
            }
        };
    }
    values
}

/// Ternary simulation of the primary outputs (see [`ternary_node_values`]).
///
/// # Panics
///
/// Panics if `inputs` does not have one value per primary input.
pub fn ternary_eval(aig: &Aig, inputs: &[Ternary]) -> Vec<Ternary> {
    let values = ternary_node_values(aig, inputs);
    aig.outputs()
        .iter()
        .map(|o| values[o.var() as usize].xor_complement(o.is_complement()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_aig() -> (Aig, Lit, Lit, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.xor(a, b);
        aig.add_output(f);
        (aig, a, b, f)
    }

    #[test]
    fn simulation_matches_eval() {
        let (aig, _, _, _) = xor_aig();
        let sim = SimVectors::random(&aig, 2, 1);
        for pat in 0..sim.num_patterns() {
            let (w, bit) = (pat / 64, pat % 64);
            let ins: Vec<bool> = (0..aig.num_inputs())
                .map(|i| (sim.node_pattern(aig.inputs()[i])[w] >> bit) & 1 != 0)
                .collect();
            let expect = aig.eval(&ins);
            let got = (sim.lit_pattern(aig.outputs()[0])[w] >> bit) & 1 != 0;
            assert_eq!(got, expect[0]);
        }
    }

    #[test]
    fn probably_equivalent_accepts_identical() {
        let (a, _, _, _) = xor_aig();
        let b = a.clone();
        assert!(probably_equivalent(&a, &b, 4, 3));
    }

    #[test]
    fn probably_equivalent_rejects_different() {
        let (a, _, _, _) = xor_aig();
        let mut b = Aig::new();
        let x = b.add_input();
        let y = b.add_input();
        let f = b.and(x, y);
        b.add_output(f);
        assert!(!probably_equivalent(&a, &b, 4, 3));
    }

    #[test]
    fn signal_probability_of_constant() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        aig.add_output(a);
        let sim = SimVectors::random(&aig, 8, 9);
        assert_eq!(sim.signal_probability(0), 0.0);
        let p = sim.signal_probability(a.var());
        assert!((p - 0.5).abs() < 0.1, "input probability ~0.5, got {p}");
    }

    #[test]
    fn lits_equal_detects_complement() {
        let (aig, a, _, _) = xor_aig();
        let sim = SimVectors::random(&aig, 4, 7);
        assert!(sim.lits_equal(a, a));
        assert!(!sim.lits_equal(a, !a));
    }

    #[test]
    fn lit_word_and_cross_compare_agree_with_lit_pattern() {
        let (aig, a, b, f) = xor_aig();
        let sim = SimVectors::random(&aig, 4, 11);
        for lit in [a, b, f, !f] {
            let owned = sim.lit_pattern(lit);
            for (w, &word) in owned.iter().enumerate() {
                assert_eq!(sim.lit_word(lit, w), word);
            }
        }
        let other = sim.clone();
        assert!(sim.lits_equal_across(f, &other, f));
        assert!(!sim.lits_equal_across(f, &other, !f));
    }

    #[test]
    fn ternary_case_split_finds_hidden_constant() {
        // g = (a & b) & !a == 0, built through two distinct AND nodes so
        // one-level strash simplification cannot see it. All-X ternary
        // simulation cannot either (every fanin stays X) — but pinning
        // `a` to each cofactor makes g definite-zero both ways, which is
        // exactly how the fraig pre-pass seeds constant candidates.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.and(a, b);
        let g = aig.and(ab, !a);
        aig.add_output(g);
        assert!(!g.is_const(), "strash must not fold the two-level identity");
        let all_x = ternary_node_values(&aig, &[Ternary::X, Ternary::X]);
        assert_eq!(
            all_x[g.var() as usize],
            Ternary::X,
            "all-X alone is blind here"
        );
        let lo = ternary_node_values(&aig, &[Ternary::Zero, Ternary::X]);
        let hi = ternary_node_values(&aig, &[Ternary::One, Ternary::X]);
        assert_eq!(lo[g.var() as usize], Ternary::Zero);
        assert_eq!(hi[g.var() as usize], Ternary::Zero);
        assert_eq!(
            ternary_eval(&aig, &[Ternary::Zero, Ternary::X]),
            vec![Ternary::Zero]
        );
    }

    #[test]
    fn ternary_matches_boolean_eval_on_definite_inputs() {
        let (aig, _, _, _) = xor_aig();
        for pat in 0..4u32 {
            let bools: Vec<bool> = (0..2).map(|i| pat >> i & 1 != 0).collect();
            let terns: Vec<Ternary> = bools
                .iter()
                .map(|&v| if v { Ternary::One } else { Ternary::Zero })
                .collect();
            let want: Vec<Ternary> = aig
                .eval(&bools)
                .into_iter()
                .map(|v| if v { Ternary::One } else { Ternary::Zero })
                .collect();
            assert_eq!(ternary_eval(&aig, &terns), want);
        }
    }

    #[test]
    fn ternary_x_propagates_only_where_observable() {
        // f = a & b: with a = 0, the X on b is blocked (f = 0); with
        // a = 1 it is observable (f = X).
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        assert_eq!(
            ternary_eval(&aig, &[Ternary::Zero, Ternary::X]),
            vec![Ternary::Zero]
        );
        assert_eq!(
            ternary_eval(&aig, &[Ternary::One, Ternary::X]),
            vec![Ternary::X]
        );
    }
}
