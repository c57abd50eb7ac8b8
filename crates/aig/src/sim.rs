//! Bit-parallel random simulation of AIGs.
//!
//! [`SimVectors`] runs the compiled instruction buffer of
//! [`crate::compile`] once per 64-pattern word, so every word of every
//! node comes out of [`CompiledAig`]'s one word-level AND loop. Its users
//! are the signatures of the [fraig](mod@crate::fraig) sweep, which grow one
//! word per counterexample ([`SimVectors::push_word`]), switching-activity
//! estimation for power analysis in `almost-netlist`, and
//! [`probably_equivalent`], the random-pattern check behind tests and
//! SCOPE's dead-bit prefilter. Ternary simulation ([`Ternary`]) seeds
//! fraig's constant candidates.

use crate::aig::{Aig, Lit, NodeKind, Var};
use crate::compile::CompiledAig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Bit-parallel simulation vectors of every node, 64 input patterns per
/// `u64` word.
///
/// The storage is word-major: one register file of the netlist's
/// [`CompiledAig`] per word, each filled by one pass of the compiled
/// code. Dead nodes (no path to an output) are simulated like any other.
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
/// let mut sim = SimVectors::random(&aig, 4, 42);
/// sim.push_word(&[0b1100, 0b1010]);
/// assert_eq!(sim.num_words(), 5);
/// for w in 0..sim.num_words() {
///     assert_eq!(sim.lit_word(f, w), sim.lit_word(a, w) & sim.lit_word(b, w));
///     assert_eq!(sim.lit_word(!f, w), !sim.lit_word(f, w));
/// }
/// assert_eq!(sim.lit_word(f, 4), 0b1000);
/// ```
#[derive(Clone, Debug)]
pub struct SimVectors {
    code: CompiledAig,
    /// Word `w` of register `r` lives at `w * num_registers + r`.
    slabs: Vec<u64>,
    num_words: usize,
}

impl SimVectors {
    /// Simulates `aig` on `num_words * 64` uniformly random input patterns
    /// drawn from a deterministic generator seeded with `seed`.
    pub fn random(aig: &Aig, num_words: usize, seed: u64) -> Self {
        Self::with_input_patterns(aig, &random_words(aig.num_inputs(), num_words, seed))
    }

    /// Simulates `aig` with caller-provided input patterns (one vector of
    /// words per input).
    ///
    /// # Panics
    ///
    /// Panics if the number of pattern vectors differs from the number of
    /// inputs or the vectors have inconsistent lengths.
    pub fn with_input_patterns(aig: &Aig, input_patterns: &[Vec<u64>]) -> Self {
        assert_eq!(input_patterns.len(), aig.num_inputs());
        let num_words = input_patterns.first().map_or(1, Vec::len);
        for p in input_patterns {
            assert_eq!(p.len(), num_words, "inconsistent pattern lengths");
        }
        let code = CompiledAig::compile(aig);
        let mut sim = SimVectors {
            slabs: Vec::with_capacity(num_words * code.num_registers()),
            code,
            num_words: 0,
        };
        let mut word = vec![0u64; input_patterns.len()];
        for w in 0..num_words {
            for (x, p) in word.iter_mut().zip(input_patterns) {
                *x = p[w];
            }
            sim.push_word(&word);
        }
        sim
    }

    /// Appends one word of 64 patterns (`inputs[i]` for input `i`) and
    /// simulates every node on it.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not have one word per primary input.
    pub fn push_word(&mut self, inputs: &[u64]) {
        assert_eq!(inputs.len(), self.code.num_inputs(), "one word per input");
        let start = self.slabs.len();
        self.slabs.resize(start + self.code.num_registers(), 0);
        let slab = &mut self.slabs[start..];
        slab[1..=inputs.len()].copy_from_slice(inputs);
        self.code.step(slab);
        self.num_words += 1;
    }

    /// Number of 64-bit words per node.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Total number of simulated patterns.
    pub fn num_patterns(&self) -> usize {
        self.num_words * 64
    }

    /// Word `word` of a literal (complemented on the fly).
    #[inline]
    pub fn lit_word(&self, lit: Lit, word: usize) -> u64 {
        let reg = self.code.register_of(lit.var()) as usize;
        self.slabs[word * self.code.num_registers() + reg]
            ^ (lit.is_complement() as u64).wrapping_neg()
    }

    /// Fraction of simulated patterns on which the node evaluates to 1.
    ///
    /// Used as the signal probability for power estimation.
    pub fn signal_probability(&self, var: Var) -> f64 {
        let ones: u32 = (0..self.num_words)
            .map(|w| self.lit_word(Lit::positive(var), w).count_ones())
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
}

/// `num_words` random words per input, input by input, from a generator
/// seeded with `seed`.
fn random_words(num_inputs: usize, num_words: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_inputs)
        .map(|_| (0..num_words).map(|_| rng.random()).collect())
        .collect()
}

/// Compares two AIGs with the same interface on random patterns, through
/// their compiled code.
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
    let words = random_words(a.num_inputs(), num_words, seed);
    let eval = |aig: &Aig| CompiledAig::compile(aig).eval_words(&words, num_words);
    eval(a) == eval(b)
}

/// A three-valued logic value: `0`, `1`, or unknown (`X`).
///
/// Ternary simulation propagates controlling values through the AND/NOT
/// structure: `0 AND X = 0`, `1 AND X = X`. A node that settles to a
/// definite value with **every input at `X`** is structurally constant —
/// the cheap constant-detection pre-pass of the fraig engine
/// ([`mod@crate::fraig`]), which SAT-confirms each candidate before merging.
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

    /// A random netlist in the locked-netlist shape: some inputs are
    /// created after ANDs, and some ANDs reach no output.
    fn interleaved_aig(seed: u64) -> Aig {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aig = Aig::new();
        let mut lits: Vec<Lit> = (0..3).map(|_| aig.add_input()).collect();
        for _ in 0..60 {
            if rng.random_range(0..8u32) == 0 {
                lits.push(aig.add_input());
                continue;
            }
            let a = lits[rng.random_range(0..lits.len())].xor_complement(rng.random());
            let b = lits[rng.random_range(0..lits.len())].xor_complement(rng.random());
            let f = aig.and(a, b);
            if !f.is_const() {
                lits.push(f);
            }
        }
        for _ in 0..3 {
            let l = lits[rng.random_range(0..lits.len())].xor_complement(rng.random());
            aig.add_output(l);
        }
        aig
    }

    #[test]
    fn every_node_matches_the_interpreter() {
        let (mut dead, mut late_inputs) = (0, 0);
        for seed in 0..12u64 {
            let aig = interleaved_aig(seed);
            dead += aig.num_ands() - aig.compact().num_ands();
            let first_and = aig.iter_ands().next().unwrap_or(Var::MAX);
            late_inputs += aig.inputs().iter().filter(|&&v| v > first_and).count();
            // The same netlist with every node tapped as an output, so the
            // interpreter and `eval_words` report each node's value.
            let mut probe = aig.clone();
            for v in aig.iter_vars() {
                probe.add_output(Lit::positive(v));
            }
            let tap = aig.num_outputs();
            let mut sim = SimVectors::random(&aig, 2, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
            let extra: Vec<u64> = (0..aig.num_inputs()).map(|_| rng.random()).collect();
            sim.push_word(&extra);
            assert_eq!(sim.num_words(), 3);
            let input_words: Vec<Vec<u64>> = aig
                .inputs()
                .iter()
                .map(|&v| (0..3).map(|w| sim.lit_word(Lit::positive(v), w)).collect())
                .collect();
            assert_eq!(input_words.iter().map(|p| p[2]).collect::<Vec<_>>(), extra);
            let code = CompiledAig::compile(&probe);
            let words = code.eval_words(&input_words, 3);
            for p in 0..sim.num_patterns() {
                let (w, bit) = (p / 64, p % 64);
                let ins: Vec<bool> = input_words.iter().map(|i| i[w] >> bit & 1 != 0).collect();
                let want = probe.eval(&ins);
                for v in aig.iter_vars() {
                    let lit = Lit::positive(v);
                    let expect = want[tap + v as usize];
                    assert_eq!(
                        sim.lit_word(lit, w) >> bit & 1 != 0,
                        expect,
                        "seed {seed} node {v}"
                    );
                    assert_eq!(
                        sim.lit_word(!lit, w) >> bit & 1 == 0,
                        expect,
                        "seed {seed} node {v}"
                    );
                    assert_eq!(
                        words[tap + v as usize][w] >> bit & 1 != 0,
                        expect,
                        "seed {seed} node {v}"
                    );
                }
            }
        }
        assert!(dead > 0, "the fixtures must carry dead ANDs");
        assert!(late_inputs > 0, "the fixtures must add inputs after ANDs");
    }

    #[test]
    fn simulation_matches_eval() {
        let (aig, a, b, f) = xor_aig();
        let sim = SimVectors::random(&aig, 2, 1);
        for pat in 0..sim.num_patterns() {
            let (w, bit) = (pat / 64, pat % 64);
            let ins = [a, b].map(|l| (sim.lit_word(l, w) >> bit) & 1 != 0);
            let expect = aig.eval(&ins);
            let got = (sim.lit_word(f, w) >> bit) & 1 != 0;
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

    /// The value of output 0 under ternary inputs.
    fn ternary_out(aig: &Aig, inputs: &[Ternary]) -> Ternary {
        let o = aig.outputs()[0];
        ternary_node_values(aig, inputs)[o.var() as usize].xor_complement(o.is_complement())
    }

    #[test]
    fn lits_equal_detects_complement() {
        let (aig, a, _, _) = xor_aig();
        let sim = SimVectors::random(&aig, 4, 7);
        for w in 0..sim.num_words() {
            assert_eq!(sim.lit_word(a, w), sim.lit_word(a, w));
            assert_eq!(sim.lit_word(!a, w), !sim.lit_word(a, w));
        }
    }

    #[test]
    fn lit_word_and_cross_compare_agree_with_lit_pattern() {
        let (aig, a, b, f) = xor_aig();
        let sim = SimVectors::random(&aig, 4, 11);
        // The same patterns simulated again, in a separate set of vectors.
        let inputs: Vec<Vec<u64>> = [a, b]
            .iter()
            .map(|&l| (0..4).map(|w| sim.lit_word(l, w)).collect())
            .collect();
        let other = SimVectors::with_input_patterns(&aig, &inputs);
        for w in 0..4 {
            assert_eq!(sim.lit_word(f, w), sim.lit_word(a, w) ^ sim.lit_word(b, w));
            assert_eq!(sim.lit_word(!f, w), !sim.lit_word(f, w));
            assert_eq!(sim.lit_word(f, w), other.lit_word(f, w));
            assert_ne!(sim.lit_word(f, w), other.lit_word(!f, w));
        }
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
            ternary_out(&aig, &[Ternary::Zero, Ternary::X]),
            Ternary::Zero
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
            let want = if aig.eval(&bools)[0] {
                Ternary::One
            } else {
                Ternary::Zero
            };
            assert_eq!(ternary_out(&aig, &terns), want);
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
            ternary_out(&aig, &[Ternary::Zero, Ternary::X]),
            Ternary::Zero
        );
        assert_eq!(ternary_out(&aig, &[Ternary::One, Ternary::X]), Ternary::X);
    }
}
