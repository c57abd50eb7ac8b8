//! Synthesis transformation passes and scripts.
//!
//! This module implements the seven transformations the ALMOST paper draws
//! recipes from, plus a `fraig` SAT-sweeping letter and the `resyn2`
//! baseline script:
//!
//! | Pass | Algorithm |
//! |------|-----------|
//! | [`Pass::Rewrite`], [`Pass::RewriteZ`] | 4-input cut rewriting with MFFC gain accounting (ISOP/Shannon re-synthesis through the structural hash) |
//! | [`Pass::Refactor`], [`Pass::RefactorZ`] | reconvergence-driven large-cut (≤8 leaves) collapsing and re-synthesis |
//! | [`Pass::Resub`], [`Pass::ResubZ`] | windowed resubstitution: replace a node by an existing divisor (or a one/three-node combination of two divisors) with *exact* window-truth-table verification |
//! | [`Pass::Balance`] | level-minimising AND-tree balancing |
//! | [`Pass::Fraig`] | SAT sweeping ([`mod@crate::fraig`]): sim-signature candidate classes bucketed by a hash of the initial words (fixed for the sweep, so feedback relinks nothing), incremental-SAT equivalence proofs, every counterexample fed back as a signature word (uncapped, so no pair is refuted twice), bounded [`crate::fraig::FraigConfig::recipe`] conflict budgets |
//!
//! The `-z` variants accept zero-gain moves, perturbing structure without
//! growing the graph — exactly ABC's `rewrite -z` / `refactor -z` /
//! `resub -z` behaviour that ALMOST's recipe search exploits to diversify
//! key-gate localities.
//!
//! Every pass is a pure function `&Aig -> Aig` that preserves the
//! input/output interface and the Boolean function of every output
//! (validated by random simulation and SAT-based CEC in the test suites).
//!
//! # Kernels, memos and determinism
//!
//! The cut-based passes never recompute what a call has already derived:
//!
//! - cuts ([`crate::cut`]) carry their 4-variable truth table through the
//!   merge, so `rewrite` never simulates a cone; all nodes' cuts share one
//!   arena and one merge buffer, and a table is derived only for a cut
//!   the per-node cap keeps;
//! - `refactor` and `resub` grow each reconvergence cut and load its
//!   window once into 8-variable tables ([`Window`]), in topological
//!   order, and read the root's and every divisor's function from there;
//!   the window tests leaf and volume membership with one stamp read per
//!   node (a per-node epoch array, never cleared), and `resub` tests MFFC
//!   membership the same way;
//! - `resub`'s pair search visits only the divisor pairs that can match
//!   a gate, in the all-pairs order: host classes are `u64` masks and
//!   XOR partners one sorted lookup per divisor (see the `resub` module);
//! - nothing is allocated per node: a reconvergence cut's leaves sit inline
//!   ([`WindowLeaves`]), and the window's tables and volume, the mapped
//!   leaf literals of `rewrite` and `refactor`, and `resub`'s MFFC,
//!   divisor and pair-filter buffers are cleared and refilled from node to
//!   node;
//! - the graph a pass builds probes its structural hash once per
//!   [`Aig::and`] and is sized for the input graph up front
//!   ([`Aig::with_capacity`], as is [`Aig::compact`]'s copy), and a
//!   rolled-back candidate costs a truncation of the node array: the
//!   hash keeps the dropped nodes' keys, which are stale and ignored
//!   because every hit is checked against the node array;
//! - `rewrite` and `refactor` borrow their thread's plan library, one
//!   [`crate::isop::Resynth`], which derives each distinct function's
//!   candidate structures (ISOP covers, Shannon pivot, cofactor plans) once
//!   and replays them against the live graph in a fixed probe order
//!   (documented there), under a node budget: a cover or Shannon build
//!   stops and is rolled back once it adds more nodes than the pass could
//!   accept, so no candidate is costed past that point;
//! - an accepted candidate is kept as built, never rolled back and rebuilt.
//!
//! The plan library is the one piece of state that outlives a pass call.
//! It is thread-local: a pass takes it at entry and puts it back at exit
//! (a nested call gets an empty one), and it is emptied at entry once it
//! holds more than 2^15 plans. Pool batch threads live for one batch, so
//! they start with an empty library; serial callers (a recipe applied pass
//! by pass, sample generation, a one-proposal search) reuse a warm one.
//! All other memos live for one pass call. A plan depends only on the
//! truth table and its variable count, so no output depends on what the
//! library holds. Because the probe order is fixed, the pair filter drops
//! only pairs no gate can match, and rollback restores the exact node
//! array (a stale hash key never answers a lookup), each pass produces
//! byte-for-byte the graph the plain probe-everything algorithm would
//! (pinned by the `synthesis_golden` suite), so recipe choices and trie
//! contents do not depend on these optimisations.

mod balance;
mod refactor;
mod resub;
mod rewrite;
pub(crate) mod window;

pub use balance::balance;
pub use refactor::refactor;
pub use resub::resub;
pub use rewrite::rewrite;
pub use window::{Window, WindowLeaves, MAX_WINDOW_LEAVES};

use crate::aig::Aig;
use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;
use std::str::FromStr;

/// One synthesis transformation, as selectable in an ALMOST recipe.
///
/// # Example
///
/// ```
/// use almost_aig::{Aig, Pass};
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.xor(a, b);
/// aig.add_output(f);
/// let out = Pass::Rewrite.apply(&aig);
/// assert_eq!(out.num_outputs(), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pass {
    /// Cut rewriting (`rewrite`).
    Rewrite,
    /// Zero-cost cut rewriting (`rewrite -z`).
    RewriteZ,
    /// Refactoring (`refactor`).
    Refactor,
    /// Zero-cost refactoring (`refactor -z`).
    RefactorZ,
    /// Resubstitution (`resub`).
    Resub,
    /// Zero-cost resubstitution (`resub -z`).
    ResubZ,
    /// AND-tree balancing (`balance`).
    Balance,
    /// SAT sweeping (`fraig`): merges functionally equivalent nodes under
    /// the bounded [`crate::fraig::FraigConfig::recipe`] configuration.
    Fraig,
}

impl Pass {
    /// All eight passes, in a fixed order: the paper's seven-letter recipe
    /// alphabet plus the `fraig` extension.
    pub const ALL: [Pass; 8] = [
        Pass::Rewrite,
        Pass::RewriteZ,
        Pass::Refactor,
        Pass::RefactorZ,
        Pass::Resub,
        Pass::ResubZ,
        Pass::Balance,
        Pass::Fraig,
    ];

    /// Applies the pass, returning a new AIG with the same interface and
    /// function.
    pub fn apply(self, aig: &Aig) -> Aig {
        match self {
            Pass::Rewrite => rewrite(aig, false),
            Pass::RewriteZ => rewrite(aig, true),
            Pass::Refactor => refactor(aig, false),
            Pass::RefactorZ => refactor(aig, true),
            Pass::Resub => resub(aig, false),
            Pass::ResubZ => resub(aig, true),
            Pass::Balance => balance(aig),
            Pass::Fraig => crate::fraig::fraig_with(aig, &crate::fraig::FraigConfig::recipe()).0,
        }
    }

    /// The ABC-style command name (`rewrite -z` etc.).
    pub fn command(self) -> &'static str {
        match self {
            Pass::Rewrite => "rewrite",
            Pass::RewriteZ => "rewrite -z",
            Pass::Refactor => "refactor",
            Pass::RefactorZ => "refactor -z",
            Pass::Resub => "resub",
            Pass::ResubZ => "resub -z",
            Pass::Balance => "balance",
            Pass::Fraig => "fraig",
        }
    }

    /// A compact single-letter mnemonic (used in recipe strings): `w`, `W`,
    /// `f`, `F`, `s`, `S`, `b`, `g`.
    pub fn mnemonic(self) -> char {
        match self {
            Pass::Rewrite => 'w',
            Pass::RewriteZ => 'W',
            Pass::Refactor => 'f',
            Pass::RefactorZ => 'F',
            Pass::Resub => 's',
            Pass::ResubZ => 'S',
            Pass::Balance => 'b',
            Pass::Fraig => 'g',
        }
    }

    /// Parses a single-letter mnemonic.
    pub fn from_mnemonic(c: char) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.mnemonic() == c)
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.command())
    }
}

impl FromStr for Pass {
    type Err = ParsePassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim();
        Pass::ALL
            .into_iter()
            .find(|p| p.command() == norm)
            .or_else(|| {
                let mut chars = norm.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Pass::from_mnemonic(c),
                    _ => None,
                }
            })
            .ok_or_else(|| ParsePassError(s.to_string()))
    }
}

/// Error returned when parsing a [`Pass`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePassError(String);

impl fmt::Display for ParsePassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown synthesis pass `{}`", self.0)
    }
}

impl std::error::Error for ParsePassError {}

/// A synthesis recipe: an ordered sequence of passes. It prints and
/// parses as its mnemonic string (`bwfbwWbFWb` is [`Script::resyn2`]).
///
/// # Example
///
/// ```
/// use almost_aig::{Aig, Script};
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let c = aig.add_input();
/// let ab = aig.and(a, b);
/// let f = aig.xor(ab, c);
/// aig.add_output(f);
/// let recipe = Script::resyn2();
/// assert_eq!(recipe.to_string(), "bwfbwWbFWb");
/// let out = recipe.apply(&aig);
/// assert_eq!(out.num_inputs(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Script {
    passes: Vec<Pass>,
}

impl Script {
    /// A recipe from explicit passes.
    pub fn new(passes: Vec<Pass>) -> Self {
        Script { passes }
    }

    /// The classic `resyn2` script (`b; rw; rf; b; rw; rwz; b; rfz; rwz; b`),
    /// the paper's baseline recipe. Conveniently exactly L = 10 steps.
    pub fn resyn2() -> Self {
        Script::new(vec![
            Pass::Balance,
            Pass::Rewrite,
            Pass::Refactor,
            Pass::Balance,
            Pass::Rewrite,
            Pass::RewriteZ,
            Pass::Balance,
            Pass::RefactorZ,
            Pass::RewriteZ,
            Pass::Balance,
        ])
    }

    /// A uniformly random recipe of `len` steps.
    pub fn random(len: usize, rng: &mut StdRng) -> Self {
        (0..len)
            .map(|_| Pass::ALL[rng.random_range(0..Pass::ALL.len())])
            .collect()
    }

    /// The simulated-annealing neighbourhood move: replace one random
    /// position with a different random pass.
    pub fn mutate(&self, rng: &mut StdRng) -> Self {
        let mut passes = self.passes.clone();
        if passes.is_empty() {
            return Script { passes };
        }
        let pos = rng.random_range(0..passes.len());
        let current = passes[pos];
        loop {
            let candidate = Pass::ALL[rng.random_range(0..Pass::ALL.len())];
            if candidate != current {
                passes[pos] = candidate;
                break;
            }
        }
        Script { passes }
    }

    /// Applies all passes in order.
    pub fn apply(&self, aig: &Aig) -> Aig {
        let mut current = aig.clone();
        for pass in &self.passes {
            current = pass.apply(&current);
        }
        current
    }

    /// The passes of the recipe.
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// Recipe length.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True if the recipe has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Length of the longest common prefix with `other`.
    pub fn common_prefix_len(&self, other: &Script) -> usize {
        self.passes
            .iter()
            .zip(&other.passes)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The ABC command form, e.g. `balance; rewrite; refactor`.
    pub fn commands(&self) -> String {
        let commands: Vec<&str> = self.passes.iter().map(|p| p.command()).collect();
        commands.join("; ")
    }

    /// Parses a mnemonic string (e.g. `bwfbwWbFWb`).
    ///
    /// # Errors
    ///
    /// Returns [`ParsePassError`] on the first unknown character.
    pub fn from_mnemonics(s: &str) -> Result<Self, ParsePassError> {
        s.chars()
            .map(|c| Pass::from_mnemonic(c).ok_or_else(|| ParsePassError(c.to_string())))
            .collect()
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.passes
            .iter()
            .try_for_each(|p| fmt::Write::write_char(f, p.mnemonic()))
    }
}

impl FromIterator<Pass> for Script {
    fn from_iter<T: IntoIterator<Item = Pass>>(iter: T) -> Self {
        Script::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sim::probably_equivalent;
    use rand::SeedableRng;

    /// Builds a random DAG with the given number of inputs and AND nodes.
    pub(crate) fn random_aig(num_inputs: usize, num_ands: usize, seed: u64) -> Aig {
        // Every AND over one input folds to a constant or the input, so
        // fewer than two inputs would never reach `num_ands`.
        assert!(num_inputs >= 2, "random_aig needs at least two inputs");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aig = Aig::new();
        let mut pool: Vec<crate::aig::Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
        while aig.num_ands() < num_ands {
            let a = pool[rng.random_range(0..pool.len())];
            let b = pool[rng.random_range(0..pool.len())];
            let (ca, cb) = (rng.random::<bool>(), rng.random::<bool>());
            let lit = aig.and(a.xor_complement(ca), b.xor_complement(cb));
            if !lit.is_const() {
                pool.push(lit);
            }
        }
        // A handful of outputs over the deepest nodes.
        let n_out = 4.min(pool.len());
        for i in 0..n_out {
            let lit = pool[pool.len() - 1 - i];
            aig.add_output(lit);
        }
        aig
    }

    #[test]
    fn every_pass_preserves_function() {
        for seed in 0..4 {
            let aig = random_aig(8, 60, seed);
            for pass in Pass::ALL {
                let out = pass.apply(&aig);
                assert_eq!(out.num_inputs(), aig.num_inputs());
                assert_eq!(out.num_outputs(), aig.num_outputs());
                assert!(
                    probably_equivalent(&aig, &out, 16, 99),
                    "{pass} broke equivalence on seed {seed}"
                );
            }
        }
    }

    #[test]
    fn resyn2_preserves_function_and_does_not_blow_up() {
        let aig = random_aig(10, 120, 7);
        let out = Script::resyn2().apply(&aig);
        assert!(probably_equivalent(&aig, &out, 16, 5));
        assert!(
            out.num_ands() <= aig.num_ands() + aig.num_ands() / 4,
            "resyn2 grew the graph: {} -> {}",
            aig.num_ands(),
            out.num_ands()
        );
    }

    #[test]
    fn mnemonic_roundtrip() {
        let script = Script::resyn2();
        let s = script.to_string();
        assert_eq!(Script::from_mnemonics(&s).expect("parses"), script);
        assert!(Script::from_mnemonics("bxq").is_err());
    }

    #[test]
    fn pass_parse_roundtrip() {
        for pass in Pass::ALL {
            assert_eq!(pass.command().parse::<Pass>().expect("parses"), pass);
            assert_eq!(
                pass.mnemonic().to_string().parse::<Pass>().expect("parses"),
                pass
            );
        }
        assert!("dch".parse::<Pass>().is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Pass::RewriteZ.to_string(), "rewrite -z");
        let s = Script::new(vec![Pass::Balance, Pass::Rewrite]);
        assert_eq!(s.to_string(), "bw");
        assert_eq!(s.commands(), "balance; rewrite");
    }
}
