//! Compilation of an [`Aig`] into a flat instruction buffer for
//! bit-parallel batch evaluation.
//!
//! [`Aig::eval`] walks the node vector once per pattern, dispatching on
//! [`NodeKind`] and paying a fresh `Vec<bool>` of node values every call.
//! That is fine for spot checks and hopeless for an oracle serving
//! millions of queries. [`CompiledAig`] pays the walk once: the
//! output-reachable AND cone is lowered, in the graph's native
//! topological order, into a dense instruction buffer of packed `u32`
//! operands indexing a flat register file — no enum dispatch, no hash
//! lookups, no per-pattern allocation in the inner loop. Evaluation then
//! processes 64 patterns at a time as `u64` words, the same bit-parallel
//! trick [`crate::sim::SimVectors`] uses, but over the compiled buffer
//! instead of the node graph.
//!
//! Register layout: register 0 is constant false, registers
//! `1..=num_inputs` hold the primary inputs in input order, and each
//! compiled AND instruction appends one register. Operands encode
//! `register << 1 | complement` (the AIGER literal convention, applied to
//! registers); complementation is a branch-free XOR with
//! `(operand & 1).wrapping_neg()`.
//!
//! Dead nodes — AND gates unreachable from any output, the artifacts
//! synthesis passes and `.bench` round trips leave behind — are skipped
//! at compile time and counted in [`CompileStats::dead_skipped`]; they
//! cannot affect outputs, so skipping them is observationally identity.

use crate::aig::{Aig, NodeKind, Var};
use std::fmt;

/// Registers addressable by the packed `u32` operand encoding
/// (`register << 1 | complement` must fit in a `u32`).
pub const MAX_REGISTERS: usize = (u32::MAX >> 1) as usize;

/// Sentinel register index for nodes outside the compiled cone.
const DEAD: u32 = u32::MAX;

/// What the compiler did, for telemetry and throughput reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// AND instructions emitted (the output-reachable cone).
    pub instructions: usize,
    /// Register-file size: constant + inputs + instructions.
    pub registers: usize,
    /// AND nodes skipped as unreachable from every output.
    pub dead_skipped: usize,
}

/// Why a netlist could not be compiled.
///
/// The public [`Aig`] construction API cannot produce either case
/// (outputs are bounds-checked on registration and node indices are
/// `u32`), but the compiler is the front door for parsed and generated
/// netlists, so it checks instead of indexing wild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The register file would not fit the packed operand encoding.
    TooManyNodes {
        /// Registers the netlist would need.
        needed: usize,
    },
    /// An output literal refers to a node outside the graph.
    DanglingOutput {
        /// Output position.
        output: usize,
        /// The nonexistent node the output names.
        var: Var,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyNodes { needed } => write!(
                f,
                "netlist needs {needed} registers, more than the {MAX_REGISTERS} the \
                 packed operand encoding addresses"
            ),
            CompileError::DanglingOutput { output, var } => {
                write!(f, "output {output} refers to nonexistent node {var}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// An [`Aig`] compiled to a flat, topologically-sorted instruction
/// buffer, evaluated 64 patterns per `u64` word.
///
/// # Example
///
/// ```
/// use almost_aig::Aig;
/// use almost_aig::compile::CompiledAig;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.xor(a, b);
/// aig.add_output(f);
/// let code = CompiledAig::compile(&aig).expect("compiles");
/// assert_eq!(code.eval(&[true, false]), vec![true]);
/// let words = code.eval_words(&[vec![0b1100], vec![0b1010]], 1);
/// assert_eq!(words[0][0], 0b0110);
/// ```
#[derive(Clone, Debug)]
pub struct CompiledAig {
    num_inputs: usize,
    /// Packed `[a, b]` operands per AND instruction; instruction `i`
    /// writes register `1 + num_inputs + i`.
    instrs: Vec<[u32; 2]>,
    /// Packed operand per output (register + complement tap).
    out_taps: Vec<u32>,
    /// Node index → register, [`DEAD`] for uncompiled nodes.
    reg_of: Vec<u32>,
    stats: CompileStats,
}

impl CompiledAig {
    /// Compiles the output-reachable cone of `aig`.
    pub fn compile(aig: &Aig) -> Result<CompiledAig, CompileError> {
        let n = aig.num_nodes();
        let mut reachable = vec![false; n];
        let mut stack: Vec<Var> = Vec::new();
        for (o, out) in aig.outputs().iter().enumerate() {
            if out.var() as usize >= n {
                return Err(CompileError::DanglingOutput {
                    output: o,
                    var: out.var(),
                });
            }
            stack.push(out.var());
        }
        let mut reachable_ands = 0usize;
        while let Some(v) = stack.pop() {
            if reachable[v as usize] {
                continue;
            }
            reachable[v as usize] = true;
            if let NodeKind::And(a, b) = aig.node(v) {
                reachable_ands += 1;
                stack.push(a.var());
                stack.push(b.var());
            }
        }

        let registers = 1 + aig.num_inputs() + reachable_ands;
        if registers > MAX_REGISTERS {
            return Err(CompileError::TooManyNodes { needed: registers });
        }

        // Register 0 = constant, 1..=num_inputs = inputs in input order,
        // then one per compiled instruction in topological order.
        let mut reg_of = vec![DEAD; n];
        reg_of[0] = 0;
        for (i, &var) in aig.inputs().iter().enumerate() {
            reg_of[var as usize] = 1 + i as u32;
        }
        let mut instrs = Vec::with_capacity(reachable_ands);
        let mut next = 1 + aig.num_inputs() as u32;
        for v in aig.iter_vars() {
            if !reachable[v as usize] {
                continue;
            }
            if let NodeKind::And(a, b) = aig.node(v) {
                let ra = reg_of[a.var() as usize];
                let rb = reg_of[b.var() as usize];
                debug_assert!(
                    ra != DEAD && rb != DEAD,
                    "fanins of a reachable node precede it in creation order"
                );
                instrs.push([
                    ra << 1 | a.is_complement() as u32,
                    rb << 1 | b.is_complement() as u32,
                ]);
                reg_of[v as usize] = next;
                next += 1;
            }
        }
        let out_taps = aig
            .outputs()
            .iter()
            .map(|out| reg_of[out.var() as usize] << 1 | out.is_complement() as u32)
            .collect();
        Ok(CompiledAig {
            num_inputs: aig.num_inputs(),
            instrs,
            out_taps,
            reg_of,
            stats: CompileStats {
                instructions: reachable_ands,
                registers,
                dead_skipped: aig.num_ands() - reachable_ands,
            },
        })
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.out_taps.len()
    }

    /// Register-file size (one `u64` per register per in-flight word).
    pub fn num_registers(&self) -> usize {
        self.stats.registers
    }

    /// Compile-time statistics.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// The register holding node `var`, or `None` when the node was not
    /// compiled (outside the output-reachable cone).
    pub fn register_of(&self, var: Var) -> Option<u32> {
        match self.reg_of.get(var as usize) {
            Some(&r) if r != DEAD => Some(r),
            _ => None,
        }
    }

    /// A reusable register-file scratch buffer for [`Self::eval_into`].
    pub fn make_scratch(&self) -> Vec<u64> {
        vec![0u64; self.stats.registers]
    }

    /// The straight-line core: inputs are already in registers
    /// `1..=num_inputs`; runs every instruction.
    #[inline]
    fn step(&self, regs: &mut [u64]) {
        regs[0] = 0;
        let base = 1 + self.num_inputs;
        for (i, &[a, b]) in self.instrs.iter().enumerate() {
            let va = regs[(a >> 1) as usize] ^ ((a & 1) as u64).wrapping_neg();
            let vb = regs[(b >> 1) as usize] ^ ((b & 1) as u64).wrapping_neg();
            regs[base + i] = va & vb;
        }
    }

    #[inline]
    fn tap(&self, regs: &[u64], o: usize) -> u64 {
        let t = self.out_taps[o];
        regs[(t >> 1) as usize] ^ ((t & 1) as u64).wrapping_neg()
    }

    /// Evaluates `num_words * 64` patterns at once. `input_words[i][w]`
    /// is the `w`-th word of input `i`; the result is indexed the same
    /// way, one vector of words per output.
    ///
    /// # Panics
    ///
    /// Panics if the number of pattern vectors differs from the number of
    /// inputs or any vector's length differs from `num_words`.
    pub fn eval_words(&self, input_words: &[Vec<u64>], num_words: usize) -> Vec<Vec<u64>> {
        self.assert_word_shape(input_words, num_words);
        let mut regs = self.make_scratch();
        let mut out = vec![vec![0u64; num_words]; self.out_taps.len()];
        for w in 0..num_words {
            for (i, p) in input_words.iter().enumerate() {
                regs[1 + i] = p[w];
            }
            self.step(&mut regs);
            for (o, words) in out.iter_mut().enumerate() {
                words[w] = self.tap(&regs, o);
            }
        }
        out
    }

    fn assert_word_shape(&self, input_words: &[Vec<u64>], num_words: usize) {
        assert_eq!(
            input_words.len(),
            self.num_inputs,
            "expected {} input pattern vectors, got {}",
            self.num_inputs,
            input_words.len()
        );
        for p in input_words {
            assert_eq!(p.len(), num_words, "inconsistent pattern lengths");
        }
    }

    /// Evaluates one pattern, reusing `regs` (resized as needed) as the
    /// register file — the allocation-free scalar path for hot callers.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::num_inputs`].
    pub fn eval_into(&self, inputs: &[bool], regs: &mut Vec<u64>) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.num_inputs,
            "expected {} input values, got {}",
            self.num_inputs,
            inputs.len()
        );
        regs.resize(self.stats.registers, 0);
        for (i, &b) in inputs.iter().enumerate() {
            regs[1 + i] = (b as u64).wrapping_neg();
        }
        self.step(regs);
        (0..self.out_taps.len())
            .map(|o| self.tap(regs, o) & 1 != 0)
            .collect()
    }

    /// Evaluates one pattern (allocating a fresh register file; use
    /// [`Self::eval_into`] with a kept scratch buffer in hot loops).
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        self.eval_into(inputs, &mut self.make_scratch())
    }

    /// Evaluates a batch of bool patterns via the word-level core, 64
    /// patterns per chunk. Each chunk is packed straight into the hot
    /// register file and unpacked from a small reused tap buffer, so the
    /// whole batch runs in one pass with no word-matrix intermediates.
    /// Returns one output vector per pattern, in order; an empty batch
    /// returns an empty vector.
    ///
    /// # Panics
    ///
    /// Panics if any pattern's length differs from [`Self::num_inputs`].
    pub fn eval_batch(&self, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let mut regs = self.make_scratch();
        let mut tapped = vec![0u64; self.out_taps.len()];
        let mut out: Vec<Vec<bool>> = Vec::with_capacity(patterns.len());
        for (c, chunk) in patterns.chunks(64).enumerate() {
            for r in regs[1..=self.num_inputs].iter_mut() {
                *r = 0;
            }
            for (b, pattern) in chunk.iter().enumerate() {
                assert_eq!(
                    pattern.len(),
                    self.num_inputs,
                    "expected {} input values, got {} (pattern {})",
                    self.num_inputs,
                    pattern.len(),
                    c * 64 + b
                );
                for (r, &v) in regs[1..].iter_mut().zip(pattern.iter()) {
                    *r |= (v as u64) << b;
                }
            }
            self.step(&mut regs);
            for (o, t) in tapped.iter_mut().enumerate() {
                *t = self.tap(&regs, o);
            }
            for b in 0..chunk.len() {
                out.push(tapped.iter().map(|&w| (w >> b) & 1 != 0).collect());
            }
        }
        out
    }
}

/// Packs per-pattern bool vectors into the `[input][word]` layout the
/// word-level evaluators consume: pattern `p` occupies bit `p % 64` of
/// word `p / 64`. Unused high bits of the last word are zero.
///
/// # Panics
///
/// Panics if any pattern's length differs from `num_inputs`.
pub fn pack_patterns(num_inputs: usize, patterns: &[Vec<bool>]) -> Vec<Vec<u64>> {
    let num_words = patterns.len().div_ceil(64);
    let mut words = vec![vec![0u64; num_words]; num_inputs];
    for (p, pattern) in patterns.iter().enumerate() {
        assert_eq!(
            pattern.len(),
            num_inputs,
            "expected {} input values, got {} (pattern {p})",
            num_inputs,
            pattern.len()
        );
        for (i, &b) in pattern.iter().enumerate() {
            words[i][p / 64] |= (b as u64) << (p % 64);
        }
    }
    words
}

/// Inverse of [`pack_patterns`] on the output side: turns `[output][word]`
/// result words into one `Vec<bool>` of output values per pattern.
pub fn unpack_output_words(num_patterns: usize, output_words: &[Vec<u64>]) -> Vec<Vec<bool>> {
    (0..num_patterns)
        .map(|p| {
            output_words
                .iter()
                .map(|words| (words[p / 64] >> (p % 64)) & 1 != 0)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Lit;
    use crate::sim::SimVectors;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A random DAG with the given shape, mixing gate types so both
    /// complemented and plain fanins occur.
    fn random_aig(seed: u64, num_inputs: usize, num_gates: usize, num_outputs: usize) -> Aig {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aig = Aig::new();
        let mut lits: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
        for _ in 0..num_gates {
            let a = lits[rng.random_range(0..lits.len())].xor_complement(rng.random());
            let b = lits[rng.random_range(0..lits.len())].xor_complement(rng.random());
            let f = match rng.random_range(0..3u32) {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            lits.push(f);
        }
        for _ in 0..num_outputs {
            let l = lits[rng.random_range(0..lits.len())].xor_complement(rng.random());
            aig.add_output(l);
        }
        aig
    }

    #[test]
    fn compiled_matches_interpreter_on_random_graphs() {
        for seed in 0..8u64 {
            let aig = random_aig(seed, 6, 40, 4);
            let code = CompiledAig::compile(&aig).expect("compiles");
            assert_eq!(code.num_inputs(), aig.num_inputs());
            assert_eq!(code.num_outputs(), aig.num_outputs());
            for bits in 0..64u32 {
                let ins: Vec<bool> = (0..6).map(|i| (bits >> i) & 1 != 0).collect();
                assert_eq!(
                    code.eval(&ins),
                    aig.eval(&ins),
                    "seed {seed} bits {bits:#x}"
                );
            }
        }
    }

    #[test]
    fn word_level_matches_sim_vectors() {
        for seed in 0..4u64 {
            let aig = random_aig(100 + seed, 9, 70, 5);
            let code = CompiledAig::compile(&aig).expect("compiles");
            let num_words = 4;
            let mut rng = StdRng::seed_from_u64(seed);
            let input_words: Vec<Vec<u64>> = (0..aig.num_inputs())
                .map(|_| (0..num_words).map(|_| rng.random()).collect())
                .collect();
            let sim = SimVectors::with_input_patterns(&aig, &input_words);
            let out = code.eval_words(&input_words, num_words);
            for (o, lit) in aig.outputs().iter().enumerate() {
                assert_eq!(out[o], sim.lit_pattern(*lit), "seed {seed} output {o}");
            }
        }
    }

    #[test]
    fn batch_roundtrip_matches_scalar_eval() {
        let aig = random_aig(7, 8, 50, 3);
        let code = CompiledAig::compile(&aig).expect("compiles");
        let mut rng = StdRng::seed_from_u64(11);
        // 65 patterns straddles the word boundary.
        let patterns: Vec<Vec<bool>> = (0..65)
            .map(|_| (0..8).map(|_| rng.random()).collect())
            .collect();
        let batch = code.eval_batch(&patterns);
        assert_eq!(batch.len(), 65);
        for (p, pattern) in patterns.iter().enumerate() {
            assert_eq!(batch[p], aig.eval(pattern), "pattern {p}");
        }
        assert!(code.eval_batch(&[]).is_empty(), "empty batch is empty");
        let single = code.eval_batch(&patterns[..1]);
        assert_eq!(single, vec![aig.eval(&patterns[0])]);
    }

    #[test]
    fn dead_nodes_are_skipped_without_changing_outputs() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let keep = aig.and(a, b);
        let _dead1 = aig.or(a, b);
        let _dead2 = aig.xor(a, b);
        aig.add_output(keep);
        let code = CompiledAig::compile(&aig).expect("compiles");
        assert_eq!(code.stats().instructions, 1);
        assert_eq!(code.stats().dead_skipped, aig.num_ands() - 1);
        assert_eq!(code.register_of(keep.var()), Some(3));
        for (ia, ib) in [(false, false), (true, false), (true, true)] {
            assert_eq!(code.eval(&[ia, ib]), aig.eval(&[ia, ib]));
        }
    }

    #[test]
    fn degenerate_netlists_compile_to_identity_behaviour() {
        // Zero inputs, constant outputs.
        let mut consts = Aig::new();
        consts.add_output(Lit::FALSE);
        consts.add_output(Lit::TRUE);
        let code = CompiledAig::compile(&consts).expect("compiles");
        assert_eq!(code.eval(&[]), vec![false, true]);
        assert_eq!(code.stats().instructions, 0);

        // Zero outputs: every node is dead.
        let mut no_out = Aig::new();
        let a = no_out.add_input();
        let b = no_out.add_input();
        let _ = no_out.and(a, b);
        let code = CompiledAig::compile(&no_out).expect("compiles");
        assert_eq!(code.eval(&[true, true]), Vec::<bool>::new());
        assert_eq!(code.stats().dead_skipped, 1);

        // Empty AIG.
        let empty = Aig::new();
        let code = CompiledAig::compile(&empty).expect("compiles");
        assert!(code.eval(&[]).is_empty());

        // Input wired straight to an output (no instructions at all).
        let mut wire = Aig::new();
        let x = wire.add_input();
        wire.add_output(!x);
        let code = CompiledAig::compile(&wire).expect("compiles");
        assert_eq!(code.eval(&[true]), vec![false]);
        assert_eq!(code.eval(&[false]), vec![true]);
    }

    #[test]
    fn eval_into_reuses_the_scratch_buffer() {
        let aig = random_aig(3, 5, 20, 2);
        let code = CompiledAig::compile(&aig).expect("compiles");
        let mut scratch = code.make_scratch();
        for bits in 0..32u32 {
            let ins: Vec<bool> = (0..5).map(|i| (bits >> i) & 1 != 0).collect();
            assert_eq!(code.eval_into(&ins, &mut scratch), aig.eval(&ins));
        }
        assert_eq!(scratch.len(), code.num_registers());
    }

    #[test]
    fn compile_errors_render() {
        let e = CompileError::TooManyNodes { needed: 1 << 33 };
        assert!(e.to_string().contains("registers"));
        let e = CompileError::DanglingOutput { output: 2, var: 99 };
        assert!(e.to_string().contains("output 2"));
    }

    #[test]
    #[should_panic(expected = "expected 2 input values")]
    fn eval_checks_arity() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let code = CompiledAig::compile(&aig).expect("compiles");
        code.eval(&[true]);
    }
}
