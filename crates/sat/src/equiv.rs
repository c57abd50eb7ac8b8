//! SAT-based combinational equivalence checking (CEC) and stuck-at-fault
//! test-pattern generation (ATPG).
//!
//! Both pose a *miter* query: two circuit copies share the primary
//! inputs, corresponding outputs are XOR-ed, and the solver searches for
//! an input assignment that makes any XOR true. CEC first sweeps the
//! joint network with fraig, so only the output pairs the sweep could
//! not merge reach that query; ATPG poses it directly on the good and
//! the faulty copy.

use crate::portfolio::PortfolioSolver;
use crate::solver::{SatLit, SatResult, SatVar, Solver};
use almost_aig::cnf::{cone_memo, constant_false, encode_cone, encode_xor};
use almost_aig::{fraig_with, Aig, FraigConfig, Lit, Var};
use std::collections::HashMap;

/// Outcome of a combinational equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Equivalence {
    /// The two circuits are functionally identical on every output.
    Equivalent,
    /// A distinguishing input assignment (in primary-input order).
    Counterexample(Vec<bool>),
}

/// Proves or refutes functional equivalence of two AIGs with identical
/// interfaces — *fraig-first*.
///
/// The two circuits are copied into one joint netlist over shared
/// inputs, where the structural hash already identifies every
/// syntactically shared cone, and the joint network is then swept by
/// [`mod@almost_aig::fraig`]: simulation signatures partition the nodes into
/// candidate classes, and one incremental SAT solver proves (or refutes,
/// feeding the counterexample back into the signatures) the candidates
/// pair by pair, from the inputs outward. Output pairs whose cones merge
/// collapse to the *identical literal* — proved equivalent without ever
/// posing the monolithic miter query. Only the residual output pairs
/// (if any) go to a final SAT call, which typically has most of its
/// internal equivalences already merged away.
///
/// This is why no conflict budget is needed here: sweeping decomposes
/// the proof into many small input-to-output queries, which is
/// dramatically faster than the single end-to-end miter on structurally
/// similar circuits (the common CEC case: original vs. resynthesized,
/// locked vs. key-programmed). Hard *residual* queries are escalated by
/// the sweep to a portfolio honouring `ALMOST_SOLVERS`. The verdict is
/// always definitive: a proof or a counterexample, never "undecided".
///
/// # Panics
///
/// Panics if the input or output counts differ.
pub fn check_equivalence(a: &Aig, b: &Aig) -> Equivalence {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");

    // One joint netlist over shared inputs: strash unifies shared
    // structure immediately, the sweep merges the semantically equal
    // rest.
    let mut joint = Aig::new();
    let inputs: Vec<Lit> = (0..a.num_inputs()).map(|_| joint.add_input()).collect();
    let leaf_map_a: HashMap<Var, Lit> = a
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, inputs[i]))
        .collect();
    let outs_a = a.copy_cone_into(&mut joint, a.outputs(), &leaf_map_a);
    let leaf_map_b: HashMap<Var, Lit> = b
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, inputs[i]))
        .collect();
    let outs_b = b.copy_cone_into(&mut joint, b.outputs(), &leaf_map_b);
    for &o in outs_a.iter().chain(&outs_b) {
        joint.add_output(o);
    }

    let (swept, _stats) = fraig_with(&joint, &FraigConfig::default());
    let n = a.num_outputs();
    let residual: Vec<usize> = (0..n)
        .filter(|&i| swept.outputs()[i] != swept.outputs()[i + n])
        .collect();
    if residual.is_empty() {
        return Equivalence::Equivalent;
    }

    // Residual outputs: the sweep could not merge them (either truly
    // inequivalent, or equivalent only through a proof it skipped).
    // Settle them with one unbudgeted portfolio query over the cones of
    // the residual pairs in the swept — already internally reduced —
    // network.
    let mut solver = PortfolioSolver::new("cec");
    let input_vars: Vec<SatVar> = (0..swept.num_inputs()).map(|_| solver.new_var()).collect();
    let f = constant_false(&mut solver);
    let mut memo = cone_memo(&swept, f, &input_vars);
    let diffs: Vec<SatLit> = residual
        .iter()
        .map(|&i| {
            let la = encode_cone(&mut solver, &swept, &mut memo, swept.outputs()[i]);
            let lb = encode_cone(&mut solver, &swept, &mut memo, swept.outputs()[i + n]);
            encode_xor(&mut solver, la, lb)
        })
        .collect();
    solver.add_clause(&diffs);
    match solver.solve(&[]) {
        SatResult::Unsat => Equivalence::Equivalent,
        SatResult::Sat => Equivalence::Counterexample(
            input_vars
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect(),
        ),
    }
}

/// Searches for a test pattern exposing the stuck-at-`stuck_value` fault on
/// AIG node `node`.
///
/// Returns `Some(pattern)` (primary-input assignment) if the fault is
/// testable, `None` if it is *untestable* (redundant) — the quantity the
/// redundancy attack counts.
///
/// The good and the faulty copy share the input variables and nothing
/// else; each encodes only the output cones, and the faulty copy's memo
/// holds the stuck value for `node`, so its cone is never encoded there.
///
/// # Panics
///
/// Panics if `node` is out of range for `aig`.
pub fn test_stuck_at(aig: &Aig, node: Var, stuck_value: bool) -> Option<Vec<bool>> {
    assert!((node as usize) < aig.num_nodes());
    let mut solver = Solver::new();
    let inputs: Vec<SatVar> = (0..aig.num_inputs()).map(|_| solver.new_var()).collect();
    let f = constant_false(&mut solver);
    let mut good = cone_memo(aig, f, &inputs);
    let mut faulty = good.clone();
    faulty[node as usize] = Some(if stuck_value { !f } else { f });
    let diffs: Vec<SatLit> = aig
        .outputs()
        .iter()
        .map(|&o| {
            let la = encode_cone(&mut solver, aig, &mut good, o);
            let lb = encode_cone(&mut solver, aig, &mut faulty, o);
            encode_xor(&mut solver, la, lb)
        })
        .collect();
    solver.add_clause(&diffs);

    match solver.solve(&[]) {
        SatResult::Unsat => None,
        SatResult::Sat => Some(
            inputs
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_aig::passes::Script;
    use almost_aig::{Aig, CompiledAig, NodeKind, Pass};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_aig(num_inputs: usize, num_ands: usize, seed: u64) -> Aig {
        // Every AND over one input folds to a constant or the input, so
        // fewer than two inputs would never reach `num_ands`.
        assert!(num_inputs >= 2, "random_aig needs at least two inputs");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aig = Aig::new();
        let mut pool: Vec<almost_aig::Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
        while aig.num_ands() < num_ands {
            let a = pool[rng.random_range(0..pool.len())];
            let b = pool[rng.random_range(0..pool.len())];
            let lit = aig.and(
                a.xor_complement(rng.random()),
                b.xor_complement(rng.random()),
            );
            if !lit.is_const() {
                pool.push(lit);
            }
        }
        for i in 0..3.min(pool.len()) {
            let lit = pool[pool.len() - 1 - i];
            aig.add_output(lit);
        }
        aig
    }

    #[test]
    fn identical_circuits_are_equivalent() {
        let aig = random_aig(6, 40, 1);
        assert_eq!(
            check_equivalence(&aig, &aig.clone()),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn synthesis_passes_proved_equivalent() {
        // The strongest validation of the synthesis substrate: SAT-proved
        // equivalence after every pass, not just random simulation.
        let aig = random_aig(8, 60, 2);
        for pass in Pass::ALL {
            let out = pass.apply(&aig);
            assert_eq!(
                check_equivalence(&aig, &out),
                Equivalence::Equivalent,
                "{pass} is not equivalence-preserving"
            );
        }
    }

    #[test]
    fn resyn2_proved_equivalent() {
        let aig = random_aig(8, 80, 3);
        let out = Script::resyn2().apply(&aig);
        assert_eq!(check_equivalence(&aig, &out), Equivalence::Equivalent);
    }

    #[test]
    fn counterexample_is_reported_and_valid() {
        let mut a = Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let f = a.and(x, y);
        a.add_output(f);
        let mut b = Aig::new();
        let x2 = b.add_input();
        let y2 = b.add_input();
        let g = b.or(x2, y2);
        b.add_output(g);
        match check_equivalence(&a, &b) {
            Equivalence::Counterexample(pattern) => {
                assert_ne!(a.eval(&pattern), b.eval(&pattern));
            }
            Equivalence::Equivalent => panic!("AND and OR are not equivalent"),
        }
    }

    #[test]
    fn testable_fault_has_valid_pattern() {
        // f = a & b: stuck-at-0 on f is testable with a=b=1.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let pattern = test_stuck_at(&aig, f.var(), false).expect("testable");
        assert_eq!(pattern, vec![true, true]);
    }

    /// `aig` with node `node` replaced by the constant `value`.
    fn with_stuck_at(aig: &Aig, node: Var, value: bool) -> Aig {
        let mut out = Aig::new();
        let mut map = vec![almost_aig::Lit::FALSE; aig.num_nodes()];
        for v in aig.iter_vars() {
            map[v as usize] = match aig.node(v) {
                NodeKind::Const0 => almost_aig::Lit::FALSE,
                NodeKind::Input(_) => out.add_input(),
                NodeKind::And(a, b) => {
                    let fa = map[a.var() as usize].xor_complement(a.is_complement());
                    let fb = map[b.var() as usize].xor_complement(b.is_complement());
                    out.and(fa, fb)
                }
            };
            if v == node {
                map[v as usize] = almost_aig::Lit::new(0, value);
            }
        }
        for &o in aig.outputs() {
            out.add_output(map[o.var() as usize].xor_complement(o.is_complement()));
        }
        out
    }

    #[test]
    fn stuck_at_verdicts_match_brute_force() {
        let (mut testable, mut untestable) = (0, 0);
        for seed in 0..16u64 {
            let num_inputs = 2 + seed as usize % 7;
            let aig = random_aig(num_inputs, 24, 100 + seed);
            let patterns: Vec<Vec<bool>> = (0..1usize << num_inputs)
                .map(|p| (0..num_inputs).map(|i| p >> i & 1 != 0).collect())
                .collect();
            let good = CompiledAig::compile(&aig).expect("compiles");
            let good_out = good.eval_batch(&patterns);
            for node in aig.iter_ands() {
                for stuck in [false, true] {
                    let faulty = with_stuck_at(&aig, node, stuck);
                    let faulty_out = CompiledAig::compile(&faulty)
                        .expect("compiles")
                        .eval_batch(&patterns);
                    let detectable = good_out != faulty_out;
                    match test_stuck_at(&aig, node, stuck) {
                        Some(p) => {
                            assert_ne!(
                                aig.eval(&p),
                                faulty.eval(&p),
                                "seed {seed} node {node} stuck-at-{stuck}: pattern misses"
                            );
                            testable += 1;
                        }
                        None => {
                            assert!(
                                !detectable,
                                "seed {seed} node {node} stuck-at-{stuck}: testable fault missed"
                            );
                            untestable += 1;
                        }
                    }
                }
            }
        }
        assert!(testable > 0 && untestable > 0, "{testable} / {untestable}");
    }

    #[test]
    fn untestable_fault_detected() {
        // out = x | (x & y) == x: the redundant (x & y) node's stuck-at-0 is
        // untestable, while its stuck-at-1 is exposed by x=0 (good out = 0,
        // faulty out = 1).
        let mut aig = Aig::new();
        let x = aig.add_input();
        let y = aig.add_input();
        let xy = aig.and(x, y);
        let out = aig.or(x, xy);
        aig.add_output(out);
        assert!(test_stuck_at(&aig, xy.var(), false).is_none());
        assert!(test_stuck_at(&aig, xy.var(), true).is_some());
    }
}
