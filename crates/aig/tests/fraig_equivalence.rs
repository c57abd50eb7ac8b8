//! Differential verification of the fraig sweep.
//!
//! Every property here holds the sweep to the only standard that matters
//! for a CEC engine: the swept network must be *provably* — not
//! probably — equivalent to its input. Each netlist is checked two
//! independent ways:
//!
//! 1. **Full SAT CEC** via [`almost_sat::check_equivalence`] (itself
//!    fraig-first, so agreement also exercises the joint-netlist path);
//! 2. **Bit-for-bit compiled simulation**: both netlists are lowered
//!    through [`CompiledAig`] and evaluated on 128 random patterns
//!    (two 64-bit words — comfortably past the 65-pattern floor that
//!    distinguishes word-boundary bugs).
//!
//! The inputs come from two sources: random strashed AIGs, and the
//! netlists produced by all five logic-locking schemes — the workload
//! the paper's oracle-guided attacks sweep in their inner loop.
//!
//! The bit-parallel ternary constant scan is also held to the scalar
//! cofactor walks it replaces, on random AIGs and locked ISCAS circuits.

use almost_aig::fraig::{ternary_constant_scan, TERNARY_SPLITS};
use almost_aig::sim::{ternary_node_values, Ternary};
use almost_aig::{fraig_with, Aig, CompiledAig, FraigConfig, Lit, Var};
use almost_circuits::IscasBenchmark;
use almost_locking::{apply_key, AntiSat, LockingScheme, MuxLock, Rll, SarLock, Stacked};
use almost_sat::{check_equivalence, Equivalence};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_aig(num_inputs: usize, num_ands: usize, seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
    let mut guard = 0;
    while aig.num_ands() < num_ands && guard < num_ands * 20 {
        guard += 1;
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
    for i in 0..4.min(pool.len()) {
        let lit = pool[pool.len() - 1 - i];
        aig.add_output(lit);
    }
    aig
}

/// SAT CEC plus 128-pattern compiled differential between `original` and
/// `swept`.
fn assert_equivalent(original: &Aig, swept: &Aig, seed: u64) {
    assert_eq!(
        check_equivalence(original, swept),
        Equivalence::Equivalent,
        "SAT CEC refuted the sweep"
    );

    const NUM_WORDS: usize = 2; // 128 patterns >= 65.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF_BEEF);
    let input_words: Vec<Vec<u64>> = (0..original.num_inputs())
        .map(|_| (0..NUM_WORDS).map(|_| rng.random()).collect())
        .collect();
    let before = CompiledAig::compile(original);
    let after = CompiledAig::compile(swept);
    assert_eq!(
        before.eval_words(&input_words, NUM_WORDS),
        after.eval_words(&input_words, NUM_WORDS),
        "compiled simulation diverged after the sweep"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fraig_preserves_random_aigs(
        seed in 0u64..1_000,
        num_inputs in 3usize..8,
        num_ands in 10usize..60,
    ) {
        let aig = random_aig(num_inputs, num_ands, seed);
        let (swept, stats) = fraig_with(&aig, &FraigConfig::default());
        prop_assert!(stats.ands_after <= stats.ands_before);
        // Every refutation splits its pair with a counterexample word.
        prop_assert_eq!(stats.sim_words_added, stats.refuted);
        assert_equivalent(&aig, &swept, seed);
    }

    #[test]
    fn fraig_is_idempotent(seed in 0u64..1_000) {
        // A swept network has no two nodes left to merge: a second sweep
        // must be a (size-preserving) no-op.
        let aig = random_aig(6, 40, seed);
        let (once, first) = fraig_with(&aig, &FraigConfig::default());
        let (twice, stats) = fraig_with(&once, &FraigConfig::default());
        prop_assert_eq!(first.sim_words_added, first.refuted);
        prop_assert_eq!(stats.sim_words_added, stats.refuted);
        prop_assert_eq!(stats.merges, 0);
        prop_assert_eq!(stats.constants, 0);
        prop_assert_eq!(once.num_ands(), twice.num_ands());
    }

    #[test]
    fn recipe_config_preserves_random_aigs(seed in 0u64..1_000) {
        // The bounded config used inside synthesis recipes gives up on
        // hard proofs, but must never merge unsoundly.
        let aig = random_aig(6, 50, seed);
        let (swept, stats) = fraig_with(&aig, &FraigConfig::recipe());
        prop_assert_eq!(stats.escalations, 0);
        prop_assert_eq!(stats.sim_words_added, stats.refuted);
        assert_equivalent(&aig, &swept, seed);
    }

    #[test]
    fn cut_tier_sweeps_are_exhaustively_equivalent(
        seed in 0u64..1_000,
        num_inputs in 6usize..15,
        num_ands in 20usize..120,
    ) {
        // Every input pattern, not a sample: a cut proof that merged two
        // different functions would show on some pattern. One simulation
        // word lets many lookalike pairs reach the cut tier.
        let aig = random_aig(num_inputs, num_ands, seed);
        let one_word = FraigConfig {
            sim_words: 1,
            ..FraigConfig::default()
        };
        for config in [FraigConfig::default(), FraigConfig::recipe(), one_word] {
            let (swept, stats) = fraig_with(&aig, &config);
            prop_assert!(stats.cut_proved <= stats.proved);
            prop_assert_eq!(exhaustive_outputs(&aig), exhaustive_outputs(&swept));
        }
    }

    #[test]
    fn ternary_scan_matches_scalar_cofactor_walks(
        seed in 0u64..1_000,
        num_inputs in 1usize..80,
        num_ands in 10usize..120,
    ) {
        // Up to 80 inputs: past `TERNARY_SPLITS` the lanes run out and the
        // inputs beyond stay `X` in every split.
        let aig = random_aig(num_inputs, num_ands, seed);
        prop_assert_eq!(ternary_constant_scan(&aig), scalar_ternary_scan(&aig));
    }
}

/// Every output of `aig` on every input pattern (pattern `p` sets input
/// `i` to bit `i` of `p`), 64 patterns a word.
fn exhaustive_outputs(aig: &Aig) -> Vec<Vec<u64>> {
    let num_words = (1usize << aig.num_inputs()).div_ceil(64);
    let input_words: Vec<Vec<u64>> = (0..aig.num_inputs())
        .map(|i| {
            (0..num_words)
                .map(|w| (0..64).fold(0, |acc, b| acc | ((((w * 64 + b) >> i) & 1) as u64) << b))
                .collect()
        })
        .collect();
    CompiledAig::compile(aig).eval_words(&input_words, num_words)
}

#[test]
fn cut_tier_proves_pairs_on_random_aigs() {
    // The same inputs as the exhaustive property: the cut tier must
    // actually settle pairs there, not only stay sound.
    let proved_by_cut = (0..16u64)
        .filter(|&seed| {
            let aig = random_aig(6 + (seed % 9) as usize, 80, seed);
            let (swept, stats) = fraig_with(&aig, &FraigConfig::default());
            assert_eq!(exhaustive_outputs(&aig), exhaustive_outputs(&swept));
            stats.cut_proved > 0
        })
        .count();
    assert!(proved_by_cut > 0, "no seed had a cut proof");
}

/// The reference cofactor scan: two scalar ternary walks per split input.
fn scalar_ternary_scan(aig: &Aig) -> Vec<Ternary> {
    let mut result = vec![Ternary::X; aig.num_nodes()];
    let mut inputs = vec![Ternary::X; aig.num_inputs()];
    for i in 0..aig.num_inputs().min(TERNARY_SPLITS) {
        inputs[i] = Ternary::Zero;
        let lo = ternary_node_values(aig, &inputs);
        inputs[i] = Ternary::One;
        let hi = ternary_node_values(aig, &inputs);
        inputs[i] = Ternary::X;
        for v in aig.iter_vars() {
            let v = v as usize;
            if result[v] == Ternary::X
                && aig.is_and(v as Var)
                && lo[v] != Ternary::X
                && lo[v] == hi[v]
            {
                result[v] = lo[v];
            }
        }
    }
    result
}

#[test]
fn ternary_scan_splits_only_the_first_lanes_inputs() {
    // `(x & y) & !x` is a hidden constant, found by splitting on `x`
    // only: inside the lane cap it folds, past it it stays `X`.
    let mut aig = Aig::new();
    let inputs: Vec<Lit> = (0..TERNARY_SPLITS + 6).map(|_| aig.add_input()).collect();
    let y = inputs[1];
    let mut hidden = Vec::new();
    for x in [3, TERNARY_SPLITS - 1, TERNARY_SPLITS, TERNARY_SPLITS + 5] {
        let xy = aig.and(inputs[x], y);
        let g = aig.and(xy, !inputs[x]);
        aig.add_output(g);
        hidden.push(g.var() as usize);
    }
    let scan = ternary_constant_scan(&aig);
    assert_eq!(scan, scalar_ternary_scan(&aig));
    let found: Vec<Ternary> = hidden.iter().map(|&v| scan[v]).collect();
    assert_eq!(
        found,
        [Ternary::Zero, Ternary::Zero, Ternary::X, Ternary::X],
        "inputs 3 and {} are split, {} and {} are not",
        TERNARY_SPLITS - 1,
        TERNARY_SPLITS,
        TERNARY_SPLITS + 5
    );
}

#[test]
fn ternary_scan_matches_scalar_on_locked_iscas() {
    // Locked netlists are where hidden constants live: key gates next to
    // their own inputs, and point functions over the key. c7552 has more
    // inputs than lanes.
    for (bench, key_bits) in [
        (IscasBenchmark::C432, 16),
        (IscasBenchmark::C1355, 32),
        (IscasBenchmark::C7552, 128),
    ] {
        let mut rng = StdRng::seed_from_u64(bench.name().len() as u64);
        let schemes: Vec<Box<dyn LockingScheme>> = vec![
            Box::new(Rll::new(key_bits)),
            Box::new(Stacked::new(Rll::new(8), SarLock::new(8))),
        ];
        for scheme in schemes {
            let locked = scheme.lock(&bench.build(), &mut rng).expect("lockable");
            let fast = ternary_constant_scan(&locked.aig);
            assert_eq!(
                fast,
                scalar_ternary_scan(&locked.aig),
                "{bench} {}: bit-parallel scan disagrees with the scalar walks",
                scheme.name()
            );
        }
    }
}

#[test]
fn all_five_locking_schemes_fraig_clean() {
    // The workload that motivates the engine: locked netlists carry
    // point-function tails and redundant key logic that simulation alone
    // cannot certify. Sweep each scheme's output and prove it unchanged,
    // then re-specialise with the correct key and prove the original
    // function still falls out.
    for seed in [7u64, 21] {
        let base = random_aig(8, 60, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x10C4);
        let schemes: Vec<Box<dyn LockingScheme>> = vec![
            Box::new(Rll::new(8)),
            Box::new(SarLock::new(6)),
            Box::new(AntiSat::new(4)),
            Box::new(MuxLock::new(8)),
            Box::new(Stacked::new(Rll::new(4), SarLock::new(4))),
        ];
        for scheme in schemes {
            let locked = scheme.lock(&base, &mut rng).expect("lockable");
            let (swept, stats) = fraig_with(&locked.aig, &FraigConfig::default());
            assert!(
                stats.ands_after <= stats.ands_before,
                "{}: sweep grew the netlist",
                scheme.name()
            );
            assert_equivalent(&locked.aig, &swept, seed);

            // `compact` preserves input order, so the key-input range of
            // the swept netlist is still `key_input_start..`.
            let keyed = apply_key(&swept, locked.key_input_start, locked.key.bits());
            assert_eq!(
                check_equivalence(&base, &keyed),
                Equivalence::Equivalent,
                "{}: correct key no longer recovers the original after the sweep",
                scheme.name()
            );
        }
    }
}

#[test]
fn ternary_constants_are_sat_confirmed() {
    // g = (a & b) & !a is identically false, yet survives strash (the
    // hash only folds one-level patterns). The ternary cofactor scan must
    // find it without a SAT call, and full CEC must confirm the fold.
    let mut aig = Aig::new();
    let a = aig.add_input();
    let b = aig.add_input();
    let ab = aig.and(a, b);
    let g = aig.and(ab, !a);
    let live = aig.and(a, b); // keep a non-constant output alongside
    aig.add_output(g);
    aig.add_output(live);

    let (swept, stats) = fraig_with(&aig, &FraigConfig::default());
    assert!(
        stats.ternary_constants > 0,
        "cofactor scan missed the hidden constant"
    );
    assert_eq!(swept.outputs()[0], Lit::FALSE);
    assert_eq!(
        check_equivalence(&aig, &swept),
        Equivalence::Equivalent,
        "SAT disagrees with the ternary constant fold"
    );
}

#[test]
fn swept_network_is_identical_across_solver_widths() {
    // Escalated proofs race `ALMOST_SOLVERS` portfolio workers, but an
    // UNSAT verdict is an UNSAT verdict regardless of which worker found
    // it — so the *merged network* must be bit-identical at any width.
    // `hard_conflicts: 1` trips the in-line budget on every non-trivial
    // query, forcing the portfolio path to actually run. The graph is
    // three XOR chains over the same ten inputs, each in its own input
    // order: their outputs are equal, but the chains share no
    // intermediate function on fewer than nine inputs, so each proof
    // outgrows an 8-leaf cut and reaches SAT (on a small graph the cut
    // tier proves every pair and nothing escalates). Random simulation
    // splits every inequivalent pair, so every escalated query is a
    // proof: a refutation's counterexample would depend on the winning
    // worker and could change which later queries escalate.
    let mut aig = Aig::new();
    let ins: Vec<Lit> = (0..10).map(|_| aig.add_input()).collect();
    for order in [
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        [9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
        [0, 2, 4, 6, 8, 1, 3, 5, 7, 9],
    ] {
        let out = order[1..]
            .iter()
            .fold(ins[order[0]], |acc, &i| aig.xor(acc, ins[i]));
        aig.add_output(out);
    }
    let config = FraigConfig {
        hard_conflicts: 1,
        escalate: true,
        ..FraigConfig::default()
    };
    let run = |width: &str| {
        std::env::set_var("ALMOST_SOLVERS", width);
        let out = fraig_with(&aig, &config);
        std::env::remove_var("ALMOST_SOLVERS");
        out
    };
    let (serial, serial_stats) = run("1");
    let (wide, wide_stats) = run("3");
    assert!(
        serial_stats.escalations > 0,
        "a 1-conflict budget should force portfolio escalations"
    );
    assert_eq!(serial_stats.escalations, wide_stats.escalations);
    assert_eq!(serial.num_nodes(), wide.num_nodes());
    assert_eq!(serial.num_ands(), wide.num_ands());
    assert_eq!(serial.inputs(), wide.inputs());
    assert_eq!(serial.outputs(), wide.outputs());
}
