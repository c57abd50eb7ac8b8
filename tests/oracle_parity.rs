//! Differential correctness for the oracle: the compiled
//! instruction-buffer evaluator behind `CircuitOracle` must be bit-for-bit
//! identical to the interpreted node walk on every locking scheme, every
//! batch shape, and every degenerate netlist the compiler front door
//! accepts — and both oracles must account queries identically.

use almost_repro::aig::compile::pack_patterns;
use almost_repro::aig::{Aig, CompiledAig, Lit};
use almost_repro::locking::{
    AntiSat, BatchOracle, CircuitOracle, InterpretedOracle, LockingScheme, MuxLock, Oracle, Rll,
    SarLock, Stacked,
};
use almost_repro::netlist::bench_format::{parse_bench, write_bench};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A connected random AIG: the raw material for scheme-agnostic parity.
fn random_aig(num_inputs: usize, num_ands: usize, seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
    let mut guard = 0;
    while aig.num_ands() < num_ands && guard < 20 * num_ands {
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
    for i in 0..3.min(pool.len()) {
        let lit = pool[pool.len() - 1 - i];
        aig.add_output(lit);
    }
    aig
}

fn random_patterns(num_inputs: usize, count: usize, rng: &mut StdRng) -> Vec<Vec<bool>> {
    (0..count)
        .map(|_| (0..num_inputs).map(|_| rng.random()).collect())
        .collect()
}

/// The five locking schemes of the reproduction, trait-object form.
fn all_schemes() -> Vec<Box<dyn LockingScheme>> {
    vec![
        Box::new(Rll::new(8)),
        Box::new(MuxLock::new(8)),
        Box::new(AntiSat::new(4)),
        Box::new(SarLock::new(6)),
        Box::new(Stacked::new(Rll::new(4), AntiSat::new(3))),
    ]
}

/// Asserts that both oracles agree bit-for-bit on `patterns` and account
/// the same number of queries.
fn assert_backend_parity(design: &Aig, patterns: &[Vec<bool>]) {
    let reference = InterpretedOracle::new(design.clone());
    let circuit = CircuitOracle::new(design.clone());

    let want = reference.query_batch(patterns);
    assert_eq!(circuit.query_batch(patterns), want, "circuit != walk");
    assert_eq!(reference.queries_served(), patterns.len());
    assert_eq!(circuit.queries_served(), patterns.len());

    // Scalar path agrees with the batch path, pattern by pattern.
    for (p, w) in patterns.iter().zip(&want) {
        assert_eq!(&circuit.query(p), w);
    }

    // Word-level path agrees with the packed reference answers.
    if !patterns.is_empty() {
        let words = pack_patterns(design.num_inputs(), patterns);
        let num_words = patterns.len().div_ceil(64);
        assert_eq!(
            circuit.query_words(&words, num_words),
            reference.query_words(&words, num_words),
            "word-level compiled != walk"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn compiled_oracle_matches_walk_on_random_aigs(seed in 0u64..100_000) {
        let aig = random_aig(10, 60, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
        // 70 crosses the 64-pattern word boundary.
        let patterns = random_patterns(aig.num_inputs(), 70, &mut rng);
        assert_backend_parity(&aig, &patterns);
    }

    #[test]
    fn compiled_oracle_matches_walk_on_every_scheme(seed in 0u64..100_000) {
        let base = random_aig(12, 90, seed);
        for scheme in all_schemes() {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let Ok(locked) = scheme.lock(&base, &mut rng) else {
                continue; // this random netlist is too small for the scheme
            };
            // Oracle over the *activated* circuit: key hard-wired.
            let oracle_design = almost_repro::locking::apply_key(
                &locked.aig,
                locked.key_input_start,
                locked.key.bits(),
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFACADE);
            let patterns = random_patterns(oracle_design.num_inputs(), 65, &mut rng);
            assert_backend_parity(&oracle_design, &patterns);
            // And over the locked netlist itself (key inputs exposed).
            let mut rng = StdRng::seed_from_u64(seed ^ 0x10C8);
            let patterns = random_patterns(locked.aig.num_inputs(), 33, &mut rng);
            assert_backend_parity(&locked.aig, &patterns);
        }
    }

    #[test]
    fn single_pattern_and_empty_batches(seed in 0u64..100_000) {
        let aig = random_aig(8, 40, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_backend_parity(&aig, &random_patterns(aig.num_inputs(), 1, &mut rng));
        assert_backend_parity(&aig, &[]);
        let oracle = CircuitOracle::new(aig);
        assert_eq!(oracle.query_batch(&[]), Vec::<Vec<bool>>::new());
        assert_eq!(oracle.queries_served(), 0, "empty batch must count nothing");
    }

    #[test]
    fn query_counters_advance_by_pattern_count(seed in 0u64..100_000, n in 0usize..130) {
        let aig = random_aig(6, 30, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let patterns = random_patterns(aig.num_inputs(), n, &mut rng);
        let walk = InterpretedOracle::new(aig.clone());
        let circuit = CircuitOracle::new(aig);
        for oracle in [&walk as &dyn BatchOracle, &circuit] {
            oracle.query_batch(&patterns);
            prop_assert_eq!(oracle.queries_served(), n);
            for p in &patterns {
                oracle.query(p);
            }
            prop_assert_eq!(oracle.queries_served(), 2 * n);
        }
    }
}

// ---------------------------------------------------------------------
// Compiler front door: degenerate and adversarial netlists.
// ---------------------------------------------------------------------

#[test]
fn zero_input_and_constant_only_netlists_never_panic() {
    // No inputs, constant outputs.
    let mut aig = Aig::new();
    aig.add_output(Lit::FALSE);
    aig.add_output(Lit::TRUE);
    assert_backend_parity(&aig, &[vec![], vec![], vec![]]);

    // Inputs present but every output cone is constant.
    let mut aig = Aig::new();
    let _a = aig.add_input();
    let _b = aig.add_input();
    aig.add_output(Lit::TRUE);
    let mut rng = StdRng::seed_from_u64(1);
    assert_backend_parity(&aig, &random_patterns(2, 5, &mut rng));

    // A bare wire: output = input, zero instructions.
    let mut aig = Aig::new();
    let a = aig.add_input();
    aig.add_output(a);
    let code = CompiledAig::compile(&aig);
    assert_eq!(code.stats().instructions, 0);
    assert_backend_parity(&aig, &[vec![false], vec![true]]);

    // No outputs at all: a legal if useless oracle.
    let mut aig = Aig::new();
    let _ = aig.add_input();
    assert_backend_parity(&aig, &random_patterns(1, 3, &mut rng));
}

#[test]
#[should_panic(expected = "nonexistent node")]
fn dangling_outputs_are_refused_at_the_builder() {
    // The append-only builder rejects dangling outputs before the compiler
    // ever sees them, which is one reason `CompiledAig::compile` cannot
    // fail. Pin the refusal.
    let mut aig = Aig::new();
    let _ = aig.add_input();
    aig.add_output(Lit::positive(99));
}

#[test]
fn bench_round_trip_artifacts_compile_to_the_same_function() {
    for seed in 0..4u64 {
        let aig = random_aig(7, 35, seed);
        let text = write_bench(&aig);
        let parsed = parse_bench(&text).expect("round trip parses");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB15);
        let patterns = random_patterns(aig.num_inputs(), 70, &mut rng);
        // Parsed artifact through the compiled backend equals the original
        // through the interpreted walk: parser and compiler compose.
        let original = InterpretedOracle::new(aig);
        let reparsed = CircuitOracle::new(parsed);
        assert_eq!(
            reparsed.query_batch(&patterns),
            original.query_batch(&patterns)
        );
    }
}

#[test]
fn garbage_bench_text_errors_without_panicking() {
    for text in [
        "",
        "INPUT(",
        "OUTPUT(x)\n",
        "y = AND(a, b)\n",
        "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",
        "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n# truncated",
        "\u{0}\u{1}\u{2}",
    ] {
        // Err or Ok are both acceptable; panics are not. Anything that
        // parses must also survive the compiler front door.
        if let Ok(aig) = parse_bench(text) {
            let _ = CompiledAig::compile(&aig);
        }
    }
}
