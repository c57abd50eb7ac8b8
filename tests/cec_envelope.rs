//! Release-mode envelope for fraig-first combinational equivalence
//! checking.
//!
//! PR 3 gave `check_equivalence` a monolithic miter; anything arithmetic
//! (the c6288 multiplier above all) had to hide behind a conflict budget
//! and answer `None`. The fraig sweep removes the crutch: candidate
//! equivalences are proved pairwise from the inputs outward, so the
//! multiplier pair decomposes into thousands of small queries instead of
//! one resolution-hard miter. Two floors:
//!
//! - **c6288 vs. a locally restructured self settles without any
//!   budget**, and at least 5x faster than the legacy monolithic path
//!   spends *failing* (or succeeding, on the off chance the budget
//!   suffices) at the same job.
//! - **Locked-vs-original certification** (c1355/c1908 under 32-bit RLL,
//!   correct key re-applied) completes unbudgeted — the exact CEC call
//!   the attack report's verdict column needs.
//!
//! Plus two effort ceilings, deterministic counts rather than times: the
//! recipe-config sweep of a restructured locked c7552 refutes its
//! lookalike candidates by simulation, not pair by pair in SAT, and its
//! solver decides only on each query's two cones.
//!
//! Timings are wall-clock once per path (the margin is large enough that
//! best-of-N would be theatre). Debug builds skip.

use almost_repro::aig::{fraig_with, Aig, FraigConfig, Lit, NodeKind, Script};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::{apply_key, LockingScheme, Rll};
use almost_repro::sat::{check_equivalence, check_equivalence_limited, Equivalence};
use almost_repro::testutil::release_mode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Conflict budget for the legacy monolithic reference point — generous
/// enough that spending it takes real time, far too small to crack a
/// multiplier miter.
const LEGACY_BUDGET: u64 = 20_000;

/// SAT-call ceiling for the recipe-config sweep in
/// [`recipe_fraig_splits_lookalike_classes_by_simulation`]. With every
/// counterexample fed back the sweep makes 78 calls; a sweep that stops
/// feeding them back after 16 words re-refutes each lookalike class pair
/// by pair (1225 calls here, 881–4159 over lock seeds 0–2).
const RECIPE_SWEEP_SAT_CALLS: u64 = 300;

/// Sweep-solver decision ceiling for the same sweep. Deciding only on
/// each query's two cones it makes 9,705 decisions; deciding on every
/// variable of the incremental solver (the cones of all earlier queries
/// too) it made 18,969.
const RECIPE_SWEEP_DECISIONS: u64 = 14_000;

/// Rebuilds `aig` with every `stride`-th AND wrapped in the absorption
/// identity `u -> (u & s) | (u & !s)` (select `s` = first input).
///
/// The wrapper survives strash (the hash only folds one-level patterns),
/// so the result is functionally identical but structurally divergent
/// from the wrapper onward — the profile a resynthesized or key-locked
/// netlist presents to CEC. `resyn2` is a fixpoint on the array
/// multiplier (it returns c6288 unchanged), so this transform is what
/// stands in for "the same function, restructured".
fn redundify(aig: &Aig, stride: usize) -> Aig {
    let mut out = Aig::new();
    let inputs: Vec<Lit> = (0..aig.num_inputs()).map(|_| out.add_input()).collect();
    let select = inputs[0];
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for (i, &v) in aig.inputs().iter().enumerate() {
        map[v as usize] = inputs[i];
    }
    let mut ands = 0usize;
    for v in 0..aig.num_nodes() {
        if let NodeKind::And(fa, fb) = aig.node(v as u32) {
            let a = map[fa.var() as usize].xor_complement(fa.is_complement());
            let b = map[fb.var() as usize].xor_complement(fb.is_complement());
            let mut lit = out.and(a, b);
            ands += 1;
            if ands.is_multiple_of(stride) && !lit.is_const() {
                let then_arm = out.and(lit, select);
                let else_arm = out.and(lit, !select);
                lit = out.or(then_arm, else_arm);
            }
            map[v] = lit;
        }
    }
    for &o in aig.outputs() {
        out.add_output(map[o.var() as usize].xor_complement(o.is_complement()));
    }
    out
}

#[test]
fn fraig_cec_settles_restructured_c6288_with_headroom() {
    if !release_mode("fraig_cec_settles_restructured_c6288_with_headroom") {
        return;
    }
    let original = IscasBenchmark::C6288.build();
    let restructured = redundify(&original, 16);
    assert!(
        restructured.num_ands() > original.num_ands(),
        "redundification must actually insert wrappers"
    );

    let started = Instant::now();
    let legacy = check_equivalence_limited(&original, &restructured, LEGACY_BUDGET);
    let legacy_secs = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let verdict = check_equivalence(&original, &restructured);
    let fraig_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        verdict,
        Equivalence::Equivalent,
        "redundification must be equivalence-preserving on c6288"
    );

    let speedup = legacy_secs / fraig_secs.max(1e-12);
    println!(
        "c6288 CEC: legacy {legacy_secs:.3}s ({}), fraig-first {fraig_secs:.3}s => {speedup:.1}x",
        match &legacy {
            None => "budget exhausted, no answer".to_string(),
            Some(v) => format!("{v:?}"),
        }
    );
    assert!(
        speedup >= 5.0,
        "fraig-first CEC must beat the {LEGACY_BUDGET}-conflict monolithic miter by >= 5x \
         on the c6288 pair, got {speedup:.1}x (legacy {legacy_secs:.3}s, fraig {fraig_secs:.3}s)"
    );
    if let Some(v) = legacy {
        assert_eq!(v, Equivalence::Equivalent, "budgeted verdict must agree");
    }
}

#[test]
fn locked_benchmarks_certify_unbudgeted_against_their_originals() {
    if !release_mode("locked_benchmarks_certify_unbudgeted_against_their_originals") {
        return;
    }
    for bench in [IscasBenchmark::C1355, IscasBenchmark::C1908] {
        let design = bench.build();
        let mut rng = StdRng::seed_from_u64(0xCEC0 ^ bench.name().len() as u64);
        let locked = Rll::new(32).lock(&design, &mut rng).expect("lockable");

        // Correct key: certification, no budget, must land Equivalent.
        let keyed = apply_key(&locked.aig, locked.key_input_start, locked.key.bits());
        let started = Instant::now();
        assert_eq!(
            check_equivalence(&design, &keyed),
            Equivalence::Equivalent,
            "{bench}: correct key must certify"
        );
        println!(
            "{bench} locked-vs-original certified in {:.3}s",
            started.elapsed().as_secs_f64()
        );

        // One flipped key bit: whatever the verdict, a returned
        // counterexample must actually distinguish the two circuits.
        let mut wrong = locked.key.bits().to_vec();
        wrong[0] = !wrong[0];
        let miskeyed = apply_key(&locked.aig, locked.key_input_start, &wrong);
        if let Equivalence::Counterexample(pattern) = check_equivalence(&design, &miskeyed) {
            assert_ne!(
                design.eval(&pattern),
                miskeyed.eval(&pattern),
                "{bench}: counterexample does not distinguish the circuits"
            );
        }
    }
}

#[test]
fn recipe_fraig_splits_lookalike_classes_by_simulation() {
    if !release_mode("recipe_fraig_splits_lookalike_classes_by_simulation") {
        return;
    }
    // The `g` letter's input in a deployed recipe: RLL-128 c7552 after
    // every other pass. Restructuring leaves large classes of
    // near-constant logic whose signatures random patterns never tell
    // apart; only counterexample words split them.
    let mut rng = StdRng::seed_from_u64(7552);
    let locked = Rll::new(128)
        .lock(&IscasBenchmark::C7552.build(), &mut rng)
        .expect("c7552 takes 128 key gates");
    let restructured = Script::from_mnemonics("wWfFsSb")
        .expect("valid recipe")
        .apply(&locked.aig);
    let (_, stats) = fraig_with(&restructured, &FraigConfig::recipe());
    println!("c7552 RLL-128 after wWfFsSb, recipe fraig: {stats:?}");
    assert_eq!(
        stats.sim_words_added, stats.refuted,
        "every refutation must feed its counterexample back"
    );
    assert!(
        stats.sat_calls <= RECIPE_SWEEP_SAT_CALLS,
        "recipe fraig made {} SAT calls (ceiling {RECIPE_SWEEP_SAT_CALLS}): {stats:?}",
        stats.sat_calls
    );
    assert!(
        stats.decisions <= RECIPE_SWEEP_DECISIONS,
        "recipe fraig made {} decisions (ceiling {RECIPE_SWEEP_DECISIONS}): {stats:?}",
        stats.decisions
    );
}
