//! Release-mode envelope for fraig-first combinational equivalence
//! checking.
//!
//! The fraig sweep proves candidate equivalences pairwise from the inputs
//! outward, so a multiplier pair decomposes into thousands of small
//! queries instead of one resolution-hard miter. Two verdict floors:
//!
//! - **c6288 vs. a locally restructured self settles without any
//!   budget.**
//! - **Locked-vs-original certification** (c1355/c1908 under 32-bit RLL,
//!   correct key re-applied) completes unbudgeted — the exact CEC call
//!   the attack report's verdict column needs.
//!
//! Plus effort ceilings, deterministic counts rather than times: the
//! full-strength sweep of the c6288 pair stays within its SAT-call and
//! decision ceilings, and the recipe-config sweep of a restructured
//! locked c7552 refutes its lookalike candidates by simulation, not pair
//! by pair in SAT, and its solver decides only on each query's two cones.
//!
//! Debug builds skip.

use almost_repro::aig::{fraig_with, Aig, FraigConfig, Lit, Script, Var};
use almost_repro::circuits::{redundify, IscasBenchmark};
use almost_repro::locking::{apply_key, LockingScheme, Rll};
use almost_repro::sat::{check_equivalence, Equivalence};
use almost_repro::testutil::release_mode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// SAT-call ceiling for the full-strength sweep of the c6288 pair in
/// [`fraig_cec_settles_restructured_c6288_with_headroom`]. The sweep
/// makes 151 calls, one proof per absorption wrapper, with no
/// refutation and no escalation; a sweep that proves pairs but does not
/// substitute the representative downstream re-proves every node after a
/// wrapper (2,173 calls). The ceiling keeps the ~4x headroom of
/// [`RECIPE_SWEEP_SAT_CALLS`].
const C6288_PAIR_SAT_CALLS: u64 = 600;

/// Sweep-solver decision ceiling for the same sweep. It makes 5,553
/// decisions (the non-substituting sweep makes 29,584); the ceiling keeps
/// the ~1.45x headroom of [`RECIPE_SWEEP_DECISIONS`].
const C6288_PAIR_DECISIONS: u64 = 8_000;

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

/// Both sides' outputs in one netlist over shared inputs: the network
/// `check_equivalence` sweeps before its residual SAT query.
fn joint(a: &Aig, b: &Aig) -> Aig {
    let mut joint = Aig::new();
    let inputs: Vec<Lit> = (0..a.num_inputs()).map(|_| joint.add_input()).collect();
    for side in [a, b] {
        let leaves: HashMap<Var, Lit> = side.inputs().iter().copied().zip(inputs.clone()).collect();
        for o in side.copy_cone_into(&mut joint, side.outputs(), &leaves) {
            joint.add_output(o);
        }
    }
    joint
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

    let (_, stats) = fraig_with(&joint(&original, &restructured), &FraigConfig::default());
    println!("c6288 redundified pair, full-strength fraig: {stats:?}");
    assert!(
        stats.sat_calls <= C6288_PAIR_SAT_CALLS,
        "c6288 pair sweep made {} SAT calls (ceiling {C6288_PAIR_SAT_CALLS}): {stats:?}",
        stats.sat_calls
    );
    assert!(
        stats.decisions <= C6288_PAIR_DECISIONS,
        "c6288 pair sweep made {} decisions (ceiling {C6288_PAIR_DECISIONS}): {stats:?}",
        stats.decisions
    );

    let verdict = check_equivalence(&original, &restructured);
    assert_eq!(
        verdict,
        Equivalence::Equivalent,
        "redundification must be equivalence-preserving on c6288"
    );
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
