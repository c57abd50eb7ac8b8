//! Property tests for the SAT-resilient locking family (in-tree proptest
//! shim): functional soundness of Anti-SAT, SARLock and their stacked
//! compounds across random seeds and key sizes.
//!
//! - The locked circuit under the *correct* key is CEC-equivalent to the
//!   original.
//! - Any single-bit-wrong key differs from the original on at least one
//!   input (the point function guarantees a witness: the comparator fires
//!   on exactly the pattern spelled by the wrong key).
//! - `LockError::NotEnoughGates` fires on circuits too small to tap,
//!   `LockError::EmptyKey` on zero-width keys and `LockError::NoOutputs`
//!   on netlists without outputs.
//! - Degenerate key sizes (0 and `usize::MAX`) return an error from every
//!   scheme, gate-locking and stacked ones included, and never panic.

use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::{
    apply_key, AntiSat, LockError, LockingScheme, MuxLock, Rll, SarLock, Stacked,
};
use almost_repro::sat::{check_equivalence, Equivalence};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schemes(k: usize) -> Vec<Box<dyn LockingScheme>> {
    vec![
        Box::new(SarLock::new(k)),
        Box::new(AntiSat::new(k)),
        Box::new(Stacked::new(Rll::new(4), SarLock::new(k))),
        Box::new(Stacked::new(Rll::new(4), AntiSat::new(k))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn correct_key_is_cec_equivalent(seed in 0u64..1000, k in 3usize..6) {
        let design = IscasBenchmark::C432.build();
        for scheme in schemes(k) {
            let mut rng = StdRng::seed_from_u64(seed ^ (k as u64) << 3);
            let locked = scheme.lock(&design, &mut rng).expect("lockable");
            let restored = apply_key(&locked.aig, locked.key_input_start, locked.key.bits());
            prop_assert_eq!(
                check_equivalence(&design, &restored),
                Equivalence::Equivalent,
                "{} must be sound under the correct key",
                scheme.name()
            );
        }
    }

    #[test]
    fn any_single_bit_wrong_key_has_a_witness(seed in 0u64..1000, k in 3usize..5) {
        // Point-function schemes only: the comparator structure makes the
        // single-bit guarantee *exact* (a flipped bit always awakens the
        // flip signal on at least one input pattern).
        let design = IscasBenchmark::C432.build();
        for scheme in [
            Box::new(SarLock::new(k)) as Box<dyn LockingScheme>,
            Box::new(AntiSat::new(k)),
        ] {
            let mut rng = StdRng::seed_from_u64(seed ^ (k as u64) << 7);
            let locked = scheme.lock(&design, &mut rng).expect("lockable");
            for bit in 0..locked.key_size() {
                let mut wrong = locked.key.bits().to_vec();
                wrong[bit] = !wrong[bit];
                let broken = apply_key(&locked.aig, locked.key_input_start, &wrong);
                prop_assert!(
                    matches!(
                        check_equivalence(&design, &broken),
                        Equivalence::Counterexample(_)
                    ),
                    "{}: flipping key bit {bit} must corrupt the function",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn single_overlay_bit_wrong_compound_key_has_a_witness(seed in 0u64..1000) {
        // Stacked compounds inherit the guarantee for overlay bits.
        let design = IscasBenchmark::C432.build();
        let scheme = Stacked::new(Rll::new(6), SarLock::new(4));
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = scheme.lock(&design, &mut rng).expect("lockable");
        for bit in 6..locked.key_size() {
            let mut wrong = locked.key.bits().to_vec();
            wrong[bit] = !wrong[bit];
            let broken = apply_key(&locked.aig, locked.key_input_start, &wrong);
            prop_assert!(
                matches!(
                    check_equivalence(&design, &broken),
                    Equivalence::Counterexample(_)
                ),
                "flipping overlay key bit {bit} must corrupt the function"
            );
        }
    }
}

#[test]
fn not_enough_gates_fires_on_tiny_circuits() {
    // A 2-input circuit cannot host a 4-bit point function: the schemes
    // must refuse with the structured error, not mis-lock.
    let mut tiny = almost_repro::aig::Aig::new();
    let a = tiny.add_input();
    let b = tiny.add_input();
    let f = tiny.and(a, b);
    tiny.add_output(f);

    let mut rng = StdRng::seed_from_u64(1);
    for scheme in [
        Box::new(SarLock::new(4)) as Box<dyn LockingScheme>,
        Box::new(AntiSat::new(4)),
    ] {
        match scheme.lock(&tiny, &mut rng) {
            Err(LockError::NotEnoughGates {
                available,
                requested,
            }) => {
                assert_eq!(available, 2, "{}: two tappable inputs", scheme.name());
                assert_eq!(requested, 4);
            }
            other => panic!("{}: expected NotEnoughGates, got {other:?}", scheme.name()),
        }
    }
    // Zero-width point functions are rejected as such (degenerate
    // comparator), not as a shortage of gates.
    assert_eq!(
        SarLock::new(0).lock(&tiny, &mut rng).err(),
        Some(LockError::EmptyKey)
    );
    assert_eq!(
        AntiSat::new(0).lock(&tiny, &mut rng).err(),
        Some(LockError::EmptyKey)
    );

    // The compound propagates whichever layer fails.
    let err = Stacked::new(Rll::new(1), SarLock::new(64))
        .lock(&tiny, &mut rng)
        .expect_err("overlay cannot tap 64 inputs");
    assert!(matches!(
        err,
        LockError::NotEnoughGates { requested: 64, .. }
    ));
}

#[test]
fn no_outputs_is_its_own_error() {
    // Plenty of inputs to tap, but no output to corrupt.
    let mut headless = almost_repro::aig::Aig::new();
    let ins: Vec<_> = (0..8).map(|_| headless.add_input()).collect();
    headless.and(ins[0], ins[1]);

    let mut rng = StdRng::seed_from_u64(2);
    for scheme in [
        Box::new(SarLock::new(4)) as Box<dyn LockingScheme>,
        Box::new(AntiSat::new(4)),
    ] {
        let err = scheme
            .lock(&headless, &mut rng)
            .expect_err("nothing to lock");
        assert_eq!(err, LockError::NoOutputs, "{}", scheme.name());
        assert!(err.to_string().contains("no outputs"), "{err}");
    }
}

#[test]
fn degenerate_key_sizes_error_without_panicking() {
    let design = IscasBenchmark::C432.build();
    let mut rng = StdRng::seed_from_u64(3);
    // Gate-locking schemes refuse a 0-bit key like the point functions
    // do, and report an unfillable key as a shortage of gates.
    for (scheme, want) in [
        (
            Box::new(Rll::new(0)) as Box<dyn LockingScheme>,
            LockError::EmptyKey,
        ),
        (Box::new(MuxLock::new(0)), LockError::EmptyKey),
        (Box::new(SarLock::new(0)), LockError::EmptyKey),
        (Box::new(AntiSat::new(0)), LockError::EmptyKey),
        (
            Box::new(Rll::new(usize::MAX)),
            LockError::NotEnoughGates {
                available: design.num_ands(),
                requested: usize::MAX,
            },
        ),
        (
            Box::new(MuxLock::new(usize::MAX)),
            LockError::NotEnoughGates {
                available: design.num_ands() - 1,
                requested: usize::MAX,
            },
        ),
    ] {
        assert_eq!(
            scheme.lock(&design, &mut rng).err(),
            Some(want),
            "{}",
            scheme.name()
        );
    }
    // A stack fails with whichever layer cannot lock.
    for (scheme, want_empty) in [
        (
            Box::new(Stacked::new(Rll::new(0), SarLock::new(4))) as Box<dyn LockingScheme>,
            true,
        ),
        (Box::new(Stacked::new(Rll::new(4), SarLock::new(0))), true),
        (
            Box::new(Stacked::new(MuxLock::new(0), AntiSat::new(4))),
            true,
        ),
        (Box::new(Stacked::new(Rll::new(4), AntiSat::new(0))), true),
        (
            Box::new(Stacked::new(Rll::new(usize::MAX), SarLock::new(4))),
            false,
        ),
        (
            Box::new(Stacked::new(Rll::new(4), SarLock::new(usize::MAX))),
            false,
        ),
        (
            Box::new(Stacked::new(MuxLock::new(usize::MAX), AntiSat::new(4))),
            false,
        ),
        (
            Box::new(Stacked::new(Rll::new(4), AntiSat::new(usize::MAX))),
            false,
        ),
    ] {
        let err = scheme
            .lock(&design, &mut rng)
            .expect_err("a degenerate layer cannot lock");
        if want_empty {
            assert_eq!(err, LockError::EmptyKey, "{}", scheme.name());
        } else {
            assert!(
                matches!(
                    err,
                    LockError::NotEnoughGates {
                        requested: usize::MAX,
                        ..
                    }
                ),
                "{}: {err:?}",
                scheme.name()
            );
        }
    }
}
