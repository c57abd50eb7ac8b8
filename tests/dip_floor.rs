//! DIP-count regression tests: the paper-level security claims of the
//! SAT-resilient locking family as unit-testable floors.
//!
//! - Anti-SAT with an `n`-input block forces the exact SAT attack to at
//!   least `2^n` DIPs (one per `Kl1` group).
//! - SARLock with an `n`-bit key forces at least `2^n − 1` DIPs (one per
//!   wrong key).
//! - Plain RLL at the same sizes stays under a small constant — the
//!   contrast that makes the floors meaningful.
//!
//! Every attack run has a `max_iterations` hang-guard a little above the
//! floor, so a regression that *breaks* a defence fails fast instead of
//! hanging the suite. Every key size, 8 (256-DIP loops) included, runs in
//! debug and release alike: these tests do not read `ALMOST_SCALE`.

use almost_repro::attacks::{SatAttack, SatAttackConfig, SatAttackMode, SatAttackRun};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::{AntiSat, CircuitOracle, LockedCircuit, LockingScheme, Rll, SarLock};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the exact attack with a hang-guard just above the expected floor.
fn exact_attack(locked: &LockedCircuit, max_iterations: usize) -> SatAttackRun {
    // Floors hold for any DIP trajectory, but the hang-guards sit close
    // above them: pin the serial reference width so a racing portfolio
    // (multi-core CI) cannot wander near a guard nondeterministically.
    std::env::set_var("ALMOST_SOLVERS", "1");
    let oracle = CircuitOracle::from_locked(locked);
    SatAttack::new(SatAttackConfig {
        mode: SatAttackMode::Exact,
        max_iterations,
        seed: 0x5A7,
    })
    .run(
        &locked.aig,
        locked.key_input_start,
        locked.key_size(),
        &oracle,
    )
}

fn lock_with(scheme: &dyn LockingScheme, seed: u64) -> LockedCircuit {
    let design = IscasBenchmark::C432.build();
    let mut rng = StdRng::seed_from_u64(seed);
    scheme.lock(&design, &mut rng).expect("lockable")
}

/// Key sizes under test; the ISSUE-level contract is 4/6/8.
const KEY_SIZES: [usize; 3] = [4, 6, 8];

#[test]
fn sarlock_needs_at_least_2_to_the_k_minus_1_dips() {
    for k in KEY_SIZES {
        let locked = lock_with(&SarLock::new(k), 0x5AC ^ k as u64);
        let floor = (1usize << (k - 1)).max(1);
        let run = exact_attack(&locked, (1 << k) + 16);
        assert!(
            run.proved_exact,
            "k={k}: the exact attack must finish inside the hang-guard"
        );
        assert!(
            run.iterations.len() >= floor,
            "k={k}: SARLock fell in {} DIPs, below the 2^(k-1) = {floor} floor",
            run.iterations.len()
        );
        assert!(
            run.accounting_consistent(),
            "k={k}: DIP ledger must reconcile"
        );
    }
}

#[test]
fn anti_sat_needs_at_least_2_to_the_k_minus_1_dips() {
    for k in KEY_SIZES {
        let locked = lock_with(&AntiSat::new(k), 0xA57 ^ k as u64);
        assert_eq!(locked.key_size(), 2 * k, "Anti-SAT inserts 2n key bits");
        let floor = (1usize << (k - 1)).max(1);
        let run = exact_attack(&locked, (1 << k) + 16);
        assert!(
            run.proved_exact,
            "k={k}: the exact attack must finish inside the hang-guard"
        );
        assert!(
            run.iterations.len() >= floor,
            "k={k}: Anti-SAT fell in {} DIPs, below the 2^(k-1) = {floor} floor",
            run.iterations.len()
        );
        assert!(
            run.accounting_consistent(),
            "k={k}: DIP ledger must reconcile"
        );
    }
}

#[test]
fn anti_sat_floor_is_the_full_2_to_the_k_group_count() {
    // Sharper than the shared floor: every one of the 2^k `Kl1` groups
    // must be ruled out before the miter goes UNSAT.
    let k = 6;
    let locked = lock_with(&AntiSat::new(k), 0xA57F);
    let run = exact_attack(&locked, (1 << k) + 16);
    assert!(run.proved_exact);
    assert_eq!(
        run.iterations.len(),
        1 << k,
        "Anti-SAT requires exactly one DIP per Kl1 group"
    );
}

#[test]
fn sarlock_floor_is_exactly_every_wrong_key() {
    let k = 6;
    let locked = lock_with(&SarLock::new(k), 0x5ACF);
    let run = exact_attack(&locked, (1 << k) + 16);
    assert!(run.proved_exact);
    assert_eq!(
        run.iterations.len(),
        (1 << k) - 1,
        "SARLock requires exactly one DIP per wrong key"
    );
}

#[test]
fn plain_rll_stays_under_a_small_constant_at_the_same_sizes() {
    for k in KEY_SIZES {
        let locked = lock_with(&Rll::new(k), 0x811 ^ k as u64);
        let run = exact_attack(&locked, 1 << k);
        assert!(run.proved_exact, "k={k}: RLL must fall inside the budget");
        assert!(
            run.iterations.len() <= 24,
            "k={k}: RLL needed {} DIPs — far from exponential, but above the \
             small-constant ceiling this regression pins",
            run.iterations.len()
        );
        // The floors above are only meaningful while RLL stays strictly
        // below them at the same key size.
        let floor = (1usize << (k - 1)).max(1);
        assert!(
            run.iterations.len() < floor,
            "k={k}: RLL DIP count crossed the resilient floor"
        );
    }
}
