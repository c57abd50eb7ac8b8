//! Release-mode behavioural envelope for the CDCL core.
//!
//! SAT/UNSAT agreement alone can hide a heuristic regression (a broken
//! decision order still *eventually* proves the same verdicts — just
//! orders of magnitude slower). This test pins the solver-effort counters
//! of two deterministic exact SAT-attack runs (c432 and c1355, RLL-16,
//! fixed lock seeds) inside generous envelopes, so the VSIDS heap, the
//! restart schedule and the learnt-DB reduction are audited behaviourally:
//! any future heuristic change that blows the work up by an order of
//! magnitude fails here, in the CI `perf-smoke` job, before it lands.
//!
//! Debug builds skip (the envelope is calibrated for `--release`, which is
//! what CI runs; effort counters are build-independent but wall time is
//! not, and the c1355 run is slow unoptimised).

use almost_attacks::SatAttack;
use almost_circuits::IscasBenchmark;
use almost_locking::{CircuitOracle, LockingScheme, Rll};
use almost_sat::SolverStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Inclusive effort envelope; bounds are ~4x around the measured values so
/// only order-of-magnitude regressions (or suspicious collapses) trip it.
/// Measured on the hash-consed key miter, whose copies share their
/// key-free logic: c432 took 9 DIPs, 1,760 decisions, 39,249
/// propagations and 481 conflicts; c1355 took 4 DIPs, 2,521 decisions,
/// 45,239 propagations and 500 conflicts.
struct Envelope {
    bench: IscasBenchmark,
    lock_seed: u64,
    dips: (usize, usize),
    decisions: (u64, u64),
    propagations: (u64, u64),
    conflicts: (u64, u64),
}

fn run_attack(bench: IscasBenchmark, lock_seed: u64) -> (usize, SolverStats) {
    let design = bench.build();
    let mut rng = StdRng::seed_from_u64(lock_seed);
    let locked = Rll::new(16).lock(&design, &mut rng).expect("lockable");
    let oracle = CircuitOracle::from_locked(&locked);
    let run = SatAttack::exact().run(
        &locked.aig,
        locked.key_input_start,
        locked.key_size(),
        &oracle,
    );
    assert!(run.proved_exact, "{bench:?}: exact mode must reach UNSAT");
    (run.iterations.len(), run.solver)
}

fn check(range: (u64, u64), got: u64, what: &str, bench: IscasBenchmark) {
    assert!(
        (range.0..=range.1).contains(&got),
        "{bench:?}: {what} = {got} outside the pinned envelope {range:?} — if a deliberate \
         heuristic change moved it, re-measure and re-pin; an accidental one is a regression"
    );
}

#[test]
fn exact_attack_effort_stays_inside_the_pinned_envelope() {
    if !almost_repro::testutil::release_mode("solver-stats envelope") {
        return;
    }
    // The envelope pins the *serial reference* solver: on multi-core
    // machines the SAT portfolio would race diversified workers and sum
    // their effort, so force the pinned width-1 configuration.
    std::env::set_var("ALMOST_SOLVERS", "1");
    let envelopes = [
        Envelope {
            bench: IscasBenchmark::C432,
            lock_seed: 0x432,
            dips: (2, 32),
            decisions: (440, 7_100),
            propagations: (9_800, 160_000),
            conflicts: (120, 2_000),
        },
        Envelope {
            bench: IscasBenchmark::C1355,
            lock_seed: 0x1355,
            dips: (2, 48),
            decisions: (630, 11_000),
            propagations: (11_000, 190_000),
            conflicts: (120, 2_000),
        },
    ];
    for e in envelopes {
        let (dips, stats) = run_attack(e.bench, e.lock_seed);
        eprintln!("{:?}: dips={dips} stats={stats:?}", e.bench);
        assert!(
            (e.dips.0..=e.dips.1).contains(&dips),
            "{:?}: DIP count {dips} outside {:?}",
            e.bench,
            e.dips
        );
        check(e.decisions, stats.decisions, "decisions", e.bench);
        check(e.propagations, stats.propagations, "propagations", e.bench);
        check(e.conflicts, stats.conflicts, "conflicts", e.bench);
    }
}
