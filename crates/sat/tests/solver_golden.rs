//! Byte-identity pins for the CDCL solver's trajectory.
//!
//! At `ALMOST_SOLVERS=1` the solver is a deterministic function of the
//! clauses and assumptions it is given: the same decisions, propagation
//! order, learnt clauses, restarts and reductions, so the same models.
//! DIP sequences, recovered keys, fraig outputs and benchmark fingerprints
//! all rest on that, so a rewrite of the solver's data layout must not
//! change a single step. This suite hashes (FNV-1a, 64 bit) the oracle
//! queries (the DIP patterns), the recovered key and the full
//! [`SolverStats`] of fixed attacks, plus the verdicts and models of an
//! incremental 3-SAT corpus, and compares them to pinned digests.
//!
//! Every pinned key is also proved: the test CECs the unlocked circuit
//! against the original design before it hashes anything, so a re-pinned
//! digest always belongs to a correct key. (Double DIP recovers the base
//! key only; its SARLock bits take their true values first, as in the
//! benchmark.)
//!
//! The c1355 attack runs in release builds only (it is slow unoptimised),
//! like the `solver_stats_envelope` test. A mismatch prints every digest,
//! so a deliberate change of behaviour can re-pin the table in one edit.

use almost_attacks::{DoubleDip, SatAttack};
use almost_circuits::IscasBenchmark;
use almost_locking::{
    apply_key, BatchOracle, CircuitOracle, LockedCircuit, LockingScheme, Oracle, Rll, SarLock,
    Stacked,
};
use almost_sat::solver::{SatLit, SatResult, SatVar, Solver};
use almost_sat::{check_equivalence, Equivalence, SolverStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn bits_digest<'a>(rows: impl IntoIterator<Item = &'a [bool]>) -> u64 {
    let mut text = String::new();
    for row in rows {
        text.extend(row.iter().map(|&b| if b { '1' } else { '0' }));
        text.push(';');
    }
    fnv1a(text.as_bytes())
}

fn stats_digest(stats: &SolverStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// A [`CircuitOracle`] that logs every pattern it answers, in order: for
/// the exact SAT attack and Double DIP that log is the DIP sequence.
struct RecordingOracle {
    inner: CircuitOracle,
    log: RefCell<Vec<Vec<bool>>>,
}

impl RecordingOracle {
    fn new(locked: &LockedCircuit) -> Self {
        RecordingOracle {
            inner: CircuitOracle::from_locked(locked),
            log: RefCell::new(Vec::new()),
        }
    }

    fn digest(&self) -> u64 {
        bits_digest(self.log.borrow().iter().map(Vec::as_slice))
    }
}

impl Oracle for RecordingOracle {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&self, pattern: &[bool]) -> Vec<bool> {
        self.log.borrow_mut().push(pattern.to_vec());
        self.inner.query(pattern)
    }

    fn queries_served(&self) -> usize {
        self.inner.queries_served()
    }
}

impl BatchOracle for RecordingOracle {}

/// Asserts that `key` unlocks `locked` to the function of `design`.
fn assert_unlocks(case: &str, design: &almost_aig::Aig, locked: &LockedCircuit, key: &[bool]) {
    let unlocked = apply_key(&locked.aig, locked.key_input_start, key);
    assert_eq!(
        check_equivalence(design, &unlocked),
        Equivalence::Equivalent,
        "{case}: the recovered key does not unlock the design"
    );
}

/// One pinned row: `(case, what, digest)`.
type Row = (String, &'static str, u64);

fn push_rows(rows: &mut Vec<Row>, case: &str, dips: u64, key: &[bool], stats: &SolverStats) {
    eprintln!("{case}: stats={stats:?}");
    rows.push((case.into(), "dips", dips));
    rows.push((case.into(), "key", bits_digest([key])));
    rows.push((case.into(), "stats", stats_digest(stats)));
}

/// Exact SAT attack on `bench` locked with RLL-16 at `lock_seed`.
fn exact_attack_rows(rows: &mut Vec<Row>, case: &str, bench: IscasBenchmark, lock_seed: u64) {
    let mut rng = StdRng::seed_from_u64(lock_seed);
    let design = bench.build();
    let locked = Rll::new(16).lock(&design, &mut rng).expect("lockable");
    let oracle = RecordingOracle::new(&locked);
    let run = SatAttack::exact().run(
        &locked.aig,
        locked.key_input_start,
        locked.key_size(),
        &oracle,
    );
    assert!(run.proved_exact, "{case}: exact mode must reach UNSAT");
    assert_unlocks(case, &design, &locked, &run.recovered);
    push_rows(rows, case, oracle.digest(), &run.recovered, &run.solver);
}

/// Double DIP on c432 under a small SARLock-over-RLL compound lock.
fn double_dip_rows(rows: &mut Vec<Row>) {
    const BASE_BITS: usize = 8;
    let mut rng = StdRng::seed_from_u64(63);
    let design = IscasBenchmark::C432.build();
    let locked = Stacked::new(Rll::new(BASE_BITS), SarLock::new(6))
        .lock(&design, &mut rng)
        .expect("lockable");
    let oracle = RecordingOracle::new(&locked);
    let run = DoubleDip::exact().run(
        &locked.aig,
        locked.key_input_start,
        locked.key_size(),
        &oracle,
    );
    assert!(run.two_dip_settled, "the 2-DIP loop must converge");
    let mut key = run.recovered.clone();
    key[BASE_BITS..].copy_from_slice(&locked.key.bits()[BASE_BITS..]);
    assert_unlocks("c432_rll8_sar6_ddip", &design, &locked, &key);
    push_rows(
        rows,
        "c432_rll8_sar6_ddip",
        oracle.digest(),
        &run.recovered,
        &run.solver,
    );
}

/// Deterministic xorshift stream.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random 3-SAT corpus near the phase transition, solved incrementally
/// on one solver: clauses arrive in batches, each batch is followed by
/// solves under random assumptions, and a 20-learnt reduction threshold
/// makes database reduction fire throughout. Every verdict and every model
/// feeds the digest.
fn incremental_corpus_rows(rows: &mut Vec<Row>) {
    let mut next = stream(0x60_1DE4);
    let nvars = 200u64;
    let mut s = Solver::new();
    s.set_reduce_threshold(20);
    let vars: Vec<SatVar> = (0..nvars).map(|_| s.new_var()).collect();
    let mut trace: Vec<Vec<bool>> = Vec::new();
    for _batch in 0..12 {
        for _ in 0..72 {
            let cl: Vec<SatLit> = (0..3)
                .map(|_| SatLit::new(vars[(next() % nvars) as usize], next().is_multiple_of(2)))
                .collect();
            s.add_clause(&cl);
        }
        for _ in 0..4 {
            let assumptions: Vec<SatLit> = (0..(next() % 6))
                .map(|_| SatLit::new(vars[(next() % nvars) as usize], next().is_multiple_of(2)))
                .collect();
            let verdict = s.solve(&assumptions);
            let mut row = vec![verdict == SatResult::Sat];
            if verdict == SatResult::Sat {
                row.extend(vars.iter().map(|&v| s.value(v).unwrap_or(false)));
            }
            trace.push(row);
        }
    }
    let stats = s.stats();
    assert!(
        stats.learnts_deleted > 0,
        "a 20-learnt threshold must trigger reduction (stats: {stats:?})"
    );
    eprintln!("incremental_3sat: stats={stats:?}");
    rows.push((
        "incremental_3sat".into(),
        "models",
        bits_digest(trace.iter().map(Vec::as_slice)),
    ));
    rows.push(("incremental_3sat".into(), "stats", stats_digest(&stats)));
}

/// `(case, what, digest)` for every case; the `c1355_rll16` rows are only
/// checked in release builds.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("c432_rll16", "dips", 0x417814af167c8f8e),
    ("c432_rll16", "key", 0x013a67fb988fede4),
    ("c432_rll16", "stats", 0x0c800195b6f69333),
    ("c1355_rll16", "dips", 0x248d1eab38d17446),
    ("c1355_rll16", "key", 0x406ddd1debda5753),
    ("c1355_rll16", "stats", 0xda5c01f4726ea740),
    ("c432_rll8_sar6_ddip", "dips", 0x4ad2aa1d009ce879),
    ("c432_rll8_sar6_ddip", "key", 0x3e66274556715619),
    ("c432_rll8_sar6_ddip", "stats", 0xb07370e157fddf04),
    ("incremental_3sat", "models", 0x243bf63c2396be7c),
    ("incremental_3sat", "stats", 0x2f1895731a057be4),
];

#[test]
fn solver_trajectories_are_byte_identical() {
    // The pins are for the serial reference solver; a racing portfolio
    // would vary trajectories with thread timing.
    std::env::set_var("ALMOST_SOLVERS", "1");
    let release = !cfg!(debug_assertions);
    let mut actual: Vec<Row> = Vec::new();
    exact_attack_rows(&mut actual, "c432_rll16", IscasBenchmark::C432, 0x432);
    if release {
        exact_attack_rows(&mut actual, "c1355_rll16", IscasBenchmark::C1355, 0x1355);
    } else {
        eprintln!("skipping the c1355 attack: debug build (run with --release)");
    }
    double_dip_rows(&mut actual);
    incremental_corpus_rows(&mut actual);

    let table: String = actual
        .iter()
        .map(|(c, w, d)| format!("    (\"{c}\", \"{w}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<Row> = GOLDEN
        .iter()
        .filter(|&&(c, _, _)| release || !c.starts_with("c1355"))
        .map(|&(c, w, d)| (c.to_string(), w, d))
        .collect();
    assert!(
        actual == expected,
        "solver trajectory digests moved; actual table:\n{table}"
    );
}
