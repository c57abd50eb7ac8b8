//! Learnt-clause database reduction soundness.
//!
//! Reduction only ever deletes *learnt* clauses, which are implied by the
//! original formula, so a solver that reduces aggressively must agree
//! verdict-for-verdict with one that never reduces — on a randomized CNF
//! corpus spanning SAT and UNSAT instances. Small instances are
//! additionally cross-checked against brute-force enumeration, and hard
//! structured instances (pigeonhole) confirm reductions actually fire.
//!
//! Clause literals live in one flat arena that is compacted once half of
//! it belongs to deleted clauses, so a property test drives incremental
//! sessions with an 8-learnt reduction threshold over randomised
//! pigeonhole formulas (few original literals, many conflicts), where
//! reduction and compaction fire over and over between clause additions
//! and solves under assumptions.
//!
//! A second property test runs the same kind of session with decision
//! flags toggled at random between solves: flags may shrink what a SAT
//! answer assigns, but never the soundness of a verdict.

use almost_sat::solver::{SatLit, SatResult, SatVar, Solver};
use proptest::prelude::*;

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

fn random_3sat(seed: u64, nvars: u64, nclauses: usize) -> Vec<Vec<SatLit>> {
    let mut next = stream(seed);
    (0..nclauses)
        .map(|_| {
            (0..3)
                .map(|_| SatLit::new((next() % nvars) as SatVar, next().is_multiple_of(2)))
                .collect()
        })
        .collect()
}

fn solve_instance(clauses: &[Vec<SatLit>], nvars: u64, reduce: bool) -> (SatResult, Solver) {
    let mut s = Solver::new();
    s.set_db_reduction(reduce);
    if reduce {
        // Force reductions even on instances that learn only a few dozen
        // clauses.
        s.set_reduce_threshold(12);
    }
    for _ in 0..nvars {
        s.new_var();
    }
    for cl in clauses {
        s.add_clause(cl);
    }
    let verdict = s.solve(&[]);
    (verdict, s)
}

fn model_satisfies(s: &Solver, clauses: &[Vec<SatLit>]) -> bool {
    clauses
        .iter()
        .all(|cl| cl.iter().any(|&l| s.lit_bool(l).unwrap_or(false)))
}

#[test]
fn reduced_solver_agrees_with_unreduced_on_a_random_corpus() {
    // Clause/variable ratios from under-constrained (mostly SAT) through
    // the ~4.26 phase transition (hard, mixed verdicts) to
    // over-constrained (mostly UNSAT).
    let mut sat_seen = 0;
    let mut unsat_seen = 0;
    for round in 0..30u64 {
        let nvars = 24 + (round % 5) * 4;
        let ratio_x10 = [30, 38, 43, 47, 55][(round % 5) as usize];
        let nclauses = (nvars as usize * ratio_x10) / 10;
        let clauses = random_3sat(
            0xD1CE ^ round.wrapping_mul(0x9E3779B97F4A7C15),
            nvars,
            nclauses,
        );

        let (with_reduce, s_reduced) = solve_instance(&clauses, nvars, true);
        let (without, s_plain) = solve_instance(&clauses, nvars, false);
        assert_eq!(
            with_reduce, without,
            "round {round}: reduced and unreduced solvers must agree"
        );
        match with_reduce {
            SatResult::Sat => {
                sat_seen += 1;
                assert!(
                    model_satisfies(&s_reduced, &clauses),
                    "round {round}: reduced model"
                );
                assert!(
                    model_satisfies(&s_plain, &clauses),
                    "round {round}: plain model"
                );
            }
            SatResult::Unsat => unsat_seen += 1,
        }
    }
    assert!(sat_seen > 0, "corpus must contain satisfiable instances");
    assert!(
        unsat_seen > 0,
        "corpus must contain unsatisfiable instances"
    );
}

#[test]
fn reduced_solver_matches_brute_force_on_small_instances() {
    for round in 0..12u64 {
        let nvars = 12u64;
        let nclauses = 50;
        let clauses = random_3sat(0xBF ^ round.wrapping_mul(0xABCD_EF01), nvars, nclauses);

        let mut bf_sat = false;
        'outer: for m in 0..(1u32 << nvars) {
            for cl in &clauses {
                if !cl
                    .iter()
                    .any(|l| ((m >> l.var()) & 1 != 0) ^ l.is_negative())
                {
                    continue 'outer;
                }
            }
            bf_sat = true;
            break;
        }

        let (verdict, _) = solve_instance(&clauses, nvars, true);
        assert_eq!(
            verdict,
            if bf_sat {
                SatResult::Sat
            } else {
                SatResult::Unsat
            },
            "round {round}"
        );
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // hole index j is clearest as written
fn aggressive_reduction_fires_and_preserves_pigeonhole_unsat() {
    let mut s = Solver::new();
    s.set_reduce_threshold(8);
    let (pigeons, holes) = (8usize, 7usize);
    let mut p = vec![vec![SatLit::positive(0); holes]; pigeons];
    for row in p.iter_mut() {
        for slot in row.iter_mut() {
            *slot = SatLit::positive(s.new_var());
        }
    }
    for row in &p {
        s.add_clause(row);
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                s.add_clause(&[!p[i1][j], !p[i2][j]]);
            }
        }
    }
    assert_eq!(s.solve(&[]), SatResult::Unsat);
    let stats = s.stats();
    assert!(
        stats.learnts_deleted > stats.learnts_kept,
        "an 8-clause threshold must delete aggressively (stats: {stats:?})"
    );
    // Incremental re-use still works after heavy reduction.
    assert_eq!(s.solve(&[]), SatResult::Unsat);
}

/// Brute-force satisfiability of `clauses` under `assumptions` over
/// `nvars` ≤ 64 variables: enumerates assignments in variable order and
/// skips every extension of a prefix that already falsifies a clause
/// (each clause is checked, as a pair of sign bitmasks, once its highest
/// variable is set).
fn brute_force_sat(clauses: &[Vec<SatLit>], assumptions: &[SatLit], nvars: usize) -> bool {
    let mut by_last: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nvars];
    let units = assumptions.iter().map(std::slice::from_ref);
    for cl in clauses.iter().map(Vec::as_slice).chain(units) {
        let (pos, neg) = cl.iter().fold((0u64, 0u64), |(pos, neg), l| {
            let bit = 1u64 << l.var();
            if l.is_negative() {
                (pos, neg | bit)
            } else {
                (pos | bit, neg)
            }
        });
        by_last[63 - (pos | neg).leading_zeros() as usize].push((pos, neg));
    }
    fn extend(v: usize, model: u64, by_last: &[Vec<(u64, u64)>]) -> bool {
        v == by_last.len()
            || [0, 1].iter().any(|&bit| {
                let m = model | bit << v;
                by_last[v].iter().all(|&(pos, neg)| m & pos | !m & neg != 0)
                    && extend(v + 1, m, by_last)
            })
    }
    extend(0, 0, &by_last)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One solver through an incremental session on a randomised
    /// pigeonhole formula: `holes + 1` pigeons, where pigeon `p` must sit
    /// in some hole only while its switch variable is on, at most one
    /// pigeon per hole, plus random 3-clauses and the odd unit. The
    /// clauses arrive in shuffled batches, each followed by solves under
    /// assumptions that turn on a random subset of the switches (all on
    /// is a pigeonhole refutation) and fix a few other literals. Every
    /// verdict matches brute force, every model satisfies every clause and
    /// assumption, and the decision heap holds every unassigned variable
    /// after each call.
    #[test]
    fn arena_compaction_preserves_incremental_verdicts(
        seed in 0u64..1_000_000,
        holes in 5usize..7,
    ) {
        let mut next = stream(seed ^ 0xA4E7A);
        let pigeons = holes + 1;
        let nvars = pigeons * (holes + 1);
        let mut s = Solver::new();
        s.set_reduce_threshold(8);
        let vars: Vec<SatVar> = (0..nvars).map(|_| s.new_var()).collect();
        // Switches first, so brute force checks each row clause as soon
        // as its last hole is set.
        let switch = |p: usize| SatLit::positive(vars[p]);
        let at = |p: usize, h: usize| SatLit::positive(vars[pigeons + p * holes + h]);
        let random_lit = |r: u64| SatLit::new(vars[(r >> 1) as usize % nvars], r & 1 == 0);
        let mut pending: Vec<Vec<SatLit>> = Vec::new();
        for p in 0..pigeons {
            pending.push(std::iter::once(!switch(p)).chain((0..holes).map(|h| at(p, h))).collect());
        }
        for h in 0..holes {
            for p in 0..pigeons {
                for q in p + 1..pigeons {
                    pending.push(vec![!at(p, h), !at(q, h)]);
                }
            }
        }
        for _ in 0..nvars / 4 {
            let width = if next().is_multiple_of(8) { 1 } else { 3 };
            pending.push((0..width).map(|_| random_lit(next())).collect());
        }
        for i in (1..pending.len()).rev() {
            pending.swap(i, (next() % (i as u64 + 1)) as usize);
        }

        let mut clauses: Vec<Vec<SatLit>> = Vec::new();
        let batch = pending.len().div_ceil(4);
        for chunk in pending.chunks(batch) {
            for cl in chunk {
                s.add_clause(cl);
                prop_assert!(s.decision_heap_consistent());
                clauses.push(cl.clone());
            }
            for _ in 0..6 {
                let mut assumptions: Vec<SatLit> =
                    (0..pigeons).filter(|_| !next().is_multiple_of(8)).map(switch).collect();
                assumptions.extend((0..next() % 3).map(|_| random_lit(next())));
                let verdict = s.solve(&assumptions);
                prop_assert!(s.decision_heap_consistent());
                let expected = if brute_force_sat(&clauses, &assumptions, nvars) {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                };
                prop_assert_eq!(verdict, expected);
                if verdict == SatResult::Sat {
                    prop_assert!(model_satisfies(&s, &clauses));
                    prop_assert!(assumptions.iter().all(|&a| s.lit_bool(a) == Some(true)));
                }
            }
        }
    }
}

/// The verdict checks that hold whatever the decision flags: an UNSAT
/// verdict matches brute force, and a SAT answer makes every assumption
/// true, falsifies no clause and satisfies every clause over decision
/// variables alone. With every flag on (`decision` all true) a SAT answer
/// is exact: brute force agrees and the model satisfies every clause.
fn check_flagged_verdict(
    s: &Solver,
    verdict: SatResult,
    clauses: &[Vec<SatLit>],
    assumptions: &[SatLit],
    decision: &[bool],
) -> Result<(), TestCaseError> {
    let satisfiable = brute_force_sat(clauses, assumptions, decision.len());
    let all_on = decision.iter().all(|&on| on);
    match verdict {
        SatResult::Unsat => prop_assert!(!satisfiable, "UNSAT claimed for a satisfiable query"),
        SatResult::Sat => {
            prop_assert!(!all_on || satisfiable, "SAT claimed with every flag on");
            prop_assert!(assumptions.iter().all(|&a| s.lit_bool(a) == Some(true)));
            for cl in clauses {
                prop_assert!(
                    !cl.iter().all(|&l| s.lit_bool(l) == Some(false)),
                    "model falsifies {cl:?}"
                );
                if cl.iter().all(|l| decision[l.var() as usize]) {
                    prop_assert!(
                        cl.iter().any(|&l| s.lit_bool(l) == Some(true)),
                        "model leaves decision-only {cl:?} unsatisfied"
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One solver through an incremental random 3-SAT session (ending
    /// near the phase transition) with an 8-learnt reduction threshold.
    /// Between clause batches, random decision-flag toggles interleave
    /// with solves under random assumptions; every verdict passes
    /// [`check_flagged_verdict`] and the heap holds every unassigned
    /// decision variable after each call. Once every flag is back on,
    /// verdicts and models are exact again.
    #[test]
    fn decision_flags_never_unsound_incremental_verdicts(seed in 0u64..1_000_000) {
        let mut next = stream(seed ^ 0xDEC1_5104);
        let nvars = 20usize;
        let mut s = Solver::new();
        s.set_reduce_threshold(8);
        let vars: Vec<SatVar> = (0..nvars).map(|_| s.new_var()).collect();
        let random_lit = |r: u64| SatLit::new(vars[(r >> 1) as usize % nvars], r & 1 == 0);
        let mut decision = vec![true; nvars];
        let mut clauses: Vec<Vec<SatLit>> = Vec::new();
        for _batch in 0..6 {
            for _ in 0..14 {
                let width = if next().is_multiple_of(10) { 2 } else { 3 };
                let cl: Vec<SatLit> = (0..width).map(|_| random_lit(next())).collect();
                s.add_clause(&cl);
                prop_assert!(s.decision_heap_consistent());
                clauses.push(cl);
            }
            for _ in 0..6 {
                for _ in 0..next() % 6 {
                    let v = (next() % nvars as u64) as usize;
                    decision[v] = !decision[v];
                    s.set_decision_var(vars[v], decision[v]);
                    prop_assert!(s.decision_heap_consistent());
                }
                let assumptions: Vec<SatLit> =
                    (0..next() % 3).map(|_| random_lit(next())).collect();
                let verdict = s.solve(&assumptions);
                prop_assert!(s.decision_heap_consistent());
                check_flagged_verdict(&s, verdict, &clauses, &assumptions, &decision)?;
            }
        }
        for (v, on) in decision.iter_mut().enumerate() {
            if !*on {
                *on = true;
                s.set_decision_var(vars[v], true);
                prop_assert!(s.decision_heap_consistent());
            }
        }
        for _ in 0..6 {
            let assumptions: Vec<SatLit> = (0..next() % 3).map(|_| random_lit(next())).collect();
            let verdict = s.solve(&assumptions);
            prop_assert!(s.decision_heap_consistent());
            check_flagged_verdict(&s, verdict, &clauses, &assumptions, &decision)?;
            if verdict == SatResult::Sat {
                prop_assert!(model_satisfies(&s, &clauses));
            }
        }
    }
}
