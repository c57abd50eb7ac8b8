//! Property tests for the VSIDS decision heap and the decide-loop
//! invariant it rests on.
//!
//! The heap's comparator is a strict total order (activity descending,
//! variable index ascending on ties), so three things must hold under
//! arbitrary operation sequences:
//!
//! 1. pops always return the globally best variable under that order;
//! 2. the pop order survives a `var_inc`-style uniform rescale (after the
//!    rebuild the solver performs), and the keys the heap stores inline
//!    follow the activities through bumps, pops and re-insertions;
//! 3. the solver's backtracking re-inserts exactly the unassigned
//!    variables, so `decide()` can never miss one, and its count of open
//!    decision variables (flagged and unassigned), at which `decide()`
//!    stops, stays exact through decision-flag flips.

use almost_cdcl::heap::ActivityHeap;
use almost_cdcl::solver::{SatLit, SatResult, SatVar, Solver};
use proptest::prelude::*;

/// Deterministic xorshift stream for generating activities and clauses.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Reference order: activity descending, index ascending on ties.
fn reference_order(act: &[f64], vars: &[SatVar]) -> Vec<SatVar> {
    let mut sorted = vars.to_vec();
    sorted.sort_by(|&a, &b| {
        act[b as usize]
            .partial_cmp(&act[a as usize])
            .expect("activities are never NaN")
            .then(a.cmp(&b))
    });
    sorted
}

fn drain(heap: &mut ActivityHeap) -> Vec<SatVar> {
    std::iter::from_fn(|| heap.pop()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: pop order matches the total order exactly, including
    /// deliberate activity collisions (activities are drawn from a small
    /// set so ties are common).
    #[test]
    fn pop_order_matches_max_activity(seed in 0u64..1_000_000, nvars in 2usize..48) {
        let mut next = stream(seed);
        let act: Vec<f64> = (0..nvars).map(|_| (next() % 8) as f64).collect();
        let mut heap = ActivityHeap::new();
        // Insert in a scrambled order.
        let mut vars: Vec<SatVar> = (0..nvars as SatVar).collect();
        for i in (1..vars.len()).rev() {
            vars.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        for &v in &vars {
            heap.insert(v, &act);
        }
        let popped = drain(&mut heap);
        prop_assert_eq!(popped, reference_order(&act, &vars));
    }

    /// Invariant 2: a uniform rescale (what `var_inc` overflow protection
    /// does) followed by the solver's rebuild leaves the pop order
    /// unchanged.
    #[test]
    fn pop_order_survives_rescale(seed in 0u64..1_000_000, nvars in 2usize..48) {
        let mut next = stream(seed ^ 0xA5A5);
        let mut act: Vec<f64> = (0..nvars).map(|_| (next() % 1000) as f64 * 1e90).collect();
        let vars: Vec<SatVar> = (0..nvars as SatVar).collect();

        let mut before = ActivityHeap::new();
        for &v in &vars {
            before.insert(v, &act);
        }
        let order_before = drain(&mut before);

        let mut after = ActivityHeap::new();
        for &v in &vars {
            after.insert(v, &act);
        }
        for a in &mut act {
            *a *= 1e-100;
        }
        after.rebuild(&act);
        let order_after = drain(&mut after);
        prop_assert_eq!(order_before, order_after);
    }

    /// Invariant 2b: the heap stores each key inline, so the stored keys
    /// must follow the activities through bumps of queued variables, bumps
    /// of popped ones (picked up on re-insertion) and a rescale with its
    /// rebuild: the final pop order is still the reference sort.
    #[test]
    fn pop_order_survives_bumps_and_rebuild(seed in 0u64..1_000_000, nvars in 2usize..48) {
        let mut next = stream(seed ^ 0xB0B0);
        let mut act: Vec<f64> = (0..nvars).map(|_| (next() % 8) as f64).collect();
        let mut heap = ActivityHeap::new();
        for v in 0..nvars as SatVar {
            heap.insert(v, &act);
        }
        let popped: Vec<SatVar> = (0..next() % nvars as u64).filter_map(|_| heap.pop()).collect();
        let mut bump = |act: &mut Vec<f64>, heap: &mut ActivityHeap, scale: f64| {
            for _ in 0..2 * nvars {
                let v = (next() % nvars as u64) as usize;
                // VSIDS bumps only ever raise an activity.
                act[v] += (next() % 4) as f64 * scale;
                heap.bumped(v as SatVar, act);
            }
        };
        bump(&mut act, &mut heap, 1.0);
        for a in &mut act {
            *a *= 1e-100;
        }
        heap.rebuild(&act);
        bump(&mut act, &mut heap, 1e-100);
        for &v in &popped {
            heap.insert(v, &act);
        }
        let all: Vec<SatVar> = (0..nvars as SatVar).collect();
        prop_assert_eq!(drain(&mut heap), reference_order(&act, &all));
    }

    /// Invariant 3: after any mix of solves (which decide, propagate,
    /// backtrack and restart), every unassigned variable is back in the
    /// heap — the completeness invariant of the decide loop.
    #[test]
    fn backtrack_reinserts_exactly_the_unassigned_vars(
        seed in 0u64..1_000_000,
        nvars in 4u64..24,
        nclauses in 8usize..96,
    ) {
        let mut next = stream(seed ^ 0x7E57);
        let mut solver = Solver::new();
        let vars: Vec<SatVar> = (0..nvars).map(|_| solver.new_var()).collect();
        prop_assert!(solver.decision_heap_consistent());
        for _ in 0..nclauses {
            let cl: Vec<SatLit> = (0..3)
                .map(|_| SatLit::new(vars[(next() % nvars) as usize], next().is_multiple_of(2)))
                .collect();
            solver.add_clause(&cl);
        }
        // Unconstrained solve, then solves under assumptions (both
        // polarities), interleaved with clause additions.
        let _ = solver.solve(&[]);
        prop_assert!(solver.decision_heap_consistent());
        let a0 = SatLit::new(vars[0], false);
        let _ = solver.solve(&[a0, !SatLit::positive(vars[(next() % nvars) as usize])]);
        prop_assert!(solver.decision_heap_consistent());
        solver.add_clause(&[!a0, SatLit::new(vars[(next() % nvars) as usize], true)]);
        let _ = solver.solve_limited(&[!a0], 4);
        prop_assert!(solver.decision_heap_consistent());
        let _ = solver.solve(&[]);
        prop_assert!(solver.decision_heap_consistent());
    }

    /// Invariant 3b: decision-flag flips (on and off, on assigned and
    /// unassigned variables) interleaved with clause additions, solves
    /// and tiny-budget solves keep the heap and the open-decision count
    /// exact after every step. No answer is lost to a flag: an `Unsat`
    /// is only ever returned where a fresh solver with every flag on
    /// agrees, and a `Sat` model falsifies no clause.
    #[test]
    fn decision_flag_flips_keep_the_open_count(
        seed in 0u64..1_000_000,
        nvars in 4u64..16,
        steps in 8usize..64,
    ) {
        let mut next = stream(seed ^ 0xF1A9);
        let mut solver = Solver::new();
        let vars: Vec<SatVar> = (0..nvars).map(|_| solver.new_var()).collect();
        let mut clauses: Vec<Vec<SatLit>> = Vec::new();
        let random_lit = |next: &mut dyn FnMut() -> u64| {
            SatLit::new(vars[(next() % nvars) as usize], next().is_multiple_of(2))
        };
        for _ in 0..steps {
            let op = next() % 5;
            let assumptions: Vec<SatLit> = (0..next() % 2).map(|_| random_lit(&mut next)).collect();
            let result = match op {
                0 | 1 => {
                    let v = vars[(next() % nvars) as usize];
                    solver.set_decision_var(v, next().is_multiple_of(2));
                    None
                }
                2 => {
                    let cl: Vec<SatLit> = (0..1 + next() % 3).map(|_| random_lit(&mut next)).collect();
                    solver.add_clause(&cl);
                    clauses.push(cl);
                    None
                }
                3 => Some(solver.solve(&assumptions)),
                _ => solver.solve_limited(&assumptions, next() % 3),
            };
            prop_assert!(solver.decision_heap_consistent(), "step op {}", op);
            match result {
                Some(SatResult::Unsat) => {
                    let mut fresh = Solver::new();
                    for _ in 0..nvars {
                        fresh.new_var();
                    }
                    for cl in &clauses {
                        fresh.add_clause(cl);
                    }
                    prop_assert_eq!(fresh.solve(&assumptions), SatResult::Unsat);
                }
                Some(SatResult::Sat) => {
                    for cl in &clauses {
                        prop_assert!(
                            cl.iter().any(|&l| solver.value(l.var()) != Some(l.is_negative())),
                            "model falsifies {:?}",
                            cl
                        );
                    }
                }
                None => {}
            }
        }
    }
}
