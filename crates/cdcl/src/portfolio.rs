//! A portfolio of diversified racing CDCL solvers.
//!
//! [`PortfolioSolver`] wraps N [`Solver`] instances holding the identical
//! formula. Every clause is broadcast to all instances; every query races
//! them on scoped threads ([`almost_pool::race`]): the first instance to
//! reach a verdict wins, raises the shared stop flag, and the rest park
//! at their next propagation-poll (a budget-style early return — never a
//! wrong verdict, because SAT/UNSAT is a property of the shared formula,
//! not of the schedule). Workers 1.. are diversified — perturbed initial
//! VSIDS activities, a different Luby restart unit, the complementary
//! initial polarity — so they explore different parts of the search
//! space, and they share learnt *glue* clauses (units, binaries, LBD ≤ 2)
//! through a bounded sharded-mutex exchange ring, imported at restart
//! boundaries.
//!
//! # Determinism contract
//!
//! Width 1 (`ALMOST_SOLVERS=1`, or one available core) is the **pinned
//! reference**: no threads, no stop flag, no exchange — worker 0 is
//! bit-for-bit today's serial solver, including [`SolverStats`], so every
//! attack CSV stays byte-identical in the deterministic configuration.
//! At width > 1 verdicts still agree with the reference (racing is
//! sound), but which SAT *model* is found — and therefore the attack
//! trajectory and effort counters — depends on who wins each race.

use crate::solver::{ClauseExchange, Interrupt, SatLit, SatResult, SatVar, Solver, SolverStats};
use almost_telemetry as telemetry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Hard cap on the default portfolio width (the env override may exceed
/// it): racing more than this wastes cores that the harness pool puts to
/// better use across cells.
const DEFAULT_MAX_WIDTH: usize = 4;

/// Bounded capacity of each worker's publication shard; publishing past
/// it drops the oldest clause (importers that fell behind lose history,
/// never correctness — imports are an optimisation, not a dependency).
const EXCHANGE_CAP: usize = 128;

/// Per-race worker outcome codes (shared with the race closures through
/// relaxed atomics; only read after the race scope joins).
const OUTCOME_NONE: u8 = 0;
const OUTCOME_FINISHED: u8 = 1;
const OUTCOME_BUDGET: u8 = 2;
const OUTCOME_CANCELLED: u8 = 3;

/// The portfolio width: `ALMOST_SOLVERS` when set (≥ 1), else
/// `min(pool workers, 4)`.
pub fn default_width() -> usize {
    std::env::var("ALMOST_SOLVERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| almost_pool::num_workers().min(DEFAULT_MAX_WIDTH))
}

/// Cumulative portfolio counters, threaded through the miters onto the
/// attack run records (the portfolio analogue of [`SolverStats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Portfolio width (1 = pinned serial reference).
    pub workers: usize,
    /// Races run (solver queries at width > 1).
    pub races: u64,
    /// Per-worker win counts, indexed by worker.
    pub wins: Vec<u64>,
    /// Winner of the most recent race.
    pub last_winner: usize,
    /// Glue clauses imported across all workers and races.
    pub imported: u64,
    /// Glue clauses published across all workers and races.
    pub exported: u64,
    /// Races where every worker exhausted its budget (no winner).
    pub budget_races: u64,
    /// Worst observed cancellation latency (winner finish → all parked),
    /// microseconds.
    pub cancel_us_max: u64,
}

/// One worker's publication shard: a bounded deque of sequence-stamped
/// glue clauses. Sequence numbers only grow, so importers track a cursor
/// per shard and never re-import (or miss, short of overflow-driven
/// drops) a clause.
struct ExchangeShard {
    next_seq: u64,
    clauses: VecDeque<(u64, Vec<SatLit>)>,
}

/// The sharded-mutex exchange ring: one shard per worker, so publishers
/// never contend with each other — only with importers draining their
/// shard, which happens at restart boundaries.
struct ExchangeRing {
    shards: Vec<Mutex<ExchangeShard>>,
    imported: Vec<AtomicU64>,
    exported: Vec<AtomicU64>,
}

impl ExchangeRing {
    fn new(workers: usize) -> Self {
        ExchangeRing {
            shards: (0..workers)
                .map(|_| {
                    Mutex::new(ExchangeShard {
                        next_seq: 0,
                        clauses: VecDeque::new(),
                    })
                })
                .collect(),
            imported: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            exported: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One worker's view of the ring, implementing the solver-side
/// [`ClauseExchange`] hooks.
struct ExchangeHandle<'a> {
    ring: &'a ExchangeRing,
    worker: usize,
    /// Next unseen sequence number per sibling shard.
    cursors: Vec<u64>,
}

impl<'a> ExchangeHandle<'a> {
    fn new(ring: &'a ExchangeRing, worker: usize) -> Self {
        let cursors = vec![0; ring.shards.len()];
        ExchangeHandle {
            ring,
            worker,
            cursors,
        }
    }
}

impl ClauseExchange for ExchangeHandle<'_> {
    fn export(&mut self, lits: &[SatLit], _lbd: u32) {
        let mut shard = self.ring.shards[self.worker]
            .lock()
            .expect("exchange shard lock");
        let seq = shard.next_seq;
        shard.next_seq += 1;
        shard.clauses.push_back((seq, lits.to_vec()));
        if shard.clauses.len() > EXCHANGE_CAP {
            shard.clauses.pop_front();
        }
        drop(shard);
        self.ring.exported[self.worker].fetch_add(1, Ordering::Relaxed);
    }

    fn import(&mut self, buf: &mut Vec<Vec<SatLit>>) {
        let mut pulled = 0u64;
        for (s, cursor) in self.cursors.iter_mut().enumerate() {
            if s == self.worker {
                continue;
            }
            let shard = self.ring.shards[s].lock().expect("exchange shard lock");
            for (seq, lits) in &shard.clauses {
                if *seq >= *cursor {
                    buf.push(lits.clone());
                    pulled += 1;
                }
            }
            *cursor = shard.next_seq;
        }
        if pulled > 0 {
            self.ring.imported[self.worker].fetch_add(pulled, Ordering::Relaxed);
        }
    }
}

/// A portfolio of diversified racing solvers; see the
/// [module documentation](self).
pub struct PortfolioSolver {
    workers: Vec<Solver>,
    /// Engine label stamped on `PortfolioRace` telemetry events
    /// (`"key_miter"`, `"double_dip_miter"`, …).
    engine: &'static str,
    last_winner: usize,
    stats: PortfolioStats,
}

impl PortfolioSolver {
    /// A portfolio at the [`default_width`], labelled `engine` in
    /// telemetry.
    pub fn new(engine: &'static str) -> Self {
        Self::with_width(engine, default_width())
    }

    /// A portfolio of exactly `width` workers (clamped to ≥ 1). Worker 0
    /// is always the undiversified pinned reference; workers 1.. get a
    /// seeded activity shuffle, a different Luby unit, and alternating
    /// initial polarity.
    pub fn with_width(engine: &'static str, width: usize) -> Self {
        let width = width.max(1);
        let mut workers = Vec::with_capacity(width);
        for w in 0..width {
            let mut solver = Solver::new();
            if w > 0 {
                solver.set_diversity_seed(0x5EED_0000_u64 + w as u64);
                // Restart units spread around the reference 100: shorter
                // units resample aggressively, longer ones commit to
                // deeper dives between restarts (and hit the exchange
                // import point at a different cadence).
                solver.set_restart_base(match w % 4 {
                    1 => 64,
                    2 => 171,
                    3 => 271,
                    _ => 100,
                });
                solver.set_default_phase(w % 2 == 1);
            }
            workers.push(solver);
        }
        PortfolioSolver {
            workers,
            engine,
            last_winner: 0,
            stats: PortfolioStats {
                workers: width,
                wins: vec![0; width],
                ..PortfolioStats::default()
            },
        }
    }

    /// Portfolio width.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Allocates a fresh variable in every worker; the (identical)
    /// variable index is returned once.
    pub fn new_var(&mut self) -> SatVar {
        let mut it = self.workers.iter_mut();
        let v = it.next().expect("portfolio has ≥ 1 worker").new_var();
        for w in it {
            let v2 = w.new_var();
            debug_assert_eq!(v, v2, "workers allocate variables in lock-step");
        }
        v
    }

    /// Broadcasts a clause to every worker (all workers hold the
    /// identical formula — the invariant clause exchange relies on).
    pub fn add_clause(&mut self, lits: &[SatLit]) {
        for w in &mut self.workers {
            w.add_clause(lits);
        }
    }

    /// Solves under assumptions, racing the portfolio. See
    /// [`Solver::solve`] for the verdict semantics.
    pub fn solve(&mut self, assumptions: &[SatLit]) -> SatResult {
        self.try_solve(assumptions, None)
            .expect("an unlimited solve reaches a verdict")
    }

    /// The budgeted query: `Ok` verdicts, or `Err(Interrupt::Budget)`
    /// when the conflict budget ran out — the indeterminate result, which
    /// the miters record in telemetry. With `max_conflicts = None` the
    /// query always reaches a verdict.
    pub fn try_solve(
        &mut self,
        assumptions: &[SatLit],
        max_conflicts: Option<u64>,
    ) -> Result<SatResult, Interrupt> {
        let budget = max_conflicts.unwrap_or(u64::MAX);
        if self.workers.len() == 1 {
            // Pinned serial reference: no threads, no exchange,
            // byte-for-byte the plain solver (same code path, same stats).
            self.last_winner = 0;
            return self.workers[0]
                .solve_limited(assumptions, budget)
                .ok_or(Interrupt::Budget);
        }
        self.race(assumptions, budget)
    }

    fn race(&mut self, assumptions: &[SatLit], budget: u64) -> Result<SatResult, Interrupt> {
        let n = self.workers.len();
        let ring = ExchangeRing::new(n);
        let outcomes: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(OUTCOME_NONE)).collect();
        let before: Vec<u64> = self.workers.iter().map(|w| w.stats().conflicts).collect();
        let start_us = telemetry::clock::now_us();

        type Runner<'s> = Box<dyn FnOnce(&AtomicBool) -> Option<SatResult> + Send + 's>;
        let runners: Vec<Runner<'_>> = self
            .workers
            .iter_mut()
            .enumerate()
            .map(|(w, solver)| {
                let (ring, outcomes) = (&ring, &outcomes);
                Box::new(move |stop: &AtomicBool| {
                    let mut handle = ExchangeHandle::new(ring, w);
                    match solver.solve_raced(assumptions, budget, stop, Some(&mut handle)) {
                        Ok(r) => {
                            outcomes[w].store(OUTCOME_FINISHED, Ordering::Relaxed);
                            Some(r)
                        }
                        Err(Interrupt::Budget) => {
                            outcomes[w].store(OUTCOME_BUDGET, Ordering::Relaxed);
                            None
                        }
                        Err(Interrupt::Cancelled) => {
                            outcomes[w].store(OUTCOME_CANCELLED, Ordering::Relaxed);
                            None
                        }
                    }
                }) as Runner<'_>
            })
            .collect();

        let outcome = almost_pool::race(runners);
        let dur_us = telemetry::clock::now_us().saturating_sub(start_us);

        let (imported, exported): (u64, u64) = (
            ring.imported
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
            ring.exported
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
        );
        self.stats.races += 1;
        self.stats.imported += imported;
        self.stats.exported += exported;

        telemetry::trace(|| telemetry::EventKind::PortfolioRace {
            engine: self.engine,
            workers: n as u32,
            winner: outcome.as_ref().map_or(0, |o| o.winner) as u32,
            dur_us,
            cancel_us: outcome.as_ref().map_or(0, |o| o.cancel_us),
            per_worker: (0..n)
                .map(|w| telemetry::RaceWorkerTally {
                    conflicts: self.workers[w].stats().conflicts - before[w],
                    imported: ring.imported[w].load(Ordering::Relaxed),
                    exported: ring.exported[w].load(Ordering::Relaxed),
                })
                .collect(),
        });

        match outcome {
            Some(o) => {
                self.last_winner = o.winner;
                self.stats.last_winner = o.winner;
                self.stats.wins[o.winner] += 1;
                self.stats.cancel_us_max = self.stats.cancel_us_max.max(o.cancel_us);
                Ok(o.result)
            }
            None => {
                // Every worker returned without a verdict: all budget, by
                // the race contract (nobody raised the flag). The
                // `outcomes` array is kept for debug assertions only.
                debug_assert!(outcomes
                    .iter()
                    .all(|o| o.load(Ordering::Relaxed) == OUTCOME_BUDGET));
                self.stats.budget_races += 1;
                Err(Interrupt::Budget)
            }
        }
    }

    /// The model value of `var` in the most recent winner's model.
    pub fn value(&self, var: SatVar) -> Option<bool> {
        self.workers[self.last_winner].value(var)
    }

    /// The model value of a literal in the most recent winner's model.
    pub fn lit_bool(&self, lit: SatLit) -> Option<bool> {
        self.workers[self.last_winner].lit_bool(lit)
    }

    /// Number of allocated variables (identical across workers).
    pub fn num_vars(&self) -> usize {
        self.workers[0].num_vars()
    }

    /// Number of live clauses in worker 0 (the reference database; other
    /// workers may hold more through exchange imports).
    pub fn num_clauses(&self) -> usize {
        self.workers[0].num_clauses()
    }

    /// Solver-effort statistics: worker 0's exactly at width 1 (the
    /// pinned contract), the sum across workers at width > 1 (total
    /// effort spent, comparable to wall-clock cost).
    pub fn stats(&self) -> SolverStats {
        if self.workers.len() == 1 {
            return self.workers[0].stats();
        }
        let mut total = SolverStats::default();
        for w in &self.workers {
            let s = w.stats();
            total.decisions += s.decisions;
            total.propagations += s.propagations;
            total.conflicts += s.conflicts;
            total.restarts += s.restarts;
            total.learnts_kept += s.learnts_kept;
            total.learnts_deleted += s.learnts_deleted;
        }
        total
    }

    /// Cumulative portfolio counters (races, wins, exchange volume).
    pub fn portfolio_stats(&self) -> PortfolioStats {
        self.stats.clone()
    }
}

impl std::fmt::Debug for PortfolioSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PortfolioSolver {{ engine: {}, workers: {}, races: {} }}",
            self.engine,
            self.workers.len(),
            self.stats.races
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: SatVar, neg: bool) -> SatLit {
        SatLit::new(v, neg)
    }

    /// Pigeonhole `n+1` into `n`: small, UNSAT, and conflict-heavy enough
    /// to exercise restarts and the exchange ring.
    fn pigeonhole(solver: &mut PortfolioSolver, holes: usize) {
        let pigeons = holes + 1;
        let p: Vec<Vec<SatLit>> = (0..pigeons)
            .map(|_| {
                (0..holes)
                    .map(|_| SatLit::positive(solver.new_var()))
                    .collect()
            })
            .collect();
        for row in &p {
            solver.add_clause(row);
        }
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                for (&a, &b) in p[i1].iter().zip(&p[i2]) {
                    solver.add_clause(&[!a, !b]);
                }
            }
        }
    }

    #[test]
    fn width_one_matches_the_plain_solver_bit_for_bit() {
        let clauses: [&[(SatVar, bool)]; 3] = [
            &[(0, false), (1, false)],
            &[(0, true), (2, false)],
            &[(1, true), (2, true)],
        ];
        let mut plain = Solver::new();
        let mut port = PortfolioSolver::with_width("test", 1);
        for _ in 0..3 {
            plain.new_var();
            port.new_var();
        }
        for cl in clauses {
            let lits: Vec<SatLit> = cl.iter().map(|&(v, neg)| lit(v, neg)).collect();
            plain.add_clause(&lits);
            port.add_clause(&lits);
        }
        assert_eq!(plain.solve(&[]), port.solve(&[]));
        assert_eq!(plain.stats(), port.stats(), "pinned stats are identical");
        for v in 0..3 {
            assert_eq!(plain.value(v), port.value(v));
        }
    }

    #[test]
    fn racing_verdicts_agree_with_the_serial_reference() {
        for holes in [3usize, 4, 5] {
            let mut port = PortfolioSolver::with_width("test", 4);
            pigeonhole(&mut port, holes);
            assert_eq!(port.solve(&[]), SatResult::Unsat);
        }
        // A satisfiable instance: the winning model must satisfy it.
        let mut port = PortfolioSolver::with_width("test", 4);
        let vars: Vec<SatVar> = (0..8).map(|_| port.new_var()).collect();
        let mut clauses: Vec<Vec<SatLit>> = Vec::new();
        for w in vars.windows(2) {
            clauses.push(vec![lit(w[0], true), lit(w[1], false)]);
        }
        clauses.push(vec![lit(vars[0], false)]);
        for cl in &clauses {
            port.add_clause(cl);
        }
        assert_eq!(port.solve(&[]), SatResult::Sat);
        for cl in &clauses {
            assert!(
                cl.iter().any(|l| port.lit_bool(*l).unwrap_or(false)),
                "winning model satisfies every clause"
            );
        }
    }

    #[test]
    fn assumptions_race_correctly() {
        let mut port = PortfolioSolver::with_width("test", 3);
        let a = SatLit::positive(port.new_var());
        let b = SatLit::positive(port.new_var());
        port.add_clause(&[!a, b]); // a → b
        assert_eq!(port.solve(&[a, !b]), SatResult::Unsat);
        assert_eq!(port.solve(&[a]), SatResult::Sat);
        assert_eq!(port.lit_bool(b), Some(true));
    }

    #[test]
    fn budget_exhaustion_has_no_winner() {
        let mut port = PortfolioSolver::with_width("test", 2);
        pigeonhole(&mut port, 6);
        assert_eq!(
            port.try_solve(&[], Some(1)),
            Err(Interrupt::Budget),
            "a 1-conflict budget cannot crack pigeonhole-7/6"
        );
        assert_eq!(port.portfolio_stats().budget_races, 1);
        // The portfolio stays usable: an unlimited retry concludes.
        assert_eq!(port.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn hard_instances_exercise_the_exchange_ring() {
        let mut port = PortfolioSolver::with_width("test", 4);
        pigeonhole(&mut port, 6);
        assert_eq!(port.solve(&[]), SatResult::Unsat);
        let stats = port.portfolio_stats();
        assert_eq!(stats.races, 1);
        assert!(
            stats.exported > 0,
            "a conflict-heavy UNSAT proof publishes glue: {stats:?}"
        );
    }

    #[test]
    fn default_width_is_at_least_one() {
        assert!(default_width() >= 1);
        assert!(PortfolioSolver::new("test").width() >= 1);
    }
}
