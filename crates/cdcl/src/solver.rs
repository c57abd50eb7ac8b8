//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the MiniSat architecture: two watched literals
//! per clause, first-UIP learning, VSIDS activities with exponential decay,
//! phase saving, Luby restarts, and incremental solving under assumptions.
//! Decisions come from an indexed max-heap ([`crate::heap::ActivityHeap`])
//! with a deterministic total order (activity descending, variable index
//! ascending on ties), and learnt clauses carry activities and LBD scores
//! so the database can be periodically reduced — cold, high-LBD learnts are
//! dropped while glue clauses and active reasons survive. Both matter for
//! the attack workloads in this workspace: key-conditioned (and four-copy
//! 2-DIP) miters run thousands of incremental queries over the same solver,
//! and without reduction the learnt database grows without bound.
//!
//! # Memory layout
//!
//! - **Clause arena.** Every clause's literals sit back to back in one
//!   flat `Vec<SatLit>`; a clause slot holds only a start/length header
//!   plus its learnt-clause bookkeeping. Deleting a clause zeroes its
//!   length and leaves its literals behind as garbage, and the arena is
//!   rewritten without them once half of it is garbage. Slot indices never
//!   move, so reasons and watches name clauses by slot throughout.
//! - **Watches.** Each watch-list entry carries the clause slot and, for a
//!   binary clause, the clause's other literal: visiting a binary clause
//!   whose other literal is already true reads no clause memory at all.
//! - **Values.** Truth values are indexed by literal, so a lookup is one
//!   load with no sign arithmetic; assigning a variable writes both of its
//!   literals.
//!
//! # Byte-identity contract
//!
//! At portfolio width 1 the search is a deterministic function of the
//! clauses and assumptions, and everything downstream (DIP sequences,
//! recovered keys, fraig outputs, benchmark fingerprints) depends on it, so
//! the layout above is an implementation detail that must not change one
//! decision, propagation, learnt clause, restart or reduction. Watch lists
//! keep their visit order and are edited exactly as a per-clause layout
//! would edit them. A visit that finds the clause satisfied writes nothing,
//! where a textbook two-watched-literal loop would first swap the false
//! literal into position 1: the order of the two watched literals is
//! unobservable, because conflict analysis, `clause_is_locked` and
//! reduction read a clause only after a unit or conflict visit has laid it
//! out as `[implied, false, ..]`. The `solver_golden` suite of `almost_sat`
//! pins the trajectories.
//!
//! # Decision variables
//!
//! As in MiniSat, every variable carries a *decision* flag
//! ([`Solver::set_decision_var`]): `decide` only branches on flagged
//! variables, and backtracking re-queues only those. A SAT answer then
//! assigns every decision variable (and whatever propagation reaches), so
//! every clause over decision variables alone is satisfied and no clause
//! is falsified; UNSAT answers never depend on the flags. Every variable
//! starts flagged, and with every flag on the search is exactly the
//! unrestricted one, so callers that never touch a flag (the miters,
//! Double DIP, the residual CEC query, the portfolio) keep the trajectory
//! the byte-identity contract pins. The fraig sweep solver is the one
//! user: it flags only the cones of the query at hand.

use crate::heap::ActivityHeap;
use almost_telemetry as telemetry;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// The telemetry mirror of [`SolverStats`]' search-effort counters
/// (database-size fields are gauges, not effort, and stay out of the
/// event stream).
fn counters(s: SolverStats) -> telemetry::SolverCounters {
    telemetry::SolverCounters {
        decisions: s.decisions,
        propagations: s.propagations,
        conflicts: s.conflicts,
        restarts: s.restarts,
    }
}

/// A solver variable (0-based index).
pub type SatVar = u32;

/// A solver literal: variable plus sign, encoded as `var << 1 | negated`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SatLit(u32);

impl SatLit {
    /// The positive literal of `var`.
    pub fn positive(var: SatVar) -> Self {
        SatLit(var << 1)
    }

    /// The negative literal of `var`.
    pub fn negative(var: SatVar) -> Self {
        SatLit(var << 1 | 1)
    }

    /// Builds a literal with an explicit sign (`negated = true` means ¬var).
    pub fn new(var: SatVar, negated: bool) -> Self {
        SatLit(var << 1 | negated as u32)
    }

    /// The literal's variable.
    pub fn var(self) -> SatVar {
        self.0 >> 1
    }

    /// True if the literal is negated.
    pub fn is_negative(self) -> bool {
        self.0 & 1 != 0
    }

    /// Raw index (used for watch lists).
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for SatLit {
    type Output = SatLit;
    fn not(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }
}

impl fmt::Debug for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (query it with [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

/// Cumulative solver-effort counters, surfaced on every attack row so
/// heuristic changes are audited behaviourally (see the release-mode
/// envelope test) and perf regressions show up in the bench CSVs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Decision-literal picks.
    pub decisions: u64,
    /// Literals propagated off the trail.
    pub propagations: u64,
    /// Conflicts analysed (= clauses learnt, counting unit learnts).
    pub conflicts: u64,
    /// Restarts performed (Luby schedule).
    pub restarts: u64,
    /// Learnt clauses currently alive in the database.
    pub learnts_kept: u64,
    /// Learnt clauses deleted by database reduction (cumulative).
    pub learnts_deleted: u64,
}

/// A literal's truth value under the current assignment.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

const INVALID_CLAUSE: u32 = u32::MAX;

/// The [`Watch::other`] of a clause longer than two literals.
const LONG_CLAUSE: SatLit = SatLit(u32::MAX);

/// Sentinel returned by the propagate loop when a portfolio stop flag
/// interrupted it mid-queue. Distinct from both [`INVALID_CLAUSE`] and
/// every real clause index so cancellation can never be mistaken for a
/// conflict (which would turn a race into a wrong UNSAT).
const CANCELLED: u32 = u32::MAX - 1;

/// Why a cancellable search came back without a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The per-call conflict budget ran out.
    Budget,
    /// A portfolio stop flag was raised (a sibling finished first).
    Cancelled,
}

impl Interrupt {
    /// The telemetry `cause` label for a `budget_exhausted` event.
    pub fn cause(self) -> &'static str {
        match self {
            Interrupt::Budget => "budget",
            Interrupt::Cancelled => "cancelled",
        }
    }
}

/// Hook points a portfolio uses to share learnt glue clauses between
/// racing solver instances. Soundness rests on every participant holding
/// the *identical* original formula: learnt clauses are implied by the
/// formula alone, so importing a sibling's glue can never flip a verdict.
pub trait ClauseExchange {
    /// Offers a freshly learnt glue clause (unit, binary, or LBD ≤ 2)
    /// for publication to siblings.
    fn export(&mut self, lits: &[SatLit], lbd: u32);
    /// Drains clauses published by siblings into `buf` (called at search
    /// start and at restart boundaries, when the trail is shallow).
    fn import(&mut self, buf: &mut Vec<Vec<SatLit>>);
}

/// What happened while splicing a batch of imported clauses in at the
/// root level.
enum ImportOutcome {
    Proceed,
    RootConflict,
    Cancelled,
}

/// Learnt clauses at or below this LBD ("glue" clauses) are never deleted.
const GLUE_LBD: u32 = 2;

/// Initial live-learnt count that triggers a database reduction; grows
/// geometrically after each reduction.
const DEFAULT_REDUCE_THRESHOLD: usize = 4000;

/// Luby restart unit, in conflicts.
const RESTART_BASE: u64 = 100;

/// Telemetry heartbeat period, in conflicts (must be a power of two: the
/// conflict path tests `num_conflicts & (PROGRESS_INTERVAL - 1) == 0`,
/// which costs one AND+branch when telemetry is disabled).
const PROGRESS_INTERVAL: u64 = 8192;

/// A watch-list entry: the clause slot, plus the clause's other literal
/// when it is binary, so a visit whose `other` is already true never
/// reads clause memory. Longer clauses carry [`LONG_CLAUSE`].
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    other: SatLit,
}

/// A clause slot. The literals live in the solver's arena at
/// `start .. start + len`; learnt clauses additionally carry an activity
/// (bumped when they participate in conflict analysis) and their
/// literal-block distance at learn time. Deleted clauses keep their slot
/// (watch lists and reasons index by slot) with `len` zeroed; slots are
/// recycled through a free list.
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    activity: f64,
    lbd: u32,
}

/// A CDCL SAT solver; see the [module documentation](self).
pub struct Solver {
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back.
    arena: Vec<SatLit>,
    /// Arena literals of deleted clauses, reclaimed by compaction.
    garbage: usize,
    /// Recycled slots of deleted clauses.
    free: Vec<u32>,
    /// `watches[l]` lists the clauses to visit when literal `l` becomes
    /// false.
    watches: Vec<Vec<Watch>>,
    /// Literal-indexed truth values: assigning or unassigning a variable
    /// writes both of its literals.
    vals: Vec<Value>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// VSIDS decision order over unassigned variables. Every unassigned
    /// decision variable is queued; a variable whose flag was turned off
    /// may linger until `decide` pops and drops it.
    order: ActivityHeap,
    /// Per-variable decision flag (see [`Solver::set_decision_var`]).
    decision: Vec<bool>,
    cla_inc: f64,
    seen: Vec<bool>,
    /// Conflict-analysis scratch: the clause being learnt, reused across
    /// conflicts.
    learnt: Vec<SatLit>,
    /// `level_stamp[l] == lbd_stamp` marks decision level `l` as already
    /// counted by the current LBD computation.
    level_stamp: Vec<u64>,
    lbd_stamp: u64,
    /// Set when an empty clause (or a root-level conflict) makes the formula
    /// trivially unsatisfiable.
    unsat: bool,
    db_reduction: bool,
    reduce_threshold: usize,
    /// Luby restart unit in conflicts; [`RESTART_BASE`] unless a
    /// portfolio diversified this instance.
    restart_base: u64,
    /// Nonzero when this instance carries diversified initial VSIDS
    /// activities (portfolio workers ≥ 1); 0 is the pinned reference.
    diversity_seed: u64,
    /// Initial saved phase for freshly allocated variables.
    default_phase: bool,
    num_learnts: usize,
    num_conflicts: u64,
    num_decisions: u64,
    num_propagations: u64,
    num_restarts: u64,
    num_learnts_deleted: u64,
    /// Stats at the previous telemetry heartbeat, so each
    /// `SolverProgress` event carries deltas an aggregator can sum
    /// across many solver instances.
    last_progress: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            arena: Vec::new(),
            garbage: 0,
            free: Vec::new(),
            watches: Vec::new(),
            vals: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: ActivityHeap::new(),
            decision: Vec::new(),
            cla_inc: 1.0,
            seen: Vec::new(),
            learnt: Vec::new(),
            level_stamp: Vec::new(),
            lbd_stamp: 0,
            unsat: false,
            db_reduction: true,
            reduce_threshold: DEFAULT_REDUCE_THRESHOLD,
            restart_base: RESTART_BASE,
            diversity_seed: 0,
            default_phase: false,
            num_learnts: 0,
            num_conflicts: 0,
            num_decisions: 0,
            num_propagations: 0,
            num_restarts: 0,
            num_learnts_deleted: 0,
            last_progress: SolverStats::default(),
        }
    }

    /// Allocates a fresh variable (a decision variable).
    pub fn new_var(&mut self) -> SatVar {
        let v = self.level.len() as SatVar;
        self.vals.push(Value::Unassigned);
        self.vals.push(Value::Unassigned);
        self.phase.push(self.default_phase);
        self.level.push(0);
        self.reason.push(INVALID_CLAUSE);
        self.activity.push(if self.diversity_seed == 0 {
            0.0
        } else {
            diversity_activity(self.diversity_seed, v)
        });
        self.seen.push(false);
        self.decision.push(true);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Seeds diversified initial VSIDS activities (applied retroactively
    /// to existing variables and to every variable allocated later). The
    /// perturbations are tiny (≤ 1e-6, against a decision bump of 1.0),
    /// so they only reshuffle the tie order among untouched variables —
    /// enough to send racing instances down different branches. Seed 0 is
    /// the undiversified pinned reference (a no-op).
    pub fn set_diversity_seed(&mut self, seed: u64) {
        self.diversity_seed = seed;
        if seed == 0 {
            return;
        }
        for v in 0..self.activity.len() {
            self.activity[v] = diversity_activity(seed, v as SatVar);
        }
        self.order.rebuild(&self.activity);
    }

    /// Overrides the Luby restart unit (default 100 conflicts) — a
    /// portfolio diversification knob: workers on longer units dig
    /// deeper between restarts, workers on shorter ones resample more.
    pub fn set_restart_base(&mut self, base: u64) {
        self.restart_base = base.max(1);
    }

    /// Sets the initial saved phase handed to fresh variables (and to
    /// every currently unassigned variable). The default `false` matches
    /// the classic MiniSat negative-first policy; portfolio workers flip
    /// it to explore the complementary half of the space first.
    pub fn set_default_phase(&mut self, phase: bool) {
        self.default_phase = phase;
        for (v, ph) in self.phase.iter_mut().enumerate() {
            if self.vals[SatLit::positive(v as SatVar).index()] == Value::Unassigned {
                *ph = phase;
            }
        }
    }

    /// Lets `decide` branch on `var` (`on`, the default for every fresh
    /// variable) or not. A SAT answer assigns every decision variable;
    /// others are assigned only where propagation reaches them and may
    /// read `None` in the model. Verdicts stay exact on the decision
    /// variables: UNSAT never depends on the flags, and a SAT answer
    /// falsifies no clause and satisfies every clause whose variables are
    /// all decision variables. Turning a flag on queues the variable if it
    /// is unassigned; turning it off lets `decide` drop it lazily.
    pub fn set_decision_var(&mut self, var: SatVar, on: bool) {
        self.decision[var as usize] = on;
        if on && self.lit_value(SatLit::positive(var)) == Value::Unassigned {
            self.order.insert(var, &self.activity);
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of live clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() - self.free.len()
    }

    /// Cumulative effort statistics.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            decisions: self.num_decisions,
            propagations: self.num_propagations,
            conflicts: self.num_conflicts,
            restarts: self.num_restarts,
            learnts_kept: self.num_learnts as u64,
            learnts_deleted: self.num_learnts_deleted,
        }
    }

    /// Emits a telemetry heartbeat carrying both cumulative counters and
    /// deltas since the previous heartbeat. No-op (and no allocation)
    /// when no trace sink is installed.
    fn emit_progress(&mut self) {
        if !telemetry::tracing() {
            return;
        }
        let stats = self.stats();
        let last = self.last_progress;
        self.last_progress = stats;
        telemetry::trace(|| telemetry::EventKind::SolverProgress {
            total: counters(stats),
            delta: counters(SolverStats {
                decisions: stats.decisions - last.decisions,
                propagations: stats.propagations - last.propagations,
                conflicts: stats.conflicts - last.conflicts,
                restarts: stats.restarts - last.restarts,
                learnts_kept: 0,
                learnts_deleted: 0,
            }),
        });
    }

    /// Enables or disables learnt-clause database reduction (on by
    /// default). Reduction only ever drops *learnt* clauses — which are
    /// implied by the original formula — so verdicts are unaffected; the
    /// soundness tests cross-check a reducing solver against a
    /// non-reducing one.
    pub fn set_db_reduction(&mut self, enabled: bool) {
        self.db_reduction = enabled;
    }

    /// Overrides the live-learnt count that triggers the next database
    /// reduction (default 4000). Primarily a test/tuning hook: a tiny
    /// threshold forces reductions on small instances.
    pub fn set_reduce_threshold(&mut self, threshold: usize) {
        self.reduce_threshold = threshold.max(1);
    }

    /// True when every unassigned decision variable is queued in the
    /// decision heap — the invariant that makes [`Solver::solve`]'s
    /// `decide` loop complete. Exposed for the property tests; not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn decision_heap_consistent(&self) -> bool {
        (0..self.num_vars() as SatVar).all(|v| {
            !self.decision[v as usize]
                || self.lit_value(SatLit::positive(v)) != Value::Unassigned
                || self.order.contains(v)
        })
    }

    #[inline]
    fn lit_value(&self, lit: SatLit) -> Value {
        self.vals[lit.index()]
    }

    /// The literals of the clause in slot `ci`.
    fn clause_lits(&self, ci: u32) -> &[SatLit] {
        let c = &self.clauses[ci as usize];
        &self.arena[c.start as usize..(c.start + c.len) as usize]
    }

    /// Adds a clause. If a model from a previous `solve` call is still
    /// active, it is discarded (the solver backtracks to level 0).
    ///
    /// # Panics
    ///
    /// Panics if any literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[SatLit]) {
        self.cancel_until(0);
        for l in lits {
            assert!((l.var() as usize) < self.num_vars(), "unknown variable");
        }
        // Simplify: drop duplicate literals; detect tautologies.
        let mut simplified: Vec<SatLit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if simplified.contains(&!l) {
                return; // tautology, always satisfied
            }
            if !simplified.contains(&l) {
                // Skip literals already false at level 0 and drop the clause
                // if any literal is already true at level 0.
                match self.lit_value(l) {
                    Value::True => return,
                    Value::False => continue,
                    Value::Unassigned => simplified.push(l),
                }
            }
        }
        match simplified.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(simplified[0], INVALID_CLAUSE)
                    || self.propagate() != INVALID_CLAUSE
                {
                    self.unsat = true;
                }
            }
            _ => {
                self.alloc_clause(&simplified, false, 0);
            }
        }
    }

    /// Stores a clause (recycling a deleted slot when one exists, appending
    /// its literals to the arena) and attaches its first two literals to
    /// the watch lists.
    fn alloc_clause(&mut self, lits: &[SatLit], learnt: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 2, "stored clauses have at least 2 literals");
        let (w0, w1) = (lits[0], lits[1]);
        let clause = Clause {
            start: u32::try_from(self.arena.len()).expect("clause arena fits u32 offsets"),
            len: lits.len() as u32,
            learnt,
            activity: if learnt { self.cla_inc } else { 0.0 },
            lbd,
        };
        self.arena.extend_from_slice(lits);
        let idx = match self.free.pop() {
            Some(i) => {
                self.clauses[i as usize] = clause;
                i
            }
            None => {
                self.clauses.push(clause);
                (self.clauses.len() - 1) as u32
            }
        };
        let (o0, o1) = if lits.len() == 2 {
            (w1, w0)
        } else {
            (LONG_CLAUSE, LONG_CLAUSE)
        };
        self.watches[w0.index()].push(Watch {
            clause: idx,
            other: o0,
        });
        self.watches[w1.index()].push(Watch {
            clause: idx,
            other: o1,
        });
        if learnt {
            self.num_learnts += 1;
        }
        idx
    }

    /// Removes a clause from the database: detaches its watches, marks its
    /// arena literals as garbage, and recycles the slot.
    fn detach_clause(&mut self, ci: u32) {
        let (w0, w1) = {
            let lits = self.clause_lits(ci);
            (lits[0], lits[1])
        };
        for w in [w0, w1] {
            let list = &mut self.watches[w.index()];
            let p = list
                .iter()
                .position(|x| x.clause == ci)
                .expect("live clause is watched by its first two literals");
            list.swap_remove(p);
        }
        let c = &mut self.clauses[ci as usize];
        self.garbage += c.len as usize;
        c.len = 0;
        if c.learnt {
            self.num_learnts -= 1;
            self.num_learnts_deleted += 1;
        }
        self.free.push(ci);
    }

    /// Rewrites the arena without the literals of deleted clauses, in slot
    /// order. Slots keep their indices, so watches and reasons stay valid.
    fn compact_arena(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.garbage);
        for c in &mut self.clauses {
            let start = c.start as usize;
            c.start = arena.len() as u32;
            arena.extend_from_slice(&self.arena[start..start + c.len as usize]);
        }
        self.arena = arena;
        self.garbage = 0;
    }

    /// True when `ci` is the reason of its asserting literal's current
    /// assignment (such clauses must survive reduction).
    fn clause_is_locked(&self, ci: u32) -> bool {
        let asserted = self.clause_lits(ci)[0];
        self.reason[asserted.var() as usize] == ci && self.lit_value(asserted) != Value::Unassigned
    }

    /// Deletes the cold half of the deletable learnt clauses: glue clauses
    /// (LBD ≤ 2), binary clauses and active reasons are kept; the rest are
    /// ranked by activity (LBD and slot index as deterministic tiebreaks)
    /// and the bottom half is dropped.
    fn reduce_db(&mut self) {
        let mut cands: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&ci| {
                let c = &self.clauses[ci as usize];
                c.learnt && c.len > 2 && c.lbd > GLUE_LBD && !self.clause_is_locked(ci)
            })
            .collect();
        cands.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            ca.activity
                .partial_cmp(&cb.activity)
                .expect("clause activities are never NaN")
                .then(cb.lbd.cmp(&ca.lbd))
                .then(a.cmp(&b))
        });
        cands.truncate(cands.len() / 2);
        for ci in cands {
            self.detach_clause(ci);
        }
        if 2 * self.garbage >= self.arena.len() {
            self.compact_arena();
        }
    }

    /// Enqueues an assignment; returns false on conflict with the current
    /// assignment.
    fn enqueue(&mut self, lit: SatLit, reason: u32) -> bool {
        match self.lit_value(lit) {
            Value::True => true,
            Value::False => false,
            Value::Unassigned => {
                self.assign(lit, reason);
                true
            }
        }
    }

    /// Makes the unassigned `lit` true at the current decision level.
    #[inline]
    fn assign(&mut self, lit: SatLit, reason: u32) {
        self.vals[lit.index()] = Value::True;
        self.vals[(!lit).index()] = Value::False;
        let v = lit.var() as usize;
        self.phase[v] = !lit.is_negative();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the index of a conflicting clause or
    /// `INVALID_CLAUSE`.
    fn propagate(&mut self) -> u32 {
        self.propagate_ctl(None)
    }

    /// Unit propagation with an optional portfolio stop flag, polled
    /// every 1024 propagations (one relaxed load amortised over a long
    /// propagation burst — invisible in the serial reference, bounded
    /// cancellation latency in a race). Returns [`CANCELLED`] when the
    /// flag is up; the poll sits between trail literals, so the watch
    /// lists and `qhead` are consistent and the queue resumes later.
    fn propagate_ctl(&mut self, stop: Option<&AtomicBool>) -> u32 {
        while self.qhead < self.trail.len() {
            if let Some(flag) = stop {
                if self.num_propagations & 1023 == 0 && flag.load(Ordering::Relaxed) {
                    return CANCELLED;
                }
            }
            let false_lit = !self.trail[self.qhead];
            self.qhead += 1;
            self.num_propagations += 1;
            // Take the watch list; rebuild it as we go.
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let Watch { clause: ci, other } = watch_list[i];
                let unit = if other != LONG_CLAUSE {
                    // A binary clause: `other` is all of the rest of it.
                    if self.lit_value(other) == Value::True {
                        i += 1;
                        continue;
                    }
                    other
                } else {
                    let c = &self.clauses[ci as usize];
                    let lits = &mut self.arena[c.start as usize..(c.start + c.len) as usize];
                    // The other watched literal sits in the first two
                    // positions, beside the false one.
                    let at = (lits[0] == false_lit) as usize;
                    debug_assert_eq!(lits[1 - at], false_lit);
                    let first = lits[at];
                    if self.vals[first.index()] == Value::True {
                        i += 1; // clause already satisfied
                        continue;
                    }
                    // Look for a new literal to watch.
                    match (2..lits.len()).find(|&k| self.vals[lits[k].index()] != Value::False) {
                        Some(k) => {
                            let new_watch = lits[k];
                            lits[1 - at] = new_watch;
                            lits[k] = false_lit;
                            self.watches[new_watch.index()].push(Watch {
                                clause: ci,
                                other: LONG_CLAUSE,
                            });
                            watch_list.swap_remove(i);
                            continue;
                        }
                        None => first,
                    }
                };
                // Unit or conflicting: lay the clause out as
                // `[unit, false_lit, ..]`, the order conflict analysis and
                // `clause_is_locked` read it in.
                let start = self.clauses[ci as usize].start as usize;
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                }
                if self.lit_value(unit) == Value::False {
                    // Conflict: put the watch list back and report.
                    self.watches[false_lit.index()] = watch_list;
                    self.qhead = self.trail.len();
                    return ci;
                }
                self.assign(unit, ci);
                i += 1;
            }
            self.watches[false_lit.index()] = watch_list;
        }
        INVALID_CLAUSE
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Uniform scaling preserves strict order but can collapse tiny
            // activities into ties; re-heapify so the heap property holds
            // under the (index-tiebroken) total order.
            self.order.rebuild(&self.activity);
        }
        self.order.bumped(v as SatVar, &self.activity);
    }

    fn bump_clause(&mut self, ci: u32) {
        if !self.clauses[ci as usize].learnt {
            return;
        }
        self.clauses[ci as usize].activity += self.cla_inc;
        if self.clauses[ci as usize].activity > 1e20 {
            for c in &mut self.clauses {
                if c.learnt {
                    c.activity *= 1e-20;
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal-block distance of the learnt clause: the number of distinct
    /// decision levels among its literals (computed at learn time, before
    /// backjumping), counted by stamping each level once.
    fn learnt_lbd(&mut self) -> u32 {
        let levels = self.trail_lim.len() + 1;
        if self.level_stamp.len() < levels {
            self.level_stamp.resize(levels, 0);
        }
        self.lbd_stamp += 1;
        let mut lbd = 0;
        for l in &self.learnt {
            let stamp = &mut self.level_stamp[self.level[l.var() as usize] as usize];
            if *stamp != self.lbd_stamp {
                *stamp = self.lbd_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis: leaves the learnt clause in
    /// `self.learnt` (asserting literal first) and returns the backjump
    /// level.
    fn analyze(&mut self, conflict: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(SatLit::positive(0)); // placeholder slot 0
        let mut counter = 0usize;
        let mut lit: Option<SatLit> = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.trail_lim.len() as u32;

        loop {
            // Clauses that drive conflicts are the ones worth keeping.
            self.bump_clause(clause_idx);
            let skip = if lit.is_none() { 0 } else { 1 };
            let (start, len) = {
                let c = &self.clauses[clause_idx as usize];
                (c.start as usize, c.len as usize)
            };
            for k in start + skip..start + len {
                let q = self.arena[k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] == current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_pos -= 1;
                let p = self.trail[trail_pos];
                if self.seen[p.var() as usize] {
                    lit = Some(p);
                    break;
                }
            }
            let p = lit.expect("found a seen literal");
            self.seen[p.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p;
                break;
            }
            clause_idx = self.reason[p.var() as usize];
            debug_assert_ne!(clause_idx, INVALID_CLAUSE, "UIP literal has a reason");
        }

        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }

        // Backjump level: the highest level among the non-asserting
        // literals.
        let backjump = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Move a literal of the backjump level to position 1 (watch
        // invariant after backjumping).
        if learnt.len() > 1 {
            let pos = learnt[1..]
                .iter()
                .position(|l| self.level[l.var() as usize] == backjump)
                .expect("a literal at the backjump level exists")
                + 1;
            learnt.swap(1, pos);
        }
        self.learnt = learnt;
        backjump
    }

    /// Backtracks to `target_level`, re-queueing every unassigned decision
    /// variable. Levels and reasons of unassigned variables are left
    /// stale: nothing reads them before the variable is assigned again.
    fn cancel_until(&mut self, target_level: u32) {
        if self.trail_lim.len() as u32 > target_level {
            let lim = self.trail_lim[target_level as usize];
            self.trail_lim.truncate(target_level as usize);
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("trail non-empty");
                self.vals[lit.index()] = Value::Unassigned;
                self.vals[(!lit).index()] = Value::Unassigned;
                if self.decision[lit.var() as usize] {
                    self.order.insert(lit.var(), &self.activity);
                }
            }
        }
        // Clamp rather than jump: after a cancelled propagation `qhead`
        // may sit below the surviving trail, and skipping those queued
        // literals would silently drop implications (future wrong
        // verdicts). On every non-cancelled path propagation has drained
        // the queue, so the clamp is the old assignment exactly.
        self.qhead = self.qhead.min(self.trail.len());
    }

    /// Picks the unassigned decision variable ordered first by the VSIDS
    /// heap. Variables assigned by propagation, and variables whose
    /// decision flag is off, are dropped lazily (backtracking re-inserts
    /// every unassigned decision variable), and ties on activity resolve to
    /// the lowest index, so the pick is deterministic. Dropping entries
    /// never reorders the rest: the heap's order is strict and total.
    fn decide(&mut self) -> Option<SatLit> {
        while let Some(v) = self.order.pop() {
            if self.decision[v as usize] && self.lit_value(SatLit::positive(v)) == Value::Unassigned
            {
                return Some(SatLit::new(v, !self.phase[v as usize]));
            }
        }
        None
    }

    /// Solves the formula under the given assumptions.
    ///
    /// After [`SatResult::Sat`], [`Solver::value`] reports the model. The
    /// solver can be re-used: more clauses and further `solve` calls are
    /// allowed.
    pub fn solve(&mut self, assumptions: &[SatLit]) -> SatResult {
        match self.search(assumptions, u64::MAX, None, None) {
            Ok(r) => r,
            Err(_) => unreachable!("unlimited, uncancellable search always concludes"),
        }
    }

    /// Like [`Solver::solve`], but gives up after `max_conflicts` conflicts,
    /// returning `None`. The solver stays usable after a budget exhaustion:
    /// learnt clauses are kept, and a later (larger-budget) call resumes the
    /// proof effort.
    ///
    /// This is the primitive behind AppSAT-style *approximate* attacks,
    /// which trade completeness for bounded per-query effort.
    pub fn solve_limited(
        &mut self,
        assumptions: &[SatLit],
        max_conflicts: u64,
    ) -> Option<SatResult> {
        self.search(assumptions, max_conflicts, None, None).ok()
    }

    /// The portfolio entry point: a conflict-budgeted solve that also
    /// polls `stop` (raised by a sibling that finished first) and, when
    /// `exchange` is given, publishes learnt glue clauses and imports
    /// siblings' glue at restart boundaries.
    ///
    /// A raised stop flag yields `Err(Interrupt::Cancelled)` — always the
    /// indeterminate result, never a verdict — and leaves the solver in
    /// the same resumable state a budget exhaustion would.
    pub fn solve_raced(
        &mut self,
        assumptions: &[SatLit],
        max_conflicts: u64,
        stop: &AtomicBool,
        exchange: Option<&mut dyn ClauseExchange>,
    ) -> Result<SatResult, Interrupt> {
        // The in-search poll fires every 1024 propagations; an
        // unconditional entry check keeps the contract exact — a tripped
        // flag NEVER yields a verdict, even on instances small enough to
        // decide between two poll points.
        if stop.load(Ordering::Relaxed) {
            return Err(Interrupt::Cancelled);
        }
        self.search(assumptions, max_conflicts, Some(stop), exchange)
    }

    /// Splices a batch of imported glue clauses in at the root level:
    /// simplifies each against the root assignment, stores survivors as
    /// undeletable glue learnts, then runs one propagation pass over the
    /// enqueued units. Caller must already be at decision level 0.
    fn import_clauses(
        &mut self,
        imports: &mut Vec<Vec<SatLit>>,
        stop: Option<&AtomicBool>,
    ) -> ImportOutcome {
        debug_assert!(self.trail_lim.is_empty(), "imports splice in at the root");
        for lits in imports.drain(..) {
            let mut simplified: Vec<SatLit> = Vec::with_capacity(lits.len());
            let mut satisfied = false;
            for &l in &lits {
                if simplified.contains(&!l) {
                    satisfied = true; // tautology
                    break;
                }
                if !simplified.contains(&l) {
                    match self.lit_value(l) {
                        Value::True => {
                            satisfied = true;
                            break;
                        }
                        Value::False => continue,
                        Value::Unassigned => simplified.push(l),
                    }
                }
            }
            if satisfied {
                continue;
            }
            match simplified.len() {
                // An imported clause is implied by the shared formula, so
                // falsifying it at the root is a genuine UNSAT proof.
                0 => return ImportOutcome::RootConflict,
                1 => {
                    if !self.enqueue(simplified[0], INVALID_CLAUSE) {
                        return ImportOutcome::RootConflict;
                    }
                }
                // Imported glue is pinned at GLUE_LBD so database
                // reduction never drops it (matching its status in the
                // exporting instance).
                _ => {
                    self.alloc_clause(&simplified, true, GLUE_LBD);
                }
            }
        }
        match self.propagate_ctl(stop) {
            INVALID_CLAUSE => ImportOutcome::Proceed,
            CANCELLED => ImportOutcome::Cancelled,
            _conflict => ImportOutcome::RootConflict,
        }
    }

    fn search(
        &mut self,
        assumptions: &[SatLit],
        max_conflicts: u64,
        stop: Option<&AtomicBool>,
        mut exchange: Option<&mut dyn ClauseExchange>,
    ) -> Result<SatResult, Interrupt> {
        if self.unsat {
            return Ok(SatResult::Unsat);
        }
        self.cancel_until(0);
        match self.propagate_ctl(stop) {
            INVALID_CLAUSE => {}
            CANCELLED => return Err(Interrupt::Cancelled),
            _conflict => {
                self.unsat = true;
                return Ok(SatResult::Unsat);
            }
        }
        let mut import_buf: Vec<Vec<SatLit>> = Vec::new();
        if let Some(ex) = exchange.as_deref_mut() {
            ex.import(&mut import_buf);
            match self.import_clauses(&mut import_buf, stop) {
                ImportOutcome::Proceed => {}
                ImportOutcome::Cancelled => return Err(Interrupt::Cancelled),
                ImportOutcome::RootConflict => {
                    self.unsat = true;
                    return Ok(SatResult::Unsat);
                }
            }
        }

        let mut curr_restarts = 0u64;
        let mut restart_limit = luby(curr_restarts) * self.restart_base;
        let mut conflicts_since_restart = 0u64;
        let mut conflicts_this_call = 0u64;

        loop {
            let conflict = self.propagate_ctl(stop);
            if conflict == CANCELLED {
                self.cancel_until(0);
                return Err(Interrupt::Cancelled);
            }
            if conflict != INVALID_CLAUSE {
                self.num_conflicts += 1;
                conflicts_since_restart += 1;
                conflicts_this_call += 1;
                if self.num_conflicts & (PROGRESS_INTERVAL - 1) == 0 {
                    self.emit_progress();
                }
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return Ok(SatResult::Unsat);
                }
                // Conflicts below the assumption levels mean the assumptions
                // are inconsistent with the formula; analyze() still works,
                // and re-deciding the assumptions below re-detects it until
                // the learnt clauses force a root conflict. To keep it
                // simple and terminating, treat a conflict at or below the
                // number of assumption levels as UNSAT-under-assumptions.
                let backjump = self.analyze(conflict);
                if (self.trail_lim.len() as u32) <= num_assumed_levels(assumptions, self) {
                    return Ok(SatResult::Unsat);
                }
                // Decay activities.
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    if let Some(ex) = exchange.as_deref_mut() {
                        ex.export(&self.learnt, 1);
                    }
                    // A unit learnt must live at the root: enqueueing it at
                    // an assumption level would leave a reason-less literal
                    // above level 0, which a later conflict analysis cannot
                    // resolve through. The main loop re-decides the
                    // assumptions afterwards.
                    self.cancel_until(0);
                    if !self.enqueue(asserting, INVALID_CLAUSE) {
                        self.unsat = true;
                        return Ok(SatResult::Unsat);
                    }
                    match self.propagate_ctl(stop) {
                        INVALID_CLAUSE => {}
                        CANCELLED => {
                            self.cancel_until(0);
                            return Err(Interrupt::Cancelled);
                        }
                        _conflict => {
                            self.unsat = true;
                            return Ok(SatResult::Unsat);
                        }
                    }
                } else {
                    // LBD is measured before backjumping unassigns levels.
                    let lbd = self.learnt_lbd();
                    if self.learnt.len() <= 2 || lbd <= GLUE_LBD {
                        if let Some(ex) = exchange.as_deref_mut() {
                            ex.export(&self.learnt, lbd);
                        }
                    }
                    let backjump = backjump.max(num_assumed_levels(assumptions, self));
                    self.cancel_until(backjump);
                    let learnt = std::mem::take(&mut self.learnt);
                    let idx = self.alloc_clause(&learnt, true, lbd);
                    self.learnt = learnt;
                    let ok = self.enqueue(asserting, idx);
                    debug_assert!(ok, "asserting literal must be enqueueable");
                }
                if self.db_reduction && self.num_learnts >= self.reduce_threshold {
                    self.reduce_db();
                    self.reduce_threshold += self.reduce_threshold / 2;
                }
                if conflicts_this_call >= max_conflicts {
                    self.cancel_until(0);
                    return Err(Interrupt::Budget);
                }
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    curr_restarts += 1;
                    restart_limit = luby(curr_restarts) * self.restart_base;
                    self.num_restarts += 1;
                    self.cancel_until(num_assumed_levels(assumptions, self));
                    if let Some(ex) = exchange.as_deref_mut() {
                        ex.import(&mut import_buf);
                        if !import_buf.is_empty() {
                            // Imports splice in at the root; the main
                            // loop re-decides the assumptions afterwards.
                            self.cancel_until(0);
                            match self.import_clauses(&mut import_buf, stop) {
                                ImportOutcome::Proceed => {}
                                ImportOutcome::Cancelled => {
                                    self.cancel_until(0);
                                    return Err(Interrupt::Cancelled);
                                }
                                ImportOutcome::RootConflict => {
                                    self.unsat = true;
                                    return Ok(SatResult::Unsat);
                                }
                            }
                        }
                    }
                }
                continue;
            }

            // Assumption decisions first.
            let next_level = self.trail_lim.len();
            if next_level < assumptions.len() {
                let a = assumptions[next_level];
                match self.lit_value(a) {
                    Value::True => {
                        // Already implied; open an empty decision level so
                        // the level <-> assumption-index bookkeeping stays
                        // aligned.
                        self.trail_lim.push(self.trail.len());
                        continue;
                    }
                    Value::False => return Ok(SatResult::Unsat),
                    Value::Unassigned => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(a, INVALID_CLAUSE);
                        debug_assert!(ok);
                        continue;
                    }
                }
            }

            match self.decide() {
                None => return Ok(SatResult::Sat),
                Some(lit) => {
                    self.num_decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let ok = self.enqueue(lit, INVALID_CLAUSE);
                    debug_assert!(ok);
                }
            }
        }
    }

    /// The model value of `var` after a [`SatResult::Sat`] answer; `None` if
    /// the variable is unassigned (not a decision variable, and not reached
    /// by propagation).
    pub fn value(&self, var: SatVar) -> Option<bool> {
        match self.lit_value(SatLit::positive(var)) {
            Value::True => Some(true),
            Value::False => Some(false),
            Value::Unassigned => None,
        }
    }

    /// The model value of a literal.
    pub fn lit_bool(&self, lit: SatLit) -> Option<bool> {
        self.value(lit.var()).map(|v| v ^ lit.is_negative())
    }
}

/// Deterministic per-variable activity perturbation for portfolio
/// diversification: a splitmix64-style hash of (seed, var) scaled into
/// (0, 1e-6] — large enough to reshuffle ties, three orders of magnitude
/// below the first real VSIDS bump.
fn diversity_activity(seed: u64, var: SatVar) -> f64 {
    let mut z = seed ^ (u64::from(var)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Map to (0, 1]: never exactly 0, so diversified instances are
    // distinguishable from the pinned reference on every variable.
    ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64 * 1e-6
}

/// The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, … (`i` is 0-based).
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

fn num_assumed_levels(assumptions: &[SatLit], solver: &Solver) -> u32 {
    (assumptions.len() as u32).min(solver.trail_lim.len() as u32)
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Solver {{ vars: {}, clauses: {}, conflicts: {} }}",
            self.num_vars(),
            self.num_clauses(),
            self.num_conflicts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: SatVar, neg: bool) -> SatLit {
        SatLit::new(v, neg)
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, false)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, false)]);
        s.add_clause(&[lit(a, true)]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        s.add_clause(&[]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        let mut s = Solver::new();
        let vars: Vec<SatVar> = (0..10).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[lit(w[0], true), lit(w[1], false)]); // v[i] -> v[i+1]
        }
        s.add_clause(&[lit(vars[0], false)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // hole index j is clearest as written
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[SatLit::positive(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = SatLit::positive(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn xor_constraints() {
        // a xor b, b xor c, a xor c is UNSAT (odd cycle).
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let xor = |s: &mut Solver, x: SatVar, y: SatVar| {
            s.add_clause(&[lit(x, false), lit(y, false)]);
            s.add_clause(&[lit(x, true), lit(y, true)]);
        };
        xor(&mut s, a, b);
        xor(&mut s, b, c);
        xor(&mut s, a, c);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn assumptions_flip_results() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, false)]); // a -> b
        assert_eq!(s.solve(&[lit(a, false), lit(b, true)]), SatResult::Unsat);
        assert_eq!(s.solve(&[lit(a, false), lit(b, false)]), SatResult::Sat);
        // Solver is reusable after both answers.
        assert_eq!(s.solve(&[lit(a, true)]), SatResult::Sat);
    }

    #[test]
    fn random_3sat_matches_brute_force() {
        // 12 variables, random 3-SAT instances cross-checked against
        // exhaustive enumeration.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..20 {
            let nvars = 12u32;
            let nclauses = 48;
            let mut clauses: Vec<Vec<SatLit>> = Vec::new();
            for _ in 0..nclauses {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nvars as u64) as SatVar;
                    let neg = next() % 2 == 0;
                    cl.push(SatLit::new(v, neg));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut bf_sat = false;
            'outer: for m in 0..(1u32 << nvars) {
                for cl in &clauses {
                    let ok = cl.iter().any(|l| {
                        let val = (m >> l.var()) & 1 != 0;
                        val ^ l.is_negative()
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                bf_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            for cl in &clauses {
                s.add_clause(cl);
            }
            let got = s.solve(&[]);
            assert_eq!(
                got,
                if bf_sat {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                },
            );
            if got == SatResult::Sat {
                // The model must satisfy every clause.
                for cl in &clauses {
                    assert!(cl.iter().any(|l| s.lit_bool(*l).unwrap_or(false)));
                }
            }
        }
    }

    #[test]
    fn non_decision_vars_are_left_to_propagation() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let free = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, false)]); // a -> b
        s.set_decision_var(b, false);
        s.set_decision_var(free, false);
        assert_eq!(s.solve(&[lit(a, false)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true), "propagation still assigns b");
        assert_eq!(s.value(free), None, "nothing decides an off variable");
        s.set_decision_var(free, true);
        assert!(s.decision_heap_consistent());
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.value(free).is_some());
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    #[allow(clippy::needless_range_loop)] // hole index j is clearest as written
    fn pigeonhole_4_into_3_is_unsat() {
        let mut s = Solver::new();
        let mut p = vec![[SatLit::positive(0); 3]; 4];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = SatLit::positive(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1], row[2]]);
        }
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        assert!(s.stats().conflicts > 0, "UNSAT proof requires conflicts");
    }

    #[test]
    fn incremental_clause_addition_after_sat() {
        let mut s = Solver::new();
        let a = SatLit::positive(s.new_var());
        let b = SatLit::positive(s.new_var());
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        // Narrow the solution space incrementally.
        s.add_clause(&[!a]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.lit_bool(b), Some(true));
        s.add_clause(&[!b]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        // Once root-level UNSAT, it stays UNSAT.
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_simplified() {
        let mut s = Solver::new();
        let a = SatLit::positive(s.new_var());
        let before = s.num_clauses();
        s.add_clause(&[a, !a]); // tautology: dropped
        assert_eq!(s.num_clauses(), before);
        s.add_clause(&[a, a]); // duplicates collapse to a unit
        assert_eq!(
            s.num_clauses(),
            before,
            "unit clauses are enqueued, not stored"
        );
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.lit_bool(a), Some(true));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // hole index j is clearest as written
    fn limited_solve_gives_up_and_resumes() {
        // Pigeonhole 6-into-5 needs many conflicts; a 1-conflict budget must
        // give up, and an unlimited retry on the same solver must finish.
        let mut s = Solver::new();
        let mut p = vec![[SatLit::positive(0); 5]; 6];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = SatLit::positive(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..5 {
            for i1 in 0..6 {
                for i2 in (i1 + 1)..6 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve_limited(&[], 1), None, "budget must be exhausted");
        assert_eq!(s.solve_limited(&[], u64::MAX), Some(SatResult::Unsat));
    }

    #[test]
    fn limited_solve_matches_solve_on_easy_instances() {
        let mut s = Solver::new();
        let a = SatLit::positive(s.new_var());
        let b = SatLit::positive(s.new_var());
        s.add_clause(&[a, b]);
        assert_eq!(s.solve_limited(&[], 1000), Some(SatResult::Sat));
        assert_eq!(s.solve_limited(&[!a, !b], 1000), Some(SatResult::Unsat));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn assumptions_do_not_pollute_later_solves() {
        let mut s = Solver::new();
        let a = SatLit::positive(s.new_var());
        let b = SatLit::positive(s.new_var());
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(&[!a, !b]), SatResult::Unsat);
        // Without assumptions the instance is satisfiable again.
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.solve(&[!a]), SatResult::Sat);
        assert_eq!(s.lit_bool(b), Some(true));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // hole index j is clearest as written
    fn db_reduction_keeps_unsat_verdicts_and_deletes_learnts() {
        // Pigeonhole 7-into-6 generates plenty of learnt clauses; with a
        // tiny reduction threshold the database must actually shrink while
        // the UNSAT verdict is unaffected (learnt clauses are implied).
        let mut s = Solver::new();
        s.set_reduce_threshold(20);
        let mut p = vec![[SatLit::positive(0); 6]; 7];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = SatLit::positive(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..6 {
            for i1 in 0..7 {
                for i2 in (i1 + 1)..7 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let stats = s.stats();
        assert!(
            stats.learnts_deleted > 0,
            "a 20-clause threshold must trigger reduction (stats: {stats:?})"
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // hole index j is clearest as written
    fn restarts_are_counted_under_the_luby_schedule() {
        // Any instance needing > RESTART_BASE conflicts restarts at least
        // once; pigeonhole 7-into-6 comfortably qualifies.
        let mut s = Solver::new();
        let mut p = vec![[SatLit::positive(0); 6]; 7];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = SatLit::positive(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..6 {
            for i1 in 0..7 {
                for i2 in (i1 + 1)..7 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let stats = s.stats();
        assert!(stats.conflicts > 100);
        assert!(stats.restarts > 0, "stats: {stats:?}");
    }
}
