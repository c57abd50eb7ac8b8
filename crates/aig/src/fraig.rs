//! Fraig / SAT sweeping: sim-guided incremental equivalence merging.
//!
//! A *fraig* (functionally reduced AIG) contains no two nodes that compute
//! the same function (up to complement) of the primary inputs. This module
//! rebuilds an [`Aig`] node by node in topological order, and before
//! admitting each freshly strashed AND it asks: *is this node equivalent to
//! one we already have?* The answer is computed in four tiers, cheapest
//! first:
//!
//! 1. **Ternary simulation** — a cofactor scan over the source netlist
//!    ([`ternary_constant_scan`]): each input in turn is pinned to `0`
//!    and to `1` with every other input `X`; a node definite to the same
//!    value in both cofactors is a *constant* that one-level strash
//!    simplification cannot see (e.g. `(a&b) & !a`). All splits run at
//!    once, one bit lane per pinned input. Flagged nodes are proved
//!    against the constant directly, skipping the class machinery.
//! 2. **Random simulation signatures** — every node carries a
//!    64-bit-per-word signature over shared random input patterns. The
//!    signatures are plain simulation of the *source* netlist
//!    ([`SimVectors`], dead nodes included): each fresh sweep node computes
//!    the same function as the source AND it was built from (its fanins
//!    are proved equal to that AND's fanins), so that AND's simulation row
//!    is its signature. Nodes
//!    whose signatures differ (under both phases) are *certainly* different;
//!    only signature-equal nodes become merge candidates. Representatives
//!    are bucketed by a complement-canonical FNV hash (complement the row
//!    if its first bit is set) of their *initial* words only, so one hash
//!    lookup finds both same-phase and opposite-phase candidates, and a
//!    node's bucket is fixed for the life of the sweep. Within a bucket
//!    the full rows, counterexample words included, decide who is a
//!    candidate: a bucket can hold representatives that counterexamples
//!    have since split, and they are skipped by an exact row comparison.
//! 3. **Shared-cut truth tables** — each candidate pair (a node and one
//!    representative, or a node and the constant) gets one
//!    reconvergence-driven cut of *both* nodes in the swept network, of
//!    at most [`MAX_WINDOW_LEAVES`] leaves, grown and simulated by the
//!    [`Window`] kernel `refactor` and `resub` use. Both nodes are
//!    functions of the same leaves, so equal tables (up to the pair's
//!    phase) prove the pair equal on every input: the node merges without
//!    encoding a clause. Unequal tables prove nothing, because the leaves
//!    need not be independent — a leaf combination on which the tables
//!    differ may be one that no input pattern produces (two leaves that
//!    are complements of each other, say) — so such a pair falls through
//!    to SAT. A restructuring pass rewrites logic inside windows of this
//!    size, which is why most of the pairs a recipe leaves behind end
//!    here.
//! 4. **Incremental SAT** — a candidate pair is handed to a single
//!    incremental [`Solver`] that sweeps the whole netlist: the two cones
//!    are Tseitin-encoded lazily ([`crate::cnf::encode_cone`], one memo
//!    shared across all queries), a fresh
//!    difference literal `d ⇒ (x ⊕ y)` is added, and the query is solved
//!    under the assumption `[d]`. Each query turns the decision flag on
//!    for the variables of its own two cones for the length of the solve,
//!    and off again after it, so the search never branches
//!    on the cones of earlier queries (ABC's fraig does the same). A SAT
//!    answer assigns every cone variable, so the counterexample is exact
//!    on the cones' inputs; inputs outside both cones read `false`.
//!    UNSAT proves equivalence — the node is
//!    *merged*: its consumers are rebuilt on the representative (through
//!    strash, so downstream structure re-converges), and the equality is
//!    asserted as two binary clauses that accelerate later queries. SAT
//!    yields a counterexample, which is **fed back into the simulation
//!    vectors**: a new word whose bit 0 is the exact counterexample and
//!    whose remaining 63 bits are random perturbations of it, splitting
//!    every not-actually-equal class the cex distinguishes. Appending a
//!    word touches no bucket, so feedback costs one simulation word, not a
//!    rebuild of the class table. Feedback is
//!    never capped: every refutation splits its pair, so no pair is ever
//!    refuted twice and a class of lookalikes (near-constant logic that
//!    random patterns never set) costs one SAT call per split rather than
//!    one per pair.
//!
//! Queries that exhaust the per-query conflict budget
//! ([`FraigConfig::hard_conflicts`]) are optionally *escalated*: the two
//! cones are re-encoded into a fresh [`PortfolioSolver`] (honouring
//! `ALMOST_SOLVERS`) and solved without a budget. With escalation off
//! ([`FraigConfig::recipe`]) a budget exhaustion simply skips the merge —
//! sound, bounded, and deterministic at any worker count.
//!
//! # Determinism
//!
//! For a fixed seed the merged network is identical at any portfolio
//! width: truly equivalent nodes never sim-split, candidates are tested in
//! deterministic (topological insertion) order, and an UNSAT verdict does
//! not depend on which solver found it. Only effort *stats* (conflicts,
//! escalations) vary with `ALMOST_SOLVERS`.
//!
//! The same argument makes the merged network independent of how the
//! sweep solver searches, and so of which variables it may decide on:
//! a search change can move counterexamples (and with them signatures and
//! the order in which lookalike classes split), but an equivalent pair is
//! never split, and class members are pairwise inequivalent, so a node
//! has at most one equivalent representative to merge into. Only a
//! budget skip whose outcome changes can change the result; the release
//! rows of the `synthesis_golden` suite pin deploy-scale sweeps of both
//! configurations.

use std::collections::HashMap;
use std::time::Instant;

use almost_cdcl::portfolio::PortfolioSolver;
use almost_cdcl::solver::{SatLit, SatResult, SatVar, Solver};
use almost_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::aig::{Aig, Lit, NodeKind, Var};
use crate::cnf::{cone_memo, constant_false, encode_cone};
use crate::hash::FastBuild;
use crate::passes::window::{Window, MAX_WINDOW_LEAVES};
use crate::sim::{SimVectors, Ternary};

/// Tuning knobs for a fraig sweep.
#[derive(Clone, Debug)]
pub struct FraigConfig {
    /// Initial random simulation words per node (64 patterns each).
    pub sim_words: usize,
    /// Seed for the simulation patterns and counterexample perturbation.
    pub seed: u64,
    /// Per-query conflict budget for the incremental sweep solver. A query
    /// that trips it is escalated (if [`FraigConfig::escalate`]) or
    /// skipped.
    pub hard_conflicts: u64,
    /// Route budget-exhausted proofs through a fresh unbudgeted
    /// [`PortfolioSolver`] over just the two cones (`ALMOST_SOLVERS`
    /// controls its width). Off = skip the merge instead, keeping the
    /// sweep bounded and thread-free.
    pub escalate: bool,
}

impl Default for FraigConfig {
    /// The full-strength configuration used for CEC: escalation on, no
    /// merge left unproved for budget reasons unless the portfolio itself
    /// is interrupted.
    fn default() -> Self {
        FraigConfig {
            sim_words: 8,
            seed: 0x0F8A_161D,
            hard_conflicts: 4096,
            escalate: true,
        }
    }
}

impl FraigConfig {
    /// The bounded configuration behind the `fraig` recipe letter
    /// ([`crate::passes::Pass::Fraig`]): smaller budgets, no portfolio
    /// escalation (budget-skips are sound), so a sweep inside the
    /// simulated-annealing inner loop stays cheap and deterministic at any
    /// `ALMOST_JOBS`/`ALMOST_SOLVERS` setting.
    pub fn recipe() -> Self {
        FraigConfig {
            sim_words: 4,
            hard_conflicts: 512,
            escalate: false,
            ..FraigConfig::default()
        }
    }
}

/// Effort and outcome counters for one fraig sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FraigStats {
    /// Candidate equivalence classes formed (signature representatives,
    /// excluding the built-in constant class).
    pub classes: u64,
    /// Candidate pairs proved equivalent: UNSAT verdicts or equal cut
    /// tables.
    pub proved: u64,
    /// Candidate pairs proved by equal tables over a shared cut of at most
    /// [`MAX_WINDOW_LEAVES`] leaves, without a SAT call (a subset of
    /// `proved`).
    pub cut_proved: u64,
    /// Candidate pairs refuted by SAT (a counterexample was found).
    pub refuted: u64,
    /// Candidate pairs skipped on budget exhaustion (only with
    /// [`FraigConfig::escalate`] off, or a cancelled portfolio query).
    pub skipped: u64,
    /// Nodes merged into a representative (equals `proved`; kept separate
    /// because it is the number of fanout rewrites applied).
    pub merges: u64,
    /// Merges whose representative is a constant.
    pub constants: u64,
    /// Structural constants flagged by the ternary all-`X` pre-pass
    /// (a subset of `constants` once SAT-confirmed).
    pub ternary_constants: u64,
    /// Budget-exhausted queries re-run on a fresh portfolio solver.
    pub escalations: u64,
    /// Total SAT queries posed (sweep solver + escalations).
    pub sat_calls: u64,
    /// Counterexample feedback words appended to the simulation vectors
    /// (one per refutation).
    pub sim_words_added: u64,
    /// AND count of the input netlist.
    pub ands_before: u64,
    /// AND count of the swept netlist.
    pub ands_after: u64,
    /// Decisions of the incremental sweep solver (escalations excluded).
    pub decisions: u64,
    /// Conflicts of the incremental sweep solver (escalations excluded).
    pub conflicts: u64,
    /// Wall-clock time of the sweep, in microseconds.
    pub wall_us: u64,
}

/// Sweeps `aig` with the full-strength [`FraigConfig::default`],
/// returning the functionally reduced network.
pub fn fraig(aig: &Aig) -> Aig {
    fraig_with(aig, &FraigConfig::default()).0
}

/// Sweeps `aig` under `config`, returning the reduced network and the
/// sweep's [`FraigStats`]. Emits one `fraig_pass` telemetry event.
pub fn fraig_with(aig: &Aig, config: &FraigConfig) -> (Aig, FraigStats) {
    let start = Instant::now();
    let mut sweeper = Sweeper::new(aig, config);
    let result = sweeper.run();
    let mut stats = sweeper.stats;
    stats.ands_before = aig.num_ands() as u64;
    stats.ands_after = result.num_ands() as u64;
    let solver = sweeper.solver.stats();
    stats.decisions = solver.decisions;
    stats.conflicts = solver.conflicts;
    stats.wall_us = start.elapsed().as_micros() as u64;
    telemetry::trace(|| telemetry::EventKind::FraigPass {
        classes: stats.classes,
        proved: stats.proved,
        cut_proved: stats.cut_proved,
        refuted: stats.refuted,
        skipped: stats.skipped,
        merges: stats.merges,
        constants: stats.constants,
        escalations: stats.escalations,
        sat_calls: stats.sat_calls,
        sim_words_added: stats.sim_words_added,
        ands_before: stats.ands_before,
        ands_after: stats.ands_after,
        wall_us: stats.wall_us,
    });
    (result, stats)
}

/// Outcome of one equivalence query.
enum Outcome {
    Proved,
    Refuted(Vec<bool>),
    Skipped,
}

/// Outcome of scanning one candidate class.
enum Scan {
    /// Proved equal to this representative literal.
    Merged(Lit),
    /// A counterexample word was appended and signatures changed: scan
    /// the bucket again.
    Rescan,
    /// No provably-equal member: the node becomes a representative.
    NewRep,
}

struct Sweeper<'a> {
    config: &'a FraigConfig,
    src: &'a Aig,
    out: Aig,
    /// Simulation of the source netlist: the signature words.
    sim: SimVectors,
    /// Per `out` var, the source literal computing the same function,
    /// whose row of `sim` is the var's signature.
    sig: Vec<Lit>,
    /// Signature words hashed into a class key: the initial random words,
    /// never the counterexample words appended after them.
    key_words: usize,
    rng: StdRng,
    /// Representative literal per `out` var — identity unless the node was
    /// proved equal to an earlier one.
    repr: Vec<Lit>,
    /// Lazily assigned SAT literal per `out` var (sweep solver): the
    /// [`encode_cone`] memo.
    sat_of: Vec<Option<SatLit>>,
    /// The incremental sweep solver; its variables are decision variables
    /// only while a query's cones include them.
    solver: Solver,
    /// SAT vars of the `out` inputs, in input order (for cex extraction).
    input_sat: Vec<SatVar>,
    /// `cone_stamp[v] == stamp` marks `out` var `v` as already in the
    /// current query's cones.
    cone_stamp: Vec<u32>,
    stamp: u32,
    /// The current query's cone vars, and the walk's stack (reused).
    cone: Vec<Var>,
    cone_stack: Vec<Var>,
    /// Class key ([`Sweeper::class_key`]) → the first and last
    /// representative of its bucket. Representatives chain through
    /// `next_member` in insertion (topological) order, and a bucket is
    /// never relinked. Seeded with the constant node.
    classes: HashMap<u64, (Var, Var), FastBuild>,
    /// The next representative of a bucket, or [`NO_MEMBER`].
    next_member: Vec<Var>,
    /// The cut tier's window over `out`.
    window: Window,
    stats: FraigStats,
}

/// End of a class's member chain.
const NO_MEMBER: Var = Var::MAX;

impl<'a> Sweeper<'a> {
    fn new(src: &'a Aig, config: &'a FraigConfig) -> Self {
        let num_words = config.sim_words.max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let input_words: Vec<Vec<u64>> = (0..src.num_inputs())
            .map(|_| (0..num_words).map(|_| rng.random()).collect())
            .collect();
        let sim = SimVectors::with_input_patterns(src, &input_words);
        let mut out = Aig::with_capacity(src.num_nodes());
        let mut solver = Solver::new();

        // Node 0: constant false, in both worlds. Its SAT literal is a
        // variable pinned false by a unit clause.
        let f = constant_false(&mut solver);
        solver.set_decision_var(f.var(), false);
        let input_sat: Vec<SatVar> = (0..src.num_inputs())
            .map(|i| {
                out.add_named_input(src.input_name(i));
                sweep_var(&mut solver)
            })
            .collect();
        let sat_of = cone_memo(&out, f, &input_sat);
        let sig: Vec<Lit> = std::iter::once(Lit::FALSE)
            .chain(src.inputs().iter().map(|&v| Lit::positive(v)))
            .collect();
        let mut sweeper = Sweeper {
            config,
            src,
            repr: out.iter_vars().map(Lit::positive).collect(),
            out,
            sim,
            sig,
            key_words: num_words,
            rng,
            sat_of,
            solver,
            input_sat,
            cone_stamp: Vec::new(),
            stamp: 0,
            cone: Vec::new(),
            cone_stack: Vec::new(),
            classes: HashMap::default(),
            next_member: vec![NO_MEMBER; src.num_inputs() + 1],
            window: Window::new(src.num_nodes()),
            stats: FraigStats::default(),
        };
        sweeper.link_member(0, sweeper.class_key(0));
        sweeper
    }

    fn run(&mut self) -> Aig {
        // Ternary pre-pass: structural constants, provable without a
        // class lookup.
        let ternary = ternary_constant_scan(self.src);

        let mut map: Vec<Lit> = vec![Lit::FALSE; self.src.num_nodes()];
        for (i, &iv) in self.src.inputs().iter().enumerate() {
            map[iv as usize] = Lit::positive(self.out.inputs()[i]);
        }

        for v in self.src.iter_vars() {
            let NodeKind::And(a, b) = self.src.node(v) else {
                continue;
            };
            let fa = map[a.var() as usize].xor_complement(a.is_complement());
            let fb = map[b.var() as usize].xor_complement(b.is_complement());
            let cand = self.out.and(fa, fb);
            if cand.is_const() {
                map[v as usize] = cand;
                continue;
            }
            let cv = cand.var();
            if (cv as usize) < self.sig.len() {
                // Strash hit on an existing node: follow its representative.
                map[v as usize] = self.repr[cv as usize].xor_complement(cand.is_complement());
                continue;
            }
            debug_assert_eq!(cv as usize, self.sig.len(), "fresh nodes are dense");
            self.push_node(cv, Lit::new(v, cand.is_complement()));
            let rep = match ternary[v as usize] {
                Ternary::Zero => self.merge_constant(cv, Lit::FALSE),
                Ternary::One => self.merge_constant(cv, Lit::TRUE),
                Ternary::X => self.classify(cv),
            };
            self.repr[cv as usize] = rep;
            map[v as usize] = rep.xor_complement(cand.is_complement());
        }

        for (i, &o) in self.src.outputs().iter().enumerate() {
            let lit = map[o.var() as usize].xor_complement(o.is_complement());
            self.out.add_named_output(lit, self.src.output_name(i));
        }
        // Merged-away nodes are dangling now; compact drops them (inputs
        // keep their order and names).
        self.out.compact()
    }

    /// Registers a freshly created AND `cv`, whose function is the source
    /// literal `sig`'s.
    fn push_node(&mut self, cv: Var, sig: Lit) {
        self.sig.push(sig);
        self.sat_of.push(None);
        self.next_member.push(NO_MEMBER);
        self.repr.push(Lit::positive(cv));
    }

    /// The class key of `out` var `v`: the complement-canonical FNV hash
    /// of its signature's initial words, the same before and after any
    /// counterexample word is appended.
    fn class_key(&self, v: Var) -> u64 {
        signature_key(&self.sim, self.sig[v as usize], self.key_words)
    }

    /// Appends representative `m` to the tail of bucket `key`.
    fn link_member(&mut self, m: Var, key: u64) {
        let (_, tail) = self.classes.entry(key).or_insert((m, m));
        if *tail != m {
            self.next_member[*tail as usize] = m;
            *tail = m;
        }
    }

    /// Proves a ternary-flagged structural constant against `constant`.
    /// Refutation is impossible (ternary simulation is conservative); a
    /// budget skip falls back to the ordinary class machinery.
    fn merge_constant(&mut self, cv: Var, constant: Lit) -> Lit {
        self.stats.ternary_constants += 1;
        match self.prove_pair(cv, constant) {
            Outcome::Proved => {
                self.count_merge(constant);
                constant
            }
            Outcome::Refuted(_) => {
                unreachable!("ternary simulation flagged a non-constant node")
            }
            Outcome::Skipped => {
                self.stats.skipped += 1;
                self.classify(cv)
            }
        }
    }

    /// Finds the representative literal for a fresh node: merges it into a
    /// proven-equivalent class, or registers it as a new representative.
    fn classify(&mut self, cv: Var) -> Lit {
        let key = self.class_key(cv);
        loop {
            match self.scan_class(cv, key) {
                Scan::Merged(rep) => return rep,
                Scan::Rescan => continue,
                Scan::NewRep => {
                    self.link_member(cv, key);
                    self.stats.classes += 1;
                    return Lit::positive(cv);
                }
            }
        }
    }

    /// Queries `cv` against every representative of bucket `key` whose
    /// full signature row equals `cv`'s, in insertion order: exactly the
    /// class members a table keyed by the full rows would hold.
    fn scan_class(&mut self, cv: Var, key: u64) -> Scan {
        let Some(&(first, _)) = self.classes.get(&key) else {
            return Scan::NewRep;
        };
        let phase = self.phase(cv);
        let mut next = first;
        while next != NO_MEMBER {
            let m = next;
            next = self.next_member[m as usize];
            let flip = phase != self.phase(m);
            if !self.sig_rows_equal(cv, m, flip) {
                continue; // hash collision or a pair a counterexample split
            }
            let rep = Lit::new(m, flip);
            match self.prove_pair(cv, rep) {
                Outcome::Proved => {
                    self.count_merge(rep);
                    return Scan::Merged(rep);
                }
                Outcome::Refuted(cex) => {
                    self.stats.refuted += 1;
                    self.append_cex(&cex);
                    // Bit 0 of the new word is the cex itself, which
                    // distinguishes cv from m: the rescan cannot retry
                    // this pair.
                    debug_assert!(!self.sig_rows_equal(cv, m, flip));
                    return Scan::Rescan;
                }
                Outcome::Skipped => self.stats.skipped += 1,
            }
        }
        Scan::NewRep
    }

    /// The first signature bit of `out` var `v`.
    fn phase(&self, v: Var) -> bool {
        self.sim.lit_word(self.sig[v as usize], 0) & 1 != 0
    }

    /// Are the full signature rows of `a` and `b` (complemented if
    /// `flip`) equal? Compared newest word first: a bucket's members agree
    /// on the initial words (up to a hash collision), and a split pair
    /// differs in the counterexample word that split it.
    fn sig_rows_equal(&self, a: Var, b: Var, flip: bool) -> bool {
        let (la, lb) = (
            self.sig[a as usize],
            self.sig[b as usize].xor_complement(flip),
        );
        (0..self.sim.num_words())
            .rev()
            .all(|w| self.sim.lit_word(la, w) == self.sim.lit_word(lb, w))
    }

    /// Counts a proved merge into `rep`.
    fn count_merge(&mut self, rep: Lit) {
        self.stats.proved += 1;
        self.stats.merges += 1;
        if rep.is_const() {
            self.stats.constants += 1;
        }
    }

    /// Proves or refutes `cv == rep`: by the cut tier when it settles the
    /// pair, otherwise by [`Sweeper::prove_equal`].
    fn prove_pair(&mut self, cv: Var, rep: Lit) -> Outcome {
        if self.cut_tables_equal(cv, rep) {
            self.stats.cut_proved += 1;
            return Outcome::Proved;
        }
        self.prove_equal(Lit::positive(cv), rep)
    }

    /// Are `cv` and `rep` equal as functions of one reconvergence-driven
    /// cut of both (of `cv` alone when `rep` is a constant)? Equal tables
    /// prove the pair; unequal ones prove nothing, since the cut's leaves
    /// may be correlated.
    fn cut_tables_equal(&mut self, cv: Var, rep: Lit) -> bool {
        let pair = [cv, rep.var()];
        let roots = if rep.is_const() {
            &pair[..1]
        } else {
            &pair[..]
        };
        let leaves = self
            .window
            .reconvergence_cut(&self.out, roots, MAX_WINDOW_LEAVES);
        self.window.load(&self.out, roots, &leaves);
        self.window.table(cv)
            == self
                .window
                .table(rep.var())
                .xor_complement(rep.is_complement())
    }

    /// One equivalence query `x == y` against the incremental sweep
    /// solver, deciding only on the two cones, with optional portfolio
    /// escalation on budget exhaustion. A proof is locked in as two binary
    /// clauses.
    fn prove_equal(&mut self, x: Lit, y: Lit) -> Outcome {
        let lx = encode_cone(&mut self.solver, &self.out, &mut self.sat_of, x);
        let ly = encode_cone(&mut self.solver, &self.out, &mut self.sat_of, y);
        self.collect_cone(x.var(), y.var());
        self.set_cone_decisions(true);
        let d = SatLit::positive(sweep_var(&mut self.solver));
        // d ⇒ (lx ⊕ ly): only the forward direction is needed, d is only
        // ever assumed positive.
        self.solver.add_clause(&[!d, lx, ly]);
        self.solver.add_clause(&[!d, !lx, !ly]);
        self.stats.sat_calls += 1;
        let outcome = match self
            .solver
            .solve_limited(&[d], self.config.hard_conflicts.max(1))
        {
            Some(SatResult::Unsat) => Outcome::Proved,
            Some(SatResult::Sat) => Outcome::Refuted(
                self.input_sat
                    .iter()
                    .map(|&v| self.solver.value(v).unwrap_or(false))
                    .collect(),
            ),
            None if self.config.escalate => self.escalate(x, y),
            None => Outcome::Skipped,
        };
        self.set_cone_decisions(false);
        // Retire the difference literal; on a proof, assert the equality
        // so later queries get it for free.
        self.solver.add_clause(&[!d]);
        if matches!(outcome, Outcome::Proved) {
            self.solver.add_clause(&[!lx, ly]);
            self.solver.add_clause(&[lx, !ly]);
        }
        outcome
    }

    /// Collects the `out` vars of the cones of `x` and `y` (inputs and the
    /// constant included) into `self.cone`.
    fn collect_cone(&mut self, x: Var, y: Var) {
        self.stamp += 1;
        self.cone_stamp.resize(self.sat_of.len(), 0);
        self.cone.clear();
        self.cone_stack.clear();
        self.cone_stack.extend([x, y]);
        while let Some(v) = self.cone_stack.pop() {
            if self.cone_stamp[v as usize] == self.stamp {
                continue;
            }
            self.cone_stamp[v as usize] = self.stamp;
            self.cone.push(v);
            if let NodeKind::And(a, b) = self.out.node(v) {
                self.cone_stack.extend([a.var(), b.var()]);
            }
        }
    }

    /// Turns the sweep solver's decision flag on (or back off) for every
    /// var of the current query's cones.
    fn set_cone_decisions(&mut self, on: bool) {
        for &v in &self.cone {
            let s = self.sat_of[v as usize].expect("cone encoded");
            self.solver.set_decision_var(s.var(), on);
        }
    }

    /// Re-proves a budget-exhausted query on a fresh unbudgeted portfolio
    /// over just the two cones.
    fn escalate(&mut self, x: Lit, y: Lit) -> Outcome {
        self.stats.escalations += 1;
        self.stats.sat_calls += 1;
        let mut portfolio = PortfolioSolver::new("fraig");
        let f = constant_false(&mut portfolio);
        let inputs: Vec<SatVar> = self
            .out
            .inputs()
            .iter()
            .map(|_| portfolio.new_var())
            .collect();
        let mut emap = cone_memo(&self.out, f, &inputs);
        let lx = encode_cone(&mut portfolio, &self.out, &mut emap, x);
        let ly = encode_cone(&mut portfolio, &self.out, &mut emap, y);
        // Assert the difference directly — no assumptions, one-shot query.
        portfolio.add_clause(&[lx, ly]);
        portfolio.add_clause(&[!lx, !ly]);
        match portfolio.try_solve(&[], None) {
            Ok(SatResult::Unsat) => Outcome::Proved,
            Ok(SatResult::Sat) => Outcome::Refuted(
                inputs
                    .iter()
                    .map(|&v| portfolio.value(v).unwrap_or(false))
                    .collect(),
            ),
            Err(_) => Outcome::Skipped, // cancelled — treat as indeterminate
        }
    }

    /// Appends one simulation word derived from a counterexample: bit 0 is
    /// the exact cex, bits 1..63 random perturbations of it (≈ 1/8 flip
    /// density). Called on every refutation, without a cap: the vectors
    /// grow by one word per refuted SAT call. Class keys hash only the
    /// initial words, so the class table is left as it is.
    fn append_cex(&mut self, cex: &[bool]) {
        let word: Vec<u64> = cex
            .iter()
            .map(|&bit| {
                let base = if bit { !0u64 } else { 0 };
                let mask = (self.rng.random::<u64>()
                    & self.rng.random::<u64>()
                    & self.rng.random::<u64>())
                    & !1;
                base ^ mask
            })
            .collect();
        self.sim.push_word(&word);
        self.stats.sim_words_added += 1;
    }
}

/// Inputs case-split on by the ternary constant scan, at most: one bit
/// lane of a `u64` each. The scan is `O(nodes)` word operations; past this
/// many inputs the class machinery (which catches every constant anyway,
/// just via random sim + SAT) takes over alone.
pub const TERNARY_SPLITS: usize = 64;

/// Finds structural constants by one-input case splitting: a node that is
/// definite to the same value under both cofactors of some input holds
/// that value everywhere. Sound but incomplete — exactly the cheap tier
/// of constant detection; [`Ternary::X`] marks the undecided rest.
///
/// Equivalent to running [`crate::sim::ternary_node_values`] once per cofactor
/// (input `i` pinned to `0`, then `1`, every other input `X`) for each of
/// the first [`TERNARY_SPLITS`] inputs, but done in one bit-parallel pass:
/// lane `i` of every word is the split on input `i`, and each ternary
/// value is a pair of masks (*can be 0*, *can be 1*) — `X` sets both.
pub fn ternary_constant_scan(aig: &Aig) -> Vec<Ternary> {
    let splits = aig.num_inputs().min(TERNARY_SPLITS);
    let lanes = if splits == 64 {
        !0
    } else {
        (1u64 << splits) - 1
    };
    // Per node: the (can0, can1) masks of the lo and hi cofactors.
    let mut lo = vec![(0u64, 0u64); aig.num_nodes()];
    let mut hi = vec![(0u64, 0u64); aig.num_nodes()];
    let mut result = vec![Ternary::X; aig.num_nodes()];
    let fanin = |masks: &[(u64, u64)], lit: Lit| {
        let (can0, can1) = masks[lit.var() as usize];
        if lit.is_complement() {
            (can1, can0)
        } else {
            (can0, can1)
        }
    };
    for v in aig.iter_vars() {
        let i = v as usize;
        match aig.node(v) {
            NodeKind::Const0 => {
                lo[i] = (!0, 0);
                hi[i] = (!0, 0);
            }
            NodeKind::Input(k) => {
                // Lane k pins this input (0 in lo, 1 in hi); every other
                // lane leaves it X.
                let pinned = if (k as usize) < splits { 1u64 << k } else { 0 };
                lo[i] = (!0, !pinned);
                hi[i] = (!pinned, !0);
            }
            NodeKind::And(a, b) => {
                for masks in [&mut lo, &mut hi] {
                    let (a0, a1) = fanin(masks, a);
                    let (b0, b1) = fanin(masks, b);
                    masks[i] = (a0 | b0, a1 & b1);
                }
                // A lane definite to one value in both cofactors proves
                // the node constant (all such lanes agree).
                let zero = lo[i].0 & !lo[i].1 & hi[i].0 & !hi[i].1 & lanes;
                let one = lo[i].1 & !lo[i].0 & hi[i].1 & !hi[i].0 & lanes;
                if zero != 0 {
                    result[i] = Ternary::Zero;
                } else if one != 0 {
                    result[i] = Ternary::One;
                }
            }
        }
    }
    result
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Complement-canonical FNV hash of the first `words` signature words of
/// `lit` (complemented when the row's first bit is set).
fn signature_key(sim: &SimVectors, lit: Lit, words: usize) -> u64 {
    let flip = if sim.lit_word(lit, 0) & 1 != 0 { !0 } else { 0 };
    (0..words).fold(FNV_OFFSET, |h, w| {
        (h ^ sim.lit_word(lit, w) ^ flip).wrapping_mul(FNV_PRIME)
    })
}

/// A fresh sweep-solver variable that is not a decision variable:
/// [`Sweeper::prove_equal`] turns on the variables of each query's cones
/// for the length of its solve. (The cone's AND variables come from a
/// plain `new_var`; the flag is switched off for them after the solve.)
fn sweep_var(solver: &mut Solver) -> SatVar {
    let v = solver.new_var();
    solver.set_decision_var(v, false);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tests::random_aig;
    use crate::sim::probably_equivalent;

    /// A netlist with redundant structure strash alone cannot merge:
    /// `f = a & b` next to `g = a & (b | (a & b))`, which is the same
    /// function computed through an absorption-redundant cone, plus
    /// `h = f XOR g`, a hidden constant false.
    fn redundant_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        let u = aig.or(b, f); // ≡ b by absorption; a distinct node
        let g = aig.and(a, u); // ≡ f, through a different fanin pair
        let h = aig.xor(f, g); // ≡ false; f and g are distinct nodes
        aig.add_output(f);
        aig.add_output(g);
        aig.add_output(h);
        assert!(
            !g.is_const() && g.var() != f.var(),
            "fixture must not strash"
        );
        assert!(!h.is_const(), "fixture must not strash");
        aig
    }

    #[test]
    fn merges_functionally_equal_nodes() {
        let aig = redundant_aig();
        let (swept, stats) = fraig_with(&aig, &FraigConfig::default());
        assert!(stats.merges > 0, "expected at least one merge: {stats:?}");
        // f and g collapse onto one node, h onto the constant.
        assert_eq!(swept.outputs()[0], swept.outputs()[1]);
        assert_eq!(swept.outputs()[2], Lit::FALSE);
        assert!(swept.num_ands() < aig.num_ands());
        assert!(probably_equivalent(&aig, &swept, 16, 7));
    }

    #[test]
    fn ternary_constant_is_proved_and_folded() {
        // g = (a & b) & !a == 0: two distinct AND nodes, invisible to
        // one-level strash, found by the ternary cofactor scan on `a`.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.and(a, b);
        let g = aig.and(ab, !a);
        assert!(!g.is_const(), "fixture must not strash");
        aig.add_output(g);
        let (swept, stats) = fraig_with(&aig, &FraigConfig::default());
        assert_eq!(swept.outputs()[0], Lit::FALSE);
        assert_eq!(swept.num_ands(), 0);
        assert!(stats.ternary_constants > 0, "{stats:?}");
        assert!(stats.constants > 0, "{stats:?}");
    }

    #[test]
    fn random_aigs_stay_equivalent_and_idempotent() {
        for seed in 0..20 {
            let aig = random_aig(6, 40, seed);
            let (swept, _) = fraig_with(&aig, &FraigConfig::default());
            assert!(
                probably_equivalent(&aig, &swept, 32, seed ^ 0xbeef),
                "fraig broke equivalence at seed {seed}"
            );
            assert!(swept.num_ands() <= aig.num_ands());
            let (again, stats) = fraig_with(&swept, &FraigConfig::default());
            assert_eq!(
                again.num_ands(),
                swept.num_ands(),
                "fraig not idempotent at seed {seed}: {stats:?}"
            );
            assert_eq!(stats.merges, 0, "second sweep must find nothing");
        }
    }

    #[test]
    fn class_keys_hash_the_initial_words_only() {
        let aig = random_aig(10, 120, 5);
        let config = FraigConfig::recipe();
        let mut sweeper = Sweeper::new(&aig, &config);
        sweeper.run();
        assert!(sweeper.stats.sim_words_added > 0, "{:?}", sweeper.stats);
        let num_words = sweeper.sim.num_words();
        assert_eq!(
            num_words as u64,
            config.sim_words as u64 + sweeper.stats.sim_words_added
        );
        let input_words: Vec<Vec<u64>> = aig
            .inputs()
            .iter()
            .map(|&i| {
                (0..num_words)
                    .map(|w| sweeper.sim.lit_word(Lit::positive(i), w))
                    .collect()
            })
            .collect();
        // Each key is the hash of the initial words: computed now, after
        // every counterexample word was appended, it equals the hash of
        // the full row of a simulation that never saw one.
        let initial_words: Vec<Vec<u64>> = input_words
            .iter()
            .map(|row| row[..config.sim_words].to_vec())
            .collect();
        let initial = SimVectors::with_input_patterns(&aig, &initial_words);
        for (v, &lit) in sweeper.sig.iter().enumerate() {
            assert_eq!(
                sweeper.class_key(v as Var),
                signature_key(&initial, lit, initial.num_words()),
                "node {v}"
            );
        }
        // And each representative still sits, once, in the bucket of the
        // key it was linked under, in insertion order.
        let mut linked = 0;
        for (&key, &(first, last)) in &sweeper.classes {
            let mut m = first;
            loop {
                assert_eq!(sweeper.class_key(m), key, "representative {m}");
                linked += 1;
                let next = sweeper.next_member[m as usize];
                if m == last {
                    assert_eq!(next, NO_MEMBER);
                    break;
                }
                assert!(next > m, "bucket out of insertion order");
                m = next;
            }
        }
        assert_eq!(linked, sweeper.stats.classes + 1, "constant included");
        // Every sweep node's signature is its own simulation on the same
        // patterns: the source row it borrows is the right one.
        let own = SimVectors::with_input_patterns(&sweeper.out, &input_words);
        for (v, &lit) in sweeper.sig.iter().enumerate() {
            for w in 0..num_words {
                assert_eq!(
                    own.lit_word(Lit::positive(v as Var), w),
                    sweeper.sim.lit_word(lit, w),
                    "node {v} word {w}"
                );
            }
        }
    }

    #[test]
    fn equal_tables_on_a_shared_cut_merge_without_sat() {
        // f = (a & b) & c and g = ((a & b) & (c | d)) & (c | !d): the
        // same function, and f is not in g's cone. Only a cut of both
        // nodes gives them tables over the same leaves; d, created first,
        // is leaf 0 of g's own cut but absent from f's.
        let mut aig = Aig::new();
        let d = aig.add_input();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let f = aig.and(ab, c);
        let c_or_d = aig.or(c, d);
        let c_or_nd = aig.or(c, !d);
        let abd = aig.and(ab, c_or_d);
        let g = aig.and(abd, c_or_nd);
        assert!(g.var() != f.var(), "fixture must not strash");
        aig.add_output(f);
        aig.add_output(g);

        let (swept, stats) = fraig_with(&aig, &FraigConfig::default());
        assert_eq!(swept.outputs()[0], swept.outputs()[1], "{stats:?}");
        assert_eq!(stats.cut_proved, 1, "{stats:?}");
        assert_eq!(stats.sat_calls, 0, "{stats:?}");
    }

    #[test]
    fn unequal_cut_tables_fall_through_to_sat() {
        // x = AND of ten inputs, chained so that no prefix of its chain is
        // y = AND of five of them; f = x & y is x (x implies y), but no
        // 8-leaf cut of {f, x} reaches every input. On the cut the tables
        // differ where a leaf of x's chain is 1 and a leaf of y's is 0, a
        // combination no input pattern produces.
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..10).map(|_| aig.add_input()).collect();
        let chain = |aig: &mut Aig, order: &[usize]| {
            order[1..]
                .iter()
                .fold(ins[order[0]], |acc, &i| aig.and(acc, ins[i]))
        };
        let x = chain(&mut aig, &[5, 0, 6, 1, 7, 2, 8, 3, 9, 4]);
        let y = chain(&mut aig, &[5, 6, 7, 8, 9]);
        let f = aig.and(x, y);
        assert!(f.var() != x.var(), "fixture must not strash");
        aig.add_output(f);
        aig.add_output(x);

        let mut window = Window::new(aig.num_nodes());
        let roots = [f.var(), x.var()];
        let leaves = window.reconvergence_cut(&aig, &roots, MAX_WINDOW_LEAVES);
        window.load(&aig, &roots, &leaves);
        assert_ne!(window.table(f.var()), window.table(x.var()));

        let (swept, stats) = fraig_with(&aig, &FraigConfig::default());
        assert_eq!(swept.outputs()[0], swept.outputs()[1], "{stats:?}");
        assert_eq!(stats.cut_proved, 0, "{stats:?}");
        assert!(stats.proved > 0 && stats.sat_calls > 0, "{stats:?}");
        assert!(probably_equivalent(&aig, &swept, 16, 3));
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let aig = random_aig(8, 80, 3);
        let cfg = FraigConfig::default();
        let (a, _) = fraig_with(&aig, &cfg);
        let (b, _) = fraig_with(&aig, &cfg);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_ands(), b.num_ands());
        assert_eq!(a.outputs(), b.outputs());
    }

    #[test]
    fn recipe_config_is_bounded_and_sound() {
        let aig = random_aig(10, 120, 11);
        let (swept, stats) = fraig_with(&aig, &FraigConfig::recipe());
        assert_eq!(stats.escalations, 0, "recipe config never escalates");
        assert!(probably_equivalent(&aig, &swept, 32, 99));
    }

    #[test]
    fn names_and_input_order_survive() {
        let mut aig = Aig::new();
        let a = aig.add_named_input("a");
        let b = aig.add_named_input("b");
        let f = aig.and(a, b);
        aig.add_named_output(f, "f");
        let (swept, _) = fraig_with(&aig, &FraigConfig::default());
        assert_eq!(swept.num_inputs(), 2);
        assert_eq!(swept.input_name(0), "a");
        assert_eq!(swept.input_name(1), "b");
        assert_eq!(swept.output_name(0), "f");
    }
}
