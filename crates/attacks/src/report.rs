//! Attack targets and outcome reporting, for both threat models:
//! oracle-less attacks ([`OracleLessAttack`], scored per key bit) and
//! oracle-guided attacks ([`OracleGuidedAttack`], the SAT-attack family,
//! which additionally consume an activated-IC [`BatchOracle`]).

use almost_aig::{Aig, Script};
use almost_locking::{BatchOracle, LockedCircuit};

pub use almost_sat::{PortfolioStats, SolverStats};

/// Everything an oracle-less attacker sees: the deployed (synthesised)
/// locked netlist and — per the paper's threat model — the defender's
/// synthesis recipe.
#[derive(Clone, Debug)]
pub struct AttackTarget {
    /// The locked circuit (pre-synthesis), including ground truth used only
    /// for scoring.
    pub locked: LockedCircuit,
    /// The defender's synthesis recipe (known to the attacker).
    pub recipe: Script,
    /// The deployed netlist: `recipe` applied to the locked circuit.
    pub deployed: Aig,
}

impl AttackTarget {
    /// Synthesises the locked circuit with `recipe` and packages the
    /// target.
    pub fn new(locked: LockedCircuit, recipe: Script) -> Self {
        let deployed = recipe.apply(&locked.aig);
        AttackTarget {
            locked,
            recipe,
            deployed,
        }
    }

    /// Input positions of the victim key inputs.
    pub fn key_positions(&self) -> Vec<usize> {
        self.locked.key_input_positions().collect()
    }
}

/// The outcome of an attack run.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// Attack name.
    pub attack: String,
    /// Per-bit prediction; `None` means the attack left the bit
    /// unresolved.
    pub predicted: Vec<Option<bool>>,
    /// Key-recovery accuracy: correctly predicted bits / key size
    /// (unresolved bits count as incorrect, matching the paper's metric).
    pub accuracy: f64,
}

impl AttackOutcome {
    /// Scores predictions against the true key bits.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn score(attack: impl Into<String>, predicted: Vec<Option<bool>>, truth: &[bool]) -> Self {
        assert_eq!(predicted.len(), truth.len(), "prediction length mismatch");
        let correct = predicted
            .iter()
            .zip(truth)
            .filter(|(p, t)| p.as_ref() == Some(t))
            .count();
        let accuracy = if truth.is_empty() {
            0.0
        } else {
            correct as f64 / truth.len() as f64
        };
        AttackOutcome {
            attack: attack.into(),
            predicted,
            accuracy,
        }
    }

    /// Number of unresolved bits.
    pub fn num_unresolved(&self) -> usize {
        self.predicted.iter().filter(|p| p.is_none()).count()
    }
}

/// An oracle-less attack on logic locking.
pub trait OracleLessAttack {
    /// The attack's display name.
    fn name(&self) -> &'static str;

    /// Runs the attack and scores it against the ground truth in `target`.
    fn attack(&self, target: &AttackTarget) -> AttackOutcome;
}

/// One iteration of a DIP-driven attack loop (for per-iteration reporting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DipIteration {
    /// Cumulative distinguishing input patterns found after this iteration.
    pub dip_count: usize,
    /// Cumulative solver conflicts after this iteration.
    pub conflicts: u64,
    /// Cumulative oracle queries *issued by the attack* after this
    /// iteration. Counted independently of
    /// [`almost_locking::Oracle::queries_served`] so the two ledgers
    /// reconcile — [`dip_log_consistent`] is the audit.
    pub oracle_queries: usize,
    /// Oracle disagreements found while validating a settled candidate key
    /// (`Some` only on approximate-mode settlement iterations).
    pub settlement_mismatches: Option<usize>,
}

/// Audits a DIP-loop iteration log against the attack's reported oracle
/// query total:
///
/// 1. a DIP iteration adds exactly one DIP and one oracle query;
/// 2. a settlement iteration adds exactly its mismatch count to the DIP
///    ledger and at least that many validation queries;
/// 3. the final cumulative query count equals `total_queries`.
///
/// Every attack run asserts this in debug builds; the regression tests
/// assert it unconditionally so iteration-accounting drift cannot land.
pub fn dip_log_consistent(iterations: &[DipIteration], total_queries: usize) -> bool {
    let mut dips = 0usize;
    let mut queries = 0usize;
    for it in iterations {
        match it.settlement_mismatches {
            None => {
                dips += 1;
                queries += 1;
                if it.oracle_queries != queries {
                    return false;
                }
            }
            Some(m) => {
                dips += m;
                if it.oracle_queries < queries + m {
                    return false;
                }
                queries = it.oracle_queries;
            }
        }
        if it.dip_count != dips {
            return false;
        }
    }
    queries == total_queries
}

/// The outcome of an oracle-guided attack run.
#[derive(Clone, Debug)]
pub struct OracleAttackOutcome {
    /// Attack name.
    pub attack: String,
    /// The recovered key (one bit per key input); empty when
    /// `inconsistent_oracle` is set.
    pub recovered: Vec<bool>,
    /// True when the DIP loop terminated with an UNSAT miter — the
    /// recovered key is then *provably* functionally correct.
    pub proved_exact: bool,
    /// True when no key agreed with every oracle answer, so the attack
    /// reported none.
    pub inconsistent_oracle: bool,
    /// True when the unlocked circuit was SAT-CEC-verified equivalent to
    /// the deployed circuit under the true key.
    pub functionally_correct: bool,
    /// Per-iteration log of the DIP loop.
    pub iterations: Vec<DipIteration>,
    /// Oracle queries consumed (DIP responses plus validation queries).
    pub oracle_queries: usize,
    /// Bit-agreement with the ground-truth key. Distinct keys can be
    /// functionally identical, so `functionally_correct` is the security
    /// verdict; this is the paper-style scoreboard number.
    pub accuracy: f64,
    /// Wall-clock duration of the attack.
    pub runtime: std::time::Duration,
    /// Solver-effort counters of the attack's miter (decisions,
    /// propagations, conflicts, restarts, learnts kept/deleted) — the
    /// behavioural audit trail for heuristic changes in the CDCL core.
    pub solver: SolverStats,
}

impl OracleAttackOutcome {
    /// Total DIPs found.
    pub fn dip_count(&self) -> usize {
        self.iterations.last().map_or(0, |it| it.dip_count)
    }

    /// The per-iteration DIP counts (approximate-mode reporting).
    pub fn dip_counts(&self) -> Vec<usize> {
        self.iterations.iter().map(|it| it.dip_count).collect()
    }

    /// True when the per-iteration DIP log reconciles with the reported
    /// oracle query count (see [`dip_log_consistent`]).
    pub fn accounting_consistent(&self) -> bool {
        dip_log_consistent(&self.iterations, self.oracle_queries)
    }
}

/// Scores a finished oracle-guided run against the ground truth in
/// `target`: bit agreement for the scoreboard, simulation + unbudgeted
/// fraig-first CEC for the functional verdict. Shared by every [`OracleGuidedAttack`]
/// so all rows of a report are judged identically. `recovered` is `None`
/// when the oracle's answers admitted no key; that scores as incorrect
/// with zero bit agreement.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_oracle_run(
    attack: String,
    target: &AttackTarget,
    recovered: Option<Vec<bool>>,
    proved_exact: bool,
    iterations: Vec<DipIteration>,
    oracle_queries: usize,
    runtime: std::time::Duration,
    solver: SolverStats,
    sim_seed: u64,
) -> OracleAttackOutcome {
    use almost_aig::sim::probably_equivalent;
    use almost_sat::{check_equivalence, Equivalence};

    let inconsistent_oracle = recovered.is_none();
    let recovered = recovered.unwrap_or_default();
    let truth = target.locked.key.bits();
    let agreement = truth.iter().zip(&recovered).filter(|(t, r)| t == r).count();
    let accuracy = if truth.is_empty() {
        0.0
    } else {
        agreement as f64 / truth.len() as f64
    };
    let key_start = target.locked.key_input_start;
    // 4096-pattern simulation refutes grossly wrong keys immediately; CEC
    // upgrades agreement to a proof (and is what catches point-function
    // keys wrong on one pattern). It has no budget, so "correct" is never
    // a budget running out: both sides are the same deployed netlist under
    // two keys, which fraig settles by merging the shared structure.
    let functionally_correct = !inconsistent_oracle && {
        let unlocked = almost_locking::apply_key(&target.deployed, key_start, &recovered);
        let reference = almost_locking::apply_key(&target.deployed, key_start, truth);
        probably_equivalent(&unlocked, &reference, 64, sim_seed)
            && check_equivalence(&unlocked, &reference) == Equivalence::Equivalent
    };

    OracleAttackOutcome {
        attack,
        recovered,
        proved_exact,
        inconsistent_oracle,
        functionally_correct,
        iterations,
        oracle_queries,
        accuracy,
        runtime,
        solver,
    }
}

/// An oracle-guided attack on logic locking: in addition to the deployed
/// netlist it may query an activated chip.
pub trait OracleGuidedAttack {
    /// The attack's display name.
    fn name(&self) -> &'static str;

    /// Runs the attack against `target` using `oracle` for I/O queries,
    /// and scores the recovered key against the ground truth in `target`.
    /// The oracle comes in through [`BatchOracle`] so attacks can answer
    /// many validation/probe patterns per call; counters still advance
    /// one per pattern ([`almost_locking::Oracle::queries_served`]).
    fn attack_with_oracle(
        &self,
        target: &AttackTarget,
        oracle: &dyn BatchOracle,
    ) -> OracleAttackOutcome;
}

/// Renders oracle-less and oracle-guided results as one table, the paper's
/// "all attacks vs one defence" view.
pub fn render_report(
    oracle_less: &[AttackOutcome],
    oracle_guided: &[OracleAttackOutcome],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>9} {:>7} {:>8} {:>10} {:>9} {:>8}  notes",
        "attack",
        "threat model",
        "accuracy",
        "DIPs",
        "queries",
        "decisions",
        "conflicts",
        "restarts"
    );
    for o in oracle_less {
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>8.2}% {:>7} {:>8} {:>10} {:>9} {:>8}  {} unresolved bits",
            o.attack,
            "oracle-less",
            o.accuracy * 100.0,
            "-",
            "-",
            "-",
            "-",
            "-",
            o.num_unresolved()
        );
    }
    for o in oracle_guided {
        let verdict = if o.inconsistent_oracle {
            "inconsistent oracle, no key"
        } else if o.proved_exact {
            "exact (UNSAT proof)"
        } else if o.functionally_correct {
            "approximate, verified correct"
        } else {
            "approximate"
        };
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>8.2}% {:>7} {:>8} {:>10} {:>9} {:>8}  {verdict}, {:.1}s",
            o.attack,
            "oracle-guided",
            o.accuracy * 100.0,
            o.dip_count(),
            o.oracle_queries,
            o.solver.decisions,
            o.solver.conflicts,
            o.solver.restarts,
            o.runtime.as_secs_f64()
        );
    }
    out
}

/// One row of the DIP-count-vs-key-size table: how many DIPs an attack
/// spent on a scheme at a given security parameter, against the `2^k`
/// exhaustion ceiling.
#[derive(Clone, Debug)]
pub struct DipScalingRow {
    /// Locking scheme (e.g. "SARLock", "Anti-SAT", "SARLock+RLL").
    pub scheme: String,
    /// Attack name (e.g. "SAT", "DoubleDIP").
    pub attack: String,
    /// The scheme's security parameter `k` (point-function width for the
    /// SAT-resilient family, key bits for RLL).
    pub key_size: usize,
    /// DIPs consumed by the attack.
    pub dips: usize,
    /// Whether the attack finished inside its budget (an exhausted budget
    /// is the *defence* succeeding).
    pub finished: bool,
    /// Whether the recovered key was functionally correct (for
    /// point-function schemes, Double-DIP keys are correct up to the
    /// stripped one-input flip, so this reports the *base* verdict the
    /// caller computed).
    pub correct: bool,
    /// Solver-effort counters of the attack run (the DIPs column says how
    /// many oracle queries the defence extracted; this says how hard the
    /// solver worked to extract them).
    pub solver: SolverStats,
}

/// Renders DIP-count-vs-key-size rows — the defence metric of the
/// SAT-resilient locking family (DIPs required, not attack accuracy).
pub fn render_dip_scaling(rows: &[DipScalingRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<10} {:>4} {:>7} {:>6} {:>9} {:>8} {:>10} {:>9} {:>8}",
        "scheme",
        "attack",
        "k",
        "DIPs",
        "2^k",
        "finished",
        "correct",
        "decisions",
        "conflicts",
        "restarts"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:>4} {:>7} {:>6} {:>9} {:>8} {:>10} {:>9} {:>8}",
            r.scheme,
            r.attack,
            r.key_size,
            r.dips,
            1usize << r.key_size.min(63),
            r.finished,
            r.correct,
            r.solver.decisions,
            r.solver.conflicts,
            r.solver.restarts
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_counts_unresolved_as_incorrect() {
        let truth = vec![true, false, true, true];
        let pred = vec![Some(true), Some(true), None, Some(true)];
        let out = AttackOutcome::score("test", pred, &truth);
        assert_eq!(out.accuracy, 0.5);
        assert_eq!(out.num_unresolved(), 1);
    }

    #[test]
    fn empty_key_scores_zero() {
        let out = AttackOutcome::score("test", vec![], &[]);
        assert_eq!(out.accuracy, 0.0);
    }

    fn sample_oracle_outcome() -> OracleAttackOutcome {
        OracleAttackOutcome {
            attack: "SAT".into(),
            recovered: vec![true, false],
            proved_exact: true,
            inconsistent_oracle: false,
            functionally_correct: true,
            iterations: vec![
                DipIteration {
                    dip_count: 1,
                    conflicts: 4,
                    oracle_queries: 1,
                    settlement_mismatches: None,
                },
                DipIteration {
                    dip_count: 3,
                    conflicts: 9,
                    oracle_queries: 9,
                    settlement_mismatches: Some(2),
                },
            ],
            oracle_queries: 9,
            accuracy: 1.0,
            runtime: std::time::Duration::from_millis(12),
            solver: SolverStats {
                decisions: 40,
                propagations: 200,
                conflicts: 9,
                restarts: 1,
                learnts_kept: 7,
                learnts_deleted: 2,
            },
        }
    }

    #[test]
    fn a_key_wrong_on_a_single_pattern_scores_incorrect() {
        // SARLock over every input of c432: a key with one flipped bit
        // corrupts exactly one of the 2^36 input patterns, which random
        // simulation will not hit. Only the proof can refute it.
        let design = almost_circuits::IscasBenchmark::C432.build();
        let scheme = almost_locking::SarLock::new(design.num_inputs());
        let (target, _) = crate::testutil::locked_target(&design, &scheme, Script::default(), 7);
        let truth = target.locked.key.bits().to_vec();
        let score = |recovered: Vec<bool>| {
            let no_time = std::time::Duration::ZERO;
            let solver = SolverStats::default();
            score_oracle_run(
                "SAT".into(),
                &target,
                Some(recovered),
                true,
                vec![],
                0,
                no_time,
                solver,
                3,
            )
        };
        let mut wrong = truth.clone();
        wrong[5] = !wrong[5];
        let refuted = score(wrong);
        assert!(!refuted.functionally_correct);
        assert!(refuted.accuracy > 0.95, "all but one bit agree");
        assert!(score(truth).functionally_correct);
    }

    #[test]
    fn dip_counts_come_from_the_iteration_log() {
        let out = sample_oracle_outcome();
        assert_eq!(out.dip_count(), 3);
        assert_eq!(out.dip_counts(), vec![1, 3]);
    }

    #[test]
    fn dip_log_audit_accepts_consistent_and_rejects_drifted_logs() {
        let good = sample_oracle_outcome();
        assert!(good.accounting_consistent());

        // Drift 1: a DIP iteration that forgot to count its oracle query.
        let mut bad = sample_oracle_outcome();
        bad.iterations[0].oracle_queries = 0;
        assert!(!bad.accounting_consistent());

        // Drift 2: a settlement whose DIP ledger skips a mismatch.
        let mut bad = sample_oracle_outcome();
        bad.iterations[1].dip_count = 2;
        assert!(!bad.accounting_consistent());

        // Drift 3: reported total disagrees with the per-iteration log.
        let bad = sample_oracle_outcome();
        assert!(!dip_log_consistent(&bad.iterations, 10));

        // Drift 4: settlement logging fewer queries than mismatches.
        let mut bad = sample_oracle_outcome();
        bad.iterations[1].oracle_queries = 2;
        assert!(!dip_log_consistent(&bad.iterations, 2));
    }

    #[test]
    fn empty_log_reconciles_only_with_zero_queries() {
        assert!(dip_log_consistent(&[], 0));
        assert!(!dip_log_consistent(&[], 1));
    }

    #[test]
    fn dip_scaling_table_renders_the_exhaustion_ceiling() {
        let rows = vec![
            DipScalingRow {
                scheme: "SARLock".into(),
                attack: "SAT".into(),
                key_size: 6,
                dips: 63,
                finished: true,
                correct: true,
                solver: SolverStats {
                    decisions: 1234,
                    conflicts: 77,
                    ..SolverStats::default()
                },
            },
            DipScalingRow {
                scheme: "SARLock+RLL".into(),
                attack: "DoubleDIP".into(),
                key_size: 12,
                dips: 19,
                finished: true,
                correct: true,
                solver: SolverStats::default(),
            },
        ];
        let table = render_dip_scaling(&rows);
        assert!(table.contains("SARLock"));
        assert!(table.contains("DoubleDIP"));
        assert!(table.contains("64"), "2^6 ceiling column");
        assert!(table.contains("4096"), "2^12 ceiling column");
        assert!(table.contains("decisions"), "solver-effort header");
        assert!(table.contains("1234"), "decision count column");
    }

    #[test]
    fn combined_report_renders_both_threat_models() {
        let less = AttackOutcome::score("OMLA", vec![Some(true), None], &[true, false]);
        let guided = sample_oracle_outcome();
        let table = render_report(&[less], &[guided]);
        assert!(table.contains("oracle-less"));
        assert!(table.contains("oracle-guided"));
        assert!(table.contains("OMLA"));
        assert!(table.contains("SAT"));
        assert!(table.contains("exact (UNSAT proof)"));
    }
}
