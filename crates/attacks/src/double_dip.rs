//! The Double-DIP attack [Shen & Zhou, GLSVLSI'17] on SAT-resilient
//! locking.
//!
//! Point-function defences (SARLock, Anti-SAT) survive the classical SAT
//! attack by making every distinguishing input pattern eliminate only one
//! wrong key, forcing `2^k` oracle queries. Double DIP refuses to play:
//! its miter ([`almost_sat::KeyMiter::two_dip`]) only accepts *2-DIPs* —
//! inputs whose oracle answer is guaranteed to kill at least two wrong
//! keys, because two distinct agreeing keys sit on each side of the
//! disagreement. One-key-per-input flips can never fill a pair, so the
//! loop spends its queries resolving the base scheme (RLL, MuxLock) under
//! the point function and settles in roughly the base's DIP count.
//!
//! The settled key is *approximately* correct: exact up to inputs where a
//! single surviving key class errs — i.e. the stripped point function's
//! one flip pattern. That is precisely the trade SARLock's threat model
//! conceded, and why the literature pairs Double DIP with removal attacks
//! to finish the job.

use crate::report::{
    dip_log_consistent, score_oracle_run, AttackTarget, DipIteration, OracleAttackOutcome,
    OracleGuidedAttack,
};
use almost_aig::CompiledAig;
use almost_locking::BatchOracle;
use almost_sat::miter::{DipSearch, KeyMiter};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Configuration of the Double-DIP attack.
#[derive(Clone, Copy, Debug)]
pub struct DoubleDipConfig {
    /// Hard cap on 2-DIP iterations (a converging run on a stacked lock
    /// settles in roughly the base scheme's DIP count).
    pub max_iterations: usize,
    /// Optional conflict budget per 2-DIP query; exhaustion ends the loop
    /// with the current candidate (the defence winning on solver effort).
    pub conflict_budget: Option<u64>,
    /// Random pair-agreement probes encoded into the miter (see
    /// [`almost_sat::KeyMiter::two_dip`]): they force pair
    /// members to be near-equivalent keys, which keeps the loop killing
    /// wrong *base* keys instead of enumerating point-function flip
    /// cylinders. Structural only — no oracle queries.
    pub probes: usize,
    /// Seed for probe generation and scoring simulation.
    pub seed: u64,
}

impl Default for DoubleDipConfig {
    fn default() -> Self {
        DoubleDipConfig {
            max_iterations: 4096,
            conflict_budget: None,
            probes: 12,
            seed: 0x2D1F,
        }
    }
}

/// The Double-DIP attack engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct DoubleDip {
    config: DoubleDipConfig,
}

impl DoubleDip {
    /// An attack with the given configuration.
    pub fn new(config: DoubleDipConfig) -> Self {
        DoubleDip { config }
    }

    /// An unbudgeted attack (runs the 2-DIP loop to its UNSAT proof).
    pub fn exact() -> Self {
        DoubleDip::default()
    }

    /// A budgeted attack: at most `iterations` 2-DIPs, `conflicts`
    /// conflicts per query.
    pub fn budgeted(iterations: usize, conflicts: u64) -> Self {
        DoubleDip::new(DoubleDipConfig {
            max_iterations: iterations,
            conflict_budget: Some(conflicts),
            ..DoubleDipConfig::default()
        })
    }

    /// Runs the 2-DIP loop against `locked` (an AIG with key inputs at
    /// positions `key_start .. key_start + key_len`) using `oracle`.
    pub fn run(
        &self,
        locked: &almost_aig::Aig,
        key_start: usize,
        key_len: usize,
        oracle: &dyn BatchOracle,
    ) -> DoubleDipRun {
        let started = Instant::now();
        let _span = almost_telemetry::span(almost_telemetry::Scope::Attack, || {
            format!("double_dip k={key_len}")
        });
        let queries_at_start = oracle.queries_served();
        let num_data = locked
            .num_inputs()
            .checked_sub(key_len)
            .expect("key range out of bounds");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let probes: Vec<Vec<bool>> = (0..self.config.probes)
            .map(|_| (0..num_data).map(|_| rng.random::<bool>()).collect())
            .collect();
        let mut miter = KeyMiter::two_dip(locked, key_start, key_len, &probes);
        assert_eq!(
            miter.num_data_inputs(),
            oracle.num_inputs(),
            "oracle arity must match the locked circuit's functional inputs"
        );
        let mut iterations: Vec<DipIteration> = Vec::new();
        let mut queries_issued = 0usize;
        let mut two_dip_settled = false;

        loop {
            if iterations.len() >= self.config.max_iterations {
                break;
            }
            match miter.find_dip(self.config.conflict_budget) {
                DipSearch::Found(x) => {
                    let y = oracle.query(&x);
                    queries_issued += 1;
                    miter.constrain_io(&x, &y);
                    iterations.push(DipIteration {
                        dip_count: miter.num_constraints(),
                        conflicts: miter.solver_stats().conflicts,
                        oracle_queries: queries_issued,
                        settlement_mismatches: None,
                    });
                }
                DipSearch::Settled => {
                    two_dip_settled = true;
                    break;
                }
                DipSearch::OutOfBudget => break,
            }
        }

        // Contradictory constraints admit no key: a "settled" miter then
        // proves nothing.
        let settled = miter.settle_key();
        let inconsistent_oracle = settled.is_none();
        let key_sensitive_probes =
            count_key_sensitive_probes(locked, key_start, key_len, &probes, self.config.seed);
        let run = DoubleDipRun {
            recovered: settled.unwrap_or_default(),
            two_dip_settled: two_dip_settled && !inconsistent_oracle,
            inconsistent_oracle,
            key_sensitive_probes,
            iterations,
            oracle_queries: oracle.queries_served() - queries_at_start,
            runtime: started.elapsed(),
            solver: miter.solver_stats(),
            portfolio: miter.portfolio_stats(),
        };
        debug_assert_eq!(
            queries_issued, run.oracle_queries,
            "attack ledger must match the oracle's served count"
        );
        debug_assert!(run.accounting_consistent(), "DIP log reconciliation");
        run
    }
}

/// Counts probes whose outputs vary across 64 random keys, evaluated in
/// a single word-level sweep of the compiled locked netlist: each probe
/// occupies one word column with its data bits broadcast, key inputs
/// carry a random bit per lane, and a probe is key sensitive when some
/// output word is neither all-zeros nor all-ones.
fn count_key_sensitive_probes(
    locked: &almost_aig::Aig,
    key_start: usize,
    key_len: usize,
    probes: &[Vec<bool>],
    seed: u64,
) -> usize {
    if probes.is_empty() {
        return 0;
    }
    let code = CompiledAig::compile(locked);
    // A distinct stream from the probe RNG: the probes themselves must
    // not move when this diagnostic changes its sampling.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_D1D1_2D2D);
    let num_words = probes.len();
    let mut words: Vec<Vec<u64>> = Vec::with_capacity(locked.num_inputs());
    let mut data_pos = 0usize;
    for pos in 0..locked.num_inputs() {
        if pos >= key_start && pos < key_start + key_len {
            words.push(vec![rng.random::<u64>(); num_words]);
        } else {
            words.push(
                probes
                    .iter()
                    .map(|p| (p[data_pos] as u64).wrapping_neg())
                    .collect(),
            );
            data_pos += 1;
        }
    }
    let out = code.eval_words(&words, num_words);
    (0..num_words)
        .filter(|&w| out.iter().any(|o| o[w] != 0 && o[w] != u64::MAX))
        .count()
}

/// Raw result of [`DoubleDip::run`] (unscored; no ground truth needed).
#[derive(Clone, Debug)]
pub struct DoubleDipRun {
    /// The recovered key bits — correct up to inputs where only a single
    /// key class errs (the stripped point function). Empty when
    /// `inconsistent_oracle` is set.
    pub recovered: Vec<bool>,
    /// True when the 2-DIP miter was proved UNSAT with at least one key
    /// consistent with every oracle answer: no input remains whose answer
    /// could eliminate two keys, so the base scheme is resolved.
    pub two_dip_settled: bool,
    /// True when no key agrees with every oracle answer: the oracle
    /// contradicted itself, so no key is reported and nothing is proved.
    pub inconsistent_oracle: bool,
    /// How many of the structural pair-agreement probes are *key
    /// sensitive* — their output actually varies across random keys (one
    /// word-level sweep of the compiled locked netlist, no oracle
    /// queries). On a pure point-function lock this is ~0 (each probe
    /// upsets at most a measure-zero key slice); on RLL-style bases it
    /// approaches the probe count — a cheap diagnostic for which regime
    /// the attack is in.
    pub key_sensitive_probes: usize,
    /// Per-iteration 2-DIP log (each entry consumed one oracle query).
    pub iterations: Vec<DipIteration>,
    /// Oracle queries consumed.
    pub oracle_queries: usize,
    /// Wall-clock duration.
    pub runtime: std::time::Duration,
    /// Cumulative solver-effort counters of the attack's miter.
    pub solver: almost_sat::SolverStats,
    /// Portfolio racing counters (width 1 ⇒ zero races: the pinned
    /// serial reference ran). Telemetry-only — the CSV schema is
    /// unchanged so deterministic runs stay byte-identical.
    pub portfolio: almost_sat::PortfolioStats,
}

impl DoubleDipRun {
    /// Total 2-DIPs found.
    pub fn dip_count(&self) -> usize {
        self.iterations.last().map_or(0, |it| it.dip_count)
    }

    /// True when the per-iteration log reconciles with the reported
    /// oracle query count (see [`dip_log_consistent`]).
    pub fn accounting_consistent(&self) -> bool {
        dip_log_consistent(&self.iterations, self.oracle_queries)
    }
}

impl OracleGuidedAttack for DoubleDip {
    fn name(&self) -> &'static str {
        "DoubleDIP"
    }

    fn attack_with_oracle(
        &self,
        target: &AttackTarget,
        oracle: &dyn BatchOracle,
    ) -> OracleAttackOutcome {
        let run = self.run(
            &target.deployed,
            target.locked.key_input_start,
            target.locked.key_size(),
            oracle,
        );
        // `proved_exact` stays false: a settled 2-DIP loop proves the key
        // correct only up to one-key flip patterns, and the shared CEC
        // scoring will honestly report `functionally_correct = false` when
        // a stripped point function still disagrees on its flip input.
        score_oracle_run(
            self.name().to_string(),
            target,
            (!run.inconsistent_oracle).then_some(run.recovered),
            false,
            run.iterations,
            run.oracle_queries,
            run.runtime,
            run.solver,
            self.config.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::locked_oracle;
    use almost_circuits::IscasBenchmark;
    use almost_locking::{apply_key, Oracle, Rll, SarLock, Stacked};

    #[test]
    fn double_dip_terminates_early_on_plain_rll() {
        // Plain RLL has a bitwise-unique correct key, so once the live set
        // thins out a side of the 2-DIP miter can no longer field two
        // distinct keys and the loop settles *early* — Double DIP trades
        // exactness for resilience-stripping, which is why the classic
        // attack remains the right tool for unprotected RLL. What must
        // hold: termination well under the classic DIP budget, and a
        // reconciled query ledger.
        let (locked, oracle) = locked_oracle(&IscasBenchmark::C432.build(), &Rll::new(8), 61);
        let run = DoubleDip::exact().run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &oracle,
        );
        assert!(run.two_dip_settled);
        assert!(run.accounting_consistent());
        assert!(
            run.oracle_queries < 256,
            "2-DIP count stays far below key exhaustion (got {})",
            run.oracle_queries
        );
        assert_eq!(run.recovered.len(), 8);
        // RLL key gates sit on live signals: random probes see the key.
        assert!(
            run.key_sensitive_probes > 0,
            "RLL probes must show key sensitivity"
        );
    }

    #[test]
    fn an_inconsistent_oracle_is_never_reported_as_settled() {
        let locked = crate::testutil::lock_with(&IscasBenchmark::C432.build(), &Rll::new(16), 7);
        let liar = crate::testutil::AlternatingLiar::new(&locked);
        let run = DoubleDip::exact().run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &liar,
        );
        assert!(run.inconsistent_oracle, "the answers admit no key");
        assert!(!run.two_dip_settled, "a contradiction settles nothing");
        assert!(run.recovered.is_empty(), "no key is made up");
        assert!(run.accounting_consistent());
    }

    #[test]
    fn sarlock_alone_settles_immediately_with_zero_queries() {
        // Pure SARLock: every input incriminates at most one key, so no
        // 2-DIP ever exists — the defence never extracts a single query.
        let (locked, oracle) = locked_oracle(&IscasBenchmark::C432.build(), &SarLock::new(8), 62);
        let run = DoubleDip::exact().run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &oracle,
        );
        assert!(run.two_dip_settled);
        assert_eq!(run.oracle_queries, 0);
        assert_eq!(
            oracle.queries_served(),
            0,
            "the probe diagnostic must not touch the oracle"
        );
        assert!(run.accounting_consistent());
        // A pure point function flips only when a key lane matches the
        // probe's 8-bit prefix: each of the 64 lanes hits with
        // probability 2^-8, so ~22% of probes register — far below the
        // near-total sensitivity RLL shows above.
        assert!(
            run.key_sensitive_probes <= 6,
            "SARLock probes mostly key-insensitive (got {} of 12)",
            run.key_sensitive_probes
        );
    }

    #[test]
    fn strips_sarlock_and_recovers_the_rll_base_key() {
        let design = IscasBenchmark::C432.build();
        let (locked, oracle) =
            locked_oracle(&design, &Stacked::new(Rll::new(10), SarLock::new(8)), 63);
        let run = DoubleDip::exact().run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &oracle,
        );
        assert!(run.two_dip_settled, "2-DIP loop must converge");
        assert!(
            run.dip_count() < 256,
            "far fewer queries than the 2^8 SARLock floor (got {})",
            run.dip_count()
        );
        // The base key is recovered exactly: overwrite the overlay bits
        // with ground truth and the circuit must unlock end to end.
        let mut key = run.recovered.clone();
        key[10..].copy_from_slice(&locked.key.bits()[10..]);
        let restored = apply_key(&locked.aig, locked.key_input_start, &key);
        assert_eq!(
            almost_sat::check_equivalence(&design, &restored),
            almost_sat::Equivalence::Equivalent,
            "recovered base key + true overlay must unlock the design"
        );
    }

    #[test]
    #[should_panic(expected = "key range out of bounds")]
    fn an_out_of_range_key_is_rejected() {
        let (locked, oracle) = locked_oracle(&IscasBenchmark::C432.build(), &Rll::new(8), 1);
        let key_len = locked.aig.num_inputs() + 1;
        DoubleDip::exact().run(&locked.aig, locked.key_input_start, key_len, &oracle);
    }
}
