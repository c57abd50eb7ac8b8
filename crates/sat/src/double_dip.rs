//! The 2-DIP miter of the Double-DIP attack.
//!
//! A classical DIP (see [`KeyMiter`](crate::KeyMiter)) eliminates *at
//! least one* wrong key per oracle query — which is exactly the guarantee
//! point-function defences (SARLock, Anti-SAT) weaponise: they arrange
//! for every input to incriminate at most one key, so the DIP loop
//! degenerates into brute-force key enumeration.
//!
//! Double DIP [Shen & Zhou, GLSVLSI'17] asks for a *2-DIP* instead: an
//! input pattern whose oracle answer is guaranteed to eliminate at least
//! **two** wrong keys. The miter carries four key copies over one shared
//! input vector `X` — two agreeing pairs that disagree with each other:
//!
//! ```text
//! C(X, K1) = C(X, K2),  K1 ≠ K2        (pair A agrees)
//! C(X, K3) = C(X, K4),  K3 ≠ K4        (pair B agrees)
//! C(X, K1) ≠ C(X, K3)                  (the pairs disagree at X)
//! ```
//!
//! Whichever pair the oracle contradicts contains two distinct wrong keys,
//! both killed by the resulting I/O constraint. A SARLock flip is one-hot
//! in the key — at any input at most one key class errs — so its wrong
//! keys can never populate a full pair and the 2-DIP loop settles after
//! resolving only the base scheme, stripping the point function.
//!
//! One refinement keeps the loop off the point function's turf: pair
//! members must additionally agree on a batch of fixed random *probe*
//! inputs ([`DoubleDipMiter::with_probes`]). Without it, the solver can
//! pair a point-residue key with an unrelated wrong base key that merely
//! coincides at the chosen input, and the loop degenerates into flip-
//! cylinder enumeration — exactly the brute force the defence wants.
//! Probes force pair members to be near-equivalent keys (they may differ
//! only where the probes don't look, i.e. on measure-`2^-k` flip
//! cylinders), so each accepted query eliminates an entire wrong *base*
//! key class. Probes are structural: they never query the oracle.
//!
//! Like [`KeyMiter`](crate::KeyMiter), the structural constraints are
//! guarded by an activation literal (assumed to search, released to settle
//! a key), and the solver is fully incremental across iterations. The
//! four copies, every I/O constraint and every probe go through one
//! [`StrashEncoder`](crate::cnf::StrashEncoder): gates no key input reaches
//! get one variable shared by all four copies, and a constraint or probe
//! binds `x` to constant literals, so only its key-dependent residue is
//! encoded, reusing every residue gate encoded before.

use crate::cnf::encode_xor;
use crate::miter::KeyCopies;
use crate::portfolio::{PortfolioSolver, PortfolioStats};
use crate::solver::{SatLit, SatResult, SatVar};
use almost_aig::Aig;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Outcome of one 2-DIP query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwoDipSearch {
    /// A 2-distinguishing input pattern over the functional inputs.
    Found(Vec<bool>),
    /// No 2-DIP exists: every surviving wrong key corrupts inputs where it
    /// is the *only* dissenter — the point-function residue. The settled
    /// key is correct up to such one-key flips (for SARLock/Anti-SAT
    /// overlays: the base key is recovered exactly).
    Settled,
    /// The conflict budget ran out before the query concluded.
    OutOfBudget,
}

/// The four-copy 2-DIP miter; see the [module documentation](self).
///
/// # Example
///
/// ```
/// use almost_aig::Aig;
/// use almost_sat::double_dip::{DoubleDipMiter, TwoDipSearch};
///
/// // f = a ⊕ k: both wrong-key classes err on every input, so a 2-DIP
/// // never exists (a pair would need two distinct agreeing keys).
/// let mut locked = Aig::new();
/// let a = locked.add_input();
/// let k = locked.add_named_input("keyinput0");
/// let f = locked.xor(a, k);
/// locked.add_output(f);
/// let mut miter = DoubleDipMiter::new(&locked, 1, 1);
/// assert_eq!(miter.find_2dip(None), TwoDipSearch::Settled);
/// ```
pub struct DoubleDipMiter {
    solver: PortfolioSolver,
    /// Key copies `[K1, K2, K3, K4]`: pairs (K1, K2) and (K3, K4).
    copies: KeyCopies,
    x_vars: Vec<SatVar>,
    /// Guard for the pair-agreement/disagreement structure.
    act: SatLit,
    num_constraints: usize,
}

impl DoubleDipMiter {
    /// Builds the 2-DIP miter for `locked`, whose key inputs occupy input
    /// positions `key_start .. key_start + key_len`.
    ///
    /// # Panics
    ///
    /// Panics if the key range exceeds the circuit's inputs or the circuit
    /// has no outputs.
    pub fn new(locked: &Aig, key_start: usize, key_len: usize) -> Self {
        Self::with_probes(locked, key_start, key_len, &[])
    }

    /// Like [`DoubleDipMiter::new`], but sweeps the locked circuit with
    /// [`almost_aig::fraig`] before encoding. The four-copy miter
    /// amplifies any reduction of key-dependent logic fourfold (every
    /// copy — and every probe residue — encodes the swept network), which
    /// is why the 2-DIP loop benefits even more from the pre-pass than the
    /// classic miter.
    /// Interface order and names are preserved; opt-in for the same
    /// reason as [`KeyMiter::with_fraig_prepass`](crate::KeyMiter::with_fraig_prepass).
    ///
    /// # Panics
    ///
    /// Panics if the key range exceeds the circuit's inputs or the circuit
    /// has no outputs.
    pub fn with_fraig_prepass(locked: &Aig, key_start: usize, key_len: usize) -> Self {
        let swept = almost_aig::fraig(locked);
        Self::with_probes(&swept, key_start, key_len, &[])
    }

    /// Builds the miter with pair-agreement *probes*: on every probe input
    /// the two keys of each pair must produce identical outputs. Probes
    /// are encoded as constant-folded key residues (cheap) and consume no
    /// oracle queries; see the [module documentation](self) for why they
    /// keep the loop from enumerating flip cylinders.
    ///
    /// # Panics
    ///
    /// Panics if the key range exceeds the circuit's inputs, the circuit
    /// has no outputs, or a probe has the wrong arity.
    pub fn with_probes(
        locked: &Aig,
        key_start: usize,
        key_len: usize,
        probes: &[Vec<bool>],
    ) -> Self {
        assert!(
            key_start + key_len <= locked.num_inputs(),
            "key range out of bounds"
        );
        assert!(locked.num_outputs() > 0, "miter needs outputs to compare");
        let mut solver = PortfolioSolver::new("double_dip_miter");
        let num_data = locked.num_inputs() - key_len;
        let x_vars: Vec<SatVar> = (0..num_data).map(|_| solver.new_var()).collect();
        let mut copies = KeyCopies::new(&mut solver, locked, key_start, key_len, 4);
        let x_lits: Vec<SatLit> = x_vars.iter().map(|&v| SatLit::positive(v)).collect();
        let outs = copies.encode(&mut solver, &x_lits);

        let act = SatLit::positive(solver.new_var());
        // act → the copies within each pair agree on every output.
        for (p, q) in [(0, 1), (2, 3)] {
            agree_under(&mut solver, act, &outs[p], &outs[q]);
        }
        // act → the pairs disagree on at least one output.
        let mut diff: Vec<SatLit> = vec![!act];
        for (&la, &lb) in outs[0].iter().zip(&outs[2]) {
            if la != lb {
                diff.push(encode_xor(&mut solver, la, lb));
            }
        }
        solver.add_clause(&diff);
        // act → the keys within each pair are bitwise distinct (otherwise
        // a pair could be one key counted twice and the 2-elimination
        // guarantee collapses to the classical single-DIP bound).
        for (p, q) in [(0usize, 1usize), (2, 3)] {
            let mut distinct: Vec<SatLit> = vec![!act];
            for (&vp, &vq) in copies.keys[p].iter().zip(&copies.keys[q]) {
                let (lp, lq) = (SatLit::positive(vp), SatLit::positive(vq));
                distinct.push(encode_xor(&mut solver, lp, lq));
            }
            solver.add_clause(&distinct);
        }
        // act → pair members agree on every probe input (constant-folded
        // key residues; no oracle involvement).
        for probe in probes {
            assert_eq!(probe.len(), num_data, "probe arity mismatch");
            let x = copies.constants(probe);
            let residues = copies.encode(&mut solver, &x);
            for (p, q) in [(0, 1), (2, 3)] {
                agree_under(&mut solver, act, &residues[p], &residues[q]);
            }
        }

        DoubleDipMiter {
            solver,
            copies,
            x_vars,
            act,
            num_constraints: 0,
        }
    }

    /// Searches for a 2-distinguishing input pattern.
    ///
    /// With `max_conflicts = None` the query runs to completion; with a
    /// budget it may return [`TwoDipSearch::OutOfBudget`].
    pub fn find_2dip(&mut self, max_conflicts: Option<u64>) -> TwoDipSearch {
        match self.solver.try_solve(&[self.act], max_conflicts) {
            Err(interrupt) => {
                let budget = max_conflicts.unwrap_or(0);
                almost_telemetry::trace(|| almost_telemetry::EventKind::BudgetExhausted {
                    engine: "double_dip_miter",
                    budget,
                    conflicts: self.solver.stats().conflicts,
                    cause: interrupt.cause(),
                });
                TwoDipSearch::OutOfBudget
            }
            Ok(SatResult::Unsat) => TwoDipSearch::Settled,
            Ok(SatResult::Sat) => TwoDipSearch::Found(
                self.x_vars
                    .iter()
                    .map(|&v| self.solver.value(v).unwrap_or(false))
                    .collect(),
            ),
        }
    }

    /// Adds the oracle response `outputs = C*(inputs)` as a constraint on
    /// all four key copies (constant-input residues, as in
    /// [`KeyMiter::constrain_io`](crate::KeyMiter::constrain_io)).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` have the wrong arity.
    pub fn constrain_io(&mut self, inputs: &[bool], outputs: &[bool]) {
        self.copies.constrain(&mut self.solver, inputs, outputs);
        self.num_constraints += 1;
    }

    /// Extracts a key consistent with every added I/O constraint. After
    /// [`TwoDipSearch::Settled`], the key is correct on every input where
    /// more than one key class could err — i.e. the base scheme of a
    /// stacked point-function lock is recovered exactly.
    ///
    /// Returns `None` only if the constraints are contradictory, which
    /// indicates an inconsistent oracle.
    pub fn settle_key(&mut self) -> Option<Vec<bool>> {
        match self.solver.try_solve(&[!self.act], None) {
            Err(interrupt) => {
                // Only an external cancellation can interrupt an
                // unlimited query; report it like a budget exhaustion and
                // yield no key.
                almost_telemetry::trace(|| almost_telemetry::EventKind::BudgetExhausted {
                    engine: "double_dip_miter",
                    budget: 0,
                    conflicts: self.solver.stats().conflicts,
                    cause: interrupt.cause(),
                });
                None
            }
            Ok(SatResult::Unsat) => None,
            Ok(SatResult::Sat) => Some(
                self.copies.keys[0]
                    .iter()
                    .map(|&v| self.solver.value(v).unwrap_or(false))
                    .collect(),
            ),
        }
    }

    /// Number of I/O constraints added so far (= oracle queries consumed).
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Number of functional (non-key) inputs.
    pub fn num_data_inputs(&self) -> usize {
        self.x_vars.len()
    }

    /// Key width.
    pub fn key_len(&self) -> usize {
        self.copies.keys[0].len()
    }

    /// Cumulative solver-effort statistics.
    pub fn solver_stats(&self) -> crate::solver::SolverStats {
        self.solver.stats()
    }

    /// Solver size: (variables, clauses).
    pub fn solver_size(&self) -> (usize, usize) {
        (self.solver.num_vars(), self.solver.num_clauses())
    }

    /// Cumulative portfolio counters (races, wins, exchange volume).
    pub fn portfolio_stats(&self) -> PortfolioStats {
        self.solver.portfolio_stats()
    }

    /// Installs an external cancellation flag: raising it makes every
    /// subsequent query return [`TwoDipSearch::OutOfBudget`] (reported
    /// with `cause: "cancelled"` in telemetry).
    pub fn set_stop_flag(&mut self, flag: Arc<AtomicBool>) {
        self.solver.set_stop_flag(flag);
    }
}

/// Adds `act → (a = b)` output by output, skipping pairs the encoder
/// already mapped to one literal.
fn agree_under(solver: &mut PortfolioSolver, act: SatLit, a: &[SatLit], b: &[SatLit]) {
    for (&la, &lb) in a.iter().zip(b) {
        if la != lb {
            solver.add_clause(&[!act, !la, lb]);
            solver.add_clause(&[!act, la, !lb]);
        }
    }
}

impl std::fmt::Debug for DoubleDipMiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (vars, clauses) = self.solver_size();
        write!(
            f,
            "DoubleDipMiter {{ key_len: {}, constraints: {}, vars: {vars}, clauses: {clauses} }}",
            self.key_len(),
            self.num_constraints
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-bit toy where wrong keys come in agreeing groups: f = a ⊕ (k₀ ∧
    /// k₁). Correct keys {00, 01, 10} all yield f = a; key 11 yields ¬a.
    fn group_locked() -> Aig {
        let mut locked = Aig::new();
        let a = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let k1 = locked.add_named_input("keyinput1");
        let t = locked.and(k0, k1);
        let f = locked.xor(a, t);
        locked.add_output(f);
        locked
    }

    #[test]
    fn two_dip_exists_when_two_keys_err_together() {
        // Pair A = two of {00, 01, 10}, pair B needs two distinct agreeing
        // keys too — but the dissenting class {11} is a single key, so no
        // 2-DIP exists even though a classical DIP does.
        let mut miter = DoubleDipMiter::new(&group_locked(), 1, 2);
        assert_eq!(miter.find_2dip(None), TwoDipSearch::Settled);

        // Widen the dissenting class to two keys: f = a ⊕ k₀ makes {1x}
        // a two-key agreeing wrong class. Now a 2-DIP must exist.
        let mut locked = Aig::new();
        let a = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let _k1 = locked.add_named_input("keyinput1");
        let f = locked.xor(a, k0);
        locked.add_output(f);
        let mut miter = DoubleDipMiter::new(&locked, 1, 2);
        match miter.find_2dip(None) {
            TwoDipSearch::Found(x) => {
                // Oracle: correct key has k₀ = 0, so y = a.
                miter.constrain_io(&x, &x);
            }
            other => panic!("a 2-DIP must exist, got {other:?}"),
        }
        assert_eq!(miter.find_2dip(None), TwoDipSearch::Settled);
        let key = miter.settle_key().expect("consistent");
        assert!(!key[0], "k₀ = 0 is pinned by the 2-DIP constraint");
    }

    #[test]
    fn fraig_prepass_preserves_the_2dip_verdict() {
        // Pad the group-locked toy with a redundant duplicate of its key
        // cone; the swept miter must reach the same settled verdict.
        let mut locked = Aig::new();
        let a = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let k1 = locked.add_named_input("keyinput1");
        let t = locked.and(k0, k1);
        let u = locked.or(k1, t); // ≡ k₁ (absorption)
        let t2 = locked.and(k0, u); // ≡ k₀ ∧ k₁, duplicated cone
        let f = locked.xor(a, t2);
        locked.add_output(f);
        let mut miter = DoubleDipMiter::with_fraig_prepass(&locked, 1, 2);
        assert_eq!(miter.find_2dip(None), TwoDipSearch::Settled);
        let key = miter.settle_key().expect("consistent");
        assert_eq!(key.len(), 2);
    }

    #[test]
    fn settled_key_is_consistent_with_constraints() {
        let locked = group_locked();
        let mut miter = DoubleDipMiter::new(&locked, 1, 2);
        // Constrain with the correct oracle (f = a) on both input values.
        miter.constrain_io(&[false], &[false]);
        miter.constrain_io(&[true], &[true]);
        let key = miter.settle_key().expect("consistent");
        assert!(!(key[0] && key[1]), "key 11 contradicts the constraints");
        assert_eq!(miter.num_constraints(), 2);
    }

    #[test]
    fn inconsistent_oracle_is_detected() {
        let locked = group_locked();
        let mut miter = DoubleDipMiter::new(&locked, 1, 2);
        miter.constrain_io(&[true], &[true]);
        miter.constrain_io(&[true], &[false]);
        assert_eq!(miter.settle_key(), None);
    }

    #[test]
    fn budgeted_search_reports_exhaustion_without_corruption() {
        let mut locked = Aig::new();
        let a = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let _k1 = locked.add_named_input("keyinput1");
        let f = locked.xor(a, k0);
        locked.add_output(f);
        let mut miter = DoubleDipMiter::new(&locked, 1, 2);
        let mut iterations = 0;
        loop {
            match miter.find_2dip(Some(1)) {
                TwoDipSearch::Found(x) => miter.constrain_io(&x, &x),
                TwoDipSearch::Settled => break,
                TwoDipSearch::OutOfBudget => match miter.find_2dip(None) {
                    TwoDipSearch::Found(x) => miter.constrain_io(&x, &x),
                    TwoDipSearch::Settled => break,
                    TwoDipSearch::OutOfBudget => unreachable!("unlimited retry"),
                },
            }
            iterations += 1;
            assert!(iterations <= 16, "2-DIP loop diverged");
        }
        assert!(miter.settle_key().is_some());
    }
}
