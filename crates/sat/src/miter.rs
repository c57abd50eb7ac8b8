//! Key-conditioned miters for oracle-guided (SAT) attacks.
//!
//! The classic SAT attack on logic locking [Subramanyan et al., HOST'15]
//! works on a *key-conditioned miter*: two copies of the locked circuit
//! `C(x, k₁)` and `C(x, k₂)` share their functional inputs `x` but carry
//! independent key variables, and the solver searches for an assignment
//! where at least one output pair differs. Such an `x` is a
//! *distinguishing input pattern* (DIP): it witnesses that `k₁` and `k₂`
//! cannot both be correct. After querying the oracle (the activated chip)
//! for the true output `y = C*(x)`, the constraints `C(x, k₁) = y` and
//! `C(x, k₂) = y` are added and the search repeats. When the miter goes
//! UNSAT, *every* key consistent with the accumulated I/O pairs is
//! functionally correct, and one is extracted with [`KeyMiter::settle_key`].
//!
//! [`KeyMiter`] implements the circuit plumbing on the incremental CDCL
//! solver: the difference clause is guarded by an activation literal so the
//! same solver answers both the DIP query (assume the guard) and the key
//! settlement (release it), keeping every learnt clause across iterations.
//!
//! Everything the miter encodes goes through one [`StrashEncoder`] it
//! owns. The two copies therefore share one variable for every gate no key
//! input reaches, and the solver never has to learn that they agree there.
//! An I/O constraint
//! encodes the locked circuit once more per key copy, with `x` bound to
//! constant literals: the constants fold away, what remains is the
//! key-dependent residue, and any residue gate an earlier DIP (or the
//! other copy) already produced is reused rather than re-encoded.

use crate::cnf::{encode_xor, StrashEncoder};
use crate::portfolio::{PortfolioSolver, PortfolioStats};
use crate::solver::{SatLit, SatResult, SatVar};
use almost_aig::Aig;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Outcome of one DIP query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DipSearch {
    /// A distinguishing input pattern over the functional inputs (in input
    /// order, key positions excluded).
    Found(Vec<bool>),
    /// No DIP exists: all keys consistent with the added I/O constraints
    /// are functionally equivalent — the attack has converged.
    Settled,
    /// The conflict budget ran out before the query concluded
    /// (approximate/AppSAT mode only).
    OutOfBudget,
}

/// A key-conditioned miter over a locked circuit; see the
/// [module documentation](self).
///
/// # Example
///
/// ```
/// use almost_aig::Aig;
/// use almost_sat::miter::{DipSearch, KeyMiter};
///
/// // Locked circuit: f = a ⊕ k (key input last), correct key k = 0.
/// let mut locked = Aig::new();
/// let a = locked.add_input();
/// let k = locked.add_named_input("keyinput0");
/// let f = locked.xor(a, k);
/// locked.add_output(f);
///
/// let mut miter = KeyMiter::new(&locked, 1, 1);
/// match miter.find_dip(None) {
///     DipSearch::Found(x) => {
///         // Oracle: f = a, so y = x.
///         miter.constrain_io(&x, &x);
///     }
///     other => panic!("one DIP must exist, got {other:?}"),
/// }
/// assert_eq!(miter.find_dip(None), DipSearch::Settled);
/// assert_eq!(miter.settle_key(), Some(vec![false]));
/// ```
pub struct KeyMiter {
    solver: PortfolioSolver,
    /// Key copies `[K1, K2]`.
    copies: KeyCopies,
    x_vars: Vec<SatVar>,
    /// Guard literal for the output-difference clause: assumed positive to
    /// search DIPs, negative to settle a key.
    act: SatLit,
    num_constraints: usize,
}

impl KeyMiter {
    /// Builds the miter for `locked`, whose key inputs occupy input
    /// positions `key_start .. key_start + key_len` (the
    /// `almost_locking::LockedCircuit` convention).
    ///
    /// # Panics
    ///
    /// Panics if the key range exceeds the circuit's inputs or the circuit
    /// has no outputs.
    pub fn new(locked: &Aig, key_start: usize, key_len: usize) -> Self {
        Self::build(locked, key_start, key_len, false)
    }

    /// Like [`KeyMiter::new`], but sweeps the locked circuit with
    /// [`almost_aig::fraig`] before encoding. The sweep merges every
    /// internally equivalent node once, up front — both circuit copies
    /// (and every later I/O residue) then encode the reduced network,
    /// shrinking the CNF the DIP loop iterates on. The
    /// interface (input order and names, output order) is preserved, so
    /// key positions are unaffected.
    ///
    /// Opt-in: on netlists with little internal redundancy the sweep is
    /// pure overhead, and attack-effort comparisons against published
    /// SAT-attack numbers should keep the plain construction.
    ///
    /// # Panics
    ///
    /// Panics if the key range exceeds the circuit's inputs or the circuit
    /// has no outputs.
    pub fn with_fraig_prepass(locked: &Aig, key_start: usize, key_len: usize) -> Self {
        Self::build(locked, key_start, key_len, true)
    }

    fn build(locked: &Aig, key_start: usize, key_len: usize, fraig: bool) -> Self {
        assert!(
            key_start + key_len <= locked.num_inputs(),
            "key range out of bounds"
        );
        let swept;
        let locked = if fraig {
            swept = almost_aig::fraig(locked);
            &swept
        } else {
            locked
        };
        assert!(locked.num_outputs() > 0, "miter needs outputs to compare");
        let mut solver = PortfolioSolver::new("key_miter");
        let num_data = locked.num_inputs() - key_len;
        let x_vars: Vec<SatVar> = (0..num_data).map(|_| solver.new_var()).collect();
        let mut copies = KeyCopies::new(&mut solver, locked, key_start, key_len, 2);
        let x_lits: Vec<SatLit> = x_vars.iter().map(|&v| SatLit::positive(v)).collect();
        let outs = copies.encode(&mut solver, &x_lits);

        // Difference clause, guarded: act → (some output pair differs). An
        // output no key input reaches is one literal in both copies and
        // cannot differ.
        let act = SatLit::positive(solver.new_var());
        let mut clause: Vec<SatLit> = vec![!act];
        for (&la, &lb) in outs[0].iter().zip(&outs[1]) {
            if la != lb {
                clause.push(encode_xor(&mut solver, la, lb));
            }
        }
        solver.add_clause(&clause);

        KeyMiter {
            solver,
            copies,
            x_vars,
            act,
            num_constraints: 0,
        }
    }

    /// Searches for a distinguishing input pattern.
    ///
    /// With `max_conflicts = None` the query runs to completion; with a
    /// budget it may return [`DipSearch::OutOfBudget`].
    pub fn find_dip(&mut self, max_conflicts: Option<u64>) -> DipSearch {
        match self.solver.try_solve(&[self.act], max_conflicts) {
            Err(interrupt) => {
                let budget = max_conflicts.unwrap_or(0);
                almost_telemetry::trace(|| almost_telemetry::EventKind::BudgetExhausted {
                    engine: "key_miter",
                    budget,
                    conflicts: self.solver.stats().conflicts,
                    cause: interrupt.cause(),
                });
                DipSearch::OutOfBudget
            }
            Ok(SatResult::Unsat) => DipSearch::Settled,
            Ok(SatResult::Sat) => DipSearch::Found(
                self.x_vars
                    .iter()
                    .map(|&v| self.solver.value(v).unwrap_or(false))
                    .collect(),
            ),
        }
    }

    /// Adds the oracle response `outputs = C*(inputs)` as a constraint on
    /// both key copies.
    ///
    /// The locked circuit is encoded with `inputs` as constant literals, so
    /// only the key-dependent residue reaches the solver — typically a
    /// small fraction of the circuit — and residue gates already encoded
    /// for an earlier constraint are shared, not repeated.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` have the wrong arity.
    pub fn constrain_io(&mut self, inputs: &[bool], outputs: &[bool]) {
        self.copies.constrain(&mut self.solver, inputs, outputs);
        self.num_constraints += 1;
    }

    /// Extracts a key consistent with every added I/O constraint (the
    /// correct key once [`DipSearch::Settled`] has been observed; the best
    /// current candidate in approximate mode).
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
                    engine: "key_miter",
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
    /// subsequent query return [`DipSearch::OutOfBudget`] (reported with
    /// `cause: "cancelled"` in telemetry).
    pub fn set_stop_flag(&mut self, flag: Arc<AtomicBool>) {
        self.solver.set_stop_flag(flag);
    }
}

impl std::fmt::Debug for KeyMiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (vars, clauses) = self.solver_size();
        write!(
            f,
            "KeyMiter {{ key_len: {}, constraints: {}, vars: {vars}, clauses: {clauses} }}",
            self.key_len(),
            self.num_constraints
        )
    }
}

/// The key copies of a miter: the locked circuit, one vector of key
/// variables per copy, and the one encoder every copy and residue goes
/// through.
pub(crate) struct KeyCopies {
    enc: StrashEncoder,
    locked: Aig,
    key_start: usize,
    pub(crate) keys: Vec<Vec<SatVar>>,
}

impl KeyCopies {
    /// Allocates `copies` vectors of `key_len` key variables, then the
    /// encoder's constant.
    pub(crate) fn new(
        solver: &mut PortfolioSolver,
        locked: &Aig,
        key_start: usize,
        key_len: usize,
        copies: usize,
    ) -> Self {
        let keys = (0..copies)
            .map(|_| (0..key_len).map(|_| solver.new_var()).collect())
            .collect();
        KeyCopies {
            enc: StrashEncoder::new(solver),
            locked: locked.clone(),
            key_start,
            keys,
        }
    }

    /// Encodes copy `copy` with its data inputs bound to `x` and returns
    /// its output literals.
    fn encode_copy(
        &mut self,
        solver: &mut PortfolioSolver,
        x: &[SatLit],
        copy: usize,
    ) -> Vec<SatLit> {
        let key = &self.keys[copy];
        let mut inputs = Vec::with_capacity(x.len() + key.len());
        inputs.extend_from_slice(&x[..self.key_start]);
        inputs.extend(key.iter().map(|&v| SatLit::positive(v)));
        inputs.extend_from_slice(&x[self.key_start..]);
        self.enc.encode(solver, &self.locked, &inputs)
    }

    /// Encodes every copy with its data inputs bound to `x`.
    pub(crate) fn encode(
        &mut self,
        solver: &mut PortfolioSolver,
        x: &[SatLit],
    ) -> Vec<Vec<SatLit>> {
        (0..self.keys.len())
            .map(|copy| self.encode_copy(solver, x, copy))
            .collect()
    }

    /// The constant literals of a data pattern.
    pub(crate) fn constants(&self, data: &[bool]) -> Vec<SatLit> {
        data.iter().map(|&b| self.enc.constant(b)).collect()
    }

    /// Constrains every copy to answer `outputs` on the data pattern
    /// `inputs`: each copy adds only its key-dependent residue.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` have the wrong arity.
    pub(crate) fn constrain(
        &mut self,
        solver: &mut PortfolioSolver,
        inputs: &[bool],
        outputs: &[bool],
    ) {
        assert_eq!(
            inputs.len() + self.keys[0].len(),
            self.locked.num_inputs(),
            "input arity mismatch"
        );
        assert_eq!(
            outputs.len(),
            self.locked.num_outputs(),
            "output arity mismatch"
        );
        let x = self.constants(inputs);
        for copy in 0..self.keys.len() {
            for (lit, &want) in self.encode_copy(solver, &x, copy).into_iter().zip(outputs) {
                solver.add_clause(&[if want { lit } else { !lit }]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_aig::{Lit, NodeKind};

    /// Locks `aig`-style: y = (a ∧ b) ⊕ k₀, z = (a ∨ b) ⊕ ¬k₁ (an XNOR key
    /// gate). Correct key: k₀ = 0, k₁ = 1.
    fn two_bit_locked() -> (Aig, Aig) {
        let mut plain = Aig::new();
        let a = plain.add_input();
        let b = plain.add_input();
        let y = plain.and(a, b);
        let z = plain.or(a, b);
        plain.add_output(y);
        plain.add_output(z);

        let mut locked = Aig::new();
        let a = locked.add_input();
        let b = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let k1 = locked.add_named_input("keyinput1");
        let y = locked.and(a, b);
        let y = locked.xor(y, k0);
        let z = locked.or(a, b);
        let z = locked.xnor(z, k1);
        locked.add_output(y);
        locked.add_output(z);
        (plain, locked)
    }

    fn run_dip_loop(plain: &Aig, locked: &Aig, key_start: usize, key_len: usize) -> Vec<bool> {
        let mut miter = KeyMiter::new(locked, key_start, key_len);
        let mut iterations = 0;
        loop {
            match miter.find_dip(None) {
                DipSearch::Found(x) => {
                    let y = plain.eval(&x);
                    miter.constrain_io(&x, &y);
                }
                DipSearch::Settled => break,
                DipSearch::OutOfBudget => unreachable!("no budget was set"),
            }
            iterations += 1;
            assert!(iterations <= 64, "DIP loop diverged");
        }
        miter.settle_key().expect("oracle-consistent constraints")
    }

    fn unlock(locked: &Aig, key_start: usize, key: &[bool]) -> Aig {
        // Local key specialisation (the locking crate is not a dependency).
        let mut new = Aig::new();
        let mut map: Vec<Lit> = vec![Lit::FALSE; locked.num_nodes()];
        for i in 0..locked.num_inputs() {
            let var = locked.inputs()[i];
            map[var as usize] = if (key_start..key_start + key.len()).contains(&i) {
                if key[i - key_start] {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            } else {
                new.add_input()
            };
        }
        for v in locked.iter_vars() {
            if let NodeKind::And(a, b) = locked.node(v) {
                let fa = map[a.var() as usize].xor_complement(a.is_complement());
                let fb = map[b.var() as usize].xor_complement(b.is_complement());
                map[v as usize] = new.and(fa, fb);
            }
        }
        for out in locked.outputs() {
            let lit = map[out.var() as usize].xor_complement(out.is_complement());
            new.add_output(lit);
        }
        new
    }

    #[test]
    fn dip_loop_recovers_the_exact_key() {
        let (plain, locked) = two_bit_locked();
        let key = run_dip_loop(&plain, &locked, 2, 2);
        assert_eq!(key, vec![false, true]);
    }

    #[test]
    fn recovered_key_is_functionally_correct() {
        let (plain, locked) = two_bit_locked();
        let key = run_dip_loop(&plain, &locked, 2, 2);
        let restored = unlock(&locked, 2, &key);
        assert_eq!(
            crate::equiv::check_equivalence(&plain, &restored),
            crate::equiv::Equivalence::Equivalent
        );
    }

    #[test]
    fn fraig_prepass_recovers_the_same_key() {
        // Pad the locked circuit with redundant structure the sweep can
        // merge; the pre-passed miter must still recover the exact key.
        let (plain, mut locked) = two_bit_locked();
        let a = Lit::positive(locked.inputs()[0]);
        let b = Lit::positive(locked.inputs()[1]);
        let ab = locked.and(a, b);
        let u = locked.or(b, ab); // ≡ b (absorption)
        let redundant = locked.and(a, u); // ≡ a ∧ b, duplicated cone
        let y = locked.outputs()[0];
        let t = locked.and(y, redundant);
        let s = locked.and(y, !redundant);
        let y2 = locked.or(s, t); // (y ∧ r) ∨ (y ∧ ¬r) ≡ y
        locked.set_output(0, y2);

        let mut miter = KeyMiter::with_fraig_prepass(&locked, 2, 2);
        let mut iterations = 0;
        loop {
            match miter.find_dip(None) {
                DipSearch::Found(x) => {
                    let y = plain.eval(&x);
                    miter.constrain_io(&x, &y);
                }
                DipSearch::Settled => break,
                DipSearch::OutOfBudget => unreachable!("no budget was set"),
            }
            iterations += 1;
            assert!(iterations <= 64, "DIP loop diverged");
        }
        assert_eq!(miter.settle_key(), Some(vec![false, true]));
    }

    #[test]
    fn settled_without_constraints_when_keys_are_equivalent() {
        // f = a ∧ (k ∨ ¬k) = a: both key values are correct, so no DIP
        // exists at all and any settled key unlocks.
        let mut locked = Aig::new();
        let a = locked.add_input();
        let k = locked.add_named_input("keyinput0");
        let t = locked.or(k, !k);
        let f = locked.and(a, t);
        locked.add_output(f);
        let mut miter = KeyMiter::new(&locked, 1, 1);
        assert_eq!(miter.find_dip(None), DipSearch::Settled);
        assert!(miter.settle_key().is_some());
    }

    #[test]
    fn budgeted_search_reports_exhaustion_without_corruption() {
        let (plain, locked) = two_bit_locked();
        let mut miter = KeyMiter::new(&locked, 2, 2);
        // A zero-conflict budget can only succeed if the first query needs
        // no conflicts at all; accept either outcome but require the miter
        // to stay usable and eventually converge.
        let mut budget_hits = 0;
        let mut iterations = 0;
        loop {
            match miter.find_dip(Some(1)) {
                DipSearch::Found(x) => miter.constrain_io(&x, &plain.eval(&x)),
                DipSearch::Settled => break,
                DipSearch::OutOfBudget => {
                    budget_hits += 1;
                    match miter.find_dip(None) {
                        DipSearch::Found(x) => miter.constrain_io(&x, &plain.eval(&x)),
                        DipSearch::Settled => break,
                        DipSearch::OutOfBudget => unreachable!("unlimited retry"),
                    }
                }
            }
            iterations += 1;
            assert!(iterations <= 64, "DIP loop diverged");
        }
        let key = miter.settle_key().expect("consistent");
        assert_eq!(key, vec![false, true]);
        // budget_hits is instance-dependent; the point is the loop finished.
        let _ = budget_hits;
    }

    #[test]
    fn inconsistent_oracle_is_detected() {
        let (_plain, locked) = two_bit_locked();
        let mut miter = KeyMiter::new(&locked, 2, 2);
        // Claim contradictory outputs for the same input pattern.
        miter.constrain_io(&[true, true], &[true, true]);
        miter.constrain_io(&[true, true], &[false, false]);
        assert_eq!(miter.settle_key(), None);
    }

    /// Data a, b, c and key k₀, k₁ (inputs 3, 4): the outputs are
    /// `(a ∧ b ∧ c) ⊕ k₀`, `(a ⊕ k₁) ∧ k₀` and the key-free `a ∧ b`.
    /// Returns the lock and its number of key-free ANDs.
    fn shared_logic_lock() -> (Aig, usize) {
        let mut locked = Aig::new();
        let a = locked.add_input();
        let b = locked.add_input();
        let c = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let k1 = locked.add_named_input("keyinput1");
        let ab = locked.and(a, b);
        let abc = locked.and(ab, c);
        let y = locked.xor(abc, k0);
        let ak = locked.xor(a, k1);
        let z = locked.and(ak, k0);
        locked.add_output(y);
        locked.add_output(z);
        locked.add_output(ab);
        (locked, 2)
    }

    #[test]
    fn key_free_ands_are_encoded_once() {
        let (locked, key_free) = shared_logic_lock();
        let ands = locked.num_ands();
        assert_eq!(ands, 9, "2 key-free ANDs, two 3-AND XORs and one AND");
        let miter = KeyMiter::new(&locked, 3, 2);
        // x, both key copies and the constant; copy A in full, copy B only
        // its key-dependent ANDs; the guard; one XOR per key-dependent
        // output (the key-free output is the same literal in both copies).
        let expected = 3 + 2 * 2 + 1 + ands + (ands - key_free) + 1 + 2;
        assert_eq!(miter.solver_size().0, expected);
    }

    #[test]
    fn constraining_the_same_dip_twice_allocates_nothing() {
        let (locked, _) = shared_logic_lock();
        let mut miter = KeyMiter::new(&locked, 3, 2);
        let (x, y) = ([true, true, false], [false, false, true]);
        let before = miter.solver_size().0;
        miter.constrain_io(&x, &y);
        let once = miter.solver_size().0;
        // a = b = 1, c = 0: y ↦ k₀ and a ∧ b ↦ 1 fold away; z ↦ ¬k₁ ∧ k₀
        // is one new AND per key copy.
        assert_eq!(once, before + 2);
        miter.constrain_io(&x, &y);
        assert_eq!(miter.solver_size().0, once);
        assert_eq!(miter.num_constraints(), 2);
    }

    #[test]
    fn restriction_folds_data_constants() {
        let (_plain, locked) = two_bit_locked();
        let mut miter = KeyMiter::new(&locked, 2, 2);
        let (vars, _) = miter.solver_size();
        // a=1, b=0: y = 0 ⊕ k₀ = k₀; z = 1 ⊕ ¬k₁ = k₁. Both residues fold
        // to bare key literals, so the constraint allocates no variable.
        miter.constrain_io(&[true, false], &[true, false]);
        assert_eq!(miter.solver_size().0, vars);
        assert_eq!(miter.settle_key(), Some(vec![true, false]));
    }
}
