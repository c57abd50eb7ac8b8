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
//! owns. The copies therefore share one variable for every gate no key
//! input reaches, and the solver never has to learn that they agree there.
//! An I/O constraint
//! encodes the locked circuit once more per key copy, with `x` bound to
//! constant literals: the constants fold away, what remains is the
//! key-dependent residue, and any residue gate an earlier DIP (or another
//! copy) already produced is reused rather than re-encoded.
//!
//! # 2-DIP miter
//!
//! A classical DIP eliminates *at least one* wrong key per oracle query —
//! which is exactly the guarantee point-function defences (SARLock,
//! Anti-SAT) weaponise: they arrange for every input to incriminate at
//! most one key, so the DIP loop degenerates into brute-force key
//! enumeration.
//!
//! Double DIP [Shen & Zhou, GLSVLSI'17] asks for a *2-DIP* instead: an
//! input pattern whose oracle answer is guaranteed to eliminate at least
//! **two** wrong keys. [`KeyMiter::two_dip`] carries four key copies over
//! one shared input vector `X` — two agreeing pairs that disagree with
//! each other:
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
//! inputs. Without it, the solver can pair a point-residue key with an
//! unrelated wrong base key that merely coincides at the chosen input, and
//! the loop degenerates into flip-cylinder enumeration — exactly the brute
//! force the defence wants. Probes force pair members to be
//! near-equivalent keys (they may differ only where the probes don't
//! look, i.e. on measure-`2^-k` flip cylinders), so each accepted query
//! eliminates an entire wrong *base* key class. Probes are structural:
//! they never query the oracle. Like the I/O constraints, each probe binds
//! `x` to constant literals, so only its key-dependent residue is encoded.

use almost_aig::cnf::{encode_xor, StrashEncoder};
use almost_aig::Aig;
use almost_cdcl::{PortfolioSolver, PortfolioStats, SatLit, SatResult, SatVar};

/// Outcome of one DIP (or 2-DIP) query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DipSearch {
    /// A distinguishing input pattern over the functional inputs (in input
    /// order, key positions excluded).
    Found(Vec<bool>),
    /// No DIP exists: all keys consistent with the added I/O constraints
    /// are functionally equivalent — the attack has converged. For a
    /// 2-DIP miter, no 2-DIP exists: every surviving wrong key corrupts
    /// only inputs where it is the *only* dissenter — the point-function
    /// residue. The settled key is then correct up to such one-key flips
    /// (for SARLock/Anti-SAT overlays: the base key is recovered exactly).
    Settled,
    /// The conflict budget ran out before the query concluded.
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
    /// Key copies: `[K1, K2]`, or `[K1, K2, K3, K4]` with pairs (K1, K2)
    /// and (K3, K4) in a 2-DIP miter.
    copies: KeyCopies,
    x_vars: Vec<SatVar>,
    /// Guard literal for the DIP structure: assumed positive to search
    /// DIPs, negative to settle a key.
    act: SatLit,
    num_constraints: usize,
    /// Engine label of the miter's telemetry events.
    engine: &'static str,
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
        let (mut miter, outs) = Self::build(locked, key_start, key_len, 2, "key_miter");
        // act → some output pair differs.
        differ_under(&mut miter.solver, miter.act, &outs[0], &outs[1]);
        miter
    }

    /// Builds the four-copy 2-DIP miter of the Double-DIP attack (see the
    /// [module documentation](self#2-dip-miter)). On every probe input the
    /// two keys of each pair must produce identical outputs. Probes are
    /// encoded as constant-folded key residues (cheap) and consume no
    /// oracle queries.
    ///
    /// # Panics
    ///
    /// Panics if the key range exceeds the circuit's inputs, the circuit
    /// has no outputs, or a probe has the wrong arity.
    ///
    /// # Example
    ///
    /// ```
    /// use almost_aig::Aig;
    /// use almost_sat::miter::{DipSearch, KeyMiter};
    ///
    /// // f = a ⊕ k: both wrong-key classes err on every input, so a 2-DIP
    /// // never exists (a pair would need two distinct agreeing keys).
    /// let mut locked = Aig::new();
    /// let a = locked.add_input();
    /// let k = locked.add_named_input("keyinput0");
    /// let f = locked.xor(a, k);
    /// locked.add_output(f);
    /// let mut miter = KeyMiter::two_dip(&locked, 1, 1, &[]);
    /// assert_eq!(miter.find_dip(None), DipSearch::Settled);
    /// ```
    pub fn two_dip(locked: &Aig, key_start: usize, key_len: usize, probes: &[Vec<bool>]) -> Self {
        let (mut miter, outs) = Self::build(locked, key_start, key_len, 4, "double_dip_miter");
        let KeyMiter {
            solver,
            copies,
            x_vars,
            act,
            ..
        } = &mut miter;
        let act = *act;
        // act → the copies within each pair agree on every output.
        for (p, q) in [(0, 1), (2, 3)] {
            agree_under(solver, act, &outs[p], &outs[q]);
        }
        // act → the pairs disagree on at least one output.
        differ_under(solver, act, &outs[0], &outs[2]);
        // act → the keys within each pair are bitwise distinct (otherwise
        // a pair could be one key counted twice and the 2-elimination
        // guarantee collapses to the classical single-DIP bound).
        let keys: Vec<Vec<SatLit>> = copies
            .keys
            .iter()
            .map(|key| key.iter().map(|&v| SatLit::positive(v)).collect())
            .collect();
        for (p, q) in [(0, 1), (2, 3)] {
            differ_under(solver, act, &keys[p], &keys[q]);
        }
        // act → pair members agree on every probe input (constant-folded
        // key residues; no oracle involvement).
        for probe in probes {
            assert_eq!(probe.len(), x_vars.len(), "probe arity mismatch");
            let x = copies.constants(probe);
            let residues = copies.encode(solver, &x);
            for (p, q) in [(0, 1), (2, 3)] {
                agree_under(solver, act, &residues[p], &residues[q]);
            }
        }
        miter
    }

    /// Creates the solver, the data variables and `copies` key copies,
    /// encodes every copy over the data variables and allocates the
    /// guard. Returns the miter and each copy's output literals.
    fn build(
        locked: &Aig,
        key_start: usize,
        key_len: usize,
        copies: usize,
        engine: &'static str,
    ) -> (Self, Vec<Vec<SatLit>>) {
        assert!(
            key_start
                .checked_add(key_len)
                .is_some_and(|end| end <= locked.num_inputs()),
            "key range out of bounds"
        );
        assert!(locked.num_outputs() > 0, "miter needs outputs to compare");
        let mut solver = PortfolioSolver::new(engine);
        let num_data = locked.num_inputs() - key_len;
        let x_vars: Vec<SatVar> = (0..num_data).map(|_| solver.new_var()).collect();
        let mut copies = KeyCopies::new(&mut solver, locked, key_start, key_len, copies);
        let x_lits: Vec<SatLit> = x_vars.iter().map(|&v| SatLit::positive(v)).collect();
        let outs = copies.encode(&mut solver, &x_lits);
        let act = SatLit::positive(solver.new_var());
        let miter = KeyMiter {
            solver,
            copies,
            x_vars,
            act,
            num_constraints: 0,
            engine,
        };
        (miter, outs)
    }

    /// Searches for a distinguishing input pattern (a 2-DIP in a
    /// [`KeyMiter::two_dip`] miter).
    ///
    /// With `max_conflicts = None` the query runs to completion; with a
    /// budget it may return [`DipSearch::OutOfBudget`].
    pub fn find_dip(&mut self, max_conflicts: Option<u64>) -> DipSearch {
        match self.solver.try_solve(&[self.act], max_conflicts) {
            Err(interrupt) => {
                let budget = max_conflicts.unwrap_or(0);
                almost_telemetry::trace(|| almost_telemetry::EventKind::BudgetExhausted {
                    engine: self.engine,
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
    /// every key copy.
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
    /// current candidate in approximate mode). After a 2-DIP miter
    /// settles, the key is correct on every input where more than one key
    /// class could err — the base scheme of a stacked point-function lock
    /// is recovered exactly.
    ///
    /// Returns `None` only if the constraints are contradictory, which
    /// indicates an inconsistent oracle.
    pub fn settle_key(&mut self) -> Option<Vec<bool>> {
        match self.solver.solve(&[!self.act]) {
            SatResult::Unsat => None,
            SatResult::Sat => Some(
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
    pub fn solver_stats(&self) -> almost_cdcl::SolverStats {
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
}

impl std::fmt::Debug for KeyMiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (vars, clauses) = self.solver_size();
        write!(
            f,
            "KeyMiter {{ engine: {}, key_len: {}, constraints: {}, vars: {vars}, clauses: {clauses} }}",
            self.engine,
            self.key_len(),
            self.num_constraints
        )
    }
}

/// Adds `act → (some a ≠ b)`, skipping pairs the encoder already mapped to
/// one literal (they cannot differ).
fn differ_under(solver: &mut PortfolioSolver, act: SatLit, a: &[SatLit], b: &[SatLit]) {
    let mut clause: Vec<SatLit> = vec![!act];
    for (&la, &lb) in a.iter().zip(b) {
        if la != lb {
            clause.push(encode_xor(solver, la, lb));
        }
    }
    solver.add_clause(&clause);
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

/// The key copies of a miter: the locked circuit, one vector of key
/// variables per copy, and the one encoder every copy and residue goes
/// through.
struct KeyCopies {
    enc: StrashEncoder,
    locked: Aig,
    key_start: usize,
    keys: Vec<Vec<SatVar>>,
}

impl KeyCopies {
    /// Allocates `copies` vectors of `key_len` key variables, then the
    /// encoder's constant.
    fn new(
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
    fn encode(&mut self, solver: &mut PortfolioSolver, x: &[SatLit]) -> Vec<Vec<SatLit>> {
        (0..self.keys.len())
            .map(|copy| self.encode_copy(solver, x, copy))
            .collect()
    }

    /// The constant literals of a data pattern.
    fn constants(&self, data: &[bool]) -> Vec<SatLit> {
        data.iter().map(|&b| self.enc.constant(b)).collect()
    }

    /// Constrains every copy to answer `outputs` on the data pattern
    /// `inputs`: each copy adds only its key-dependent residue.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` have the wrong arity.
    fn constrain(&mut self, solver: &mut PortfolioSolver, inputs: &[bool], outputs: &[bool]) {
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

    #[test]
    fn two_dip_key_free_ands_are_encoded_once() {
        let (locked, key_free) = shared_logic_lock();
        let ands = locked.num_ands();
        let miter = KeyMiter::two_dip(&locked, 3, 2, &[]);
        // x, four key copies and the constant; copy 1 in full, copies 2-4
        // only their key-dependent ANDs; the guard; one XOR per
        // key-dependent output between the pairs; one XOR per key bit and
        // pair for key distinctness.
        let expected = 3 + 4 * 2 + 1 + ands + 3 * (ands - key_free) + 1 + 2 + 2 * 2;
        assert_eq!(miter.solver_size().0, expected);
    }

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
        let mut miter = KeyMiter::two_dip(&group_locked(), 1, 2, &[]);
        assert_eq!(miter.find_dip(None), DipSearch::Settled);

        // Widen the dissenting class to two keys: f = a ⊕ k₀ makes {1x}
        // a two-key agreeing wrong class. Now a 2-DIP must exist.
        let mut locked = Aig::new();
        let a = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let _k1 = locked.add_named_input("keyinput1");
        let f = locked.xor(a, k0);
        locked.add_output(f);
        let mut miter = KeyMiter::two_dip(&locked, 1, 2, &[]);
        match miter.find_dip(None) {
            DipSearch::Found(x) => {
                // Oracle: correct key has k₀ = 0, so y = a.
                miter.constrain_io(&x, &x);
            }
            other => panic!("a 2-DIP must exist, got {other:?}"),
        }
        assert_eq!(miter.find_dip(None), DipSearch::Settled);
        let key = miter.settle_key().expect("consistent");
        assert!(!key[0], "k₀ = 0 is pinned by the 2-DIP constraint");
    }

    #[test]
    fn settled_key_is_consistent_with_constraints() {
        let locked = group_locked();
        let mut miter = KeyMiter::two_dip(&locked, 1, 2, &[]);
        // Constrain with the correct oracle (f = a) on both input values.
        miter.constrain_io(&[false], &[false]);
        miter.constrain_io(&[true], &[true]);
        let key = miter.settle_key().expect("consistent");
        assert!(!(key[0] && key[1]), "key 11 contradicts the constraints");
        assert_eq!(miter.num_constraints(), 2);
    }

    #[test]
    fn two_dip_inconsistent_oracle_is_detected() {
        let locked = group_locked();
        let mut miter = KeyMiter::two_dip(&locked, 1, 2, &[]);
        miter.constrain_io(&[true], &[true]);
        miter.constrain_io(&[true], &[false]);
        assert_eq!(miter.settle_key(), None);
    }

    #[test]
    fn two_dip_budgeted_search_reports_exhaustion_without_corruption() {
        let mut locked = Aig::new();
        let a = locked.add_input();
        let k0 = locked.add_named_input("keyinput0");
        let _k1 = locked.add_named_input("keyinput1");
        let f = locked.xor(a, k0);
        locked.add_output(f);
        let mut miter = KeyMiter::two_dip(&locked, 1, 2, &[]);
        let mut iterations = 0;
        loop {
            match miter.find_dip(Some(1)) {
                DipSearch::Found(x) => miter.constrain_io(&x, &x),
                DipSearch::Settled => break,
                DipSearch::OutOfBudget => match miter.find_dip(None) {
                    DipSearch::Found(x) => miter.constrain_io(&x, &x),
                    DipSearch::Settled => break,
                    DipSearch::OutOfBudget => unreachable!("unlimited retry"),
                },
            }
            iterations += 1;
            assert!(iterations <= 16, "2-DIP loop diverged");
        }
        assert!(miter.settle_key().is_some());
    }

    #[test]
    #[should_panic(expected = "key range out of bounds")]
    fn key_range_past_usize_max_is_rejected() {
        let (_plain, locked) = two_bit_locked();
        KeyMiter::new(&locked, usize::MAX, 2);
    }
}
