//! Irredundant sum-of-products extraction (Minato–Morreale ISOP) and
//! SOP-based AIG re-synthesis.
//!
//! Given a truth table, [`isop`] computes an irredundant cube cover, and
//! [`build_sop`] / [`build_from_tt`] turn covers back into AIG structure.
//! [`Resynth`] is the same engine with a memo, so a pass derives each
//! distinct function's candidate structures once; its documentation gives
//! the memo and probe order. This is the re-synthesis engine behind the
//! `rewrite` and `refactor` passes. Tables have at most 8 variables and
//! are computed on the stack ([`Tt8`]).

use crate::aig::{Aig, Lit};
use crate::hash::FastBuild;
use crate::truth::{Tt, Tt8};
use std::collections::HashMap;

/// A product term over the variables of a truth table.
///
/// Bit `i` of `pos` means variable `i` appears positively; bit `i` of `neg`
/// means it appears negated. The two masks are disjoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cube {
    /// Positive-literal mask.
    pub pos: u32,
    /// Negative-literal mask.
    pub neg: u32,
}

impl Cube {
    /// The universal cube (no literals).
    pub const UNIVERSE: Cube = Cube { pos: 0, neg: 0 };

    /// Number of literals in the cube.
    pub fn num_literals(self) -> u32 {
        self.pos.count_ones() + self.neg.count_ones()
    }

    /// Evaluates the cube on an input assignment given as a bit vector.
    pub fn eval(self, assignment: u32) -> bool {
        (assignment & self.pos) == self.pos && (assignment & self.neg) == 0
    }

    /// The cube's characteristic function as a truth table.
    pub fn to_tt(self, nvars: usize) -> Tt {
        let mut t = Tt::one(nvars);
        for v in 0..nvars {
            if self.pos >> v & 1 != 0 {
                t = t.and(&Tt::var(v, nvars));
            } else if self.neg >> v & 1 != 0 {
                t = t.and(&Tt::var(v, nvars).not());
            }
        }
        t
    }
}

/// Computes an irredundant sum-of-products cover of `f` (no don't-cares).
///
/// Returns the list of cubes; ORing [`Cube::to_tt`] over them reproduces `f`
/// exactly (checked in tests and by `debug_assert!`).
///
/// # Panics
///
/// Panics if `f` has more than 8 variables.
pub fn isop(f: &Tt) -> Vec<Cube> {
    isop8(Tt8::from_tt(f), f.nvars())
}

fn isop8(f: Tt8, nvars: usize) -> Vec<Cube> {
    let mut cubes = Vec::new();
    let cover = isop_rec(f, f, nvars, &mut cubes);
    debug_assert_eq!(cover, f, "ISOP cover must equal the function");
    cubes
}

/// Minato–Morreale recursion: appends to `cubes` a cover F with
/// `lower ⊆ F ⊆ upper` and returns F.
fn isop_rec(lower: Tt8, upper: Tt8, top: usize, cubes: &mut Vec<Cube>) -> Tt8 {
    if lower.is_zero() {
        return Tt8::ZERO;
    }
    if upper.is_one() {
        cubes.push(Cube::UNIVERSE);
        return Tt8::ONE;
    }
    // Find the topmost variable either bound depends on. If there is none,
    // lower is nonzero and constant over the remaining variables, so the
    // universe cube is the cover.
    let Some(var) = (0..top)
        .rev()
        .find(|&v| lower.depends_on(v) || upper.depends_on(v))
    else {
        cubes.push(Cube::UNIVERSE);
        return Tt8::ONE;
    };

    let l0 = lower.cofactor0(var);
    let l1 = lower.cofactor1(var);
    let u0 = upper.cofactor0(var);
    let u1 = upper.cofactor1(var);

    // Minterms that can only be covered in the var=0 branch.
    let start = cubes.len();
    let f0 = isop_rec(l0.and(u1.not()), u0, var, cubes);
    for c in &mut cubes[start..] {
        c.neg |= 1 << var;
    }
    // Minterms that can only be covered in the var=1 branch.
    let start = cubes.len();
    let f1 = isop_rec(l1.and(u0.not()), u1, var, cubes);
    for c in &mut cubes[start..] {
        c.pos |= 1 << var;
    }
    // Remaining minterms, coverable without the variable.
    let lnew = l0.and(f0.not()).or(l1.and(f1.not()));
    let f2 = isop_rec(lnew, u0.and(u1), var, cubes);

    let tv = Tt8::var(var);
    f2.or(tv.not().and(f0)).or(tv.and(f1))
}

/// Builds an AIG structure computing the SOP `cubes` over the given leaf
/// literals and returns the root literal.
///
/// Construction goes through the structural hash of `dest`, so shared logic
/// is reused for free.
pub fn build_sop(dest: &mut Aig, cubes: &[Cube], leaves: &[Lit]) -> Lit {
    let mut terms = Vec::with_capacity(cubes.len());
    for cube in cubes {
        let mut lits = Vec::with_capacity(cube.num_literals() as usize);
        for (v, &leaf) in leaves.iter().enumerate() {
            if cube.pos >> v & 1 != 0 {
                lits.push(leaf);
            } else if cube.neg >> v & 1 != 0 {
                lits.push(!leaf);
            }
        }
        terms.push(dest.and_many(&lits));
    }
    dest.or_many(&terms)
}

/// Builds an AIG computing the truth table `tt` over `leaves`, choosing the
/// cheaper of: ISOP of `tt`, ISOP of `!tt` (complemented), or top-variable
/// Shannon decomposition, measured in AND nodes actually added to `dest`.
///
/// Speculative candidates are constructed and rolled back via
/// [`Aig::checkpoint`]/[`Aig::rollback`], so only the winner remains. This
/// is a one-shot [`Resynth`]; passes that resynthesise many functions keep
/// one context so each function's candidates are derived once.
///
/// # Panics
///
/// Panics if `leaves.len() != tt.nvars()` or `tt` has more than 8
/// variables.
pub fn build_from_tt(dest: &mut Aig, tt: &Tt, leaves: &[Lit]) -> Lit {
    assert_eq!(leaves.len(), tt.nvars(), "leaf count must match variables");
    Resynth::default().build(dest, Tt8::from_tt(tt), leaves)
}

/// Covers wider than this are never built as SOPs (parity-like functions
/// would explode); a committed Shannon decomposition is used instead.
const MAX_CUBES: usize = 96;

/// Shannon decomposition is probed for functions of at most this many
/// variables, which bounds the probing recursion.
const MAX_SPLIT_VARS: usize = 5;

/// Index of a [`Plan`] in a [`Resynth`] memo.
type PlanId = u32;

/// The candidate structures of one function, derived once per
/// [`Resynth`] and replayed against the live graph on every build.
enum Plan {
    /// A constant: no node is built.
    Const(Lit),
    /// Leaf `var`, complemented or not: no node is built.
    Leaf { var: usize, complement: bool },
    /// The covers are too wide to build: committed Shannon decomposition.
    Split(Shannon),
    /// Probe the ISOP of the function, the complemented ISOP of its
    /// complement and (for small functions) a Shannon decomposition; keep
    /// the one adding the fewest nodes, ties in that order.
    Choose {
        pos: Vec<Cube>,
        neg: Vec<Cube>,
        split: Option<Shannon>,
    },
}

/// `mux(x_var, f|x=1, f|x=0)` on the most binate variable, with the
/// cofactors' plans.
#[derive(Clone, Copy)]
struct Shannon {
    var: usize,
    c0: PlanId,
    c1: PlanId,
}

/// A resynthesis context: the memo that turns a truth table into its
/// candidate structures ([`build_from_tt`]'s algorithm, computed once per
/// distinct function and variable count).
///
/// # Memo and probe order
///
/// A function's *plan* (its two ISOP covers, its Shannon pivot and the
/// plans of both cofactors) depends only on the truth table, so it is
/// derived once and kept. Which candidate wins depends on the live graph
/// (the structural hash shares nodes that already exist), so every build
/// still costs the candidates against `dest`, in this order:
///
/// 1. the ISOP of `f` is built and its added nodes counted, then rolled
///    back — unless it added none, in which case it wins outright;
/// 2. the complemented ISOP of `!f` likewise; it is kept as built if it
///    is cheaper than the first and free, or no Shannon candidate follows;
/// 3. the Shannon decomposition `mux(x, f|x=1, f|x=0)` is built with the
///    cofactors resynthesised recursively (cofactor 0 first). It only
///    matters if it is strictly cheaper than both covers, so its build is
///    abandoned (rolled back) as soon as it reaches that cost; if it
///    completes, it is kept as built rather than rebuilt;
/// 4. otherwise the cheaper cover is rebuilt, the ISOP of `f` on ties.
///
/// A build can also carry a node budget: a result that would add more
/// nodes than the caller can accept is abandoned the same way. Because the
/// construction order never changes and rollback restores the exact
/// graph, every result is node-for-node the one a fresh, unbounded build
/// from the same state produces.
#[derive(Default)]
pub struct Resynth {
    index: HashMap<(usize, Tt8), PlanId, FastBuild>,
    plans: Vec<Plan>,
}

impl Resynth {
    /// Builds `tt` (a function of the first `leaves.len()` variables) over
    /// `leaves` into `dest`; see [`build_from_tt`].
    pub fn build(&mut self, dest: &mut Aig, tt: Tt8, leaves: &[Lit]) -> Lit {
        self.build_within(dest, tt, leaves, usize::MAX)
            .expect("an unbounded build always completes")
    }

    /// Like [`Resynth::build`], but only if the result adds at most
    /// `budget` nodes to `dest`; otherwise `dest` is left unchanged and
    /// `None` is returned. When it returns a literal, that literal and
    /// every node added are exactly what [`Resynth::build`] would give.
    pub fn build_within(
        &mut self,
        dest: &mut Aig,
        tt: Tt8,
        leaves: &[Lit],
        budget: usize,
    ) -> Option<Lit> {
        let id = self.plan(tt, leaves.len());
        self.replay(dest, id, leaves, budget)
    }

    fn plan(&mut self, tt: Tt8, nvars: usize) -> PlanId {
        if let Some(&id) = self.index.get(&(nvars, tt)) {
            return id;
        }
        let plan = if tt.is_zero() || tt.is_one() {
            Plan::Const(Lit::FALSE.xor_complement(tt.is_one()))
        } else if let Some(var) = (0..nvars).find(|&v| tt == Tt8::var(v) || tt == Tt8::var(v).not())
        {
            Plan::Leaf {
                var,
                complement: tt != Tt8::var(var),
            }
        } else {
            let pos = isop8(tt, nvars);
            let neg = isop8(tt.not(), nvars);
            let wide = pos.len().min(neg.len()) > MAX_CUBES;
            let pivot = if wide || nvars <= MAX_SPLIT_VARS {
                most_binate_var(tt, nvars)
            } else {
                None
            };
            let split = pivot.map(|var| Shannon {
                var,
                c0: self.plan(tt.cofactor0(var), nvars),
                c1: self.plan(tt.cofactor1(var), nvars),
            });
            if wide {
                Plan::Split(split.expect("non-degenerate function has support"))
            } else {
                Plan::Choose { pos, neg, split }
            }
        };
        let id = self.plans.len() as PlanId;
        self.plans.push(plan);
        self.index.insert((nvars, tt), id);
        id
    }

    fn replay(&self, dest: &mut Aig, id: PlanId, leaves: &[Lit], budget: usize) -> Option<Lit> {
        match &self.plans[id as usize] {
            Plan::Const(lit) => Some(*lit),
            Plan::Leaf { var, complement } => Some(leaves[*var].xor_complement(*complement)),
            Plan::Split(split) => self.split(dest, *split, leaves, budget),
            Plan::Choose { pos, neg, split } => {
                let cp = dest.checkpoint();
                let lit = build_sop(dest, pos, leaves);
                let cost_pos = dest.checkpoint() - cp;
                if cost_pos == 0 {
                    return Some(lit);
                }
                dest.rollback(cp);
                let lit = !build_sop(dest, neg, leaves);
                let cost_neg = dest.checkpoint() - cp;
                // The complement cover is kept as built if it beats the
                // first one and no Shannon candidate can beat it.
                let neg_wins = cost_neg < cost_pos && (cost_neg == 0 || split.is_none());
                if neg_wins && cost_neg <= budget {
                    return Some(lit);
                }
                dest.rollback(cp);
                let best = cost_pos.min(cost_neg);
                if let Some(split) = *split {
                    if let Some(lit) = self.split(dest, split, leaves, (best - 1).min(budget)) {
                        return Some(lit);
                    }
                }
                if best > budget {
                    None
                } else if cost_pos <= cost_neg {
                    Some(build_sop(dest, pos, leaves))
                } else {
                    Some(!build_sop(dest, neg, leaves))
                }
            }
        }
    }

    /// Builds `mux(leaves[var], c1, c0)` (cofactor 0 first) if it adds at
    /// most `budget` nodes; otherwise restores `dest` and returns `None`.
    fn split(
        &self,
        dest: &mut Aig,
        Shannon { var, c0, c1 }: Shannon,
        leaves: &[Lit],
        budget: usize,
    ) -> Option<Lit> {
        let cp = dest.checkpoint();
        let l0 = self.replay(dest, c0, leaves, budget)?;
        let used = dest.checkpoint() - cp;
        let Some(l1) = self.replay(dest, c1, leaves, budget - used) else {
            dest.rollback(cp);
            return None;
        };
        let lit = dest.mux(leaves[var], l1, l0);
        if dest.checkpoint() - cp > budget {
            dest.rollback(cp);
            return None;
        }
        Some(lit)
    }
}

/// Picks the variable on which the function is "most binate" (both cofactors
/// differ most from each other), a good Shannon pivot.
fn most_binate_var(tt: Tt8, nvars: usize) -> Option<usize> {
    let mut best = None;
    let mut best_score = 0u32;
    for v in 0..nvars {
        if !tt.depends_on(v) {
            continue;
        }
        let diff = tt.cofactor0(v).xor(tt.cofactor1(v)).count_ones();
        if best.is_none() || diff > best_score {
            best = Some(v);
            best_score = diff;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_tt(cubes: &[Cube], nvars: usize) -> Tt {
        cubes
            .iter()
            .fold(Tt::zero(nvars), |acc, c| acc.or(&c.to_tt(nvars)))
    }

    #[test]
    fn isop_covers_exactly() {
        // Exhaustive over all 3-variable functions.
        for bits in 0..256u64 {
            let f = Tt::from_u64(3, bits);
            let cubes = isop(&f);
            assert_eq!(cover_tt(&cubes, 3), f, "f={bits:02x}");
        }
    }

    #[test]
    fn isop_of_xor_has_expected_cubes() {
        let a = Tt::var(0, 2);
        let b = Tt::var(1, 2);
        let f = a.xor(&b);
        let cubes = isop(&f);
        assert_eq!(cubes.len(), 2);
        assert!(cubes.iter().all(|c| c.num_literals() == 2));
    }

    #[test]
    fn cube_eval() {
        let c = Cube {
            pos: 0b01,
            neg: 0b10,
        };
        assert!(c.eval(0b01));
        assert!(!c.eval(0b11));
        assert!(!c.eval(0b00));
    }

    #[test]
    fn build_from_tt_is_functionally_correct() {
        // All 4-variable functions would be 65536 cases; sample a spread.
        let mut seed = 0x9E37_79B9_u64;
        for _ in 0..200 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = seed >> 48;
            let f = Tt::from_u64(4, bits);
            let mut aig = Aig::new();
            let leaves: Vec<Lit> = (0..4).map(|_| aig.add_input()).collect();
            let root = build_from_tt(&mut aig, &f, &leaves);
            aig.add_output(root);
            for idx in 0..16usize {
                let ins: Vec<bool> = (0..4).map(|i| idx >> i & 1 != 0).collect();
                assert_eq!(
                    aig.eval(&ins)[0],
                    f.get_bit(idx),
                    "bits={bits:04x} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn build_from_tt_handles_degenerate_cases() {
        let mut aig = Aig::new();
        let leaves: Vec<Lit> = (0..3).map(|_| aig.add_input()).collect();
        assert_eq!(build_from_tt(&mut aig, &Tt::zero(3), &leaves), Lit::FALSE);
        assert_eq!(build_from_tt(&mut aig, &Tt::one(3), &leaves), Lit::TRUE);
        assert_eq!(build_from_tt(&mut aig, &Tt::var(1, 3), &leaves), leaves[1]);
        assert_eq!(
            build_from_tt(&mut aig, &Tt::var(2, 3).not(), &leaves),
            !leaves[2]
        );
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn build_from_tt_large_function() {
        // 8-variable parity: stresses the word-level truth tables.
        let mut f = Tt::zero(8);
        for v in 0..8 {
            f = f.xor(&Tt::var(v, 8));
        }
        let mut aig = Aig::new();
        let leaves: Vec<Lit> = (0..8).map(|_| aig.add_input()).collect();
        let root = build_from_tt(&mut aig, &f, &leaves);
        aig.add_output(root);
        for idx in [0usize, 1, 3, 7, 85, 170, 255, 128, 200] {
            let ins: Vec<bool> = (0..8).map(|i| idx >> i & 1 != 0).collect();
            let expect = (idx.count_ones() % 2) == 1;
            assert_eq!(aig.eval(&ins)[0], expect, "idx={idx}");
        }
    }
}
