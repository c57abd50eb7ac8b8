//! Irredundant sum-of-products extraction (Minato–Morreale ISOP) and
//! SOP-based AIG re-synthesis.
//!
//! Given a truth table, [`isop`] computes an irredundant cube cover, and
//! [`build_sop`] / [`build_from_tt`] turn covers back into AIG structure.
//! [`Resynth`] is the same engine with a memo of candidate structures
//! (plans); its documentation gives the memo and probe order. This is the
//! re-synthesis engine behind the `rewrite` and `refactor` passes, which
//! share one plan library per thread, so a function planned in one pass
//! call is not planned again in the next (see [`Resynth`] for its scope
//! and why no output depends on it). Tables have at most 8 variables and
//! are computed on the stack ([`Tt8`]); the ISOP recursion drops to a
//! single `u64` word once the variables left are below 6.

use crate::aig::{Aig, Lit};
use crate::hash::FastBuild;
use crate::truth::{word, Tt, Tt8};
use std::cell::Cell;
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
    let cover = Tt8::isop_below(f, f, nvars, &mut cubes);
    debug_assert_eq!(cover, f, "ISOP cover must equal the function");
    cubes
}

/// The table operations the ISOP recursion runs on: the 256-bit [`Tt8`],
/// and one `u64` word once every remaining variable is below 6.
trait IsopTable: Copy + Eq {
    const ZERO: Self;
    const ONE: Self;
    fn var(var: usize) -> Self;
    fn and(self, other: Self) -> Self;
    fn or(self, other: Self) -> Self;
    fn not(self) -> Self;
    fn cofactor0(self, var: usize) -> Self;
    fn cofactor1(self, var: usize) -> Self;
    /// [`isop_rec`] on bounds that depend on no variable at or above
    /// `top`, in whichever representation suits `top`.
    fn isop_below(lower: Self, upper: Self, top: usize, cubes: &mut Vec<Cube>) -> Self;
}

impl IsopTable for Tt8 {
    const ZERO: Tt8 = Tt8::ZERO;
    const ONE: Tt8 = Tt8::ONE;
    fn var(var: usize) -> Tt8 {
        Tt8::var(var)
    }
    fn and(self, other: Tt8) -> Tt8 {
        Tt8::and(self, other)
    }
    fn or(self, other: Tt8) -> Tt8 {
        Tt8::or(self, other)
    }
    fn not(self) -> Tt8 {
        Tt8::not(self)
    }
    fn cofactor0(self, var: usize) -> Tt8 {
        Tt8::cofactor0(self, var)
    }
    fn cofactor1(self, var: usize) -> Tt8 {
        Tt8::cofactor1(self, var)
    }
    /// Below variable 6 both bounds are one word repeated four times, so
    /// the recursion continues on that word.
    fn isop_below(lower: Tt8, upper: Tt8, top: usize, cubes: &mut Vec<Cube>) -> Tt8 {
        if top > 6 {
            return isop_rec(lower, upper, top, cubes);
        }
        let [l, u] = [lower, upper].map(|t| {
            debug_assert!(t.0.iter().all(|&w| w == t.0[0]), "replicated below 6");
            t.0[0]
        });
        Tt8([isop_rec(l, u, top, cubes); 4])
    }
}

impl IsopTable for u64 {
    const ZERO: u64 = 0;
    const ONE: u64 = u64::MAX;
    fn var(var: usize) -> u64 {
        word::var(var)
    }
    fn and(self, other: u64) -> u64 {
        self & other
    }
    fn or(self, other: u64) -> u64 {
        self | other
    }
    fn not(self) -> u64 {
        !self
    }
    fn cofactor0(self, var: usize) -> u64 {
        word::cofactor0(self, var)
    }
    fn cofactor1(self, var: usize) -> u64 {
        word::cofactor1(self, var)
    }
    fn isop_below(lower: u64, upper: u64, top: usize, cubes: &mut Vec<Cube>) -> u64 {
        isop_rec(lower, upper, top, cubes)
    }
}

/// Minato–Morreale recursion: appends to `cubes` a cover F with
/// `lower ⊆ F ⊆ upper` and returns F. Neither bound depends on a
/// variable at or above `top`.
fn isop_rec<T: IsopTable>(lower: T, upper: T, top: usize, cubes: &mut Vec<Cube>) -> T {
    if lower == T::ZERO {
        return T::ZERO;
    }
    if upper == T::ONE {
        cubes.push(Cube::UNIVERSE);
        return T::ONE;
    }
    // Find the topmost variable either bound depends on. If there is none,
    // lower is nonzero and constant over the remaining variables, so the
    // universe cube is the cover.
    let depends = |t: T, v: usize| t.cofactor0(v) != t.cofactor1(v);
    let Some(var) = (0..top)
        .rev()
        .find(|&v| depends(lower, v) || depends(upper, v))
    else {
        cubes.push(Cube::UNIVERSE);
        return T::ONE;
    };

    let l0 = lower.cofactor0(var);
    let l1 = lower.cofactor1(var);
    let u0 = upper.cofactor0(var);
    let u1 = upper.cofactor1(var);

    // Minterms that can only be covered in the var=0 branch.
    let start = cubes.len();
    let f0 = T::isop_below(l0.and(u1.not()), u0, var, cubes);
    for c in &mut cubes[start..] {
        c.neg |= 1 << var;
    }
    // Minterms that can only be covered in the var=1 branch.
    let start = cubes.len();
    let f1 = T::isop_below(l1.and(u0.not()), u1, var, cubes);
    for c in &mut cubes[start..] {
        c.pos |= 1 << var;
    }
    // Remaining minterms, coverable without the variable.
    let lnew = l0.and(f0.not()).or(l1.and(f1.not()));
    let f2 = T::isop_below(lnew, u0.and(u1), var, cubes);

    let tv = T::var(var);
    f2.or(tv.not().and(f0)).or(tv.and(f1))
}

/// Builds an AIG structure computing the SOP `cubes` over the given leaf
/// literals and returns the root literal, if that adds at most `budget`
/// nodes to `dest`.
///
/// Construction goes through the structural hash of `dest`, so shared logic
/// is reused for free. The node count is checked after every cube and
/// after the final OR: as soon as it passes `budget`, the build stops,
/// `dest` is rolled back to its state on entry and `None` is returned. An
/// unbounded build (`budget = usize::MAX`) always completes.
pub fn build_sop(dest: &mut Aig, cubes: &[Cube], leaves: &[Lit], budget: usize) -> Option<Lit> {
    let cp = dest.checkpoint();
    let over = |dest: &mut Aig| {
        let over = dest.checkpoint() - cp > budget;
        if over {
            dest.rollback(cp);
        }
        over
    };
    // The terms sit on the stack unless the cover is wider than the
    // buffer; a cube's literals always fit, its masks having 32 bits.
    let mut stack = [Lit::FALSE; TERMS_ON_STACK];
    let mut heap = Vec::new();
    let terms = if cubes.len() <= TERMS_ON_STACK {
        &mut stack[..cubes.len()]
    } else {
        heap.resize(cubes.len(), Lit::FALSE);
        &mut heap[..]
    };
    let mut lits = [Lit::FALSE; 32];
    for (term, cube) in terms.iter_mut().zip(cubes) {
        let mut len = 0;
        let mut mask = cube.pos | cube.neg;
        while mask != 0 {
            let v = mask.trailing_zeros() as usize;
            lits[len] = leaves[v].xor_complement(cube.pos >> v & 1 == 0);
            len += 1;
            mask &= mask - 1;
        }
        *term = dest.and_many(&lits[..len]);
        if over(dest) {
            return None;
        }
    }
    let lit = dest.or_many(terms);
    (!over(dest)).then_some(lit)
}

/// Covers of at most this many cubes gather their terms on the stack in
/// [`build_sop`].
const TERMS_ON_STACK: usize = 32;

/// Builds an AIG computing the truth table `tt` over `leaves`, choosing the
/// cheaper of: ISOP of `tt`, ISOP of `!tt` (complemented), or top-variable
/// Shannon decomposition, measured in AND nodes actually added to `dest`.
///
/// Speculative candidates are constructed and rolled back via
/// [`Aig::checkpoint`]/[`Aig::rollback`], so only the winner remains. This
/// is a one-shot [`Resynth`]; the passes, which resynthesise many
/// functions, share their thread's plan library instead, so each
/// function's candidates are derived once.
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
///    is cheaper than the first, within the budget, and free or followed
///    by no Shannon candidate;
/// 3. the Shannon decomposition `mux(x, f|x=1, f|x=0)` is built with the
///    cofactors resynthesised recursively (cofactor 0 first). It only
///    matters if it is strictly cheaper than both covers, so its build is
///    abandoned (rolled back) as soon as it reaches that cost; if it
///    completes, it is kept as built rather than rebuilt;
/// 4. otherwise the cheaper cover is rebuilt, the ISOP of `f` on ties.
///
/// A build carries a node budget: the most nodes the caller can accept
/// ([`Resynth::build`] passes `usize::MAX`). Each cover build in steps 1
/// and 2 is checked after every cube and stops, rolled back, once it has
/// added more than `budget` nodes; its cost then reads as `budget + 1`.
/// That changes no decision. A cover over the budget can never be
/// returned, and every use of a cost gives the same answer when an
/// over-budget cost reads as `budget + 1`:
///
/// - `cost == 0` (step 1): `budget + 1` is not 0, and neither is the
///   true cost;
/// - step 2 keeps the complement only if its cost is within the budget,
///   hence exact; `cost_neg < cost_pos` then reads the same, since a
///   capped first cost exceeds the budget under both readings;
/// - the Shannon budget `(best - 1).min(budget)`, with `best` the cheaper
///   cover's cost: if `best <= budget` it is exact (a capped cost exceeds
///   it under both readings), otherwise both readings give `budget`;
/// - "no candidate fits" is `best > budget` under both readings;
/// - the step 4 tie-break `cost_pos <= cost_neg` runs only when
///   `best <= budget`, where at most one cost is capped and it is the
///   larger under both readings.
///
/// Because the construction order never changes and rollback restores the
/// exact graph, every result is node-for-node the one a fresh, unbounded
/// build from the same state produces.
///
/// # The per-thread library
///
/// `rewrite` and `refactor` do not own a context: they borrow their
/// thread's plan library (`Resynth::with_library`) for the length of one
/// call, so plans derived in one call are replayed in the next. The
/// library is taken out of its thread-local slot at entry and put back at
/// exit; a nested call on the same thread finds the slot empty and works
/// on a fresh context. At entry, a library holding more than
/// `LIBRARY_CAP` (2^15) plans is emptied first, which bounds its memory
/// to the cap plus what one pass call adds. Pool batch threads are scoped
/// to one batch, so each starts with an empty library; the serial paths
/// (a recipe applied pass by pass, sample generation, a one-proposal
/// search) keep theirs warm.
///
/// No output can depend on the library's state. A plan is a function of
/// the variable count and the truth table alone, whichever call derived
/// it, and the build replays it in the fixed probe order above against
/// the live graph. An empty library and a warm one therefore give the
/// same literal and the same nodes.
#[derive(Default)]
pub struct Resynth {
    index: HashMap<(usize, Tt8), PlanId, FastBuild>,
    plans: Vec<Plan>,
}

/// A thread's plan library holding more plans than this is emptied the
/// next time a pass takes it.
const LIBRARY_CAP: usize = 1 << 15;

thread_local! {
    /// The plan library of this thread; empty while a pass has taken it.
    static LIBRARY: Cell<Resynth> = Cell::default();
}

impl Resynth {
    /// Runs `f` on this thread's plan library, emptied first if it holds
    /// more than [`LIBRARY_CAP`] plans, and keeps what `f` adds for the
    /// next call. A call nested inside `f` gets a fresh, empty context.
    pub(crate) fn with_library<R>(f: impl FnOnce(&mut Resynth) -> R) -> R {
        let mut library = LIBRARY.take();
        if library.plans.len() > LIBRARY_CAP {
            library = Resynth::default();
        }
        let out = f(&mut library);
        LIBRARY.set(library);
        out
    }

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
                // A cover that passes the budget is stopped and rolled
                // back; its cost then reads as `budget + 1` (see the type
                // docs for why that changes no decision).
                let cp = dest.checkpoint();
                let cost = |dest: &Aig, built: Option<Lit>| match built {
                    Some(_) => dest.checkpoint() - cp,
                    None => budget + 1,
                };
                let built = build_sop(dest, pos, leaves, budget);
                let cost_pos = cost(dest, built);
                if cost_pos == 0 {
                    return built;
                }
                dest.rollback(cp);
                let built = build_sop(dest, neg, leaves, budget).map(|lit| !lit);
                let cost_neg = cost(dest, built);
                // The complement cover is kept as built if it beats the
                // first one and no Shannon candidate can beat it.
                let neg_wins = cost_neg < cost_pos && (cost_neg == 0 || split.is_none());
                if neg_wins && cost_neg <= budget {
                    return built;
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
                    build_sop(dest, pos, leaves, budget)
                } else {
                    build_sop(dest, neg, leaves, budget).map(|lit| !lit)
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

    /// The 256-bit recursion all the way down, without the one-word path:
    /// the reference the one-word recursion must reproduce.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct Wide(Tt8);

    impl IsopTable for Wide {
        const ZERO: Wide = Wide(Tt8::ZERO);
        const ONE: Wide = Wide(Tt8::ONE);
        fn var(var: usize) -> Wide {
            Wide(Tt8::var(var))
        }
        fn and(self, other: Wide) -> Wide {
            Wide(self.0.and(other.0))
        }
        fn or(self, other: Wide) -> Wide {
            Wide(self.0.or(other.0))
        }
        fn not(self) -> Wide {
            Wide(self.0.not())
        }
        fn cofactor0(self, var: usize) -> Wide {
            Wide(self.0.cofactor0(var))
        }
        fn cofactor1(self, var: usize) -> Wide {
            Wide(self.0.cofactor1(var))
        }
        fn isop_below(lower: Wide, upper: Wide, top: usize, cubes: &mut Vec<Cube>) -> Wide {
            isop_rec(lower, upper, top, cubes)
        }
    }

    #[test]
    fn one_word_isop_matches_the_wide_recursion() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1509);
        let table = |rng: &mut StdRng, nvars| Tt8::from_tt(&Tt::from_u64(nvars, rng.random()));
        for _ in 0..4000 {
            let nvars = rng.random_range(0..7usize);
            let upper = table(&mut rng, nvars);
            let lower = if rng.random_bool(0.25) {
                upper
            } else {
                upper.and(table(&mut rng, nvars))
            };
            let (mut narrow, mut wide) = (Vec::new(), Vec::new());
            let cover = Tt8::isop_below(lower, upper, nvars, &mut narrow);
            let reference = isop_rec(Wide(lower), Wide(upper), nvars, &mut wide);
            assert_eq!(narrow, wide, "lower {lower:?} upper {upper:?}");
            assert_eq!(cover, reference.0);
        }
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

    /// The number of plans in this thread's library.
    fn library_len() -> usize {
        Resynth::with_library(|library| library.plans.len())
    }

    /// A library holding `n` placeholder plans.
    fn library_of(n: usize) -> Resynth {
        let mut library = Resynth::default();
        library
            .plans
            .extend((0..n).map(|_| Plan::Const(Lit::FALSE)));
        library
    }

    /// The AIGER text of `rewrite`, `rewrite -z`, `refactor` and
    /// `refactor -z` on each of `inputs`, on the calling thread.
    fn pass_outputs(inputs: &[Aig]) -> Vec<String> {
        use crate::passes::{refactor, rewrite};
        inputs
            .iter()
            .flat_map(|aig| {
                [
                    rewrite(aig, false),
                    rewrite(aig, true),
                    refactor(aig, false),
                    refactor(aig, true),
                ]
            })
            .map(|out| crate::aiger::write_aag(&out))
            .collect()
    }

    fn on_new_thread(inputs: &[Aig]) -> Vec<String> {
        std::thread::scope(|s| s.spawn(|| pass_outputs(inputs)).join().unwrap())
    }

    #[test]
    fn pass_outputs_do_not_depend_on_the_library() {
        use crate::passes::tests::random_aig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // The locking crate builds on its own copy of this crate, so its
        // graphs are copied over node by node.
        let rll64 = |bench: almost_circuits::IscasBenchmark, seed| {
            use almost_locking::{LockingScheme, Rll};
            let locked = Rll::new(64)
                .lock(&bench.build(), &mut StdRng::seed_from_u64(seed))
                .expect("benchmark takes 64 key gates")
                .aig;
            let mut aig = Aig::new();
            let mut map = vec![Lit::FALSE; locked.num_nodes()];
            for &v in locked.inputs() {
                map[v as usize] = aig.add_input();
            }
            for v in locked.iter_ands() {
                let (a, b) = locked.and_fanins(v).unwrap();
                let [a, b] =
                    [a, b].map(|l| map[l.var() as usize].xor_complement(l.is_complement()));
                map[v as usize] = aig.and(a, b);
            }
            for &o in locked.outputs() {
                aig.add_output(map[o.var() as usize].xor_complement(o.is_complement()));
            }
            aig
        };
        let inputs = [
            rll64(almost_circuits::IscasBenchmark::C1908, 1908),
            rll64(almost_circuits::IscasBenchmark::C3540, 3540),
            random_aig(24, 300, 11),
            random_aig(8, 400, 12),
        ];
        let cold: Vec<Vec<String>> = inputs
            .iter()
            .map(|aig| on_new_thread(std::slice::from_ref(aig)))
            .collect();
        for (i, aig) in inputs.iter().enumerate() {
            for (j, other) in inputs.iter().enumerate() {
                if j != i {
                    pass_outputs(std::slice::from_ref(other));
                }
            }
            assert!(library_len() > 0, "input {i}: the library is warm");
            assert_eq!(
                pass_outputs(std::slice::from_ref(aig)),
                cold[i],
                "input {i} on a warm library"
            );
        }
        assert_eq!(on_new_thread(&inputs), cold.concat(), "a second thread");
    }

    #[test]
    fn a_library_past_the_cap_is_emptied_at_entry() {
        LIBRARY.set(library_of(LIBRARY_CAP));
        assert_eq!(library_len(), LIBRARY_CAP, "at the cap it is kept");
        LIBRARY.set(library_of(LIBRARY_CAP + 1));
        assert_eq!(library_len(), 0, "past the cap it is emptied");
        crate::passes::rewrite(&crate::passes::tests::random_aig(8, 80, 3), false);
        let planned = library_len();
        assert!(planned > 0, "the pass's plans are kept");
        Resynth::with_library(|outer| {
            assert_eq!(outer.plans.len(), planned);
            assert_eq!(library_len(), 0, "a nested call starts empty");
        });
        assert_eq!(library_len(), planned, "the outer library is put back");
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
