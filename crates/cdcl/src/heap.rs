//! The indexed max-heap behind the solver's VSIDS decision order.
//!
//! [`ActivityHeap`] keeps every *unassigned* decision variable ordered by
//! activity so [`Solver::solve`](crate::Solver::solve) picks its next
//! decision in O(log n) instead of the O(n) scan the first implementation
//! used — the bottleneck once four-copy 2-DIP miters double the variable
//! count.
//!
//! The activities live in the solver (they are bumped during conflict
//! analysis), but each heap entry stores a copy of its variable's activity
//! next to the variable, so a comparison touches only the two entries it
//! compares. Every operation that can change a key takes the activity
//! slice and reloads the keys it affects: `insert` and `bumped` the one
//! variable's, `rebuild` all of them. Sifts move a hole instead of
//! swapping. Ordering is a **strict total order** — activity descending,
//! variable index ascending on ties — so the pop sequence is fully
//! deterministic (a hole sift stops exactly where a swap sift would) and
//! survives the uniform `var_inc` rescale (which multiplies every activity
//! by the same constant).
//!
//! # Two tiers
//!
//! A queued variable whose activity is exactly `0.0` — one no conflict
//! has bumped yet — is not kept in the binary heap but in a bitset, and
//! the bitset is popped in ascending index once the heap part is empty.
//! Activities are never negative, so under the total order every
//! zero-activity variable comes after every heap entry, and among
//! themselves they come in index order: the two tiers pop exactly the
//! sequence one heap would. An insert or a pop of a never-bumped variable
//! is then a bit operation instead of a sift; a sweep query over a fresh
//! cone of hundreds of variables pays no heap traffic for them. A bump
//! moves its variable from the bitset into the heap, and `rebuild` moves
//! entries across tiers both ways (a rescale can underflow an activity to
//! zero; a diversity seed lifts every activity above it). Diversified
//! portfolio workers start every variable above zero, so their queue is
//! the heap alone.

use crate::solver::SatVar;

const ABSENT: u32 = u32::MAX;
/// `pos` of a variable queued in the zero-activity bitset.
const IN_ZERO_TIER: u32 = u32::MAX - 1;

/// A queued variable with its activity stored inline, so a comparison
/// reads the two entries it compares and nothing else.
#[derive(Clone, Copy, Debug)]
struct Entry {
    activity: f64,
    var: SatVar,
}

/// Is `a` ordered strictly before `b`? Ties on activity break towards the
/// smaller variable index, making the order total (and decisions
/// reproducible across runs and platforms).
#[inline]
fn precedes(a: Entry, b: Entry) -> bool {
    a.activity > b.activity || (a.activity == b.activity && a.var < b.var)
}

/// An indexed binary max-heap of variables keyed by activity, with the
/// never-bumped variables in a bitset tier; see the
/// [module documentation](self).
#[derive(Clone, Debug, Default)]
pub struct ActivityHeap {
    /// Heap-ordered entries, every one of positive activity.
    heap: Vec<Entry>,
    /// `pos[v]` is `v`'s index in `heap`, [`IN_ZERO_TIER`], or `ABSENT`.
    pos: Vec<u32>,
    /// Bit `v` is set iff `v` is queued with activity exactly `0.0`.
    zero: Vec<u64>,
    /// Number of bits set in `zero`.
    zero_len: usize,
    /// Every word of `zero` below this index is empty.
    zero_from: usize,
}

impl ActivityHeap {
    /// An empty heap.
    pub fn new() -> Self {
        ActivityHeap::default()
    }

    /// Number of variables currently queued, in both tiers.
    pub fn len(&self) -> usize {
        self.heap.len() + self.zero_len
    }

    /// True when no variable is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `var` is currently queued.
    pub fn contains(&self, var: SatVar) -> bool {
        self.pos.get(var as usize).is_some_and(|&p| p != ABSENT)
    }

    /// Inserts `var` keyed by `act[var]` (no-op if already present).
    pub fn insert(&mut self, var: SatVar, act: &[f64]) {
        if self.pos.len() <= var as usize {
            self.pos.resize(var as usize + 1, ABSENT);
        }
        if self.pos[var as usize] != ABSENT {
            return;
        }
        self.push(Entry {
            activity: act[var as usize],
            var,
        });
    }

    /// Queues an absent `entry` in the tier its activity belongs to.
    fn push(&mut self, entry: Entry) {
        if entry.activity == 0.0 {
            let (word, bit) = (entry.var as usize / 64, entry.var % 64);
            if self.zero.len() <= word {
                self.zero.resize(word + 1, 0);
            }
            self.zero[word] |= 1 << bit;
            self.zero_len += 1;
            self.zero_from = self.zero_from.min(word);
            self.pos[entry.var as usize] = IN_ZERO_TIER;
        } else {
            let i = self.heap.len();
            self.heap.push(entry);
            self.sift_up(i);
        }
    }

    /// Removes every queued variable, in time linear in the queue's length
    /// plus the bitset words it spans.
    pub fn clear(&mut self) {
        for e in &self.heap {
            self.pos[e.var as usize] = ABSENT;
        }
        self.heap.clear();
        while self.zero_len > 0 {
            let var = self.pop_zero().expect("bitset holds zero_len variables");
            self.pos[var as usize] = ABSENT;
        }
    }

    /// Removes and returns the variable ordered first (highest activity,
    /// lowest index on ties).
    pub fn pop(&mut self) -> Option<SatVar> {
        let Some(top) = self.heap.first().map(|e| e.var) else {
            let var = self.pop_zero()?;
            self.pos[var as usize] = ABSENT;
            return Some(var);
        };
        self.pos[top as usize] = ABSENT;
        let last = self.heap.pop().expect("heap non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Clears and returns the lowest bit of the zero-activity tier (its
    /// `pos` is left to the caller).
    fn pop_zero(&mut self) -> Option<SatVar> {
        if self.zero_len == 0 {
            return None;
        }
        while self.zero[self.zero_from] == 0 {
            self.zero_from += 1;
        }
        let word = &mut self.zero[self.zero_from];
        let bit = word.trailing_zeros();
        *word &= *word - 1;
        self.zero_len -= 1;
        Some((self.zero_from * 64) as SatVar + bit)
    }

    /// Removes a queued `var` from the zero-activity bitset (its `pos` is
    /// left to the caller).
    fn unset_zero(&mut self, var: SatVar) {
        self.zero[var as usize / 64] &= !(1 << (var % 64));
        self.zero_len -= 1;
    }

    /// Restores the order after `var`'s activity rose to `act[var]`
    /// (VSIDS bumps only ever raise activities, so sifting up suffices; a
    /// first bump moves the variable out of the zero-activity tier).
    pub fn bumped(&mut self, var: SatVar, act: &[f64]) {
        let Some(&p) = self.pos.get(var as usize) else {
            return;
        };
        let activity = act[var as usize];
        if p == IN_ZERO_TIER {
            if activity != 0.0 {
                self.unset_zero(var);
                self.push(Entry { activity, var });
            }
        } else if p != ABSENT {
            self.heap[p as usize].activity = activity;
            self.sift_up(p as usize);
        }
    }

    /// Reloads every stored key from `act`, moves each entry to the tier
    /// its activity now belongs to, and re-heapifies (deterministic
    /// bottom-up heapify). Needed after a global activity rescale: uniform
    /// scaling preserves strict order but underflow can collapse
    /// near-zero activities into ties (or into zero), whose index
    /// tiebreak may disagree with the stored layout.
    pub fn rebuild(&mut self, act: &[f64]) {
        let mut entries = std::mem::take(&mut self.heap);
        for e in &mut entries {
            e.activity = act[e.var as usize];
        }
        for word in self.zero_from..self.zero.len() {
            let mut bits = self.zero[word];
            while bits != 0 {
                let var = (word * 64) as SatVar + bits.trailing_zeros();
                bits &= bits - 1;
                if act[var as usize] != 0.0 {
                    self.unset_zero(var);
                    entries.push(Entry {
                        activity: act[var as usize],
                        var,
                    });
                }
            }
        }
        for e in entries {
            if e.activity == 0.0 {
                self.push(e);
            } else {
                self.pos[e.var as usize] = self.heap.len() as u32;
                self.heap.push(e);
            }
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Moves the entry at `i` up through a hole until its parent precedes
    /// it, then drops it in.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !precedes(entry, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Moves the entry at `i` down through a hole, always promoting the
    /// better child, until it precedes both children. Under a strict total
    /// order this ends exactly where a swap-based sift would.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && precedes(self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            if !precedes(self.heap[child], entry) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }

    fn place(&mut self, i: usize, entry: Entry) {
        self.heap[i] = entry;
        self.pos[entry.var as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order_with_index_tiebreak() {
        let act = vec![1.0, 3.0, 3.0, 0.5, 2.0];
        let mut h = ActivityHeap::new();
        for v in [4u32, 2, 0, 3, 1] {
            h.insert(v, &act);
        }
        let order: Vec<SatVar> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, vec![1, 2, 4, 0, 3]);
    }

    #[test]
    fn insert_is_idempotent_and_contains_tracks_membership() {
        let act = vec![0.0; 3];
        let mut h = ActivityHeap::new();
        h.insert(1, &act);
        h.insert(1, &act);
        assert_eq!(h.len(), 1);
        assert!(h.contains(1));
        assert!(!h.contains(0));
        assert_eq!(h.pop(), Some(1));
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn clear_empties_the_heap_and_allows_reinsertion() {
        let act = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for v in 0..3 {
            h.insert(v, &act);
        }
        h.clear();
        assert!(h.is_empty());
        assert!((0..3).all(|v| !h.contains(v)));
        h.insert(0, &act);
        h.insert(2, &act);
        assert_eq!(h.pop(), Some(2));
        assert_eq!(h.pop(), Some(0));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn bumped_restores_order_after_an_activity_raise() {
        let mut act = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for v in 0..3 {
            h.insert(v, &act);
        }
        act[0] = 10.0;
        h.bumped(0, &act);
        assert_eq!(h.pop(), Some(0));
        assert_eq!(h.pop(), Some(2));
        assert_eq!(h.pop(), Some(1));
    }

    #[test]
    fn zero_activity_tier_pops_after_the_heap_in_index_order() {
        let act = vec![0.0, 2.0, 0.0, 0.0, 1.0, 0.0];
        let mut h = ActivityHeap::new();
        for v in [5u32, 3, 1, 0, 4, 2] {
            h.insert(v, &act);
        }
        assert_eq!(h.len(), 6);
        assert!((0..6).all(|v| h.contains(v)));
        let order: Vec<SatVar> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, vec![1, 4, 0, 2, 3, 5]);
        assert!(h.is_empty());
    }

    #[test]
    fn a_bump_moves_a_variable_out_of_the_zero_tier() {
        let mut act = vec![0.0; 130];
        let mut h = ActivityHeap::new();
        for v in [129u32, 3, 64] {
            h.insert(v, &act);
        }
        act[64] = 0.5;
        h.bumped(64, &act);
        h.bumped(3, &act); // still zero: stays queued where it is
        assert_eq!(h.len(), 3);
        let order: Vec<SatVar> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, vec![64, 3, 129]);
    }

    #[test]
    fn rebuild_moves_entries_across_tiers() {
        let mut act = vec![1e-320, 0.0, 3.0, 0.0];
        let mut h = ActivityHeap::new();
        for v in 0..4 {
            h.insert(v, &act);
        }
        // A rescale underflows var 0 to zero; a diversity seed lifts var 3.
        act[0] = 0.0;
        act[3] = 1e-7;
        h.rebuild(&act);
        assert_eq!(h.len(), 4);
        let order: Vec<SatVar> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn clear_empties_both_tiers() {
        let act = vec![0.0, 1.0, 0.0, 0.0];
        let mut h = ActivityHeap::new();
        for v in 0..4 {
            h.insert(v, &act);
        }
        h.clear();
        assert!(h.is_empty());
        assert!((0..4).all(|v| !h.contains(v)));
        h.insert(3, &act);
        h.insert(2, &act);
        assert_eq!(h.pop(), Some(2));
        assert_eq!(h.pop(), Some(3));
        assert_eq!(h.pop(), None);
    }
}
