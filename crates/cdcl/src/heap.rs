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

use crate::solver::SatVar;

const ABSENT: u32 = u32::MAX;

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

/// An indexed binary max-heap of variables keyed by activity; see the
/// [module documentation](self).
#[derive(Clone, Debug, Default)]
pub struct ActivityHeap {
    /// Heap-ordered entries.
    heap: Vec<Entry>,
    /// `pos[v]` is `v`'s index in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

impl ActivityHeap {
    /// An empty heap.
    pub fn new() -> Self {
        ActivityHeap::default()
    }

    /// Number of variables currently in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no variable is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        let i = self.heap.len();
        self.heap.push(Entry {
            activity: act[var as usize],
            var,
        });
        self.sift_up(i);
    }

    /// Removes and returns the variable ordered first (highest activity,
    /// lowest index on ties).
    pub fn pop(&mut self) -> Option<SatVar> {
        let top = self.heap.first()?.var;
        self.pos[top as usize] = ABSENT;
        let last = self.heap.pop().expect("heap non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Restores the heap property after `var`'s activity rose to
    /// `act[var]` (VSIDS bumps only ever raise activities, so sifting up
    /// suffices).
    pub fn bumped(&mut self, var: SatVar, act: &[f64]) {
        if let Some(&p) = self.pos.get(var as usize) {
            if p != ABSENT {
                self.heap[p as usize].activity = act[var as usize];
                self.sift_up(p as usize);
            }
        }
    }

    /// Reloads every stored key from `act` and re-heapifies (deterministic
    /// bottom-up heapify). Needed after a global activity rescale: uniform
    /// scaling preserves strict order but underflow can collapse
    /// near-zero activities into ties, whose index tiebreak may disagree
    /// with the stored layout.
    pub fn rebuild(&mut self, act: &[f64]) {
        for e in &mut self.heap {
            e.activity = act[e.var as usize];
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
}
