//! Synthesis recipes: fixed-length pass sequences over the paper's
//! seven-transformation alphabet, plus a prefix-sharing synthesis cache
//! organised as a trie over pass paths.

use almost_aig::{Aig, Pass};
use std::sync::Arc;

/// A synthesis recipe: the one pass-sequence type, [`almost_aig::Script`],
/// under the paper's name.
///
/// # Example
///
/// ```
/// use almost_core::recipe::Recipe;
/// let r = Recipe::resyn2();
/// assert_eq!(r.len(), 10);
/// assert_eq!(r.to_string(), "bwfbwWbFWb");
/// ```
pub use almost_aig::Script as Recipe;

/// The paper's recipe length (L = 10).
pub const RECIPE_LENGTH: usize = 10;

/// Default node budget of a [`RecipeTrie`] (cached intermediates, root
/// excluded). A paper-scale SA search at `proposals = 1` (100 steps,
/// length-10 recipes) touches at most ~1k nodes, so the default never
/// evicts there; wide proposal batches (`ALMOST_PROPOSALS` ≫ 1) at
/// paper scale can exceed it, in which case the stalest leaves are
/// pruned — correctness is unaffected, recently-shared prefixes stay
/// cached. Tiny budgets are for memory-capped callers (and the
/// eviction tests).
pub const TRIE_NODE_BUDGET: usize = 1024;

/// Cumulative [`RecipeTrie`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrieStats {
    /// Synthesis steps served from a cached intermediate.
    pub hits: u64,
    /// Synthesis steps that had to be computed (and were inserted).
    pub misses: u64,
    /// Cached intermediates dropped by the budget enforcement.
    pub evictions: u64,
    /// Currently live cached intermediates (root excluded).
    pub live_nodes: usize,
}

const NO_CHILD: u32 = u32::MAX;
const ROOT: u32 = 0;

struct TrieNode {
    /// The intermediate network at this pass path (`None` on evicted,
    /// free-listed slots).
    aig: Option<Arc<Aig>>,
    /// Child per pass, indexed by the [`Pass::ALL`] position.
    children: [u32; Pass::ALL.len()],
    parent: u32,
    /// Which child slot of `parent` points here.
    slot: u8,
    /// Monotone touch tick. Every access walks root→leaf, so a node is
    /// touched whenever any of its descendants is — `last_use` is always
    /// ≥ the maximum over the subtree, which is what makes stalest-node
    /// eviction a whole-subtree LRU.
    last_use: u64,
}

/// Applies recipes to a fixed base AIG through a trie of cached
/// intermediates keyed by pass path.
///
/// Unlike a linear prefix chain, sibling recipes (`bwf…` vs `bwS…`) keep
/// *both* branches cached, so a simulated-annealing search that bounces
/// between neighbouring mutations never recomputes the shared prefix —
/// and never recomputes the branch it bounced away from. Intermediates
/// are held behind [`Arc`], so a cache hit hands back a refcount bump,
/// not a structural clone.
///
/// The node budget bounds memory: past it, stale subtrees are pruned
/// leaf-by-leaf (oldest `last_use` among live leaves, smallest index on
/// ties — deterministic; the touch-path invariant makes the stalest
/// leaf the bottom of the stalest subtree) until the trie fits. Evicted
/// paths are recomputed on demand; results are always identical to
/// [`Recipe::apply`] because every pass is a pure function.
pub struct RecipeTrie {
    nodes: Vec<TrieNode>,
    free: Vec<u32>,
    budget: usize,
    live: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

fn pass_slot(pass: Pass) -> usize {
    // `Pass` is fieldless and `Pass::ALL` lists the variants in
    // declaration order, so the cast is the alphabet index.
    pass as usize
}

impl RecipeTrie {
    /// A trie over the given base circuit with the default node budget.
    pub fn new(base: Aig) -> Self {
        Self::with_budget(base, TRIE_NODE_BUDGET)
    }

    /// A trie with an explicit node budget (0 disables caching).
    pub fn with_budget(base: Aig, budget: usize) -> Self {
        RecipeTrie {
            nodes: vec![TrieNode {
                aig: Some(Arc::new(base)),
                children: [NO_CHILD; Pass::ALL.len()],
                parent: ROOT,
                slot: 0,
                last_use: 0,
            }],
            free: Vec::new(),
            budget,
            live: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The base circuit.
    pub fn base(&self) -> &Aig {
        self.nodes[ROOT as usize]
            .aig
            .as_deref()
            .expect("root lives")
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TrieStats {
        TrieStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            live_nodes: self.live,
        }
    }

    fn node_aig(&self, idx: u32) -> &Arc<Aig> {
        self.nodes[idx as usize].aig.as_ref().expect("live node")
    }

    /// The deepest cached intermediate along `recipe`'s pass path:
    /// `(intermediate, passes covered)`. Read-only — no touch, no stats —
    /// so the engine can plan a batch before fanning the suffix
    /// synthesis out.
    pub fn cached_prefix(&self, recipe: &Recipe) -> (Arc<Aig>, usize) {
        let mut node = ROOT;
        let mut depth = 0;
        for &pass in recipe.passes() {
            let child = self.nodes[node as usize].children[pass_slot(pass)];
            if child == NO_CHILD {
                break;
            }
            node = child;
            depth += 1;
        }
        (self.node_aig(node).clone(), depth)
    }

    /// Applies `recipe`, computing uncached steps serially.
    pub fn apply(&mut self, recipe: &Recipe) -> Arc<Aig> {
        let (start, cached) = self.cached_prefix(recipe);
        let mut suffix = Vec::with_capacity(recipe.len() - cached);
        let mut prev = start;
        for &pass in &recipe.passes()[cached..] {
            let next = Arc::new(pass.apply(&prev));
            suffix.push(next.clone());
            prev = next;
        }
        self.commit(recipe, cached, suffix)
    }

    /// Installs a precomputed suffix chain for `recipe` and returns the
    /// final network. `suffix[i]` must be pass `cached + i` applied to its
    /// predecessor (as produced from a [`RecipeTrie::cached_prefix`]
    /// plan). Steps another commit cached in the meantime are deduplicated
    /// against the trie (pass application is deterministic, so the stored
    /// and provided networks are identical); steps the plan assumed cached
    /// but eviction removed are recomputed on the spot.
    pub fn commit(&mut self, recipe: &Recipe, cached: usize, suffix: Vec<Arc<Aig>>) -> Arc<Aig> {
        self.tick += 1;
        let tick = self.tick;
        let mut node = ROOT;
        for (depth, &pass) in recipe.passes().iter().enumerate() {
            let slot = pass_slot(pass);
            let child = self.nodes[node as usize].children[slot];
            let next = if child != NO_CHILD {
                self.hits += 1;
                child
            } else {
                self.misses += 1;
                let aig = match depth.checked_sub(cached).and_then(|i| suffix.get(i)) {
                    Some(aig) => aig.clone(),
                    // The planned prefix was evicted under us (same-batch
                    // commits can trigger the budget): recompute.
                    None => Arc::new(pass.apply(self.node_aig(node))),
                };
                self.insert(node, slot, aig)
            };
            self.nodes[next as usize].last_use = tick;
            node = next;
        }
        let result = self.node_aig(node).clone();
        self.enforce_budget();
        result
    }

    fn insert(&mut self, parent: u32, slot: usize, aig: Arc<Aig>) -> u32 {
        let node = TrieNode {
            aig: Some(aig),
            children: [NO_CHILD; Pass::ALL.len()],
            parent,
            slot: slot as u8,
            last_use: 0,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.nodes[parent as usize].children[slot] = idx;
        self.live += 1;
        idx
    }

    fn enforce_budget(&mut self) {
        while self.live > self.budget {
            // Stalest live *leaf* (no live children), smallest index on
            // ties — deterministic. Some leaf always attains the global
            // minimum `last_use` (descend from any minimal node: the
            // touch-path invariant makes its whole subtree equally
            // stale), so pruning leaf-by-leaf is LRU-of-subtree from the
            // bottom up. Pruning leaves rather than stale subtree roots
            // matters when one recipe path alone exceeds the budget: the
            // trie retains the freshest `budget`-long prefix instead of
            // dropping the entire just-committed path (all its nodes
            // share one tick, and an ancestor tie-break would evict
            // everything below it too).
            let victim = (1..self.nodes.len() as u32)
                .filter(|&i| {
                    let node = &self.nodes[i as usize];
                    node.aig.is_some() && node.children.iter().all(|&c| c == NO_CHILD)
                })
                .min_by_key(|&i| (self.nodes[i as usize].last_use, i));
            match victim {
                Some(v) => self.evict_leaf(v),
                None => break,
            }
        }
    }

    fn evict_leaf(&mut self, idx: u32) {
        let parent = self.nodes[idx as usize].parent;
        let slot = self.nodes[idx as usize].slot as usize;
        self.nodes[parent as usize].children[slot] = NO_CHILD;
        let node = &mut self.nodes[idx as usize];
        debug_assert!(node.children.iter().all(|&c| c == NO_CHILD));
        node.aig = None;
        self.free.push(idx);
        self.live -= 1;
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_aig::sim::probably_equivalent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_aig() -> Aig {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..6).map(|_| aig.add_input()).collect();
        let x = aig.xor(ins[0], ins[1]);
        let y = aig.and(x, ins[2]);
        let z = aig.mux(ins[3], y, ins[4]);
        let w = aig.or(z, ins[5]);
        aig.add_output(w);
        aig.add_output(y);
        aig
    }

    #[test]
    fn random_recipes_have_requested_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = Recipe::random(RECIPE_LENGTH, &mut rng);
        assert_eq!(r.len(), RECIPE_LENGTH);
    }

    #[test]
    fn mutation_changes_exactly_one_position() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = Recipe::resyn2();
        for _ in 0..20 {
            let m = r.mutate(&mut rng);
            let diffs = r
                .passes()
                .iter()
                .zip(m.passes())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diffs, 1);
        }
    }

    #[test]
    fn trie_matches_direct_application() {
        let base = test_aig();
        let mut trie = RecipeTrie::new(base.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let mut recipe = Recipe::random(6, &mut rng);
        for _ in 0..5 {
            let cached = trie.apply(&recipe);
            let direct = recipe.apply(&base);
            assert_eq!(cached.num_ands(), direct.num_ands());
            assert!(probably_equivalent(&cached, &direct, 8, 9));
            recipe = recipe.mutate(&mut rng);
        }
        let stats = trie.stats();
        assert!(stats.hits > 0, "mutation chains must reuse prefixes");
        assert!(stats.misses > 0);
        assert_eq!(stats.evictions, 0, "default budget never evicts here");
    }

    #[test]
    fn trie_keeps_sibling_branches_cached() {
        // A linear prefix chain recomputes when the search bounces
        // between two sibling recipes; the trie must not.
        let base = test_aig();
        let mut trie = RecipeTrie::new(base);
        let a = Recipe::from_mnemonics("bwf").expect("parses");
        let b = Recipe::from_mnemonics("bwS").expect("parses");
        trie.apply(&a);
        trie.apply(&b);
        let misses_after_first_pair = trie.stats().misses;
        let ra = trie.apply(&a);
        let rb = trie.apply(&b);
        assert_eq!(
            trie.stats().misses,
            misses_after_first_pair,
            "revisiting siblings must be all hits"
        );
        // Revisits hand back the same shared intermediate, not a clone.
        assert!(Arc::ptr_eq(&ra, &trie.apply(&a)));
        assert!(Arc::ptr_eq(&rb, &trie.apply(&b)));
    }

    #[test]
    fn trie_evicts_to_budget_and_stays_correct() {
        let base = test_aig();
        let mut trie = RecipeTrie::with_budget(base.clone(), 4);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..6 {
            let recipe = Recipe::random(5, &mut rng);
            let cached = trie.apply(&recipe);
            let direct = recipe.apply(&base);
            assert_eq!(cached.num_ands(), direct.num_ands());
            assert!(probably_equivalent(&cached, &direct, 8, 9));
            assert!(trie.stats().live_nodes <= 4, "budget must hold");
        }
        assert!(trie.stats().evictions > 0, "tiny budget must evict");
    }

    #[test]
    fn trie_zero_budget_degenerates_to_direct_application() {
        let base = test_aig();
        let mut trie = RecipeTrie::with_budget(base.clone(), 0);
        let recipe = Recipe::from_mnemonics("bw").expect("parses");
        for _ in 0..2 {
            let out = trie.apply(&recipe);
            assert_eq!(out.num_ands(), recipe.apply(&base).num_ands());
        }
        let stats = trie.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.live_nodes, 0);
    }

    #[test]
    fn mnemonic_roundtrip() {
        let r = Recipe::resyn2();
        let s = r.to_string();
        assert_eq!(Recipe::from_mnemonics(&s).expect("parses"), r);
    }

    #[test]
    fn common_prefix() {
        let a = Recipe::from_mnemonics("bwfbw").expect("parses");
        let b = Recipe::from_mnemonics("bwfSS").expect("parses");
        assert_eq!(a.common_prefix_len(&b), 3);
        assert_eq!(a.common_prefix_len(&a), 5);
    }
}
