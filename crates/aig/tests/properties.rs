//! Property-based tests for the AIG substrate.

use almost_aig::cut::{cut_function, CutConfig, CutSet};
use almost_aig::isop::{build_from_tt, isop, Cube, Resynth};
use almost_aig::npn::canonize;
use almost_aig::passes::{balance, Window};
use almost_aig::sim::{probably_equivalent, SimVectors};
use almost_aig::{Aig, Lit, NodeKind, Pass, Tt, Tt8, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

fn random_aig(num_inputs: usize, num_ands: usize, seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
    let mut guard = 0;
    while aig.num_ands() < num_ands && guard < 20 * num_ands {
        guard += 1;
        let a = pool[rng.random_range(0..pool.len())];
        let b = pool[rng.random_range(0..pool.len())];
        let lit = aig.and(
            a.xor_complement(rng.random()),
            b.xor_complement(rng.random()),
        );
        if !lit.is_const() {
            pool.push(lit);
        }
    }
    for i in 0..3.min(pool.len()) {
        let lit = pool[pool.len() - 1 - i];
        aig.add_output(lit);
    }
    aig
}

/// A random function of `nvars` variables: mostly the root of a random
/// AND/INV expression over them, the kind of function the passes
/// resynthesise; sometimes raw random bits, whose covers are wide.
fn random_table(rng: &mut StdRng, nvars: usize) -> Tt8 {
    if rng.random_bool(0.25) {
        let words = if nvars <= 6 { 1 } else { 1 << (nvars - 6) };
        return Tt8::from_tt(&Tt::from_words(
            nvars,
            (0..words).map(|_| rng.random()).collect(),
        ));
    }
    let mut pool: Vec<Tt8> = (0..nvars).map(Tt8::var).collect();
    for _ in 0..rng.random_range(1..3 * nvars) {
        let a = pool[rng.random_range(0..pool.len())].xor_complement(rng.random());
        let b = pool[rng.random_range(0..pool.len())].xor_complement(rng.random());
        pool.push(a.and(b));
    }
    *pool.last().expect("non-empty")
}

/// The per-node `Vec` cut enumerator the arena [`CutSet`] replaced, kept
/// as its differential reference: each cut as its sorted leaves and table.
fn reference_cuts(aig: &Aig, max_cuts: usize) -> Vec<Vec<(Vec<Var>, u16)>> {
    #[derive(Clone)]
    struct RefCut {
        leaves: Vec<Var>,
        truth: u16,
        signature: u64,
    }
    fn trivial(v: Var) -> RefCut {
        RefCut {
            leaves: vec![v],
            truth: 0xAAAA,
            signature: 1 << (v % 64),
        }
    }
    fn merge(x: &RefCut, y: &RefCut) -> Option<RefCut> {
        let signature = x.signature | y.signature;
        if signature.count_ones() > 4 {
            return None;
        }
        let mut leaves: Vec<Var> = x.leaves.iter().chain(&y.leaves).copied().collect();
        leaves.sort_unstable();
        leaves.dedup();
        (leaves.len() <= 4).then_some(RefCut {
            leaves,
            truth: 0xAAAA,
            signature,
        })
    }
    fn dominates(x: &RefCut, y: &RefCut) -> bool {
        x.leaves.len() <= y.leaves.len() && x.leaves.iter().all(|l| y.leaves.contains(l))
    }
    // Row by row: wider row `r` reads this table at the row spelled by
    // the bits of `r` at the positions of this cut's leaves.
    fn truth_over(x: &RefCut, wider: &RefCut) -> u16 {
        let pos: Vec<usize> = x
            .leaves
            .iter()
            .map(|l| wider.leaves.iter().position(|w| w == l).expect("subset"))
            .collect();
        let mut out = 0u16;
        for row in 0..16 {
            let src = pos
                .iter()
                .enumerate()
                .fold(0, |s, (i, &p)| s | (row >> p & 1) << i);
            out |= (x.truth >> src & 1) << row;
        }
        out
    }
    fn and_truth(mut m: RefCut, x: (&RefCut, bool), y: (&RefCut, bool)) -> RefCut {
        let tx = truth_over(x.0, &m) ^ if x.1 { u16::MAX } else { 0 };
        let ty = truth_over(y.0, &m) ^ if y.1 { u16::MAX } else { 0 };
        m.truth = tx & ty;
        m
    }

    let mut cuts: Vec<Vec<RefCut>> = Vec::new();
    for v in aig.iter_vars() {
        let node_cuts = match aig.node(v) {
            NodeKind::And(a, b) => {
                let (ca, cb) = (a.is_complement(), b.is_complement());
                let mut new_cuts: Vec<RefCut> = Vec::new();
                for x in &cuts[a.var() as usize] {
                    for y in &cuts[b.var() as usize] {
                        if let Some(m) = merge(x, y) {
                            if !new_cuts.iter().any(|c| dominates(c, &m)) {
                                new_cuts.retain(|c| !dominates(&m, c));
                                new_cuts.push(and_truth(m, (x, ca), (y, cb)));
                            }
                        }
                    }
                }
                new_cuts.sort_by_key(|c| c.leaves.len());
                new_cuts.truncate(max_cuts);
                let (ta, tb) = (trivial(a.var()), trivial(b.var()));
                let fanin_cut = merge(&ta, &tb).expect("two leaves always fit");
                if !new_cuts.iter().any(|c| c.leaves == fanin_cut.leaves) {
                    new_cuts.push(and_truth(fanin_cut, (&ta, ca), (&tb, cb)));
                }
                new_cuts.push(trivial(v));
                new_cuts
            }
            _ => vec![trivial(v)],
        };
        cuts.push(node_cuts);
    }
    cuts.into_iter()
        .map(|node| node.into_iter().map(|c| (c.leaves, c.truth)).collect())
        .collect()
}

/// Asserts that the arena cut sets equal [`reference_cuts`] on every node:
/// the same cuts in the same order, with the same tables.
fn assert_cuts_match_reference(aig: &Aig, max_cuts: usize) {
    let cuts = CutSet::compute(aig, CutConfig { max_cuts });
    for (v, want) in aig.iter_vars().zip(reference_cuts(aig, max_cuts)) {
        let got: Vec<(Vec<Var>, u16)> = cuts
            .cuts_of(v)
            .iter()
            .map(|c| (c.leaves().to_vec(), c.truth()))
            .collect();
        assert_eq!(got, want, "node {v} at max_cuts {max_cuts}");
    }
}

/// The `Vec`-based reconvergence cut that [`Window::reconvergence_cut`]
/// replaced (it scans the leaf list for membership where the window reads
/// a stamp), kept as its differential reference.
fn reference_reconvergence_cut(aig: &Aig, root: Var, max_leaves: usize) -> Vec<Var> {
    let (a, b) = aig.and_fanins(root).expect("AND root");
    let mut leaves: Vec<Var> = vec![a.var(), b.var()];
    leaves.dedup();
    loop {
        let mut best: Option<(isize, usize)> = None;
        for (i, &leaf) in leaves.iter().enumerate() {
            let Some((fa, fb)) = aig.and_fanins(leaf) else {
                continue;
            };
            let mut added = 0isize;
            for f in [fa.var(), fb.var()] {
                if !leaves.contains(&f) {
                    added += 1;
                }
            }
            if fa.var() == fb.var() {
                added = added.min(1);
            }
            let cost = added - 1;
            if (leaves.len() as isize + cost) as usize > max_leaves {
                continue;
            }
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, i));
            }
        }
        let Some((_, idx)) = best else {
            break;
        };
        let leaf = leaves.swap_remove(idx);
        let (fa, fb) = aig.and_fanins(leaf).expect("AND leaf");
        for f in [fa.var(), fb.var()] {
            if !leaves.contains(&f) {
                leaves.push(f);
            }
        }
    }
    leaves.sort_unstable();
    leaves
}

#[test]
fn arena_cuts_match_the_reference_on_locked_circuits() {
    use almost_circuits::IscasBenchmark;
    use almost_locking::{LockingScheme, Rll};
    for (bench, key_size) in [(IscasBenchmark::C1908, 64), (IscasBenchmark::C3540, 64)] {
        let raw = bench.build();
        let mut rng = StdRng::seed_from_u64(key_size as u64);
        let locked = Rll::new(key_size)
            .lock(&raw, &mut rng)
            .expect("lockable")
            .aig;
        let balanced = Pass::Balance.apply(&locked);
        for aig in [&raw, &locked, &balanced] {
            for max_cuts in [8, 12] {
                assert_cuts_match_reference(aig, max_cuts);
            }
            let mut window = Window::new(aig.num_nodes());
            for v in aig.iter_ands() {
                assert_eq!(
                    &window.reconvergence_cut(aig, &[v], 8)[..],
                    &reference_reconvergence_cut(aig, v, 8)[..]
                );
            }
        }
    }
}

fn nodes(aig: &Aig) -> Vec<NodeKind> {
    (0..aig.num_nodes() as Var).map(|v| aig.node(v)).collect()
}

/// A structural hash that removes a node's key when a rollback drops the
/// node, the reference for [`Aig::and`] and [`Aig::rollback`], which leave
/// stale keys behind.
struct ReferenceStrash {
    nodes: Vec<NodeKind>,
    table: HashMap<(Lit, Lit), Var>,
}

impl ReferenceStrash {
    fn new(num_inputs: usize) -> Self {
        let mut nodes = vec![NodeKind::Const0];
        nodes.extend((0..num_inputs as u32).map(NodeKind::Input));
        ReferenceStrash {
            nodes,
            table: HashMap::new(),
        }
    }

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&var) = self.table.get(&(a, b)) {
            return Lit::positive(var);
        }
        let var = self.nodes.len() as Var;
        self.nodes.push(NodeKind::And(a, b));
        self.table.insert((a, b), var);
        Lit::positive(var)
    }

    fn rollback(&mut self, checkpoint: usize) {
        while self.nodes.len() > checkpoint {
            if let Some(NodeKind::And(a, b)) = self.nodes.pop() {
                self.table.remove(&(a, b));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn strash_with_stale_keys_matches_the_removing_reference(seed in 0u64..100_000) {
        // Random interleavings of `and`, `checkpoint` and `rollback` over a
        // few inputs, so rolled-back pairs are asked for again: both while
        // their stale key points past the end of the graph and after a
        // different node has taken their slot.
        let mut rng = StdRng::seed_from_u64(seed);
        let num_inputs = rng.random_range(2..5usize);
        let mut aig = Aig::new();
        let mut pool: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
        let mut reference = ReferenceStrash::new(num_inputs);
        let mut checkpoints: Vec<usize> = Vec::new();
        let mut asked: Vec<(Lit, Lit)> = Vec::new();
        for _ in 0..rng.random_range(20..200) {
            match rng.random_range(0..10) {
                0 | 1 => checkpoints.push(aig.checkpoint()),
                2 | 3 => {
                    let Some(cp) = checkpoints.pop() else { continue };
                    aig.rollback(cp);
                    reference.rollback(cp);
                    pool.retain(|l| (l.var() as usize) < cp);
                }
                op => {
                    let live = |l: &Lit| (l.var() as usize) < aig.num_nodes();
                    let (a, b) = match asked.get(rng.random_range(0..asked.len().max(1))) {
                        Some(&(a, b)) if op < 6 && live(&a) && live(&b) => (a, b),
                        _ => {
                            let a = pool[rng.random_range(0..pool.len())];
                            let b = pool[rng.random_range(0..pool.len())];
                            (a.xor_complement(rng.random()), b.xor_complement(rng.random()))
                        }
                    };
                    let got = aig.and(a, b);
                    prop_assert_eq!(got, reference.and(a, b));
                    asked.push((a, b));
                    if !got.is_const() && !pool.contains(&Lit::positive(got.var())) {
                        pool.push(Lit::positive(got.var()));
                    }
                }
            }
            prop_assert_eq!(nodes(&aig), reference.nodes.clone());
            let ands = reference.nodes.iter().filter(|n| matches!(n, NodeKind::And(..))).count();
            prop_assert_eq!(aig.num_ands(), ands);
        }
    }

    #[test]
    fn build_within_keeps_its_budget_contract(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nvars = rng.random_range(3..9usize);
        let tt = random_table(&mut rng, nvars);
        // Leaves drawn from a random graph, which sometimes already holds
        // part of the function's structure for the hash to share.
        let mut aig = random_aig(nvars + 2, rng.random_range(0..40), seed);
        let mut pool: Vec<Lit> = aig.iter_vars().skip(1).map(Lit::positive).collect();
        for i in 0..nvars {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        let leaves: Vec<Lit> = pool[..nvars]
            .iter()
            .map(|l| l.xor_complement(rng.random()))
            .collect();
        let mut resynth = Resynth::default();
        if rng.random_bool(0.5) {
            let shared = if rng.random_bool(0.5) {
                tt.cofactor0(rng.random_range(0..nvars))
            } else {
                random_table(&mut rng, nvars)
            };
            resynth.build(&mut aig, shared, &leaves);
        }
        let mut unbounded = aig.clone();
        let lit = resynth.build(&mut unbounded, tt, &leaves);
        let cost = unbounded.num_nodes() - aig.num_nodes();
        let budgets = [
            0,
            usize::MAX,
            cost,
            cost.saturating_sub(1),
            cost + 1,
            rng.random_range(0..cost + 3),
        ];
        for budget in budgets {
            let mut within = aig.clone();
            match resynth.build_within(&mut within, tt, &leaves, budget) {
                Some(got) => {
                    prop_assert!(cost <= budget, "cost {} over budget {}", cost, budget);
                    prop_assert_eq!(got, lit);
                    prop_assert_eq!(nodes(&within), nodes(&unbounded));
                }
                None => {
                    prop_assert!(cost > budget, "cost {} within budget {}", cost, budget);
                    prop_assert_eq!(nodes(&within), nodes(&aig));
                    // The structural hash is restored too: an unbounded
                    // build from here is the reference build.
                    prop_assert_eq!(resynth.build(&mut within, tt, &leaves), lit);
                    prop_assert_eq!(nodes(&within), nodes(&unbounded));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compact_preserves_function(seed in 0u64..100_000) {
        let aig = random_aig(6, 50, seed);
        let compacted = aig.compact();
        prop_assert!(compacted.num_ands() <= aig.num_ands());
        prop_assert!(probably_equivalent(&aig, &compacted, 8, seed));
    }

    #[test]
    fn balance_never_increases_depth(seed in 0u64..100_000) {
        let aig = random_aig(8, 60, seed);
        let out = balance(&aig);
        prop_assert!(out.depth() <= aig.depth());
        prop_assert!(probably_equivalent(&aig, &out, 8, seed ^ 1));
    }

    #[test]
    fn shannon_expansion_identity(bits in any::<u16>()) {
        // f = x & f|x=1  |  !x & f|x=0, for every variable.
        let f = Tt::from_u64(4, bits as u64);
        for v in 0..4 {
            let x = Tt::var(v, 4);
            let recomposed = x.and(&f.cofactor1(v)).or(&x.not().and(&f.cofactor0(v)));
            prop_assert_eq!(&recomposed, &f);
        }
    }

    #[test]
    fn isop_cover_equals_function(bits in any::<u16>()) {
        let f = Tt::from_u64(4, bits as u64);
        let cubes = isop(&f);
        let cover = cubes
            .iter()
            .fold(Tt::zero(4), |acc, c: &Cube| acc.or(&c.to_tt(4)));
        prop_assert_eq!(cover, f);
    }

    #[test]
    fn build_from_tt_realises_function(bits in any::<u16>()) {
        let f = Tt::from_u64(4, bits as u64);
        let mut aig = Aig::new();
        let leaves: Vec<Lit> = (0..4).map(|_| aig.add_input()).collect();
        let root = build_from_tt(&mut aig, &f, &leaves);
        aig.add_output(root);
        for idx in 0..16usize {
            let ins: Vec<bool> = (0..4).map(|i| idx >> i & 1 != 0).collect();
            prop_assert_eq!(aig.eval(&ins)[0], f.get_bit(idx));
        }
    }

    #[test]
    fn npn_canonization_is_idempotent_and_consistent(bits in any::<u16>()) {
        let f = Tt::from_u64(4, bits as u64);
        let (canon, tr) = canonize(&f);
        prop_assert_eq!(&tr.apply(&f), &canon);
        let (canon2, _) = canonize(&canon);
        prop_assert_eq!(&canon2, &canon);
        // NPN classes are closed under output complement.
        let (canon_not, _) = canonize(&f.not());
        prop_assert_eq!(&canon_not, &canon);
    }

    #[test]
    fn cut_functions_agree_with_cone_simulation(seed in 0u64..100_000) {
        let aig = random_aig(5, 30, seed);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        let sim = SimVectors::random(&aig, 2, seed);
        for v in aig.iter_ands().take(10) {
            for cut in cuts.cuts_of(v).iter().filter(|c| c.size() >= 2).take(3) {
                let tt = cut_function(&aig, v, cut.leaves());
                // Check the truth table against simulation: for each
                // pattern, node value must equal tt(leaf values).
                for w in 0..sim.num_words() {
                    let word = sim.lit_word(Lit::positive(v), w);
                    for b in 0..64usize {
                        let mut idx = 0usize;
                        for (i, &leaf) in cut.leaves().iter().enumerate() {
                            if (sim.lit_word(Lit::positive(leaf), w) >> b) & 1 != 0 {
                                idx |= 1 << i;
                            }
                        }
                        let expect = (word >> b) & 1 != 0;
                        prop_assert_eq!(tt.get_bit(idx), expect);
                    }
                }
            }
        }
    }

    #[test]
    fn every_cut_carries_its_cut_function(seed in 0u64..100_000) {
        // The table derived during the merge is the differential twin of
        // cone simulation, on every cut of every node.
        let aig = random_aig(6, 60, seed);
        let cuts = CutSet::compute(&aig, CutConfig::default());
        for v in aig.iter_ands() {
            for cut in cuts.cuts_of(v) {
                prop_assert_eq!(cut.function(), cut_function(&aig, v, cut.leaves()));
            }
        }
    }

    #[test]
    fn arena_cuts_match_the_vec_reference(seed in 0u64..100_000) {
        let aig = random_aig(8, 120, seed);
        for max_cuts in [8, 12] {
            assert_cuts_match_reference(&aig, max_cuts);
        }
    }

    #[test]
    fn inline_reconvergence_cut_matches_the_vec_reference(
        seed in 0u64..100_000,
        max_leaves in 2usize..9,
    ) {
        let aig = random_aig(8, 90, seed);
        let mut window = Window::new(aig.num_nodes());
        for v in aig.iter_ands() {
            prop_assert_eq!(
                &window.reconvergence_cut(&aig, &[v], max_leaves)[..],
                &reference_reconvergence_cut(&aig, v, max_leaves)[..]
            );
        }
    }

    #[test]
    fn reconvergence_cut_is_a_real_cut(seed in 0u64..100_000) {
        // Every path from inputs to the root must pass through a leaf:
        // equivalently, the cut function over the leaves fully determines
        // the node, which cut_function verifies structurally (it panics on
        // uncovered nodes) and the window kernel must reproduce from its
        // volume alone.
        let aig = random_aig(6, 40, seed);
        let Some(v) = aig.iter_ands().last() else {
            return Ok(());
        };
        let mut window = Window::new(aig.num_nodes());
        let leaves = window.reconvergence_cut(&aig, &[v], 8);
        prop_assert!(leaves.len() <= 8);
        let tt = cut_function(&aig, v, &leaves); // would panic if not a cut
        prop_assert!(tt.nvars() == leaves.len());
        window.load(&aig, &[v], &leaves);
        prop_assert_eq!(window.volume().last(), Some(&v));
        prop_assert_eq!(window.table(v).to_tt(leaves.len()), tt);
    }

    #[test]
    fn window_tables_agree_with_cut_function(seed in 0u64..100_000) {
        // Every node of every reconvergence window (one kernel reused
        // across windows, as the passes do) gets the reference table.
        let aig = random_aig(8, 70, seed);
        let mut window = Window::new(aig.num_nodes());
        for v in aig.iter_ands() {
            let leaves = window.reconvergence_cut(&aig, &[v], 8);
            window.load(&aig, &[v], &leaves);
            for &w in window.volume() {
                prop_assert_eq!(
                    window.table(w).to_tt(leaves.len()),
                    cut_function(&aig, w, &leaves)
                );
            }
        }
    }

    #[test]
    fn tt8_agrees_with_tt(bits in any::<u64>(), nvars in 0usize..9, var in 0usize..8) {
        let words = if nvars <= 6 { 1 } else { 1 << (nvars - 6) };
        let f = Tt::from_words(nvars, (0..words).map(|i| bits.rotate_left(17 * i as u32)).collect());
        let g = Tt8::from_tt(&f);
        prop_assert_eq!(g.to_tt(nvars), f.clone());
        prop_assert_eq!(g.not().to_tt(nvars), f.not());
        prop_assert_eq!(g.count_ones(), f.count_ones() << (8 - nvars));
        if var < nvars {
            prop_assert_eq!(g.cofactor0(var).to_tt(nvars), f.cofactor0(var));
            prop_assert_eq!(g.cofactor1(var).to_tt(nvars), f.cofactor1(var));
            prop_assert_eq!(g.depends_on(var), f.depends_on(var));
            prop_assert_eq!(Tt8::var(var).to_tt(nvars), Tt::var(var, nvars));
        } else {
            prop_assert!(!g.depends_on(var), "replicated table depends on {}", var);
        }
    }

    #[test]
    fn pass_pipelines_compose(seed in 0u64..100_000) {
        let aig = random_aig(7, 50, seed);
        let once = Pass::Rewrite.apply(&aig);
        let twice = Pass::Refactor.apply(&once);
        let thrice = Pass::Balance.apply(&twice);
        prop_assert!(probably_equivalent(&aig, &thrice, 8, seed ^ 2));
    }
}
