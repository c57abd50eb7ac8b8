//! Property-based tests for the AIG substrate.

use almost_aig::cut::{cut_function, CutConfig, CutSet};
use almost_aig::isop::{build_from_tt, isop, Cube};
use almost_aig::npn::canonize;
use almost_aig::passes::{balance, reconvergence_cut, Window};
use almost_aig::sim::{probably_equivalent, SimVectors};
use almost_aig::{Aig, Lit, Pass, Tt, Tt8};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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
                let node_pat = sim.node_pattern(v);
                for (w, &word) in node_pat.iter().enumerate().take(2) {
                    for b in 0..64usize {
                        let mut idx = 0usize;
                        for (i, &leaf) in cut.leaves().iter().enumerate() {
                            if (sim.node_pattern(leaf)[w] >> b) & 1 != 0 {
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
        let leaves = reconvergence_cut(&aig, v, 8);
        prop_assert!(leaves.len() <= 8);
        let tt = cut_function(&aig, v, &leaves); // would panic if not a cut
        prop_assert!(tt.nvars() == leaves.len());
        let mut window = Window::new(aig.num_nodes());
        window.load(&aig, v, &leaves);
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
            let leaves = reconvergence_cut(&aig, v, 8);
            window.load(&aig, v, &leaves);
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
