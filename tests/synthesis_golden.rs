//! Byte-identity pins for the synthesis and mapping kernels.
//!
//! Every pass, `resyn2` and the technology mapper are deterministic
//! functions of their input graph. Recipe choices, recipe-trie contents,
//! the fig4/fig5 rows and the benchmark fingerprints all depend on the
//! exact bytes they produce, so a kernel rewrite that changes *how* a pass
//! computes its result must not change *what* it produces. This suite
//! hashes (FNV-1a, 64 bit) the ASCII AIGER text of every pass output and
//! the gate list plus total-area bits of every mapped netlist, on a few
//! fixed locked ISCAS circuits and random graphs, and compares them to
//! pinned digests.
//!
//! A mismatch prints every digest, so a deliberate change of behaviour
//! can re-pin the table in one edit.
//!
//! Release builds additionally pin the two fraig configurations on
//! deploy-scale sweeps (c5315 and c7552 under 128 RLL key gates, after
//! `wWfFsSb`), where counterexamples are frequent: a change to the sweep
//! solver's search that moves one merge moves a digest here, and one that
//! moves a query, decision or conflict moves the pinned search counters.
//! They also pin every step of the `wWfFsSbgwb` recipe chained on the same
//! two networks: at this scale the resynthesis node budgets cut candidates
//! short most often, so a change to how candidates are costed shows here
//! first.

use almost_repro::aig::aiger::write_aag;
use almost_repro::aig::{fraig_with, Aig, FraigConfig, FraigStats, Lit, Pass, Script};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::{LockingScheme, Rll};
use almost_repro::netlist::{map_aig, CellLibrary, MapConfig, MappedNetlist};
use almost_repro::testutil::release_mode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn aig_digest(aig: &Aig) -> u64 {
    fnv1a(write_aag(aig).as_bytes())
}

fn netlist_digest(nl: &MappedNetlist, library: &CellLibrary) -> u64 {
    let mut text = String::new();
    for g in nl.gates() {
        text.push_str(&format!("{} {:?} {};", g.cell, g.fanins, g.output));
    }
    text.push_str(&format!("|{:?}|{:?}|", nl.input_nets(), nl.output_nets()));
    let area: f64 = nl.gates().iter().map(|g| library.cell(g.cell).area()).sum();
    text.push_str(&format!("{:016x}", area.to_bits()));
    fnv1a(text.as_bytes())
}

fn random_aig(num_inputs: usize, num_ands: usize, seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
    while aig.num_ands() < num_ands {
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
    for i in 0..4 {
        aig.add_output(pool[pool.len() - 1 - i]);
    }
    aig
}

/// `bench` locked with `key_size` RLL key gates at a fixed seed.
fn locked(bench: IscasBenchmark, key_size: usize, seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    Rll::new(key_size)
        .lock(&bench.build(), &mut rng)
        .expect("benchmark takes the key gates")
        .aig
}

/// The pinned inputs: three RLL-locked ISCAS profiles and two random
/// graphs (one shallow and wide, one deep and reconvergent).
fn inputs() -> Vec<(&'static str, Aig)> {
    vec![
        ("c432_rll16", locked(IscasBenchmark::C432, 16, 0x432)),
        ("c1355_rll32", locked(IscasBenchmark::C1355, 32, 0x1355)),
        ("c1908_rll32", locked(IscasBenchmark::C1908, 32, 0x1908)),
        ("rand_wide", random_aig(24, 300, 11)),
        ("rand_deep", random_aig(8, 400, 12)),
    ]
}

/// `(input, step, digest)`: one row per pass output, `resyn2` output and
/// mapped netlist.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("c432_rll16", "w", 0x440f611fd770cd59),
    ("c432_rll16", "W", 0x440f611fd770cd59),
    ("c432_rll16", "f", 0x118d903b0d1d8b30),
    ("c432_rll16", "F", 0x6512e98d434b6d7e),
    ("c432_rll16", "s", 0xeb7b670a18954477),
    ("c432_rll16", "S", 0xeb7b670a18954477),
    ("c432_rll16", "b", 0x99fcdaf1ecbb6aff),
    ("c432_rll16", "g", 0xeb7b670a18954477),
    ("c432_rll16", "resyn2", 0xe7760cce8fb6faa2),
    ("c432_rll16", "map", 0x73c8319fbac96d7b),
    ("c432_rll16", "resyn2_map_opt", 0xb02d2baa19a99314),
    ("c1355_rll32", "w", 0x3f8544f3646555fd),
    ("c1355_rll32", "W", 0x3f8544f3646555fd),
    ("c1355_rll32", "f", 0xf0522ee6fc4eef1c),
    ("c1355_rll32", "F", 0x0f26a7981a927ba0),
    ("c1355_rll32", "s", 0xb7644217123e701c),
    ("c1355_rll32", "S", 0x75d3588bb6f01532),
    ("c1355_rll32", "b", 0x625e866a2d934c70),
    ("c1355_rll32", "g", 0xb7644217123e701c),
    ("c1355_rll32", "resyn2", 0x016a5ad9cffaaf50),
    ("c1355_rll32", "map", 0xba33038f06afecb4),
    ("c1355_rll32", "resyn2_map_opt", 0x22c5332ed8bdb0ac),
    ("c1908_rll32", "w", 0xcb9aaa79211b823d),
    ("c1908_rll32", "W", 0xcb9aaa79211b823d),
    ("c1908_rll32", "f", 0x80fe74f91cd1e1f5),
    ("c1908_rll32", "F", 0xd8840c8ad071be97),
    ("c1908_rll32", "s", 0xb3c1260aff11dd09),
    ("c1908_rll32", "S", 0xcd38408928b975fa),
    ("c1908_rll32", "b", 0x5e9265f7014bc554),
    ("c1908_rll32", "g", 0x18deaf6f4d355f9f),
    ("c1908_rll32", "resyn2", 0x16a2b07a16aa8f1e),
    ("c1908_rll32", "map", 0x0910ff7b1d4fea81),
    ("c1908_rll32", "resyn2_map_opt", 0x7f33a694f9f6cc81),
    ("rand_wide", "w", 0x5dcd8f03cb6cd194),
    ("rand_wide", "W", 0x5dcd8f03cb6cd194),
    ("rand_wide", "f", 0x13ab7dd6e1d4c964),
    ("rand_wide", "F", 0xd6f3cae584a0cf23),
    ("rand_wide", "s", 0xf3861208456bd5f9),
    ("rand_wide", "S", 0xe730e2868ccdcf6e),
    ("rand_wide", "b", 0x6c8704a2b3ad3153),
    ("rand_wide", "g", 0xfccb841167a81a1c),
    ("rand_wide", "resyn2", 0x6fd2f01ee0314ef5),
    ("rand_wide", "map", 0x6072f79ab403ec08),
    ("rand_wide", "resyn2_map_opt", 0xded513160ad1df69),
    ("rand_deep", "w", 0xdeff1ac59bea261f),
    ("rand_deep", "W", 0xdeff1ac59bea261f),
    ("rand_deep", "f", 0xffc1d1ee6e857e62),
    ("rand_deep", "F", 0xeb06d4a9c1e0746b),
    ("rand_deep", "s", 0xdd343bdc808ad6da),
    ("rand_deep", "S", 0xc8e249e230437c7d),
    ("rand_deep", "b", 0xc17f4793c2a0bd2c),
    ("rand_deep", "g", 0x0e23f5e390669d86),
    ("rand_deep", "resyn2", 0x7b61da693bfabbf7),
    ("rand_deep", "map", 0xf6b15a91eeb7f10c),
    ("rand_deep", "resyn2_map_opt", 0xefdaee99bde0fc40),
];

#[test]
fn pass_and_mapping_outputs_are_byte_identical() {
    let library = CellLibrary::nangate45();
    let mut actual: Vec<(String, String, u64)> = Vec::new();
    for (name, aig) in inputs() {
        for pass in Pass::ALL {
            let out = pass.apply(&aig);
            actual.push((name.into(), pass.mnemonic().into(), aig_digest(&out)));
        }
        let deployed = Script::resyn2().apply(&aig);
        actual.push((name.into(), "resyn2".into(), aig_digest(&deployed)));
        let mapped = map_aig(&aig, &library, &MapConfig::no_opt());
        actual.push((name.into(), "map".into(), netlist_digest(&mapped, &library)));
        let mapped = map_aig(&deployed, &library, &MapConfig::extreme_opt());
        actual.push((
            name.into(),
            "resyn2_map_opt".into(),
            netlist_digest(&mapped, &library),
        ));
    }
    let table: String = actual
        .iter()
        .map(|(n, s, d)| format!("    (\"{n}\", \"{s}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, String, u64)> = GOLDEN
        .iter()
        .map(|&(n, s, d)| (n.to_string(), s.to_string(), d))
        .collect();
    assert!(
        actual == expected,
        "synthesis/mapping output digests moved; actual table:\n{table}"
    );
}

/// `(input, config, digest, search)`: the `g` letter's output
/// ([`FraigConfig::recipe`]) and the CEC sweep's output
/// ([`FraigConfig::default`]) on deploy-scale restructured inputs, with
/// the sweep's search pinned as `[sat_calls, proved, refuted,
/// sim_words_added, decisions, conflicts]` of its [`FraigStats`]: a
/// change to the sweep's bookkeeping must not move one query, decision or
/// conflict, even where the output would survive it.
#[rustfmt::skip]
const FRAIG_GOLDEN: &[(&str, &str, u64, [u64; 6])] = &[
    ("c5315_rll128_wWfFsSb", "g", 0x449e0fa8a334b34c, [38, 10, 28, 28, 1079, 55]),
    ("c5315_rll128_wWfFsSb", "fraig", 0x449e0fa8a334b34c, [37, 10, 27, 27, 1079, 53]),
    ("c7552_rll128_wWfFsSb", "g", 0x0ce0fc20406c018a, [78, 15, 63, 63, 9705, 62]),
    ("c7552_rll128_wWfFsSb", "fraig", 0x0ce0fc20406c018a, [76, 15, 61, 61, 8970, 61]),
];

/// The [`FRAIG_GOLDEN`] search counters of one sweep.
fn search_stats(stats: &FraigStats) -> [u64; 6] {
    [
        stats.sat_calls,
        stats.proved,
        stats.refuted,
        stats.sim_words_added,
        stats.decisions,
        stats.conflicts,
    ]
}

#[test]
fn deploy_scale_fraig_sweeps_are_byte_identical() {
    if !release_mode("deploy_scale_fraig_sweeps_are_byte_identical") {
        return;
    }
    let recipe = Script::from_mnemonics("wWfFsSb").expect("valid recipe");
    let mut actual: Vec<(String, String, u64, [u64; 6])> = Vec::new();
    for (name, bench, seed) in [
        ("c5315_rll128_wWfFsSb", IscasBenchmark::C5315, 5315),
        ("c7552_rll128_wWfFsSb", IscasBenchmark::C7552, 7552),
    ] {
        let aig = recipe.apply(&locked(bench, 128, seed));
        for (config_name, config) in [
            ("g", FraigConfig::recipe()),
            ("fraig", FraigConfig::default()),
        ] {
            let (swept, stats) = fraig_with(&aig, &config);
            actual.push((
                name.into(),
                config_name.into(),
                aig_digest(&swept),
                search_stats(&stats),
            ));
        }
    }
    let table: String = actual
        .iter()
        .map(|(n, s, d, st)| format!("    (\"{n}\", \"{s}\", 0x{d:016x}, {st:?}),\n"))
        .collect();
    let expected: Vec<(String, String, u64, [u64; 6])> = FRAIG_GOLDEN
        .iter()
        .map(|&(n, s, d, st)| (n.to_string(), s.to_string(), d, st))
        .collect();
    assert!(
        actual == expected,
        "fraig sweep digests or search counters moved; actual table:\n{table}"
    );
}

/// The recipe `deploy_verify` deploys, pinned step by step below: each
/// pass once, then a second rewrite and balance.
const CHAIN: &str = "wWfFsSbgwb";

/// `(input, step, digest)`: the output after each step of [`CHAIN`],
/// applied one pass at a time; the step is the recipe prefix so far.
const CHAIN_GOLDEN: &[(&str, &str, u64)] = &[
    ("c5315_rll128", "w", 0x76a68133b4d45576),
    ("c5315_rll128", "wW", 0x67be61ba31ceadb2),
    ("c5315_rll128", "wWf", 0xbe2e35f311d09a3a),
    ("c5315_rll128", "wWfF", 0x28c7f5c8b697b586),
    ("c5315_rll128", "wWfFs", 0x758d1cd318b458cb),
    ("c5315_rll128", "wWfFsS", 0x7d32319da31de0d4),
    ("c5315_rll128", "wWfFsSb", 0xe09911fb5e9af8b3),
    ("c5315_rll128", "wWfFsSbg", 0x449e0fa8a334b34c),
    ("c5315_rll128", "wWfFsSbgw", 0x5e3a967a31d438b7),
    ("c5315_rll128", "wWfFsSbgwb", 0xd6f49d109cda5ad5),
    ("c7552_rll128", "w", 0x5cc5e19f11a7c3a8),
    ("c7552_rll128", "wW", 0x30e48b175ed15763),
    ("c7552_rll128", "wWf", 0x24e314f7ae36acb3),
    ("c7552_rll128", "wWfF", 0x7d4619533ae8df6f),
    ("c7552_rll128", "wWfFs", 0xe04af9ba9eb0780b),
    ("c7552_rll128", "wWfFsS", 0x000be9a2c0922edc),
    ("c7552_rll128", "wWfFsSb", 0x250b1b064b17dc21),
    ("c7552_rll128", "wWfFsSbg", 0x0ce0fc20406c018a),
    ("c7552_rll128", "wWfFsSbgw", 0xcd8b29cbae697aaa),
    ("c7552_rll128", "wWfFsSbgwb", 0x59705c94c0be1389),
];

#[test]
fn chain_golden_is_byte_identical() {
    if !release_mode("chain_golden_is_byte_identical") {
        return;
    }
    let recipe = Script::from_mnemonics(CHAIN).expect("valid recipe");
    let mut actual: Vec<(String, String, u64)> = Vec::new();
    for (name, bench, seed) in [
        ("c5315_rll128", IscasBenchmark::C5315, 5315),
        ("c7552_rll128", IscasBenchmark::C7552, 7552),
    ] {
        let mut aig = locked(bench, 128, seed);
        for (i, pass) in recipe.passes().iter().enumerate() {
            aig = pass.apply(&aig);
            actual.push((name.into(), CHAIN[..=i].into(), aig_digest(&aig)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(n, s, d)| format!("    (\"{n}\", \"{s}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, String, u64)> = CHAIN_GOLDEN
        .iter()
        .map(|&(n, s, d)| (n.to_string(), s.to_string(), d))
        .collect();
    assert!(
        actual == expected,
        "recipe chain digests moved; actual table:\n{table}"
    );
}
