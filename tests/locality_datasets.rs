//! Byte-identity pins for the self-referenced training data.
//!
//! OMLA, SnapShot and the ALMOST proxies train on localities made the
//! same way: relock the netlist, synthesise it with a recipe and extract
//! the new key gates' neighbourhoods. On c432 under 16 RLL key gates, with
//! fixed seeds, this suite hashes (FNV-1a, 64 bit) the graphs — features,
//! CSR adjacency and label — of OMLA's training data and of the proxies'
//! `resyn2`, random-recipe and augmentation samples (drawn in the order
//! `train_proxy` draws them). It also hashes what models trained on such
//! data produce: OMLA's and SnapShot's per-bit probabilities, and the
//! parameters and predicted accuracy of all three `train_proxy` kinds,
//! whose adversarial rounds add the inner search's samples.
//!
//! A mismatch prints every digest, so a deliberate change of behaviour
//! can re-pin the table in one edit.

use almost_repro::aig::Script;
use almost_repro::almost::proxy::generate_samples;
use almost_repro::almost::{train_proxy, ProxyConfig, ProxyKind, Recipe, SaConfig, RECIPE_LENGTH};
use almost_repro::attacks::subgraph::{extract_all_localities, SubgraphConfig};
use almost_repro::attacks::{Omla, OmlaConfig, Snapshot, SnapshotConfig};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::{LockingScheme, Rll};
use almost_repro::ml::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SUBGRAPH: SubgraphConfig = SubgraphConfig {
    hops: 3,
    max_nodes: 32,
};

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    words
        .into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

fn bits(values: &[f32]) -> impl Iterator<Item = u32> + '_ {
    values.iter().map(|v| v.to_bits())
}

/// Per graph: its shape, label, adjacency entry count, features and
/// dense adjacency (the CSR structure keeps no explicit zeros, so the
/// entry count and dense expansion determine it).
fn graphs_digest(graphs: &[Graph]) -> u64 {
    let mut words = Vec::new();
    for g in graphs {
        let f = &g.features;
        words.extend([f.rows(), f.cols(), g.label as usize, g.adj_hat.nnz()].map(|v| v as u32));
        words.extend(bits(f.data()));
        words.extend(bits(g.adj_hat.to_dense().data()));
    }
    fnv1a(words)
}

#[test]
fn self_referenced_datasets_match_pinned_digests() {
    const PINNED: [(&str, u64); 9] = [
        ("omla_training_data", 0xcf754e279c80d6d0),
        ("omla_predictions", 0x70399fa281100a55),
        ("snapshot_predictions", 0xc850be0e4773ff1d),
        ("proxy_resyn2_samples", 0x9de5a39e646d59d9),
        ("proxy_random_samples", 0x93269c177faa7ec5),
        ("proxy_augmentation", 0xf2817d08b10bf9b3),
        ("proxy_resyn2_model", 0x2c17b8df7ee7f61c),
        ("proxy_random_model", 0xcbff6dc3b18d9897),
        ("proxy_adversarial_model", 0x55b5f76569b9ddf8),
    ];
    let locked = Rll::new(16)
        .lock(&IscasBenchmark::C432.build(), &mut StdRng::seed_from_u64(2))
        .expect("lockable");
    let deployed = Script::resyn2().apply(&locked.aig);
    let positions: Vec<usize> = locked.key_input_positions().collect();
    let mut got = Vec::new();

    let omla = Omla::new(OmlaConfig {
        epochs: 4,
        relock_key_size: 24,
        training_samples: 144,
        subgraph: SUBGRAPH,
        seed: 7,
        ..OmlaConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(3);
    let data = omla.generate_training_data(&locked.aig, &Script::resyn2(), &mut rng);
    assert_eq!(data.len(), 144);
    got.push(("omla_training_data", graphs_digest(&data)));
    let model = omla.train_model(&deployed, &Script::resyn2());
    let probs = omla.predict_bits(&model, &deployed, &positions);
    got.push(("omla_predictions", fnv1a(bits(&probs))));

    let snapshot = Snapshot::new(SnapshotConfig {
        epochs: 3,
        relock_key_size: 24,
        training_samples: 96,
        subgraph: SUBGRAPH,
        seed: 11,
        ..SnapshotConfig::default()
    });
    let model = snapshot.train_model(&deployed, &Script::resyn2());
    let victims = extract_all_localities(&deployed, &positions, locked.key.bits(), &SUBGRAPH);
    let probs: Vec<f32> = victims.iter().map(|g| model.predict(g)).collect();
    got.push(("snapshot_predictions", fnv1a(bits(&probs))));

    let config = ProxyConfig {
        initial_samples: 72,
        augment_samples: 24,
        epochs: 6,
        period: 3,
        relock_key_size: 24,
        hidden: 12,
        batch_size: 24,
        subgraph: SUBGRAPH,
        adversarial_sa: SaConfig {
            iterations: 3,
            seed: 1,
            ..SaConfig::default()
        },
        seed: 5,
        ..ProxyConfig::default()
    };
    let (k, n) = (config.relock_key_size, config.initial_samples);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let resyn2 = generate_samples(&locked.aig, |_| Recipe::resyn2(), n, k, &SUBGRAPH, &mut rng);
    got.push(("proxy_resyn2_samples", graphs_digest(&resyn2)));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let draw = |r: &mut StdRng| Recipe::random(RECIPE_LENGTH, r);
    let random = generate_samples(&locked.aig, draw, n, k, &SUBGRAPH, &mut rng);
    got.push(("proxy_random_samples", graphs_digest(&random)));
    let s_star = Recipe::from_mnemonics("sWbgfFwSbw").expect("valid recipe");
    let n = config.augment_samples;
    let augmented = generate_samples(&locked.aig, |_| s_star.clone(), n, k, &SUBGRAPH, &mut rng);
    got.push(("proxy_augmentation", graphs_digest(&augmented)));
    assert_eq!((resyn2.len(), random.len(), augmented.len()), (72, 72, 24));

    for (name, kind) in [
        ("proxy_resyn2_model", ProxyKind::Resyn2),
        ("proxy_random_model", ProxyKind::Random),
        ("proxy_adversarial_model", ProxyKind::Adversarial),
    ] {
        let proxy = train_proxy(&locked, kind, &config);
        let accuracy = proxy.predict_accuracy(&locked, &deployed).to_bits();
        let params = proxy.classifier().parameters();
        let words = params.iter().flat_map(|p| bits(p.data()));
        got.push((
            name,
            fnv1a(words.chain([accuracy as u32, (accuracy >> 32) as u32])),
        ));
    }

    let table: String = got
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "dataset digests moved; got:\n{table}");
}
