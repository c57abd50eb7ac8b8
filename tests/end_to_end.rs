//! End-to-end ALMOST pipeline integration tests (scaled down to stay
//! test-suite friendly).

use almost_repro::almost::{run_almost, AlmostConfig, ProxyConfig, ProxyKind, Recipe, SaConfig};
use almost_repro::attacks::{AttackTarget, Omla, OmlaConfig, OracleLessAttack, SubgraphConfig};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::apply_key;
use almost_repro::sat::{check_equivalence, Equivalence};

fn quick_config() -> AlmostConfig {
    AlmostConfig {
        key_size: 24,
        proxy_kind: ProxyKind::Adversarial,
        proxy: ProxyConfig {
            initial_samples: 72,
            augment_samples: 24,
            epochs: 16,
            period: 8,
            relock_key_size: 24,
            hidden: 12,
            layers: 2,
            batch_size: 24,
            learning_rate: 8e-3,
            subgraph: SubgraphConfig {
                hops: 2,
                max_nodes: 28,
            },
            adversarial_sa: SaConfig {
                iterations: 4,
                seed: 5,
                ..SaConfig::default()
            },
            seed: 5,
        },
        sa: SaConfig {
            iterations: 8,
            seed: 6,
            ..SaConfig::default()
        },
        seed: 7,
    }
}

#[test]
fn pipeline_preserves_function_sat_proved() {
    let design = IscasBenchmark::C432.build();
    let outcome = run_almost(&design, &quick_config()).expect("lockable");
    let restored = apply_key(
        &outcome.deployed,
        outcome.locked.key_input_start,
        outcome.locked.key.bits(),
    );
    assert_eq!(
        check_equivalence(&design, &restored),
        Equivalence::Equivalent
    );
}

#[test]
fn pipeline_recipe_is_at_least_as_secure_as_baseline_under_its_own_proxy() {
    let design = IscasBenchmark::C880.build();
    let outcome = run_almost(&design, &quick_config()).expect("lockable");
    let baseline_deployed = Recipe::resyn2().apply(&outcome.locked.aig);
    let baseline_acc = outcome
        .proxy
        .predict_accuracy(&outcome.locked, &baseline_deployed);
    assert!(
        (outcome.search.accuracy - 0.5).abs() <= (baseline_acc - 0.5).abs() + 1e-9,
        "ALMOST recipe ({:.3}) must sit no further from 0.5 than resyn2 ({:.3})",
        outcome.search.accuracy,
        baseline_acc
    );
}

#[test]
fn omla_recovers_keys_without_synthesis_defence() {
    // The attack-side sanity anchor for the whole evaluation: raw RLL is
    // highly vulnerable to OMLA (the paper's premise).
    let design = IscasBenchmark::C880.build();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    use almost_repro::locking::{LockingScheme, Rll};
    use rand::SeedableRng;
    let locked = Rll::new(32).lock(&design, &mut rng).expect("lockable");
    let target = AttackTarget::new(locked, almost_repro::aig::Script::default());
    let omla = Omla::new(OmlaConfig {
        hidden: 12,
        layers: 2,
        epochs: 25,
        batch_size: 32,
        learning_rate: 8e-3,
        relock_key_size: 24,
        training_samples: 144,
        subgraph: SubgraphConfig {
            hops: 3,
            max_nodes: 32,
        },
        seed: 3,
    });
    let outcome = omla.attack(&target);
    assert!(
        outcome.accuracy > 0.65,
        "raw RLL must be vulnerable, OMLA got {:.2}",
        outcome.accuracy
    );
}
