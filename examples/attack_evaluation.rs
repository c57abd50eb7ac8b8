//! Attack evaluation: run all four oracle-less attacks (OMLA, SnapShot,
//! SCOPE, redundancy) against the same locked design under two defences —
//! the `resyn2` baseline and an ALMOST recipe — and compare recoveries.
//!
//! ```sh
//! cargo run --release --example attack_evaluation
//! ```

use almost_repro::almost::{generate_secure_recipe, train_proxy, ProxyKind, Recipe, Scale};
use almost_repro::attacks::{
    AttackTarget, Omla, OmlaConfig, OracleLessAttack, Redundancy, RedundancyConfig, Scope,
    ScopeConfig, Snapshot, SnapshotConfig,
};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::{LockingScheme, Rll};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let design = IscasBenchmark::C880.build();
    let mut rng = StdRng::seed_from_u64(0xE0A);
    let locked = Rll::new(32).lock(&design, &mut rng).expect("lockable");
    println!("locked c880-profile with a 32-bit key: {:?}", locked.key);

    // Defender: adversarial proxy + recipe search.
    let proxy = train_proxy(&locked, ProxyKind::Adversarial, &scale.proxy_config(2));
    let search = generate_secure_recipe(&locked, &proxy, &scale.sa_config(2));
    println!("S_ALMOST = {}", search.recipe);

    let p = scale.proxy_config(3);
    let omla = Omla::new(OmlaConfig {
        hidden: p.hidden,
        layers: p.layers,
        epochs: p.epochs,
        batch_size: p.batch_size,
        learning_rate: p.learning_rate,
        relock_key_size: p.relock_key_size,
        training_samples: p.initial_samples,
        subgraph: p.subgraph,
        seed: 11,
    });
    let snapshot = Snapshot::new(SnapshotConfig {
        epochs: p.epochs,
        training_samples: p.initial_samples,
        subgraph: p.subgraph,
        ..SnapshotConfig::default()
    });
    let scope = Scope::new(ScopeConfig {
        max_bits: Some(12),
        ..ScopeConfig::default()
    });
    let redundancy = Redundancy::new(RedundancyConfig {
        fault_samples: 6,
        max_bits: Some(6),
        ..RedundancyConfig::default()
    });
    let attacks: Vec<&dyn OracleLessAttack> = vec![&omla, &snapshot, &scope, &redundancy];

    for (label, recipe) in [
        ("resyn2", Recipe::resyn2()),
        ("ALMOST", search.recipe.clone()),
    ] {
        println!("\n--- defence: {label} ---");
        let target = AttackTarget::new(locked.clone(), recipe);
        for attack in &attacks {
            let outcome = attack.attack(&target);
            println!(
                "{:<10} accuracy {:>6.2}%  ({} bits unresolved)",
                outcome.attack,
                outcome.accuracy * 100.0,
                outcome.num_unresolved()
            );
        }
    }
    println!("\n(50% = random guessing; ALMOST aims to pull every attack towards it)");
}
