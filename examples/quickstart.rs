//! Quickstart: lock a benchmark circuit, run the full ALMOST pipeline
//! (adversarial proxy training + security-aware recipe search), and verify
//! the deployed netlist still computes the original function under the
//! correct key.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use almost_repro::almost::{run_almost, AlmostConfig, SaConfig, Scale};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::locking::apply_key;
use almost_repro::sat::{check_equivalence, Equivalence};

fn main() {
    let scale = Scale::from_env();
    let design = IscasBenchmark::C1355.build();
    println!(
        "design: c1355-profile, {} inputs / {} outputs / {} AND nodes",
        design.num_inputs(),
        design.num_outputs(),
        design.num_ands()
    );

    let config = AlmostConfig {
        key_size: 32,
        proxy: scale.proxy_config(1),
        sa: SaConfig {
            iterations: 10,
            ..scale.sa_config(1)
        },
        ..AlmostConfig::default()
    };
    let outcome = run_almost(&design, &config).expect("c1355 absorbs 32 key gates");

    println!("key:            {:?}", outcome.locked.key);
    println!(
        "S_ALMOST:       {} ({})",
        outcome.recipe,
        outcome.recipe.commands()
    );
    println!(
        "deployed:       {} AND nodes (locked had {})",
        outcome.deployed.num_ands(),
        outcome.locked.aig.num_ands()
    );
    println!(
        "proxy-predicted attack accuracy: {:.2}% (target ~50%)",
        outcome.search.accuracy * 100.0
    );

    // Correct key ⇒ original function, proved by SAT.
    let restored = apply_key(
        &outcome.deployed,
        outcome.locked.key_input_start,
        outcome.locked.key.bits(),
    );
    match check_equivalence(&design, &restored) {
        Equivalence::Equivalent => println!("SAT check: deployed + correct key ≡ original ✔"),
        Equivalence::Counterexample(cex) => {
            panic!("locking/synthesis broke the function on input {cex:?}")
        }
    }
}
