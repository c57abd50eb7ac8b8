//! Synthesis explorer: apply every transformation and several recipes to a
//! benchmark, reporting size/depth and mapped PPA — the "different recipes
//! induce different structure" observation (Fig. 1) that ALMOST builds on.
//!
//! ```sh
//! cargo run --release --example synthesis_explorer
//! ```

use almost_repro::aig::{Pass, Script};
use almost_repro::almost::{
    MappedPpaObjective, PpaObjective, Recipe, SaConfig, Scale, SearchEngine,
};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::netlist::{analyze, map_aig, CellLibrary, MapConfig};
use almost_repro::telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    telemetry::init_harness("synthesis_explorer", None);
    let bench = IscasBenchmark::C1908;
    let aig = bench.build();
    let lib = CellLibrary::nangate45();
    println!(
        "{}: {} ANDs, depth {}",
        bench.name(),
        aig.num_ands(),
        aig.depth()
    );

    println!("\nsingle passes:");
    println!("{:<14} {:>7} {:>7}", "pass", "ANDs", "depth");
    for pass in Pass::ALL {
        let out = pass.apply(&aig);
        println!(
            "{:<14} {:>7} {:>7}",
            pass.command(),
            out.num_ands(),
            out.depth()
        );
    }

    println!("\nrecipes (with mapped PPA):");
    println!(
        "{:<12} {:>7} {:>7} {:>10} {:>8} {:>8}",
        "recipe", "ANDs", "depth", "area", "delay", "power"
    );
    let mut rng = StdRng::seed_from_u64(42);
    let mut recipes = vec![("resyn2".to_string(), Recipe::resyn2())];
    for i in 0..4 {
        recipes.push((format!("random{i}"), Recipe::random(10, &mut rng)));
    }
    for (name, recipe) in recipes {
        let out = recipe.apply(&aig);
        let nl = map_aig(&out, &lib, &MapConfig::no_opt());
        let ppa = analyze(&nl, &out, &lib, 4, 7);
        println!(
            "{:<12} {:>7} {:>7} {:>10.1} {:>8.3} {:>8.2}  ({})",
            name,
            out.num_ands(),
            out.depth(),
            ppa.area,
            ppa.delay,
            ppa.power,
            recipe
        );
    }

    // Drive the batched search engine over the recipe space, minimising
    // mapped area — no proxy model needed, the PPA objective stands on
    // its own. Proposal batches share synthesis through the recipe trie;
    // `ALMOST_PROPOSALS` widens the per-step batch.
    println!("\nSA area search on the batched engine:");
    let baseline_aig = Recipe::resyn2().apply(&aig);
    let baseline_nl = map_aig(&baseline_aig, &lib, &MapConfig::no_opt());
    let baseline = analyze(&baseline_nl, &baseline_aig, &lib, 4, 7);
    let objective = MappedPpaObjective {
        accuracy_with: None,
        metric: PpaObjective::Area,
        baseline: &baseline,
        library: &lib,
        analysis_seed: 7,
    };
    let mut engine = SearchEngine::new(aig.clone(), &objective);
    let sa = SaConfig {
        iterations: 12,
        ..Scale::from_env().sa_config(0xE19)
    };
    let run = engine.anneal(Recipe::resyn2(), &sa);
    println!(
        "  best recipe {} -> area ratio {:.3} vs resyn2 (objective {:.1})",
        run.best,
        run.best_score.area_ratio.unwrap_or(f64::NAN),
        run.best_score.objective
    );
    // Cache liveness goes through the stderr progress sink (like the
    // bench harnesses), keeping stdout to the report itself.
    telemetry::progress(|| format!("  [cache] {}", engine.stats().summary()));

    println!("\nresyn2 as a script: {}", Script::resyn2().commands());
    println!("Every recipe preserves function (SAT-checked in the test suite).");
    telemetry::finish();
}
