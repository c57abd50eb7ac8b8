//! Table II: attack accuracy (%) of OMLA, SCOPE and the redundancy attack
//! on locked circuits synthesised with `resyn2` vs. the ALMOST-generated
//! recipe — plus the oracle-guided SAT attack as the contrast column.
//!
//! Paper shape to reproduce: OMLA drops from well-above-chance on resyn2
//! to ~50% on ALMOST recipes; SCOPE and redundancy fluctuate around or
//! below chance on both, with ALMOST never *helping* the attacks. The SAT
//! attack, which the ALMOST threat model excludes by assuming no oracle,
//! recovers a functionally correct key under *both* recipes — synthesis
//! tuning is a defence against learning, not against oracle access.

use almost_aig::Script;
use almost_attacks::{
    AttackTarget, DoubleDip, Omla, OmlaConfig, OracleGuidedAttack, OracleLessAttack, Redundancy,
    RedundancyConfig, SatAttack, SatAttackConfig, Scope, ScopeConfig,
};
use almost_bench::{
    banner, experiment_benchmarks, lock_benchmark, lock_benchmark_with, pct, pool, telemetry,
    write_csv,
};
use almost_core::{generate_secure_recipe, train_proxy, ProxyKind, Recipe, Scale};
use almost_locking::{CircuitOracle, LockingScheme, Rll, SarLock, Stacked};

fn main() {
    almost_bench::observed("table2_attacks", run);
}

fn run() {
    let scale = Scale::from_env();
    banner("Table II: SOTA attacks, resyn2 vs ALMOST recipe", scale);

    let omla_cfg = |scale: Scale| {
        let p = scale.proxy_config(0);
        OmlaConfig {
            hidden: p.hidden,
            layers: p.layers,
            epochs: p.epochs,
            batch_size: p.batch_size,
            learning_rate: p.learning_rate,
            relock_key_size: p.relock_key_size,
            training_samples: p.initial_samples,
            subgraph: p.subgraph,
            seed: 0x0317A,
        }
    };

    // Every (key-size, bench) cell trains its own proxy and runs its own
    // attacks — independent work, fanned out on the worker pool. Each job
    // returns (console lines, CSV rows, OMLA accuracy drop) and the
    // deterministic job order keeps the printed table and CSV stable.
    let mut jobs: Vec<(usize, almost_circuits::IscasBenchmark)> = Vec::new();
    for &key_size in scale.key_sizes() {
        for bench in experiment_benchmarks(scale, false) {
            jobs.push((key_size, bench));
        }
    }

    let cells: Vec<(Vec<String>, Vec<Vec<String>>, f64)> = pool::map_indexed(
        jobs,
        |_, (key_size, bench)| {
            let mut lines: Vec<String> = Vec::new();
            let mut rows: Vec<Vec<String>> = Vec::new();
            let locked = lock_benchmark(bench, key_size);
            // Defender side: train M* and search for S_ALMOST.
            let proxy = train_proxy(&locked, ProxyKind::Adversarial, &scale.proxy_config(0x7AB2));
            let search = generate_secure_recipe(&locked, &proxy, &scale.sa_config(0x7AB2));
            let recipes = [("resyn2", Recipe::resyn2()), ("ALMOST", search.recipe)];

            let mut accs: Vec<(String, String, f64)> = Vec::new();
            for (recipe_name, recipe) in recipes {
                let target = AttackTarget::new(locked.clone(), recipe.as_script());
                let omla = Omla::new(omla_cfg(scale)).attack(&target);
                let scope = Scope::new(ScopeConfig {
                    max_bits: scale.attack_bit_sample(),
                    ..ScopeConfig::default()
                })
                .attack(&target);
                let redundancy = Redundancy::new(RedundancyConfig {
                    fault_samples: if scale == Scale::Paper { 24 } else { 4 },
                    max_bits: scale.attack_bit_sample().map(|b| b.min(4)),
                    ..RedundancyConfig::default()
                })
                .attack(&target);
                for out in [&omla, &scope, &redundancy] {
                    lines.push(format!(
                        "{:<8} {:>4} {:<10} {:<7} acc {:>6}%  (unresolved {})",
                        bench.name(),
                        key_size,
                        out.attack,
                        recipe_name,
                        pct(out.accuracy),
                        out.num_unresolved()
                    ));
                    rows.push(vec![
                        bench.name().into(),
                        key_size.to_string(),
                        out.attack.clone(),
                        recipe_name.into(),
                        pct(out.accuracy),
                    ]);
                    accs.push((out.attack.clone(), recipe_name.into(), out.accuracy));
                }

                // Contrast row: the oracle-guided SAT attack (budgeted so
                // SAT-hard structures like the c6288 multiplier cannot
                // stall the table; the dedicated `sat_attack` bench runs
                // the exact mode).
                let sat_oracle = CircuitOracle::from_locked(&target.locked);
                let sat = SatAttack::new(SatAttackConfig::approximate(16, 2_000))
                    .attack_with_oracle(&target, &sat_oracle);
                lines.push(format!(
                    "{:<8} {:>4} {:<10} {:<7} acc {:>6}%  ({} DIPs, functionally correct: {})",
                    bench.name(),
                    key_size,
                    sat.attack,
                    recipe_name,
                    pct(sat.accuracy),
                    sat.dip_count(),
                    sat.functionally_correct
                ));
                rows.push(vec![
                    bench.name().into(),
                    key_size.to_string(),
                    sat.attack.clone(),
                    recipe_name.into(),
                    pct(sat.accuracy),
                ]);
            }
            let get = |attack: &str, recipe: &str| {
                accs.iter()
                    .find(|(a, r, _)| a == attack && r == recipe)
                    .map(|(_, _, v)| *v)
                    .unwrap_or(0.0)
            };
            let omla_drop = get("OMLA", "resyn2") - get("OMLA", "ALMOST");

            // SAT-resilient contrast rows: the same benchmark under a
            // SARLock-over-RLL compound lock. The budgeted (AppSAT) SAT
            // attack stalls on the point function's DIP floor; Double DIP
            // strips it and resolves the base in a handful of queries.
            // Every solver call is conflict-budgeted so SAT-hard
            // structures (the c6288 multiplier) cannot stall the table;
            // Double DIP runs on the un-synthesised netlist, where the
            // constant-folded key residues stay small. (The defence
            // metric here is DIPs, not accuracy — the dedicated
            // `sat_resilience` harness prints the scaling table.)
            let compound = Stacked::new(Rll::new(8), SarLock::new(8));
            let locked = lock_benchmark_with(&compound, bench, key_size as u64);
            let deployed = AttackTarget::new(locked.clone(), Recipe::resyn2().as_script());
            let raw = AttackTarget::new(locked, Script::new());
            let sat_oracle = CircuitOracle::from_locked(&deployed.locked);
            let sat = SatAttack::new(SatAttackConfig::approximate(16, 2_000))
                .attack_with_oracle(&deployed, &sat_oracle);
            let dd_oracle = CircuitOracle::from_locked(&raw.locked);
            let dd = DoubleDip::budgeted(48, 50_000).attack_with_oracle(&raw, &dd_oracle);
            // Label each row with the recipe its netlist actually saw.
            for (out, recipe_label) in [(&sat, "resyn2"), (&dd, "none")] {
                let labelled = format!("{}@{}", out.attack, compound.name());
                lines.push(format!(
                    "{:<8} {:>4} {:<22} {:<7} acc {:>6}%  ({} DIPs vs 2^8 floor, functionally correct: {})",
                    bench.name(),
                    deployed.locked.key_size(),
                    labelled,
                    recipe_label,
                    pct(out.accuracy),
                    out.dip_count(),
                    out.functionally_correct
                ));
                rows.push(vec![
                    bench.name().into(),
                    deployed.locked.key_size().to_string(),
                    labelled,
                    recipe_label.into(),
                    pct(out.accuracy),
                ]);
            }
            // Liveness (stderr, completion order): cells take minutes
            // each and the ordered stdout table prints only after every
            // cell finishes, so stream this cell's result rows through
            // the event channel the moment they exist.
            for line in &lines {
                telemetry::progress(|| line.clone());
            }
            telemetry::cell_done(|| format!("{} k={}", bench.name(), key_size));
            (lines, rows, omla_drop)
        },
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut omla_drop = Vec::new();
    for (lines, cell_rows, drop) in cells {
        for line in lines {
            println!("{line}");
        }
        rows.extend(cell_rows);
        omla_drop.push(drop);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!();
    println!(
        "mean OMLA accuracy drop (resyn2 -> ALMOST): {:+.2}%  (paper: 3%-12% drop, to ~50%)",
        mean(&omla_drop) * 100.0
    );

    write_csv(
        "table2_attacks.csv",
        "bench,key_size,attack,recipe,accuracy_pct",
        &rows,
    );
}
