//! Oracle-guided SAT-attack harness: DIP counts, oracle queries, solver
//! effort and wall time for exact and AppSAT-approximate key recovery
//! across benchmarks and key sizes.
//!
//! Literature shape to reproduce: RLL falls to the exact attack in seconds
//! with DIP counts far below 2^k, growing mildly with key size; the
//! approximate mode reaches a functionally correct key with bounded solver
//! effort. XOR-dominated circuits (c1355 profile) need the most conflicts.
//!
//! Rows are independent (every row builds its own lock, oracle and
//! solver), so they fan out across cores on `almost_bench::pool`; results
//! are printed and written in deterministic row order regardless of
//! scheduling (`ALMOST_JOBS=1` forces the serial reference run).

use almost_attacks::{AttackTarget, OracleGuidedAttack, SatAttack, SatAttackConfig};
use almost_bench::{banner, lock_benchmark, pct, pool, telemetry, write_csv};
use almost_circuits::IscasBenchmark;
use almost_core::{Recipe, Scale};
use almost_locking::CircuitOracle;
use std::time::Instant;

fn main() {
    almost_bench::observed("sat_attack", run);
}

fn run() {
    let scale = Scale::from_env();
    banner("SAT attack: exact vs approximate key recovery", scale);
    let benches = match scale {
        Scale::Quick => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C880,
            IscasBenchmark::C1355,
        ],
        Scale::Paper => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C880,
            IscasBenchmark::C1355,
            IscasBenchmark::C1908,
            IscasBenchmark::C3540,
        ],
    };
    let key_sizes: &[usize] = match scale {
        Scale::Quick => &[8, 16, 32],
        Scale::Paper => &[8, 16, 32, 64],
    };

    let mut jobs: Vec<(IscasBenchmark, usize, &'static str, SatAttack)> = Vec::new();
    for &bench in &benches {
        for &key_size in key_sizes {
            jobs.push((bench, key_size, "exact", SatAttack::exact()));
            jobs.push((
                bench,
                key_size,
                "appsat",
                SatAttack::new(SatAttackConfig::approximate(8, 500)),
            ));
        }
    }

    println!(
        "{:<8} {:>4} {:<7} {:>6} {:>8} {:>10} {:>10} {:>8} {:>9} {:>8}",
        "bench",
        "key",
        "mode",
        "DIPs",
        "queries",
        "decisions",
        "conflicts",
        "restarts",
        "time",
        "correct"
    );
    let results = pool::map_indexed(jobs, |_, (bench, key_size, mode, attack)| {
        let locked = lock_benchmark(bench, key_size);
        let target = AttackTarget::new(locked, Recipe::resyn2());
        let oracle = CircuitOracle::from_locked(&target.locked);
        let started = Instant::now();
        let outcome = attack.attack_with_oracle(&target, &oracle);
        let elapsed = started.elapsed();
        telemetry::cell_done(|| format!("{} k={key_size} {mode}", bench.name()));
        let line = format!(
            "{:<8} {:>4} {:<7} {:>6} {:>8} {:>10} {:>10} {:>8} {:>8.2}s {:>8}",
            bench.name(),
            key_size,
            mode,
            outcome.dip_count(),
            outcome.oracle_queries,
            outcome.solver.decisions,
            outcome.solver.conflicts,
            outcome.solver.restarts,
            elapsed.as_secs_f64(),
            outcome.functionally_correct
        );
        let row = vec![
            bench.name().into(),
            key_size.to_string(),
            mode.into(),
            outcome.dip_count().to_string(),
            outcome.oracle_queries.to_string(),
            outcome.solver.decisions.to_string(),
            outcome.solver.propagations.to_string(),
            outcome.solver.conflicts.to_string(),
            outcome.solver.restarts.to_string(),
            format!("{:.4}", elapsed.as_secs_f64()),
            pct(outcome.accuracy),
            outcome.functionally_correct.to_string(),
        ];
        (line, row)
    });

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (line, row) in results {
        println!("{line}");
        rows.push(row);
    }

    write_csv(
        "sat_attack.csv",
        "bench,key_size,mode,dips,oracle_queries,decisions,propagations,conflicts,restarts,seconds,bit_agreement_pct,functionally_correct",
        &rows,
    );
    println!("\n(every `correct=true` row is a SAT-CEC-verified key recovery)");
}
