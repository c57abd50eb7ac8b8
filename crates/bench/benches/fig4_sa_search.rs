//! Fig. 4: simulated-annealing recipe search minimising attack accuracy to
//! ~50%, comparing the three accuracy evaluators (M\*, M_resyn2,
//! M_random).
//!
//! Paper shape to reproduce: with M_resyn2 the SA drops to ~50% quickly
//! (its accuracy estimates are unreliable off-distribution); with M\* the
//! search needs more iterations because the adversarially trained model
//! keeps seeing through weak recipes.
//!
//! Every (bench, evaluator) cell trains its own proxy and runs its own SA
//! search — independent work, fanned out on the shared worker pool
//! (`ALMOST_JOBS` sets the width; results are re-assembled in job order,
//! so the printed series and the CSV are identical to a serial run).

use almost_bench::{banner, experiment_benchmarks, lock_benchmark, pool, telemetry, write_csv};
use almost_core::{generate_secure_recipe, train_proxy, ProxyKind, Scale};

fn main() {
    almost_bench::observed("fig4_sa_search", run);
}

fn run() {
    let scale = Scale::from_env();
    banner("Fig. 4: SA recipe search per evaluator", scale);
    let key_size = scale.key_sizes()[0];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut iters_to_50: Vec<(ProxyKind, f64)> = Vec::new();

    const KINDS: [ProxyKind; 3] = [ProxyKind::Adversarial, ProxyKind::Resyn2, ProxyKind::Random];
    let benches = experiment_benchmarks(scale, true);
    // Lock each benchmark once (deterministic) and share the locked
    // circuit across its three evaluator jobs.
    let lockeds: Vec<_> = benches
        .iter()
        .map(|&bench| lock_benchmark(bench, key_size))
        .collect();
    let mut jobs = Vec::new();
    for (&bench, locked) in benches.iter().zip(&lockeds) {
        for (i, kind) in KINDS.into_iter().enumerate() {
            jobs.push((bench, locked, i, kind));
        }
    }

    struct Cell {
        kind: ProxyKind,
        series: Vec<f64>,
        hit: usize,
        line: String,
        engine: almost_core::EngineStats,
    }
    let cells: Vec<Cell> = pool::map_indexed(jobs, |_, (bench, locked, i, kind)| {
        let proxy = train_proxy(locked, kind, &scale.proxy_config(0x41 + i as u64));
        let sa = scale.sa_config(0xF164 + i as u64);
        let result = generate_secure_recipe(locked, &proxy, &sa);
        // Candidates (proposal order) until the accuracy first dips
        // within 2% of 0.5.
        let budget = result.accuracy_series.len();
        let hit = result
            .accuracy_series
            .iter()
            .position(|a| (a - 0.5).abs() <= 0.02)
            .map(|p| p + 1)
            .unwrap_or(budget + 1);
        // "candidate" not "iteration": the series carries
        // `SaConfig::proposals` entries per temperature step, so the index
        // is a proposal-order candidate number (at the harness's one
        // proposal per step the two coincide and match the paper's Fig. 4
        // x-axis).
        let line = format!(
            "  [{}] final acc {:.2}% recipe {} (reached ~50% at candidate {})",
            kind.label(),
            result.accuracy * 100.0,
            result.recipe,
            if hit <= budget {
                hit.to_string()
            } else {
                "never".into()
            }
        );
        // Liveness + cache markers (stderr, completion order): the
        // ordered table prints only after every pool cell finishes.
        telemetry::cell_done(|| format!("{} {}", bench.name(), kind.label()));
        telemetry::progress(|| {
            format!(
                "  [cache] {} {}: {}",
                bench.name(),
                kind.label(),
                result.engine.summary()
            )
        });
        Cell {
            kind,
            series: result.accuracy_series,
            hit,
            line,
            engine: result.engine,
        }
    });

    for (b, bench) in benches.iter().enumerate() {
        println!("\n{} (key {key_size}):", bench.name());
        println!("  cand  M*      M_resyn2  M_random");
        let per_bench = &cells[b * KINDS.len()..(b + 1) * KINDS.len()];
        for cell in per_bench {
            iters_to_50.push((cell.kind, cell.hit as f64));
            println!("{}", cell.line);
        }
        // Per-bench engine totals (summed over the three evaluator
        // cells), repeated on every CSV row of the bench.
        // (live_nodes is a per-trie point-in-time gauge — summing it
        // across the three engines would be meaningless, so it is left
        // at the first cell's value and not emitted.)
        let totals = per_bench
            .iter()
            .skip(1)
            .fold(per_bench[0].engine, |mut acc, c| {
                acc.cache.hits += c.engine.cache.hits;
                acc.cache.misses += c.engine.cache.misses;
                acc.cache.evictions += c.engine.cache.evictions;
                acc.candidates += c.engine.candidates;
                acc.elapsed += c.engine.elapsed;
                acc
            });
        let len = per_bench.iter().map(|c| c.series.len()).max().unwrap_or(0);
        for it in 0..len {
            let get = |c: &Cell| {
                c.series
                    .get(it)
                    .map(|a| format!("{a:.4}"))
                    .unwrap_or_default()
            };
            rows.push(vec![
                bench.name().into(),
                (it + 1).to_string(),
                get(&per_bench[0]),
                get(&per_bench[1]),
                get(&per_bench[2]),
                totals.cache.hits.to_string(),
                totals.cache.misses.to_string(),
                totals.cache.evictions.to_string(),
                format!("{:.2}", totals.candidates_per_sec()),
            ]);
        }
    }

    let mean_hit = |k: ProxyKind| {
        let v: Vec<f64> = iters_to_50
            .iter()
            .filter(|(kind, _)| *kind == k)
            .map(|(_, h)| *h)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!();
    println!(
        "mean candidates to reach ~50%: M* {:.1}, M_resyn2 {:.1}, M_random {:.1}",
        mean_hit(ProxyKind::Adversarial),
        mean_hit(ProxyKind::Resyn2),
        mean_hit(ProxyKind::Random)
    );
    println!("(paper: M* takes the most iterations — its estimates are hardest to fool)");

    write_csv(
        "fig4_sa_search.csv",
        "bench,candidate,acc_adversarial,acc_resyn2,acc_random,\
         cache_hits,cache_misses,cache_evictions,cands_per_sec",
        &rows,
    );
}
