//! Before/after timing of the GIN training hot path on table-2-profile
//! OMLA cells: the dense serial reference
//! (`almost_ml::train::train_dense_reference`) against the CSR +
//! data-parallel trainer (`almost_ml::train::train`).
//!
//! The reference is **not** the PR-3 trainer: it shares the new engine
//! (batched blocks, zero-clone tape, blocked kernels) and differs only
//! in aggregation kernel — dense O(n²·d) matmul on one core vs CSR
//! O(E·d) fanned across workers. That is exactly what makes the loss
//! curves bit-comparable; it also makes `dense_ref_ms` a *conservative*
//! baseline (the genuinely old per-graph cloning trainer, measured once
//! against this harness's cells, was ~1.5-2x slower than the reference —
//! see the PR 4 entry in CHANGES.md for those numbers).
//!
//! Both runs train the *same* initial model on the *same* manufactured
//! locality dataset, and the sparse run must reproduce the dense loss
//! curve within 1e-5 (they are bit-identical by construction — the CSR
//! kernel adds the same products in the same order, and the reduction
//! order is fixed). The CSV this writes is uploaded by the CI
//! `perf-smoke` job as the speedup record.

use almost_aig::Script;
use almost_attacks::subgraph::NUM_FEATURES;
use almost_attacks::{Omla, OmlaConfig};
use almost_bench::{banner, lock_benchmark, pool, write_csv};
use almost_circuits::IscasBenchmark;
use almost_core::Scale;
use almost_ml::gin::GinClassifier;
use almost_ml::train::{train, train_dense_reference, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    almost_bench::observed("training_perf", run);
}

fn run() {
    let scale = Scale::from_env();
    banner("Training perf: dense serial vs CSR + data-parallel", scale);
    println!("  workers: {} (ALMOST_JOBS overrides)", pool::num_workers());

    let p = scale.proxy_config(0);
    let omla_cfg = OmlaConfig {
        hidden: p.hidden,
        layers: p.layers,
        epochs: p.epochs,
        batch_size: p.batch_size,
        learning_rate: p.learning_rate,
        relock_key_size: p.relock_key_size,
        training_samples: p.initial_samples,
        subgraph: p.subgraph,
        seed: 0x0317A,
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (bench, key_size) in [
        (IscasBenchmark::C432, 64usize),
        (IscasBenchmark::C880, 64),
        (IscasBenchmark::C1355, 64),
    ] {
        let locked = lock_benchmark(bench, key_size);
        let omla = Omla::new(omla_cfg);
        let mut rng = StdRng::seed_from_u64(omla_cfg.seed);
        let data = omla.generate_training_data(&locked.aig, &Script::resyn2(), &mut rng);
        let tc = TrainConfig {
            epochs: omla_cfg.epochs,
            batch_size: omla_cfg.batch_size,
            learning_rate: omla_cfg.learning_rate,
            seed: omla_cfg.seed ^ 0x5eed,
        };
        let model = GinClassifier::new(
            NUM_FEATURES,
            omla_cfg.hidden,
            omla_cfg.layers,
            omla_cfg.seed,
        );

        // Min of three reps: the runs are deterministic, so the spread is
        // pure scheduler noise and the minimum is the honest estimate.
        let time3 = |f: &mut dyn FnMut() -> Vec<f32>| {
            let mut best_ms = f64::INFINITY;
            let mut losses = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                losses = f();
                best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
            }
            (best_ms, losses)
        };
        let (dense_ms, dense_losses) =
            time3(&mut || train_dense_reference(&mut model.clone(), &data, &tc).epoch_losses);
        let (sparse_ms, sparse_losses) =
            time3(&mut || train(&mut model.clone(), &data, &tc).epoch_losses);
        let (dense, sparse) = (dense_losses, sparse_losses);

        let max_delta = dense
            .iter()
            .zip(&sparse)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_delta <= 1e-5,
            "{bench}: sparse loss curve diverged from the dense reference ({max_delta})"
        );
        let speedup = dense_ms / sparse_ms;
        println!(
            "{:<8} {} graphs, {} epochs: dense-ref {:>8.1} ms -> sparse-parallel {:>8.1} ms  ({speedup:.1}x, max loss delta {max_delta:.1e})",
            bench.name(),
            data.len(),
            tc.epochs,
            dense_ms,
            sparse_ms,
        );
        rows.push(vec![
            bench.name().into(),
            data.len().to_string(),
            tc.epochs.to_string(),
            format!("{dense_ms:.2}"),
            format!("{sparse_ms:.2}"),
            format!("{speedup:.2}"),
            format!("{max_delta:.2e}"),
        ]);
    }

    write_csv(
        "training_perf.csv",
        "bench,graphs,epochs,dense_ref_ms,sparse_parallel_ms,speedup,max_loss_delta",
        &rows,
    );
}
