//! Data-parallel minibatch training loop for the GIN classifier.
//!
//! Every minibatch is split into **fixed-size sub-blocks** of
//! [`PAR_BLOCK`] graphs that are fanned out on the `almost_pool`
//! work-stealing pool. Each block fuses its graphs into one
//! block-diagonal union ([`GinClassifier::forward_batch`]): one spmm per
//! GIN round for the whole block and batch-wide MLP matmuls, instead of
//! a run of tiny per-graph ops. The block partition and the gradient
//! reduction order depend only on the batch layout — never on the worker
//! count — so a run with `ALMOST_JOBS=8` produces bit-identical
//! parameters to a run with `ALMOST_JOBS=1`:
//!
//! - block `i` of a batch always holds the same graph slice and always
//!   computes on its own persistent [`Tape`] (forward + backward over the
//!   block's summed loss, self-contained and scheduling-independent);
//! - block gradients are folded into the shared accumulator **in block
//!   order** on the calling thread after the pool joins.
//!
//! The per-block tapes and gradient buffers persist across batches and
//! epochs, so after the first epoch the **tape workspace** — where all
//! matrix buffers live — allocates nothing (the [`TrainStats`] counters
//! expose this; the release-mode `training_perf` envelope test pins it).
//! A handful of small per-batch `Vec`s remain outside that accounting
//! (the block's union CSR, segment lengths, targets) — O(block) index
//! vectors, not O(n·d) matrix traffic.

use crate::gin::{GinClassifier, Graph};
use crate::optim::Adam;
use crate::tape::Tape;
use crate::tensor::Matrix;
use almost_pool as pool;
use almost_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Mutex;

/// Graphs per parallel gradient sub-block. Fixed (not derived from the
/// worker count) so the reduction tree — and therefore every floating
/// point rounding — is identical whatever `ALMOST_JOBS` says.
pub const PAR_BLOCK: usize = 4;

/// Training hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 50,
            batch_size: 32,
            learning_rate: 1e-2,
            seed: 0,
        }
    }
}

/// Summary of one training run.
#[derive(Clone, Debug)]
pub struct TrainStats {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Final training-set accuracy.
    pub final_accuracy: f64,
    /// Total tape nodes recorded by the training hot loop.
    pub tape_ops: u64,
    /// Fresh **matrix buffers** the hot loop's tapes had to allocate
    /// (spare-pool misses; small per-batch index/CSR vectors are not
    /// tape-managed and not counted). Grows during the first epoch
    /// (workspace warm-up) and then stays flat — pinned by the
    /// `training_perf` envelope test.
    pub tape_allocs: u64,
}

impl TrainStats {
    fn empty() -> Self {
        TrainStats {
            epoch_losses: Vec::new(),
            final_accuracy: 0.0,
            tape_ops: 0,
            tape_allocs: 0,
        }
    }
}

/// One sub-block's persistent workspace: a recording tape plus the buffer
/// its parameter gradients are copied into for the ordered reduction.
struct BlockState {
    tape: Tape,
    grads: Vec<Matrix>,
}

/// Trains `model` on `graphs` with minibatch Adam; returns per-epoch
/// losses.
///
/// An empty dataset is a no-op (returns zeroed stats).
pub fn train(model: &mut GinClassifier, graphs: &[Graph], config: &TrainConfig) -> TrainStats {
    train_with_callback(model, graphs, config, |_, _| {})
}

/// Like [`train`], but invokes `on_epoch(epoch_index, mean_loss)` after
/// every epoch — the hook Algorithm 1 uses to trigger adversarial
/// augmentation every R epochs.
pub fn train_with_callback(
    model: &mut GinClassifier,
    graphs: &[Graph],
    config: &TrainConfig,
    on_epoch: impl FnMut(usize, f32),
) -> TrainStats {
    train_impl(model, graphs, config, on_epoch, false)
}

/// The dense serial baseline: identical loop structure, but neighbourhood
/// aggregation goes through the O(n²·d) dense matmul
/// ([`GinClassifier::forward_batch_dense`]) and every sub-block runs on the
/// calling thread. Because the two aggregation kernels add the same
/// products in the same order, this reproduces [`train`]'s `epoch_losses`
/// **bit-for-bit** — it exists as the reference the parity suite asserts
/// against and the slow "before" the `training_perf` harness times.
pub fn train_dense_reference(
    model: &mut GinClassifier,
    graphs: &[Graph],
    config: &TrainConfig,
) -> TrainStats {
    train_impl(model, graphs, config, |_, _| {}, true)
}

fn train_impl(
    model: &mut GinClassifier,
    graphs: &[Graph],
    config: &TrainConfig,
    mut on_epoch: impl FnMut(usize, f32),
    dense_serial: bool,
) -> TrainStats {
    if graphs.is_empty() {
        return TrainStats::empty();
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut adam = Adam::new(config.learning_rate);
    let mut order: Vec<usize> = (0..graphs.len()).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    let batch = config.batch_size.max(1);
    let max_blocks = batch
        .div_ceil(PAR_BLOCK)
        .min(graphs.len().div_ceil(PAR_BLOCK));
    let blocks: Vec<Mutex<BlockState>> = (0..max_blocks)
        .map(|_| {
            Mutex::new(BlockState {
                tape: Tape::new(),
                grads: Vec::new(),
            })
        })
        .collect();
    let mut grad_acc: Vec<Matrix> = model
        .parameters()
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect();

    // Latched once: the per-epoch instrumentation below must cost the
    // disabled path nothing beyond this one load (the overhead envelope
    // test pins the disabled hot loop to zero extra allocations).
    let trace_on = telemetry::tracing();
    let _span = if trace_on {
        Some(telemetry::span(telemetry::Scope::Trainer, || {
            format!("train {} graphs x {} epochs", graphs.len(), config.epochs)
        }))
    } else {
        None
    };
    let mut last_tape = (0u64, 0u64);

    for epoch in 0..config.epochs {
        let epoch_start = if trace_on {
            Some(telemetry::clock::now_us())
        } else {
            None
        };
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(batch) {
            let model_ref: &GinClassifier = model;
            let run_block = |i: usize, blk: &[usize]| -> f32 {
                let mut state = blocks[i].lock().expect("block lock");
                let state = &mut *state;
                let tape = &mut state.tape;
                tape.reset();
                let bound = model_ref.bind(tape);
                let block_graphs: Vec<&Graph> = blk.iter().map(|&gi| &graphs[gi]).collect();
                let logits = if dense_serial {
                    model_ref.forward_batch_dense(tape, &bound, &block_graphs)
                } else {
                    model_ref.forward_batch(tape, &bound, &block_graphs)
                };
                let targets: Vec<f32> = block_graphs.iter().map(|g| g.label as u8 as f32).collect();
                let total = tape.bce_with_logits_batch(logits, &targets);
                tape.backward(total);
                // Copy the block's parameter gradients out so the tape is
                // free for the next batch; the buffers persist.
                if state.grads.is_empty() {
                    state.grads = model_ref
                        .parameters()
                        .iter()
                        .map(|p| Matrix::zeros(p.rows(), p.cols()))
                        .collect();
                }
                for (slot, &node) in state.grads.iter_mut().zip(&bound.param_nodes()) {
                    match tape.grad(node) {
                        Some(g) => slot.copy_from(g),
                        None => slot.fill(0.0),
                    }
                }
                tape.value(total).get(0, 0)
            };

            let jobs: Vec<&[usize]> = chunk.chunks(PAR_BLOCK).collect();
            let used_blocks = jobs.len();
            let block_losses: Vec<f32> = if dense_serial {
                jobs.into_iter()
                    .enumerate()
                    .map(|(i, blk)| run_block(i, blk))
                    .collect()
            } else {
                pool::map_indexed(jobs, run_block)
            };

            // Ordered reduction: block 0, block 1, … — the association is
            // fixed by the batch layout, not the scheduling.
            let inv = 1.0 / chunk.len() as f32;
            for m in grad_acc.iter_mut() {
                m.fill(0.0);
            }
            for state in blocks.iter().take(used_blocks) {
                let state = state.lock().expect("block lock");
                for (acc, g) in grad_acc.iter_mut().zip(&state.grads) {
                    acc.add_scaled(g, inv);
                }
            }
            epoch_loss += block_losses.iter().sum::<f32>() * inv;
            batches += 1;

            let grad_refs: Vec<&Matrix> = grad_acc.iter().collect();
            adam.step(&mut model.parameters_mut(), &grad_refs);
        }
        let mean_loss = epoch_loss / batches.max(1) as f32;
        epoch_losses.push(mean_loss);
        if let Some(start) = epoch_start {
            let (mut ops, mut allocs) = (0u64, 0u64);
            for state in &blocks {
                let stats = state.lock().expect("block lock").tape.stats();
                ops += stats.nodes_recorded;
                allocs += stats.fresh_buffers;
            }
            telemetry::trace(|| telemetry::EventKind::TrainEpoch {
                epoch: epoch as u32,
                loss: f64::from(mean_loss),
                wall_us: telemetry::clock::now_us().saturating_sub(start),
                tape_ops: ops - last_tape.0,
                tape_allocs: allocs - last_tape.1,
            });
            last_tape = (ops, allocs);
        }
        on_epoch(epoch, mean_loss);
    }

    let final_accuracy = model.accuracy(graphs);
    let (mut tape_ops, mut tape_allocs) = (0u64, 0u64);
    for state in &blocks {
        let stats = state.lock().expect("block lock").tape.stats();
        tape_ops += stats.nodes_recorded;
        tape_allocs += stats.fresh_buffers;
    }
    TrainStats {
        epoch_losses,
        final_accuracy,
        tape_ops,
        tape_allocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Builds a synthetic dataset where the label is linearly decodable
    /// from a node feature.
    fn separable_dataset(n: usize, seed: u64) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let label = rng.random_bool(0.5);
                let signal = if label { 1.0 } else { -1.0 };
                let noise: Vec<f32> = (0..3).map(|_| (rng.random::<f32>() - 0.5) * 0.2).collect();
                let f = Matrix::from_rows(&[
                    &[signal + noise[0], 1.0],
                    &[signal + noise[1], 0.0],
                    &[signal + noise[2], 0.5],
                ]);
                Graph::from_edges(3, &[(0, 1), (1, 2)], f, label)
            })
            .collect()
    }

    #[test]
    fn learns_a_separable_problem() {
        let data = separable_dataset(80, 5);
        let mut model = GinClassifier::new(2, 8, 2, 13);
        let before = model.accuracy(&data);
        let stats = train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 40,
                batch_size: 16,
                learning_rate: 5e-3,
                seed: 1,
            },
        );
        assert!(
            stats.final_accuracy > 0.95,
            "expected near-perfect accuracy, got {} (before {before})",
            stats.final_accuracy
        );
        let first = stats.epoch_losses.first().copied().expect("epochs ran");
        let last = stats.epoch_losses.last().copied().expect("epochs ran");
        assert!(last < first, "loss must decrease: {first} -> {last}");
    }

    #[test]
    fn sparse_parallel_training_matches_the_dense_serial_reference() {
        let data = separable_dataset(40, 21);
        let config = TrainConfig {
            epochs: 6,
            batch_size: 16,
            learning_rate: 5e-3,
            seed: 9,
        };
        let mut sparse_model = GinClassifier::new(2, 8, 2, 31);
        let mut dense_model = sparse_model.clone();
        let sparse = train(&mut sparse_model, &data, &config);
        let dense = train_dense_reference(&mut dense_model, &data, &config);
        assert_eq!(
            sparse.epoch_losses, dense.epoch_losses,
            "sparse aggregation reproduces the dense reference bit-for-bit"
        );
        for (p, q) in sparse_model
            .parameters()
            .iter()
            .zip(dense_model.parameters())
        {
            assert_eq!(*p, q, "trained parameters are bit-identical too");
        }
    }

    #[test]
    fn hot_loop_stops_allocating_after_warm_up() {
        let data = separable_dataset(32, 7);
        let config = |epochs| TrainConfig {
            epochs,
            batch_size: 16,
            learning_rate: 5e-3,
            seed: 3,
        };
        let short = train(&mut GinClassifier::new(2, 8, 2, 5), &data, &config(2));
        let long = train(&mut GinClassifier::new(2, 8, 2, 5), &data, &config(8));
        assert_eq!(
            short.tape_allocs, long.tape_allocs,
            "epochs after the first must reuse the warm workspace"
        );
        assert_eq!(
            long.tape_ops,
            4 * short.tape_ops,
            "op count scales with epochs"
        );
    }

    #[test]
    fn shuffled_labels_stay_near_chance() {
        let mut data = separable_dataset(60, 6);
        // Destroy the signal: random labels.
        let mut rng = StdRng::seed_from_u64(77);
        for g in &mut data {
            g.label = rng.random_bool(0.5);
        }
        let mut model = GinClassifier::new(2, 8, 2, 17);
        let stats = train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 8,
                batch_size: 16,
                learning_rate: 5e-3,
                seed: 2,
            },
        );
        // Training accuracy may exceed chance by memorisation, but a
        // held-out set cannot: evaluate on fresh shuffled data.
        let mut holdout = separable_dataset(60, 99);
        for g in &mut holdout {
            g.label = rng.random_bool(0.5);
        }
        let acc = model.accuracy(&holdout);
        assert!(
            (0.25..=0.75).contains(&acc),
            "held-out accuracy {acc} should hover around 0.5"
        );
        let _ = stats;
    }

    #[test]
    fn empty_dataset_is_noop() {
        let mut model = GinClassifier::new(2, 4, 1, 3);
        let stats = train(&mut model, &[], &TrainConfig::default());
        assert!(stats.epoch_losses.is_empty());
        assert_eq!(stats.tape_ops, 0);
    }

    #[test]
    fn callback_fires_every_epoch() {
        let data = separable_dataset(20, 8);
        let mut model = GinClassifier::new(2, 4, 1, 3);
        let mut calls = Vec::new();
        train_with_callback(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 5,
                batch_size: 8,
                learning_rate: 1e-2,
                seed: 3,
            },
            |e, _| calls.push(e),
        );
        assert_eq!(calls, vec![0, 1, 2, 3, 4]);
    }
}
