//! A SnapShot-style attack (Sisejkovic et al., ACM JETC 2021):
//! self-referencing like OMLA, but with a plain MLP over a *flattened*
//! locality encoding instead of a GNN. Included as the "classic
//! tensor-based model" point of comparison the paper discusses in §II.

use crate::report::{AttackOutcome, AttackTarget, OracleLessAttack};
use crate::subgraph::{extract_all_localities, SubgraphConfig};
use almost_aig::{Aig, Script};
use almost_locking::{relock, Rll};
use almost_ml::gin::Graph;
use almost_ml::nn::Linear;
use almost_ml::optim::Adam;
use almost_ml::tape::{sigmoid, Tape};
use almost_ml::tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// SnapShot configuration.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotConfig {
    /// MLP hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Key gates per re-lock round.
    pub relock_key_size: usize,
    /// Training set size.
    pub training_samples: usize,
    /// Locality shape.
    pub subgraph: SubgraphConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            hidden: 32,
            epochs: 80,
            learning_rate: 5e-3,
            relock_key_size: 32,
            training_samples: 384,
            subgraph: SubgraphConfig::default(),
            seed: 0x5A4,
        }
    }
}

/// The SnapShot-style MLP attack.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Attack configuration.
    pub config: SnapshotConfig,
}

/// Flattens a locality graph into a fixed-length vector: per-distance-ring
/// sums of the node features (rings 0..hops), giving `(hops+1) * d`
/// entries. Distance is recovered from feature column 8 (see
/// `subgraph::extract_all_localities`).
fn flatten(graph: &Graph, hops: usize) -> Matrix {
    let d = graph.features.cols();
    let mut out = Matrix::zeros(1, (hops + 1) * d);
    for r in 0..graph.features.rows() {
        let dist_norm = graph.features.get(r, 8);
        let ring = ((dist_norm * hops as f32).round() as usize).min(hops);
        for c in 0..d {
            let cur = out.get(0, ring * d + c);
            out.set(0, ring * d + c, cur + graph.features.get(r, c));
        }
    }
    out
}

/// A trained SnapShot model: a 2-layer MLP.
#[derive(Clone, Debug)]
pub struct SnapshotModel {
    l1: Linear,
    l2: Linear,
    hops: usize,
}

impl SnapshotModel {
    fn logit(&self, tape: &mut Tape, x: &Matrix) -> almost_ml::tape::NodeId {
        let b1 = self.l1.bind(tape);
        let b2 = self.l2.bind(tape);
        let xn = tape.leaf(x.clone());
        let h = Linear::forward(b1, tape, xn);
        let h = tape.relu(h);
        Linear::forward(b2, tape, h)
    }

    /// Predicted probability the key bit is 1.
    pub fn predict(&self, graph: &Graph) -> f32 {
        let x = flatten(graph, self.hops);
        let mut tape = Tape::new();
        let l = self.logit(&mut tape, &x);
        sigmoid(tape.value(l).get(0, 0))
    }
}

impl Snapshot {
    /// A SnapShot attacker with the given configuration.
    pub fn new(config: SnapshotConfig) -> Self {
        Snapshot { config }
    }

    /// Trains the MLP on self-referenced localities.
    pub fn train_model(&self, deployed: &Aig, recipe: &Script) -> SnapshotModel {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let scheme = Rll::new(self.config.relock_key_size);
        let mut data: Vec<Graph> = Vec::new();
        while data.len() < self.config.training_samples {
            let Ok(relocked) = relock(&scheme, deployed, &mut rng) else {
                break;
            };
            let resynth = recipe.apply(&relocked.aig);
            let positions: Vec<usize> = relocked.key_input_positions().collect();
            data.extend(extract_all_localities(
                &resynth,
                &positions,
                relocked.key.bits(),
                &self.config.subgraph,
            ));
        }
        data.truncate(self.config.training_samples);

        let hops = self.config.subgraph.hops;
        let input_dim = (hops + 1) * crate::subgraph::NUM_FEATURES;
        let mut model = SnapshotModel {
            l1: Linear::new(input_dim, self.config.hidden, self.config.seed + 1),
            l2: Linear::new(self.config.hidden, 1, self.config.seed + 2),
            hops,
        };
        let flat: Vec<(Matrix, f32)> = data
            .iter()
            .map(|g| (flatten(g, hops), g.label as u8 as f32))
            .collect();

        let mut adam = Adam::new(self.config.learning_rate);
        let mut order: Vec<usize> = (0..flat.len()).collect();
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(32) {
                let mut tape = Tape::new();
                let b1 = model.l1.bind(&mut tape);
                let b2 = model.l2.bind(&mut tape);
                let mut losses = Vec::new();
                for &i in chunk {
                    let (x, y) = &flat[i];
                    let xn = tape.leaf(x.clone());
                    let h = Linear::forward(b1, &mut tape, xn);
                    let h = tape.relu(h);
                    let logit = Linear::forward(b2, &mut tape, h);
                    losses.push(tape.bce_with_logits(logit, *y));
                }
                if losses.is_empty() {
                    continue;
                }
                let mut total = losses[0];
                for &l in &losses[1..] {
                    total = tape.add(total, l);
                }
                let mean = tape.scale(total, 1.0 / chunk.len() as f32);
                tape.backward(mean);
                let nodes = [b1.w, b1.b, b2.w, b2.b];
                let grads: Vec<Matrix> = nodes
                    .iter()
                    .map(|&n| {
                        tape.grad(n).cloned().unwrap_or_else(|| {
                            let v = tape.value(n);
                            Matrix::zeros(v.rows(), v.cols())
                        })
                    })
                    .collect();
                let grad_refs: Vec<&Matrix> = grads.iter().collect();
                adam.step(
                    &mut [
                        &mut model.l1.w,
                        &mut model.l1.b,
                        &mut model.l2.w,
                        &mut model.l2.b,
                    ],
                    &grad_refs,
                );
            }
        }
        model
    }
}

impl OracleLessAttack for Snapshot {
    fn name(&self) -> &'static str {
        "SnapShot"
    }

    fn attack(&self, target: &AttackTarget) -> AttackOutcome {
        let model = self.train_model(&target.deployed, &target.recipe);
        let positions = target.key_positions();
        let dummy = vec![false; positions.len()];
        let graphs =
            extract_all_localities(&target.deployed, &positions, &dummy, &self.config.subgraph);
        let predicted: Vec<Option<bool>> = graphs
            .iter()
            .map(|g| Some(model.predict(g) >= 0.5))
            .collect();
        AttackOutcome::score("SnapShot", predicted, target.locked.key.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_circuits::IscasBenchmark;
    use almost_locking::LockingScheme;

    #[test]
    fn flatten_has_fixed_width() {
        let f = Matrix::zeros(3, crate::subgraph::NUM_FEATURES);
        let g = Graph::from_edges(3, &[(0, 1)], f, true);
        let x = flatten(&g, 3);
        assert_eq!(x.cols(), 4 * crate::subgraph::NUM_FEATURES);
    }

    #[test]
    fn unusable_relock_keys_still_train() {
        // No relock fits, so the model trains on nothing instead of
        // spinning in the sampling loop.
        let base = IscasBenchmark::C432.build();
        for relock_key_size in [0, base.num_ands() + 1] {
            let cfg = SnapshotConfig {
                relock_key_size,
                epochs: 2,
                ..SnapshotConfig::default()
            };
            let model = Snapshot::new(cfg).train_model(&base, &Script::resyn2());
            assert_eq!(model.hops, cfg.subgraph.hops);
        }
    }

    #[test]
    fn snapshot_beats_chance_on_unsynthesised_locking() {
        let mut rng = StdRng::seed_from_u64(31);
        let base = IscasBenchmark::C880.build();
        let locked = Rll::new(32).lock(&base, &mut rng).expect("lockable");
        let target = AttackTarget::new(locked, Script::new());
        let cfg = SnapshotConfig {
            epochs: 30,
            training_samples: 160,
            ..SnapshotConfig::default()
        };
        let outcome = Snapshot::new(cfg).attack(&target);
        assert!(
            outcome.accuracy > 0.6,
            "expected recovery above chance, got {}",
            outcome.accuracy
        );
    }
}
