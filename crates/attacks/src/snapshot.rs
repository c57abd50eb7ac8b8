//! A SnapShot-style attack (Sisejkovic et al., ACM JETC 2021):
//! self-referencing like OMLA, but with a plain MLP over a *flattened*
//! locality encoding instead of a GNN. Included as the "classic
//! tensor-based model" point of comparison the paper discusses in §II.
//!
//! The MLP is a zero-round [`GinClassifier`] (`Linear → ReLU → Linear`
//! over the mean of the node features) applied to a one-node graph whose
//! features are the flattened locality, so it trains through the same
//! [`train`] loop as OMLA and the proxies.

use crate::report::{AttackOutcome, AttackTarget, OracleLessAttack};
use crate::subgraph::{extract_all_localities, generate_samples, SubgraphConfig};
use almost_aig::{Aig, Script};
use almost_ml::gin::{GinClassifier, Graph};
use almost_ml::tensor::Matrix;
use almost_ml::train::{train, TrainConfig};
use rand::rngs::StdRng;
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

/// Flattens a locality graph into a one-node graph with a fixed-length
/// feature row: per-distance-ring sums of the node features (rings
/// 0..hops), giving `(hops+1) * d` entries. Distance is recovered from
/// feature column 8 (see `subgraph::extract_all_localities`).
fn flatten(graph: &Graph, hops: usize) -> Graph {
    let d = graph.features.cols();
    let mut row = Matrix::zeros(1, (hops + 1) * d);
    for r in 0..graph.features.rows() {
        let dist_norm = graph.features.get(r, 8);
        let ring = ((dist_norm * hops as f32).round() as usize).min(hops);
        for c in 0..d {
            let cur = row.get(0, ring * d + c);
            row.set(0, ring * d + c, cur + graph.features.get(r, c));
        }
    }
    Graph::from_edges(1, &[], row, graph.label)
}

/// A trained SnapShot model: a 2-layer MLP over flattened localities.
#[derive(Clone, Debug)]
pub struct SnapshotModel {
    mlp: GinClassifier,
    hops: usize,
}

impl SnapshotModel {
    /// Predicted probability the key bit is 1.
    pub fn predict(&self, graph: &Graph) -> f32 {
        self.mlp.predict(&flatten(graph, self.hops))
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
        let data = generate_samples(
            deployed,
            |_| recipe.clone(),
            self.config.training_samples,
            self.config.relock_key_size,
            &self.config.subgraph,
            &mut rng,
        );

        let hops = self.config.subgraph.hops;
        let input_dim = (hops + 1) * crate::subgraph::NUM_FEATURES;
        let mut mlp = GinClassifier::new(input_dim, self.config.hidden, 0, self.config.seed);
        let flat: Vec<Graph> = data.iter().map(|g| flatten(g, hops)).collect();
        train(
            &mut mlp,
            &flat,
            &TrainConfig {
                epochs: self.config.epochs,
                batch_size: 32,
                learning_rate: self.config.learning_rate,
                seed: self.config.seed ^ 0x5eed,
            },
        );
        SnapshotModel { mlp, hops }
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
        let flat: Vec<Graph> =
            extract_all_localities(&target.deployed, &positions, &dummy, &self.config.subgraph)
                .iter()
                .map(|g| flatten(g, model.hops))
                .collect();
        let predicted: Vec<Option<bool>> = model
            .mlp
            .predict_probs_batch(&flat.iter().collect::<Vec<_>>())
            .into_iter()
            .map(|p| Some(p >= 0.5))
            .collect();
        AttackOutcome::score("SnapShot", predicted, target.locked.key.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_circuits::IscasBenchmark;
    use almost_locking::{LockingScheme, Rll};

    #[test]
    fn flatten_has_fixed_width() {
        let f = Matrix::zeros(3, crate::subgraph::NUM_FEATURES);
        let g = Graph::from_edges(3, &[(0, 1)], f, true);
        let x = flatten(&g, 3);
        assert_eq!(x.num_nodes(), 1);
        assert_eq!(x.features.cols(), 4 * crate::subgraph::NUM_FEATURES);
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
        let target = AttackTarget::new(locked, Script::default());
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
