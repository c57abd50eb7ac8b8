//! The OMLA attack: oracle-less key recovery with a GIN subgraph
//! classifier (Alrahis et al., IEEE TCAS-II 2022).
//!
//! OMLA is *self-referencing*: the attacker re-locks the deployed netlist
//! with additional key gates whose bits they chose themselves, re-applies
//! the defender's synthesis recipe, and extracts the new key-gates'
//! localities as labelled training data. The trained classifier is then
//! applied to the victim key-inputs' localities.

use crate::report::{AttackOutcome, AttackTarget, OracleLessAttack};
use crate::subgraph::{extract_all_localities, SubgraphConfig, NUM_FEATURES};
use almost_aig::{Aig, Script};
use almost_locking::{relock, Rll};
use almost_ml::gin::{GinClassifier, Graph};
use almost_ml::tape::Tape;
use almost_ml::train::{train, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// OMLA attack configuration.
#[derive(Clone, Copy, Debug)]
pub struct OmlaConfig {
    /// GIN hidden width.
    pub hidden: usize,
    /// Number of GIN rounds.
    pub layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Key gates inserted per re-lock round.
    pub relock_key_size: usize,
    /// Number of labelled localities to manufacture.
    pub training_samples: usize,
    /// Locality shape.
    pub subgraph: SubgraphConfig,
    /// RNG seed (re-locking + training shuffle + init).
    pub seed: u64,
}

impl Default for OmlaConfig {
    fn default() -> Self {
        OmlaConfig {
            hidden: 24,
            layers: 2,
            epochs: 60,
            batch_size: 32,
            learning_rate: 5e-3,
            relock_key_size: 32,
            training_samples: 512,
            subgraph: SubgraphConfig::default(),
            seed: 0xA77AC4,
        }
    }
}

/// The OMLA attack.
#[derive(Clone, Debug, Default)]
pub struct Omla {
    /// Attack configuration.
    pub config: OmlaConfig,
}

impl Omla {
    /// An OMLA attacker with the given configuration.
    pub fn new(config: OmlaConfig) -> Self {
        Omla { config }
    }

    /// Manufactures labelled training localities by re-locking `deployed`
    /// and re-synthesising with `recipe` (the self-referencing protocol).
    pub fn generate_training_data(
        &self,
        deployed: &Aig,
        recipe: &Script,
        rng: &mut StdRng,
    ) -> Vec<Graph> {
        let mut data = Vec::with_capacity(self.config.training_samples);
        let scheme = Rll::new(self.config.relock_key_size);
        while data.len() < self.config.training_samples {
            let Ok(relocked) = relock(&scheme, deployed, rng) else {
                break; // circuit too small to relock further
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
        data
    }

    /// Trains a classifier on manufactured data for the given deployment.
    pub fn train_model(&self, deployed: &Aig, recipe: &Script) -> GinClassifier {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let data = self.generate_training_data(deployed, recipe, &mut rng);
        let mut model = GinClassifier::new(
            NUM_FEATURES,
            self.config.hidden,
            self.config.layers,
            self.config.seed,
        );
        train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: self.config.epochs,
                batch_size: self.config.batch_size,
                learning_rate: self.config.learning_rate,
                seed: self.config.seed ^ 0x5eed,
            },
        );
        model
    }

    /// Applies a trained model to the victim key inputs of a deployed
    /// netlist; returns per-bit probabilities that each bit is 1.
    pub fn predict_bits(
        &self,
        model: &GinClassifier,
        deployed: &Aig,
        key_positions: &[usize],
    ) -> Vec<f32> {
        let dummy_labels = vec![false; key_positions.len()];
        let graphs = extract_all_localities(
            deployed,
            key_positions,
            &dummy_labels,
            &self.config.subgraph,
        );
        // One reused tape across the key bits: prediction allocates
        // nothing after the first locality.
        let mut tape = Tape::new();
        graphs
            .iter()
            .map(|g| model.predict_with(&mut tape, g))
            .collect()
    }

    /// Full evaluation path used by the ALMOST framework: accuracy of
    /// `model` against the true key of `target`.
    pub fn evaluate_model(&self, model: &GinClassifier, target: &AttackTarget) -> f64 {
        let probs = self.predict_bits(model, &target.deployed, &target.key_positions());
        let predicted: Vec<Option<bool>> = probs.iter().map(|&p| Some(p >= 0.5)).collect();
        AttackOutcome::score("OMLA", predicted, target.locked.key.bits()).accuracy
    }
}

impl OracleLessAttack for Omla {
    fn name(&self) -> &'static str {
        "OMLA"
    }

    fn attack(&self, target: &AttackTarget) -> AttackOutcome {
        let model = self.train_model(&target.deployed, &target.recipe);
        let probs = self.predict_bits(&model, &target.deployed, &target.key_positions());
        let predicted: Vec<Option<bool>> = probs.iter().map(|&p| Some(p >= 0.5)).collect();
        AttackOutcome::score("OMLA", predicted, target.locked.key.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_circuits::IscasBenchmark;
    use almost_locking::LockingScheme;

    fn quick_config() -> OmlaConfig {
        OmlaConfig {
            hidden: 12,
            layers: 2,
            epochs: 25,
            batch_size: 32,
            learning_rate: 8e-3,
            relock_key_size: 24,
            training_samples: 144,
            subgraph: SubgraphConfig {
                hops: 3,
                max_nodes: 32,
            },
            seed: 7,
        }
    }

    #[test]
    fn unusable_relock_keys_end_data_generation() {
        // A 0-bit relock locks nothing and an oversized one does not fit:
        // either way generation returns empty instead of spinning.
        let base = IscasBenchmark::C432.build();
        for relock_key_size in [0, base.num_ands() + 1] {
            let omla = Omla::new(OmlaConfig {
                relock_key_size,
                ..quick_config()
            });
            let mut rng = StdRng::seed_from_u64(2);
            let data = omla.generate_training_data(&base, &Script::resyn2(), &mut rng);
            assert!(data.is_empty(), "relock key size {relock_key_size}");
        }
    }

    #[test]
    fn training_data_is_labelled_and_sized() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(16).lock(&base, &mut rng).expect("lockable");
        let omla = Omla::new(quick_config());
        let mut rng2 = StdRng::seed_from_u64(2);
        let data = omla.generate_training_data(&locked.aig, &Script::resyn2(), &mut rng2);
        assert_eq!(data.len(), 144);
        let positives = data.iter().filter(|g| g.label).count();
        assert!(
            positives > 30 && positives < 114,
            "labels are mixed: {positives}"
        );
    }

    #[test]
    fn omla_beats_chance_on_unsynthesised_locking() {
        // Without any synthesis (empty recipe), XOR vs XNOR key gates are
        // structurally obvious; OMLA must get well above 50%.
        let mut rng = StdRng::seed_from_u64(3);
        let base = IscasBenchmark::C880.build();
        let locked = Rll::new(32).lock(&base, &mut rng).expect("lockable");
        let target = AttackTarget::new(locked, Script::new());
        let outcome = Omla::new(quick_config()).attack(&target);
        assert!(
            outcome.accuracy > 0.7,
            "expected strong recovery on raw locking, got {}",
            outcome.accuracy
        );
    }

    #[test]
    fn prediction_vector_has_key_size_entries() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(12).lock(&base, &mut rng).expect("lockable");
        let target = AttackTarget::new(locked, Script::new());
        let omla = Omla::new(quick_config());
        let model = GinClassifier::new(NUM_FEATURES, 12, 2, 1);
        let probs = omla.predict_bits(&model, &target.deployed, &target.key_positions());
        assert_eq!(probs.len(), 12);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }
}
