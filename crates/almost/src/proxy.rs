//! Attacker proxy models: M_resyn2, M_random and the adversarially trained
//! M\* of Algorithm 1.
//!
//! ALMOST's recipe search (Eq. 1) needs to evaluate the attack accuracy of
//! *arbitrary* recipes without retraining an attack model per candidate
//! (Fig. 2). The paper compares three evaluators:
//!
//! - **M_resyn2** — trained on re-locked circuits re-synthesised with the
//!   defender's baseline recipe only; accurate there, poor elsewhere.
//! - **M_random** — trained on random recipes; broader but noisy.
//! - **M\*** — adversarially re-trained (Algorithm 1): every `R` epochs an
//!   SA search finds the recipe that *maximises* the current model's loss
//!   (Eq. 3–5), and localities synthesised with that recipe are added to
//!   the training set (the min–max objective of Eq. 6).

use crate::engine::{Score, SearchEngine, SearchObjective};
use crate::recipe::{Recipe, RECIPE_LENGTH};
use crate::sa::SaConfig;
use almost_aig::Aig;
/// The self-referencing generator the proxies' training data comes from.
pub use almost_attacks::subgraph::generate_samples;
use almost_attacks::subgraph::{extract_all_localities, SubgraphConfig, NUM_FEATURES};
use almost_locking::{relock, LockedCircuit, Rll};
use almost_ml::gin::{GinClassifier, Graph};
use almost_ml::tape::softplus;
use almost_ml::train::{train, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which training distribution a proxy model was built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProxyKind {
    /// Trained on the defender's baseline recipe only.
    Resyn2,
    /// Trained on uniformly random recipes.
    Random,
    /// Adversarially re-trained (Algorithm 1).
    Adversarial,
}

impl ProxyKind {
    /// Display name matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            ProxyKind::Resyn2 => "M_resyn2",
            ProxyKind::Random => "M_random",
            ProxyKind::Adversarial => "M*",
        }
    }
}

/// Proxy-model training configuration (§IV-A defaults, scaled via
/// [`crate::config::Scale`]).
#[derive(Clone, Copy, Debug)]
pub struct ProxyConfig {
    /// Initial training-set size (paper: 1000).
    pub initial_samples: usize,
    /// Adversarial samples added per augmentation (paper: 200).
    pub augment_samples: usize,
    /// Total training epochs (paper: 350).
    pub epochs: usize,
    /// Augmentation periodicity R (paper: 50).
    pub period: usize,
    /// Key gates inserted per re-lock round.
    pub relock_key_size: usize,
    /// GIN hidden width.
    pub hidden: usize,
    /// GIN rounds.
    pub layers: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Locality shape.
    pub subgraph: SubgraphConfig,
    /// SA budget for the inner adversarial-recipe search.
    pub adversarial_sa: SaConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            initial_samples: 240,
            augment_samples: 48,
            epochs: 90,
            period: 30,
            relock_key_size: 24,
            hidden: 24,
            layers: 2,
            batch_size: 32,
            learning_rate: 5e-3,
            subgraph: SubgraphConfig::default(),
            adversarial_sa: SaConfig {
                iterations: 10,
                seed: 0xADF,
                ..SaConfig::default()
            },
            seed: 0xA1507,
        }
    }
}

/// A trained proxy model: predicts attack accuracy for any synthesised
/// deployment of the locked circuit.
#[derive(Clone, Debug)]
pub struct ProxyModel {
    kind: ProxyKind,
    classifier: GinClassifier,
    subgraph: SubgraphConfig,
}

impl ProxyModel {
    /// Which distribution this proxy was trained on.
    pub fn kind(&self) -> ProxyKind {
        self.kind
    }

    /// The underlying GIN classifier.
    pub fn classifier(&self) -> &GinClassifier {
        &self.classifier
    }

    /// Predicted attack accuracy on a deployment of `locked` (a
    /// synthesised version with the same input interface): fraction of key
    /// bits the model recovers.
    pub fn predict_accuracy(&self, locked: &LockedCircuit, deployed: &Aig) -> f64 {
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let graphs =
            extract_all_localities(deployed, &positions, locked.key.bits(), &self.subgraph);
        self.classifier.accuracy(&graphs)
    }

    /// Predicted attack accuracy for a whole batch of deployments at
    /// once: locality extraction fans out per candidate on the worker
    /// pool, then *all* candidates' localities are fused into one
    /// block-diagonal [`GinClassifier::forward_batch`] evaluation — one
    /// spmm per GIN round for the entire proposal batch.
    ///
    /// Entry `b` is bit-identical to
    /// [`ProxyModel::predict_accuracy`]`(locked, &deployed[b])` (the
    /// batched forward's row-independence contract carries through the
    /// 0.5 threshold), which is what lets the search engine score `K`
    /// simulated-annealing proposals per step without perturbing the
    /// serial trace.
    pub fn predict_accuracy_batch(
        &self,
        locked: &LockedCircuit,
        deployed: &[Arc<Aig>],
    ) -> Vec<f64> {
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let groups: Vec<Vec<Graph>> = almost_pool::map_indexed(deployed.to_vec(), |_, aig| {
            extract_all_localities(&aig, &positions, locked.key.bits(), &self.subgraph)
        });
        let refs: Vec<&Graph> = groups.iter().flatten().collect();
        let probs = self.classifier.predict_probs_batch(&refs);
        let mut offset = 0;
        groups
            .iter()
            .map(|graphs| {
                if graphs.is_empty() {
                    return 0.0;
                }
                let correct = graphs
                    .iter()
                    .zip(&probs[offset..offset + graphs.len()])
                    .filter(|(g, &p)| (p >= 0.5) == g.label)
                    .count();
                offset += graphs.len();
                correct as f64 / graphs.len() as f64
            })
            .collect()
    }

    /// Mean BCE loss of the model over labelled localities (Eq. 3's inner
    /// objective).
    pub fn mean_loss(&self, graphs: &[Graph]) -> f64 {
        if graphs.is_empty() {
            return 0.0;
        }
        let refs: Vec<&Graph> = graphs.iter().collect();
        let probs = self.classifier.predict_probs_batch(&refs);
        let mut total = 0.0f64;
        for (g, p) in graphs.iter().zip(probs) {
            // Reconstruct logit-space BCE from the probability (clamped).
            let p = p.clamp(1e-6, 1.0 - 1e-6);
            let z = (p / (1.0 - p)).ln();
            let y = g.label as u8 as f32;
            total += (softplus(z) - y * z) as f64;
        }
        total / graphs.len() as f64
    }
}

/// Algorithm 1's inner objective (Eq. 3): the *negated* mean proxy loss
/// on a re-locked probe — the engine minimises, so the adversarial
/// search maximises the loss. Candidates score independently and fan out
/// on the worker pool; each one's localities go through one batched GIN
/// forward in [`ProxyModel::mean_loss`].
struct AdversarialLossObjective<'a> {
    snapshot: &'a ProxyModel,
    probe: &'a LockedCircuit,
    positions: &'a [usize],
}

impl SearchObjective for AdversarialLossObjective<'_> {
    fn score_batch(&self, candidates: &[std::sync::Arc<Aig>]) -> Vec<Score> {
        almost_pool::map_indexed(candidates.to_vec(), |_, synthesised| {
            let graphs = extract_all_localities(
                &synthesised,
                self.positions,
                self.probe.key.bits(),
                &self.snapshot.subgraph,
            );
            Score::plain(-self.snapshot.mean_loss(&graphs))
        })
    }
}

/// Trains a proxy model of the given kind on `locked` (Algorithm 1 for
/// [`ProxyKind::Adversarial`]).
pub fn train_proxy(locked: &LockedCircuit, kind: ProxyKind, config: &ProxyConfig) -> ProxyModel {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let base = &locked.aig;

    // Initial dataset.
    let mut data = generate_samples(
        base,
        |r| match kind {
            ProxyKind::Resyn2 => Recipe::resyn2(),
            ProxyKind::Random | ProxyKind::Adversarial => Recipe::random(RECIPE_LENGTH, r),
        },
        config.initial_samples,
        config.relock_key_size,
        &config.subgraph,
        &mut rng,
    );

    let mut classifier =
        GinClassifier::new(NUM_FEATURES, config.hidden, config.layers, config.seed);

    if kind != ProxyKind::Adversarial {
        train(
            &mut classifier,
            &data,
            &TrainConfig {
                epochs: config.epochs,
                batch_size: config.batch_size,
                learning_rate: config.learning_rate,
                seed: config.seed ^ 0x7EA1,
            },
        );
        return ProxyModel {
            kind,
            classifier,
            subgraph: config.subgraph,
        };
    }

    // Algorithm 1: train in R-epoch rounds, augmenting with adversarial
    // recipes between rounds.
    let rounds = config.epochs.div_ceil(config.period.max(1));
    for round in 0..rounds {
        let epochs_this_round = config.period.min(config.epochs - round * config.period);
        train(
            &mut classifier,
            &data,
            &TrainConfig {
                epochs: epochs_this_round,
                batch_size: config.batch_size,
                learning_rate: config.learning_rate,
                seed: config.seed ^ (round as u64) << 8,
            },
        );
        if round + 1 == rounds {
            break;
        }
        // Line 6: s* = SA maximising the current model's loss (Eq. 3).
        // The loss of a candidate recipe is estimated on one re-locked,
        // re-synthesised probe batch.
        // A relock key the design cannot take (0 bits, or more than its
        // gates) yields no probe: augmentation stops, the rounds still train.
        let Ok(probe) = relock(&Rll::new(config.relock_key_size), base, &mut rng) else {
            continue;
        };
        let probe_positions: Vec<usize> = probe.key_input_positions().collect();
        let snapshot = ProxyModel {
            kind,
            classifier: classifier.clone(),
            subgraph: config.subgraph,
        };
        let mut eval_rng = StdRng::seed_from_u64(config.seed ^ 0xCAFE ^ round as u64);
        let mut sa_cfg = config.adversarial_sa;
        sa_cfg.seed ^= round as u64;
        let objective = AdversarialLossObjective {
            snapshot: &snapshot,
            probe: &probe,
            positions: &probe_positions,
        };
        let mut inner = SearchEngine::new(probe.aig.clone(), &objective);
        let s_star = inner
            .anneal(Recipe::random(RECIPE_LENGTH, &mut eval_rng), &sa_cfg)
            .best;
        // Lines 7: augment the training data with s*-synthesised samples.
        let augmented = generate_samples(
            base,
            |_| s_star.clone(),
            config.augment_samples,
            config.relock_key_size,
            &config.subgraph,
            &mut rng,
        );
        data.extend(augmented);
    }

    ProxyModel {
        kind,
        classifier,
        subgraph: config.subgraph,
    }
}

/// Mean predicted accuracy of `model` over `n` random-recipe deployments
/// of `locked` — the paper's "random set" column in Table I.
pub fn accuracy_on_random_set(
    model: &ProxyModel,
    locked: &LockedCircuit,
    n: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for _ in 0..n {
        let recipe = Recipe::random(RECIPE_LENGTH, &mut rng);
        let deployed = recipe.apply(&locked.aig);
        total += model.predict_accuracy(locked, &deployed);
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_circuits::IscasBenchmark;
    use almost_locking::LockingScheme;

    fn tiny_config() -> ProxyConfig {
        ProxyConfig {
            initial_samples: 72,
            augment_samples: 24,
            epochs: 20,
            period: 10,
            relock_key_size: 24,
            hidden: 12,
            layers: 2,
            batch_size: 24,
            learning_rate: 8e-3,
            subgraph: SubgraphConfig {
                hops: 3,
                max_nodes: 32,
            },
            adversarial_sa: SaConfig {
                iterations: 4,
                seed: 1,
                ..SaConfig::default()
            },
            seed: 5,
        }
    }

    fn locked_c432() -> LockedCircuit {
        let mut rng = StdRng::seed_from_u64(2);
        Rll::new(16)
            .lock(&IscasBenchmark::C432.build(), &mut rng)
            .expect("lockable")
    }

    #[test]
    fn resyn2_proxy_trains_and_predicts() {
        let locked = locked_c432();
        let model = train_proxy(&locked, ProxyKind::Resyn2, &tiny_config());
        assert_eq!(model.kind(), ProxyKind::Resyn2);
        let deployed = Recipe::resyn2().apply(&locked.aig);
        let acc = model.predict_accuracy(&locked, &deployed);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn adversarial_proxy_runs_algorithm_1() {
        let locked = locked_c432();
        let model = train_proxy(&locked, ProxyKind::Adversarial, &tiny_config());
        assert_eq!(model.kind(), ProxyKind::Adversarial);
        let deployed = Recipe::resyn2().apply(&locked.aig);
        let acc = model.predict_accuracy(&locked, &deployed);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn batched_accuracy_matches_serial_prediction_bitwise() {
        let locked = locked_c432();
        let model = train_proxy(&locked, ProxyKind::Resyn2, &tiny_config());
        let mut rng = StdRng::seed_from_u64(17);
        let deployed: Vec<Arc<Aig>> = (0..3)
            .map(|_| Arc::new(Recipe::random(RECIPE_LENGTH, &mut rng).apply(&locked.aig)))
            .collect();
        let batched = model.predict_accuracy_batch(&locked, &deployed);
        assert_eq!(batched.len(), 3);
        for (aig, &acc) in deployed.iter().zip(&batched) {
            assert_eq!(
                acc,
                model.predict_accuracy(&locked, aig),
                "fused batch entry must equal the serial prediction"
            );
        }
        assert!(model.predict_accuracy_batch(&locked, &[]).is_empty());
    }

    #[test]
    fn unusable_relock_keys_return_instead_of_hanging() {
        // A 0-bit relock locks nothing and an oversized one does not fit:
        // sampling must come back empty and training must still finish.
        let design = IscasBenchmark::C432.build();
        let locked = locked_c432();
        for key_size in [0, locked.aig.num_ands() + 1, usize::MAX] {
            let mut rng = StdRng::seed_from_u64(3);
            let samples = generate_samples(
                &design,
                |_| Recipe::resyn2(),
                4,
                key_size,
                &SubgraphConfig::default(),
                &mut rng,
            );
            assert!(samples.is_empty(), "key size {key_size}");
            let config = ProxyConfig {
                relock_key_size: key_size,
                ..tiny_config()
            };
            for kind in [ProxyKind::Resyn2, ProxyKind::Adversarial] {
                assert_eq!(train_proxy(&locked, kind, &config).kind(), kind);
            }
        }
    }

    #[test]
    fn random_set_accuracy_is_bounded() {
        let locked = locked_c432();
        let model = train_proxy(&locked, ProxyKind::Random, &tiny_config());
        let acc = accuracy_on_random_set(&model, &locked, 3, 9);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn mean_loss_decreases_with_confidence() {
        let locked = locked_c432();
        let model = train_proxy(&locked, ProxyKind::Resyn2, &tiny_config());
        let deployed = Recipe::resyn2().apply(&locked.aig);
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let graphs = extract_all_localities(
            &deployed,
            &positions,
            locked.key.bits(),
            &tiny_config().subgraph,
        );
        let loss = model.mean_loss(&graphs);
        assert!(loss.is_finite() && loss >= 0.0);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(ProxyKind::Resyn2.label(), "M_resyn2");
        assert_eq!(ProxyKind::Random.label(), "M_random");
        assert_eq!(ProxyKind::Adversarial.label(), "M*");
    }
}
