//! Simulated annealing over the recipe space.
//!
//! The paper's black-box optimiser (§III-C): 100 iterations, initial
//! temperature 120, acceptance scaling 1.8, one-position mutation moves,
//! pick-best-seen fallback when the budget runs out before the objective
//! reaches its target.

use crate::recipe::Recipe;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Annealer parameters (defaults follow §IV-C).
#[derive(Clone, Copy, Debug)]
pub struct SaConfig {
    /// Number of iterations (temperature steps).
    pub iterations: usize,
    /// Initial temperature.
    pub initial_temperature: f64,
    /// Acceptance scaling factor applied to the objective delta.
    pub acceptance: f64,
    /// Final temperature of the geometric schedule.
    pub final_temperature: f64,
    /// Mutations proposed (and scored as one batch) per temperature
    /// step. Consumed by [`crate::engine::SearchEngine::anneal`]; the
    /// serial reference [`anneal`] in this module always evaluates one
    /// proposal per step, and the engine at `proposals = 1` reproduces
    /// its trace bit-for-bit.
    pub proposals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            iterations: 100,
            initial_temperature: 120.0,
            acceptance: 1.8,
            final_temperature: 1.0,
            proposals: 1,
            seed: 0x5A,
        }
    }
}

/// One annealing step's record.
#[derive(Clone, Debug)]
pub struct SaIteration {
    /// The candidate recipe proposed this step.
    pub recipe: Recipe,
    /// Its objective value (lower is better).
    pub objective: f64,
    /// Whether the move was accepted.
    pub accepted: bool,
    /// Best objective seen so far (after this step).
    pub best_objective: f64,
}

/// The annealing trajectory (drives the paper's Fig. 4/5 plots).
#[derive(Clone, Debug)]
pub struct SaTrace {
    /// Per-iteration records, in order.
    pub iterations: Vec<SaIteration>,
}

/// Minimises `objective` over recipes by simulated annealing, starting
/// from `initial`.
///
/// Returns the best recipe seen and the full trace. The objective is
/// treated as a black box (the paper's Eq. 1 uses `|acc − 0.5|`; Fig. 5
/// uses mapped delay or area).
///
/// This is the *serial reference*: one proposal per temperature step
/// ([`SaConfig::proposals`] is ignored), evaluated through whatever the
/// closure does. The production searches run on
/// [`crate::engine::SearchEngine::anneal`], which batches proposals and
/// shares synthesis through the recipe trie but is pinned bit-identical
/// to this loop at `proposals = 1`.
pub fn anneal(
    initial: Recipe,
    mut objective: impl FnMut(&Recipe) -> f64,
    config: &SaConfig,
) -> (Recipe, SaTrace) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut current = initial;
    let mut current_obj = objective(&current);
    let mut best = current.clone();
    let mut best_obj = current_obj;
    let mut iterations = Vec::with_capacity(config.iterations);

    let alpha = if config.iterations > 1 {
        (config.final_temperature / config.initial_temperature)
            .powf(1.0 / (config.iterations as f64 - 1.0))
    } else {
        1.0
    };
    let mut temperature = config.initial_temperature;

    for _ in 0..config.iterations {
        let candidate = current.mutate(&mut rng);
        let cand_obj = objective(&candidate);
        let delta = cand_obj - current_obj;
        let accepted = if delta <= 0.0 {
            true
        } else {
            let p = (-config.acceptance * delta / temperature.max(1e-9)).exp();
            rng.random::<f64>() < p
        };
        if accepted {
            current = candidate.clone();
            current_obj = cand_obj;
        }
        if cand_obj < best_obj {
            best = candidate.clone();
            best_obj = cand_obj;
        }
        iterations.push(SaIteration {
            recipe: candidate,
            objective: cand_obj,
            accepted,
            best_objective: best_obj,
        });
        temperature *= alpha;
    }

    (best, SaTrace { iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_aig::Pass;

    #[test]
    fn finds_a_known_optimum() {
        // Objective: Hamming distance to a fixed target recipe.
        let target = Recipe::resyn2();
        let objective = |r: &Recipe| {
            r.passes()
                .iter()
                .zip(target.passes())
                .filter(|(a, b)| a != b)
                .count() as f64
        };
        let initial = Recipe::new(vec![Pass::Resub; 10]);
        // A cold schedule turns the late phase into hill climbing, which
        // must solve this separable objective exactly.
        let config = SaConfig {
            iterations: 600,
            initial_temperature: 2.0,
            final_temperature: 0.01,
            acceptance: 1.8,
            proposals: 1,
            seed: 3,
        };
        let (best, trace) = anneal(initial, objective, &config);
        let final_dist = best
            .passes()
            .iter()
            .zip(target.passes())
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            final_dist <= 1,
            "SA should approach the target, distance {final_dist}"
        );
        assert_eq!(trace.iterations.len(), 600);
    }

    #[test]
    fn best_series_is_monotone() {
        let objective =
            |r: &Recipe| r.passes().iter().filter(|p| **p == Pass::Balance).count() as f64;
        let (_, trace) = anneal(
            Recipe::new(vec![Pass::Balance; 10]),
            objective,
            &SaConfig {
                iterations: 50,
                seed: 4,
                ..SaConfig::default()
            },
        );
        for w in trace.iterations.windows(2) {
            assert!(w[1].best_objective <= w[0].best_objective);
        }
    }

    #[test]
    fn trace_marks_accepted_moves() {
        let (_, trace) = anneal(
            Recipe::resyn2(),
            |_| 1.0,
            &SaConfig {
                iterations: 30,
                seed: 5,
                ..SaConfig::default()
            },
        );
        // Constant objective: delta = 0, always accepted.
        assert!(trace.iterations.iter().all(|i| i.accepted));
    }
}
