//! The unified batched search engine.
//!
//! Every recipe search in this crate — the Eq.-1 security search, the
//! attacker's PPA re-synthesis (Fig. 5) and the adversarial inner loop
//! of Algorithm 1 — is the same shape: propose recipes, synthesise each
//! candidate from a fixed base network, score the deployed result, feed
//! the score back to a search rule. This module factors that shape into
//! three pieces:
//!
//! 1. [`RecipeTrie`] (in [`crate::recipe`]): synthesis intermediates
//!    shared across sibling proposals, `Arc`-handed to callers.
//! 2. [`SearchObjective`]: one trait for "score a deployed network",
//!    batch-first so implementations can fuse the expensive part — the
//!    proxy-accuracy objective folds *all* candidates' key-gate
//!    localities into a single block-diagonal GIN `forward_batch` call,
//!    and the mapped-PPA objectives fan technology mapping out on the
//!    worker pool.
//! 3. [`SearchEngine`]: trie + objective + counters, with a batched
//!    simulated-annealing driver ([`SearchEngine::anneal`]) that
//!    proposes [`SaConfig::proposals`] mutations per temperature step.
//!
//! # Determinism contract
//!
//! All randomness lives on the calling thread, in a fixed draw order:
//! the `K` mutations of a step are drawn first, then the batch is
//! synthesised (pool workers touch no RNG) and scored (batched GIN rows
//! are bit-identical to single-graph forwards; mapping is pure), then
//! Metropolis acceptance walks the ordered batch sequentially — the
//! first accepted candidate advances the current state, later candidates
//! only update the best-seen. Consequences, pinned in
//! `tests/engine_determinism.rs`:
//!
//! * at `proposals = 1` the engine reproduces the serial
//!   [`crate::sa::anneal`] trace bit-for-bit (recipes, objectives,
//!   acceptance flags);
//! * at any `proposals`, traces are bit-identical for every
//!   `ALMOST_JOBS` worker count.

use crate::ppa_opt::PpaObjective;
use crate::proxy::ProxyModel;
use crate::recipe::{Recipe, RecipeTrie, TrieStats};
use crate::sa::{SaConfig, SaIteration, SaTrace};
use almost_aig::{Aig, Pass};
use almost_locking::LockedCircuit;
use almost_netlist::{analyze, map_aig, CellLibrary, MapConfig, PpaReport};
use almost_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One candidate's evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Score {
    /// The search objective (lower is better).
    pub objective: f64,
    /// Proxy-predicted attack accuracy, when the objective evaluates one.
    pub accuracy: Option<f64>,
    /// Mapped area / baseline area, when the objective maps the netlist.
    pub area_ratio: Option<f64>,
    /// Mapped delay / baseline delay, when the objective maps the netlist.
    pub delay_ratio: Option<f64>,
}

impl Score {
    /// A score carrying only an objective value.
    pub fn plain(objective: f64) -> Self {
        Score {
            objective,
            accuracy: None,
            area_ratio: None,
            delay_ratio: None,
        }
    }
}

/// Scores deployed candidate networks. Batch-first: the engine always
/// calls [`SearchObjective::score_batch`], so implementations fuse or
/// fan out as suits them; entry `b` must equal what scoring
/// `candidates[b]` alone would produce (the engine's determinism
/// contract leans on it).
pub trait SearchObjective: Sync {
    /// Scores every candidate, in order.
    fn score_batch(&self, candidates: &[Arc<Aig>]) -> Vec<Score>;
}

/// The Eq.-1 security objective: `|acc − 0.5|` under a proxy attack
/// model. Batch scoring fuses all candidates' localities into one
/// block-diagonal GIN forward pass.
pub struct ProxyAccuracyObjective<'a> {
    /// The locked circuit whose key interface the proxy reads.
    pub locked: &'a LockedCircuit,
    /// The accuracy evaluator.
    pub proxy: &'a ProxyModel,
}

impl SearchObjective for ProxyAccuracyObjective<'_> {
    fn score_batch(&self, candidates: &[Arc<Aig>]) -> Vec<Score> {
        self.proxy
            .predict_accuracy_batch(self.locked, candidates)
            .into_iter()
            .map(|acc| Score {
                objective: (acc - 0.5).abs(),
                accuracy: Some(acc),
                area_ratio: None,
                delay_ratio: None,
            })
            .collect()
    }
}

/// An attacker's PPA objective (Fig. 5): minimise mapped delay or area,
/// optionally recording proxy accuracy along the way. Mapping and timing
/// fan out across candidates on the worker pool.
pub struct MappedPpaObjective<'a> {
    /// Record proxy accuracy per candidate (the Fig. 5 series) when set.
    pub accuracy_with: Option<(&'a LockedCircuit, &'a ProxyModel)>,
    /// Which metric the search minimises.
    pub metric: PpaObjective,
    /// Baseline report the ratios are normalised against.
    pub baseline: &'a PpaReport,
    /// Cell library for mapping.
    pub library: &'a CellLibrary,
    /// Seed for the vector-based power/timing analysis.
    pub analysis_seed: u64,
}

impl SearchObjective for MappedPpaObjective<'_> {
    fn score_batch(&self, candidates: &[Arc<Aig>]) -> Vec<Score> {
        let base_area = self.baseline.area.max(1e-9);
        let base_delay = self.baseline.delay.max(1e-9);
        // Job-order reassembly keeps the reports worker-count-invariant.
        let reports = almost_pool::map_indexed(candidates.to_vec(), |_, aig| {
            let netlist = map_aig(&aig, self.library, &MapConfig::no_opt());
            analyze(&netlist, &aig, self.library, 4, self.analysis_seed)
        });
        let accuracies: Option<Vec<f64>> = self
            .accuracy_with
            .map(|(locked, proxy)| proxy.predict_accuracy_batch(locked, candidates));
        reports
            .iter()
            .enumerate()
            .map(|(i, report)| Score {
                objective: self.metric.of(report),
                accuracy: accuracies.as_ref().map(|a| a[i]),
                area_ratio: Some(report.area / base_area),
                delay_ratio: Some(report.delay / base_delay),
            })
            .collect()
    }
}

/// Engine counters: cache behaviour plus evaluation throughput.
#[derive(Clone, Copy, Debug)]
pub struct EngineStats {
    /// Synthesis-cache counters.
    pub cache: TrieStats,
    /// Candidates evaluated (synthesised + scored).
    pub candidates: usize,
    /// Wall time spent evaluating candidates.
    pub elapsed: Duration,
}

impl EngineStats {
    /// Evaluated candidates per second (0 when nothing ran).
    pub fn candidates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.candidates as f64 / secs
        }
    }

    /// The `[cache]` summary line the harnesses print to stderr.
    pub fn summary(&self) -> String {
        format!(
            "hits {} misses {} evictions {} nodes {} | {} candidates, {:.2} cand/s",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.live_nodes,
            self.candidates,
            self.candidates_per_sec()
        )
    }
}

/// Everything a batched annealing run produces.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// The best recipe seen (initial recipe when nothing beat it).
    pub best: Recipe,
    /// The best recipe's score.
    pub best_score: Score,
    /// The initial recipe's score (evaluated before the first step).
    pub initial_score: Score,
    /// Per-candidate scores, aligned with `trace.iterations`.
    pub scores: Vec<Score>,
    /// The annealing trace, one entry per candidate in proposal order.
    pub trace: SaTrace,
}

/// Trie-backed, pool-parallel, batch-scoring search driver.
pub struct SearchEngine<'a> {
    trie: RecipeTrie,
    objective: &'a dyn SearchObjective,
    candidates: usize,
    elapsed: Duration,
}

impl<'a> SearchEngine<'a> {
    /// An engine synthesising from `base` and scoring with `objective`.
    pub fn new(base: Aig, objective: &'a dyn SearchObjective) -> Self {
        SearchEngine {
            trie: RecipeTrie::new(base),
            objective,
            candidates: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// An engine with an explicit synthesis-cache node budget.
    pub fn with_budget(base: Aig, budget: usize, objective: &'a dyn SearchObjective) -> Self {
        SearchEngine {
            trie: RecipeTrie::with_budget(base, budget),
            objective,
            candidates: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// The base network candidates are synthesised from.
    pub fn base(&self) -> &Aig {
        self.trie.base()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.trie.stats(),
            candidates: self.candidates,
            elapsed: self.elapsed,
        }
    }

    /// Synthesises every recipe through the trie, fanning uncached
    /// suffixes out on the worker pool and committing results in recipe
    /// order (deterministic for any worker count). Duplicate recipes are
    /// synthesised once and share the cached handle.
    pub fn synthesize_batch(&mut self, recipes: &[Recipe]) -> Vec<Arc<Aig>> {
        let mut unique: Vec<&Recipe> = Vec::new();
        let mut dedup: HashMap<&Recipe, usize> = HashMap::new();
        let index_of: Vec<usize> = recipes
            .iter()
            .map(|r| {
                *dedup.entry(r).or_insert_with(|| {
                    unique.push(r);
                    unique.len() - 1
                })
            })
            .collect();

        let plans: Vec<(Arc<Aig>, usize)> =
            unique.iter().map(|r| self.trie.cached_prefix(r)).collect();
        let jobs: Vec<(Arc<Aig>, Vec<Pass>)> = unique
            .iter()
            .zip(&plans)
            .map(|(r, (start, cached))| (start.clone(), r.passes()[*cached..].to_vec()))
            .collect();
        // Pure pass application per job — no RNG, no shared state — so
        // job-order reassembly makes the batch worker-count-invariant.
        let chains: Vec<Vec<Arc<Aig>>> = almost_pool::map_indexed(jobs, |_, (start, suffix)| {
            let mut chain = Vec::with_capacity(suffix.len());
            let mut prev = start;
            for pass in suffix {
                let next = Arc::new(pass.apply(&prev));
                chain.push(next.clone());
                prev = next;
            }
            chain
        });
        let results: Vec<Arc<Aig>> = unique
            .iter()
            .zip(&plans)
            .zip(chains)
            .map(|((r, (_, cached)), chain)| self.trie.commit(r, *cached, chain))
            .collect();
        index_of.into_iter().map(|u| results[u].clone()).collect()
    }

    /// Synthesises and scores a batch of recipes.
    pub fn evaluate_batch(&mut self, recipes: &[Recipe]) -> Vec<Score> {
        let started = Instant::now();
        let deployed = self.synthesize_batch(recipes);
        let scores = self.objective.score_batch(&deployed);
        debug_assert_eq!(
            scores.len(),
            recipes.len(),
            "objective scores every candidate"
        );
        self.elapsed += started.elapsed();
        self.candidates += recipes.len();
        scores
    }

    /// Synthesises and scores one recipe.
    pub fn evaluate(&mut self, recipe: &Recipe) -> Score {
        self.evaluate_batch(std::slice::from_ref(recipe))
            .pop()
            .expect("one score per recipe")
    }

    /// Batched simulated annealing from `initial`.
    ///
    /// Each of the `config.iterations` temperature steps draws
    /// `config.proposals` one-position mutations of the current recipe,
    /// synthesises them as one trie/pool batch, scores them as one
    /// objective batch, then applies Metropolis acceptance sequentially
    /// over the ordered batch: the first accepted candidate becomes the
    /// new current state, later candidates only update the best-seen
    /// (and are recorded as rejected without consuming an acceptance
    /// draw). See the module docs for the determinism contract.
    pub fn anneal(&mut self, initial: Recipe, config: &SaConfig) -> EngineRun {
        let _span = telemetry::span(telemetry::Scope::Search, || {
            format!(
                "anneal {} steps x {}",
                config.iterations,
                config.proposals.max(1)
            )
        });
        // Trie counters are cumulative across the engine's lifetime;
        // snapshot them so each step event carries per-step deltas.
        let mut last_cache = self.trie.stats();
        let k = config.proposals.max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut current = initial;
        let initial_score = self.evaluate(&current);
        let mut current_obj = initial_score.objective;
        let mut best = current.clone();
        let mut best_score = initial_score;
        let mut scores = Vec::with_capacity(config.iterations * k);
        let mut iterations = Vec::with_capacity(config.iterations * k);

        let alpha = if config.iterations > 1 {
            (config.final_temperature / config.initial_temperature)
                .powf(1.0 / (config.iterations as f64 - 1.0))
        } else {
            1.0
        };
        let mut temperature = config.initial_temperature;

        for step in 0..config.iterations {
            let batch: Vec<Recipe> = (0..k).map(|_| current.mutate(&mut rng)).collect();
            let batch_scores = self.evaluate_batch(&batch);
            let mut advanced = false;
            for (candidate, score) in batch.iter().zip(&batch_scores) {
                let accepted = if advanced {
                    false
                } else {
                    let delta = score.objective - current_obj;
                    delta <= 0.0 || {
                        let p = (-config.acceptance * delta / temperature.max(1e-9)).exp();
                        rng.random::<f64>() < p
                    }
                };
                if accepted {
                    current = candidate.clone();
                    current_obj = score.objective;
                    advanced = true;
                }
                if score.objective < best_score.objective {
                    best = candidate.clone();
                    best_score = *score;
                }
                iterations.push(SaIteration {
                    recipe: candidate.clone(),
                    objective: score.objective,
                    accepted,
                    best_objective: best_score.objective,
                });
                scores.push(*score);
            }
            if telemetry::tracing() {
                let cache = self.trie.stats();
                telemetry::trace(|| telemetry::EventKind::SearchStep {
                    step: step as u32,
                    candidates: k as u32,
                    current: current_obj,
                    best: best_score.objective,
                    accepted: advanced,
                    d_hits: cache.hits - last_cache.hits,
                    d_misses: cache.misses - last_cache.misses,
                    d_evictions: cache.evictions - last_cache.evictions,
                    live_nodes: cache.live_nodes as u64,
                });
                last_cache = cache;
            }
            temperature *= alpha;
        }

        EngineRun {
            best,
            best_score,
            initial_score,
            scores,
            trace: SaTrace { iterations },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::anneal;

    fn test_aig() -> Aig {
        let mut aig = Aig::new();
        let ins: Vec<_> = (0..8).map(|_| aig.add_input()).collect();
        let mut acc = aig.xor(ins[0], ins[1]);
        for chunk in ins[2..].chunks(2) {
            let m = if chunk.len() == 2 {
                aig.mux(chunk[0], acc, chunk[1])
            } else {
                aig.or(acc, chunk[0])
            };
            acc = aig.and(m, acc);
        }
        aig.add_output(acc);
        aig
    }

    /// A cheap pure-structure objective for engine plumbing tests.
    struct StructuralObjective;

    impl SearchObjective for StructuralObjective {
        fn score_batch(&self, candidates: &[Arc<Aig>]) -> Vec<Score> {
            candidates
                .iter()
                .map(|aig| Score::plain(aig.num_ands() as f64 + 0.25 * aig.depth() as f64))
                .collect()
        }
    }

    #[test]
    fn engine_k1_matches_serial_anneal_bitwise() {
        let base = test_aig();
        let config = SaConfig {
            iterations: 20,
            proposals: 1,
            seed: 9,
            ..SaConfig::default()
        };
        let initial = Recipe::resyn2();
        let (ref_best, ref_trace) = anneal(
            initial.clone(),
            |r| {
                let out = r.apply(&base);
                out.num_ands() as f64 + 0.25 * out.depth() as f64
            },
            &config,
        );
        let objective = StructuralObjective;
        let mut engine = SearchEngine::new(base, &objective);
        let run = engine.anneal(initial, &config);
        assert_eq!(run.best, ref_best);
        assert_eq!(run.trace.iterations.len(), ref_trace.iterations.len());
        for (e, r) in run.trace.iterations.iter().zip(&ref_trace.iterations) {
            assert_eq!(e.recipe, r.recipe);
            assert_eq!(e.objective.to_bits(), r.objective.to_bits());
            assert_eq!(e.accepted, r.accepted);
            assert_eq!(e.best_objective.to_bits(), r.best_objective.to_bits());
        }
        let stats = engine.stats();
        assert_eq!(stats.candidates, 21, "initial + one per step");
        assert!(stats.cache.hits > 0, "sibling proposals share prefixes");
    }

    #[test]
    fn batch_scores_align_with_trace_and_duplicates_share_handles() {
        let base = test_aig();
        let objective = StructuralObjective;
        let mut engine = SearchEngine::new(base, &objective);
        let recipe = Recipe::resyn2();
        let twice = [recipe.clone(), recipe.clone()];
        let out = engine.synthesize_batch(&twice);
        assert!(Arc::ptr_eq(&out[0], &out[1]), "duplicates share one handle");

        let config = SaConfig {
            iterations: 4,
            proposals: 3,
            seed: 2,
            ..SaConfig::default()
        };
        let run = engine.anneal(recipe, &config);
        assert_eq!(run.trace.iterations.len(), 12);
        assert_eq!(run.scores.len(), 12);
        for (it, score) in run.trace.iterations.iter().zip(&run.scores) {
            assert_eq!(it.objective.to_bits(), score.objective.to_bits());
        }
        // At most one acceptance per temperature step.
        for step in run.trace.iterations.chunks(3) {
            assert!(step.iter().filter(|i| i.accepted).count() <= 1);
        }
    }
}
