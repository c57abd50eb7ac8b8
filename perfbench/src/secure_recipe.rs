//! `secure_recipe`: the paper's Fig. 3 flow, as its users run it.
//!
//! Set-up locks c1908 and c3540 twice each with 64 RLL key gates,
//! deploys every lock with resyn2 and maps it for the area baseline.
//! One operation takes one locked circuit to its chosen
//! recipe: train M\* (`train_proxy` with [`ProxyKind::Adversarial`]),
//! run `generate_secure_recipe`, then apply, map and analyse the chosen
//! recipe, re-score it with the proxy and CEC it against the locked
//! source. A round runs one operation per lock, each with its own proxy
//! and search seeds; the operations are deterministic, so every round
//! must reproduce the first one's choices.
//!
//! In a traced round the search is attributed by replay: the candidate
//! recipes recorded in the search trace go through a fresh
//! [`RecipeTrie`] (pass by pass), `extract_all_localities` and the
//! proxy's `predict_probs_batch`, and must reproduce the search's trie
//! counters and every candidate's accuracy bit for bit.

use crate::capture::{apply_pass, Capture, Tally};
use crate::{
    derive_seed, lock_rll, median, ratio, run_rounds, time_setup, timed, Args, OpTimes, Outcome,
    Speed,
};
use almost_aig::Aig;
use almost_attacks::subgraph::{extract_all_localities, SubgraphConfig};
use almost_circuits::IscasBenchmark;
use almost_core::{
    generate_secure_recipe, train_proxy, ProxyConfig, ProxyKind, ProxyModel, Recipe, RecipeTrie,
    SaConfig, SecurityResult, RECIPE_LENGTH,
};
use almost_locking::LockedCircuit;
use almost_netlist::{analyze, map_aig, CellLibrary, MapConfig};
use almost_sat::{check_equivalence, Equivalence};
use std::sync::Arc;
use std::time::Instant;

/// The two smallest circuits of the paper's Fig. 4 set (643 and 951 ANDs
/// once locked): search cost is dominated by synthesis passes either way,
/// and small circuits fit several operations into one run.
const CIRCUITS: [IscasBenchmark; 2] = [IscasBenchmark::C1908, IscasBenchmark::C3540];
const KEY_BITS: usize = 64;
/// Locks per circuit. An operation's cost follows its lock and search
/// path (c1908 took 3.2 s on one seed and 5.6 s on another), so a run
/// averages over several.
const LOCKS: usize = 2;
/// Times the set-up (about 4 s) is repeated for `setup_s`.
const SETUP_REPEATS: usize = 1;
/// Simulated-annealing steps of the recipe search.
const SEARCH_STEPS: usize = 3;
const SUBGRAPH: SubgraphConfig = SubgraphConfig {
    hops: 3,
    max_nodes: 32,
};

/// A reduced Algorithm 1: two 2-epoch rounds around one adversarial
/// augmentation, each sample batch one re-lock of 32 key gates.
fn proxy_config(seed: u64) -> ProxyConfig {
    ProxyConfig {
        initial_samples: 24,
        augment_samples: 24,
        epochs: 4,
        period: 2,
        relock_key_size: 32,
        hidden: 16,
        layers: 2,
        batch_size: 32,
        learning_rate: 5e-3,
        subgraph: SUBGRAPH,
        adversarial_sa: SaConfig {
            iterations: 1,
            seed: seed ^ 0xAD,
            ..SaConfig::default()
        },
        seed,
    }
}

fn search_config(seed: u64) -> SaConfig {
    SaConfig {
        iterations: SEARCH_STEPS,
        proposals: 1,
        seed,
        ..SaConfig::default()
    }
}

struct Instance {
    name: String,
    locked: LockedCircuit,
    resyn2_area: f64,
}

fn set_up(seed: u64, library: &CellLibrary) -> Vec<Instance> {
    (0..LOCKS)
        .flat_map(|l| {
            CIRCUITS
                .iter()
                .enumerate()
                .map(move |(c, &bench)| (l, c, bench))
        })
        .map(|(l, c, bench)| {
            let lock_seed = derive_seed(seed, &[0x10c4, c as u64, l as u64]);
            let locked = lock_rll(bench, KEY_BITS, lock_seed);
            let deployed = Recipe::resyn2().apply(&locked.aig);
            let netlist = map_aig(&deployed, library, &MapConfig::no_opt());
            let resyn2_area = analyze(&netlist, &deployed, library, 4, seed).area;
            Instance {
                name: format!("{bench} lock {l}"),
                locked,
                resyn2_area,
            }
        })
        .collect()
}

/// One operation's outputs and timings.
struct Op {
    recipe: Recipe,
    accuracy: f64,
    area: f64,
    proved: bool,
    candidates: usize,
    /// Training plus search: locked netlist to chosen recipe.
    recipe_s: f64,
    search_s: f64,
    /// The whole operation, deployment and checks included.
    wall_s: f64,
}

impl Op {
    fn digest(&self) -> String {
        format!(
            "{} {:016x} {:016x} {}",
            self.recipe,
            self.accuracy.to_bits(),
            self.area.to_bits(),
            self.proved
        )
    }
}

/// Runs one operation. With a probe, charges each layer's time and
/// counters to the tally and replays the search.
fn run_op(
    inst: &Instance,
    seed: u64,
    library: &CellLibrary,
    mut probe: Option<(&Capture, &mut Tally)>,
) -> (Op, Result<(), String>) {
    let start = Instant::now();
    let mark = probe.as_ref().map_or(0, |(cap, _)| cap.mark());
    let (proxy, train_s) =
        timed(|| train_proxy(&inst.locked, ProxyKind::Adversarial, &proxy_config(seed)));
    if let Some((cap, tally)) = probe.as_mut() {
        let events = cap.since(mark);
        tally.add("train_s", train_s);
        tally.add("trainer_s", events.span_s("trainer"));
        tally.add("inner_anneal_s", events.span_s("search"));
        tally.add("epochs", events.count("train_epoch") as f64);
        tally.add("epoch_s", events.sum("train_epoch", "wall_us") / 1e6);
        tally.add_events(&events);
    }

    let mark = probe.as_ref().map_or(0, |(cap, _)| cap.mark());
    let (result, search_s) =
        timed(|| generate_secure_recipe(&inst.locked, &proxy, &search_config(seed ^ 0x5EA2)));
    if let Some((cap, tally)) = probe.as_mut() {
        tally.add_events(&cap.since(mark));
        tally.add("search_s", search_s);
        tally.add("trie_hits", result.engine.cache.hits as f64);
        tally.add("trie_misses", result.engine.cache.misses as f64);
    }

    let (deployed, deploy_s) = timed(|| {
        let mut aig = inst.locked.aig.clone();
        for &pass in result.recipe.passes() {
            aig = apply_pass(pass, &aig, probe.as_mut().map(|(_, t)| &mut **t)).0;
        }
        aig
    });
    let (netlist, map_s) = timed(|| map_aig(&deployed, library, &MapConfig::no_opt()));
    let (report, analyze_s) = timed(|| analyze(&netlist, &deployed, library, 4, seed));
    let (rescored, rescore_s) = timed(|| proxy.predict_accuracy(&inst.locked, &deployed));
    let mark = probe.as_ref().map_or(0, |(cap, _)| cap.mark());
    let (verdict, cec_s) = timed(|| check_equivalence(&inst.locked.aig, &deployed));
    let wall_s = start.elapsed().as_secs_f64();

    let mut check = Ok(());
    if let Some((cap, tally)) = probe.as_mut() {
        tally.add_cec(&cap.since(mark), cec_s);
        tally.add("map.ms", map_s * 1e3);
        tally.add("map.kand", deployed.num_ands() as f64 / 1e3);
        tally.add("analyze.ms", analyze_s * 1e3);
        tally.add("ops", 1.0);
        check = replay(inst, &result, &proxy, tally);
        tally.add(
            "attributed_s",
            train_s + deploy_s + map_s + analyze_s + rescore_s + cec_s,
        );
        tally.add("wall_s", wall_s);
    }

    let op = Op {
        accuracy: result.accuracy,
        area: report.area,
        proved: verdict == Equivalence::Equivalent,
        candidates: result.engine.candidates,
        recipe_s: train_s + search_s,
        search_s,
        wall_s,
        recipe: result.recipe.clone(),
    };
    let check = check.and_then(|()| {
        if op.recipe.len() != RECIPE_LENGTH {
            return Err(format!("chosen recipe {} has the wrong length", op.recipe));
        }
        if result.accuracy_series.len() != SEARCH_STEPS || op.candidates != SEARCH_STEPS + 1 {
            return Err("the search did not score one candidate per step".into());
        }
        if rescored.to_bits() != op.accuracy.to_bits() {
            return Err(format!(
                "re-scoring the chosen recipe gives {rescored}, the search reported {}",
                op.accuracy
            ));
        }
        if !op.proved {
            return Err("the deployed netlist is not equivalent to its locked source".into());
        }
        Ok(())
    });
    (op, check)
}

/// Replays the search of `result` through a fresh trie, pass by pass,
/// then extracts each candidate's localities and scores them, charging
/// every step to its layer. Fails unless the replay reproduces the
/// search's trie counters and every candidate's accuracy bit for bit.
fn replay(
    inst: &Instance,
    result: &SecurityResult,
    proxy: &ProxyModel,
    tally: &mut Tally,
) -> Result<(), String> {
    let positions: Vec<usize> = inst.locked.key_input_positions().collect();
    let mut trie = RecipeTrie::new(inst.locked.aig.clone());
    // The search scores its initial recipe (resyn2) before the first step.
    let recipes = std::iter::once(Recipe::resyn2())
        .chain(result.trace.iterations.iter().map(|it| it.recipe.clone()));
    for (i, recipe) in recipes.enumerate() {
        let ((start, cached), lookup_s) = timed(|| trie.cached_prefix(&recipe));
        let mut chain: Vec<Arc<Aig>> = Vec::new();
        let mut prev = start;
        for &pass in &recipe.passes()[cached..] {
            let (next, pass_s) = apply_pass(pass, &prev, Some(&mut *tally));
            tally.add("replay_s", pass_s);
            prev = Arc::new(next);
            chain.push(prev.clone());
        }
        let (deployed, commit_s) = timed(|| trie.commit(&recipe, cached, chain));
        let (graphs, extract_s) = timed(|| {
            extract_all_localities(&deployed, &positions, inst.locked.key.bits(), &SUBGRAPH)
        });
        let refs: Vec<_> = graphs.iter().collect();
        let (probs, infer_s) = timed(|| proxy.classifier().predict_probs_batch(&refs));
        tally.add("replay_s", lookup_s + commit_s + extract_s + infer_s);
        tally.add("extract_s", extract_s);
        tally.add("infer_s", infer_s);
        tally.add("graphs", graphs.len() as f64);
        let correct = graphs
            .iter()
            .zip(&probs)
            .filter(|(g, &p)| (p >= 0.5) == g.label)
            .count();
        let accuracy = ratio(correct as f64, graphs.len() as f64);
        if let Some(i) = i.checked_sub(1) {
            if accuracy.to_bits() != result.accuracy_series[i].to_bits() {
                return Err(format!(
                    "replayed candidate {i} ({recipe}) scores {accuracy}, the search scored {}",
                    result.accuracy_series[i]
                ));
            }
        }
    }
    let (replayed, searched) = (trie.stats(), result.engine.cache);
    if (replayed.hits, replayed.misses) != (searched.hits, searched.misses) {
        return Err(format!(
            "replay trie hits/misses {}/{} differ from the search's {}/{}",
            replayed.hits, replayed.misses, searched.hits, searched.misses
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let library = CellLibrary::nangate45();
    let mut out = Outcome::default();
    let (instances, setup_s) = time_setup(SETUP_REPEATS, || set_up(args.seed, &library));

    let mut tally = Tally::default();
    let mut first_round: Vec<String> = Vec::new();
    let (mut speed, mut recipe_times) = (Speed::default(), OpTimes::new(instances.len()));
    let mut round_cands_per_s = Vec::new();
    let (mut gaps, mut overheads) = (Vec::new(), Vec::new());
    let (mut proved, mut ops, mut untraced_s) = (0usize, 0usize, 0.0);
    let rounds = run_rounds(args, |r| {
        let (mut cands, mut search_s) = (0.0, 0.0);
        for (i, inst) in instances.iter().enumerate() {
            let seed = derive_seed(args.seed, &[0x5EC0, i as u64]);
            let ((op, check), scale) = speed.measure(|| run_op(inst, seed, &library, None));
            let what = format!("{} round {r}", inst.name);
            if args.trace {
                let capture = Capture::start();
                let (traced, traced_check) =
                    run_op(inst, seed, &library, Some((&capture, &mut tally)));
                drop(capture);
                untraced_s += op.wall_s;
                if traced.digest() != op.digest() {
                    out.problem(format!(
                        "{what}: the traced copy chose {}, the untraced one {}",
                        traced.digest(),
                        op.digest()
                    ));
                }
                out.record(format!("{what} (traced)"), traced_check);
            }
            if r == 0 {
                out.fingerprint
                    .add(format!("{} {}", inst.name, op.digest()));
                first_round.push(op.digest());
                gaps.push((op.accuracy - 0.5).abs() * 100.0);
                overheads.push((op.area / inst.resyn2_area - 1.0) * 100.0);
            } else if first_round[i] != op.digest() {
                out.problem(format!(
                    "{what}: the search did not repeat round 0's choice"
                ));
            }
            let scaled = op.recipe_s * scale;
            eprintln!(
                "{what}: recipe {:.3} s (search {:.3} s), op {:.3} s, scaled recipe {scaled:.3} s",
                op.recipe_s, op.search_s, op.wall_s
            );
            recipe_times.record(r, i, scaled);
            search_s += op.search_s * scale;
            cands += op.candidates as f64;
            ops += 1;
            proved += usize::from(op.proved);
            out.record(what, check);
        }
        if r > 0 {
            round_cands_per_s.push(cands / search_s);
        }
    });

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let m = &mut out.metrics;
    m.set("recipe_s", recipe_times.estimate());
    m.set("search_cands_per_s", median(&round_cands_per_s));
    m.set("acc_gap_pct", mean(&gaps));
    m.set("area_overhead_pct", mean(&overheads));
    if !args.trace {
        m.set("op_s", recipe_times.estimate());
        m.set("proved_share", ratio(proved as f64, ops as f64));
        m.set("setup_s", setup_s);
        return out;
    }
    let t = &tally;
    let traced = t.get("ops");
    let attributed = t.get("attributed_s") + t.get("replay_s");
    t.common_metrics(m, traced, t.get("wall_s"), attributed, untraced_s);
    let per_op = |key: &str| ratio(t.get(key), traced);
    let (hits, misses) = (t.get("trie_hits"), t.get("trie_misses"));
    for (name, value) in [
        ("almost.train_s", per_op("train_s")),
        ("almost.inner_anneal_s", per_op("inner_anneal_s")),
        (
            "almost.sample_gen_s",
            per_op("train_s") - per_op("trainer_s") - per_op("inner_anneal_s"),
        ),
        ("almost.search_s", per_op("search_s")),
        ("almost.trie_hit_ratio", ratio(hits, hits + misses)),
        ("almost.trie_misses", per_op("trie_misses")),
        (
            "almost.replay_share",
            ratio(t.get("replay_s"), t.get("search_s")),
        ),
        (
            "ml.train_ms_per_epoch",
            ratio(t.get("epoch_s") * 1e3, t.get("epochs")),
        ),
        (
            "ml.infer_graphs_per_s",
            ratio(t.get("graphs"), t.get("infer_s")),
        ),
        (
            "attacks.localities_per_s",
            ratio(t.get("graphs"), t.get("extract_s")),
        ),
        (
            "netlist.map_ms_per_kand",
            ratio(t.get("map.ms"), t.get("map.kand")),
        ),
        ("netlist.analyze_ms", per_op("analyze.ms")),
        ("rounds", rounds as f64),
    ] {
        m.set(name, value);
    }
    out
}
