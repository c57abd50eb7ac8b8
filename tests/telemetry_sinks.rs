//! End-to-end coverage of the telemetry sinks:
//!
//! - the JSONL log and the Chrome trace pass the library validators
//!   (`telemetry::check`): every line carries exactly its kind's schema
//!   fields with their types, span open/close events balance per thread
//!   with every span closed (the harness span too), and the trace has one
//!   named job-slice track per pool worker, at `tid = 1000 + worker` in
//!   every run;
//! - the data rows a harness would write to CSV are byte-identical with
//!   `ALMOST_TRACE` set vs unset (telemetry is provably inert);
//! - the end-of-run aggregator writes a parseable `BENCH_*.json`.
//!
//! One `#[test]` only: the test mutates the process-global `ALMOST_JOBS`
//! and `ALMOST_TRACE` variables and the global telemetry registry, so
//! nothing may run concurrently with it.

use almost_repro::aig::Aig;
use almost_repro::almost::{Recipe, SaConfig, Score, SearchEngine, SearchObjective};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::ml::gin::{GinClassifier, Graph};
use almost_repro::ml::tensor::Matrix;
use almost_repro::ml::train::{train, TrainConfig};
use almost_repro::telemetry;
use almost_repro::telemetry::check::{check_chrome, check_jsonl};
use almost_repro::telemetry::json::{parse, Value};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

struct StructuralObjective;

impl SearchObjective for StructuralObjective {
    fn score_batch(&self, candidates: &[Arc<Aig>]) -> Vec<Score> {
        candidates
            .iter()
            .map(|aig| Score::plain(aig.num_ands() as f64 + 0.25 * aig.depth() as f64))
            .collect()
    }
}

fn tiny_dataset() -> Vec<Graph> {
    let mut state = 0x51AEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..16)
        .map(|_| {
            let nodes = 6 + (next() % 8) as usize;
            let label = next() % 2 == 0;
            let mut f = Matrix::zeros(nodes, 5);
            for r in 0..nodes {
                f.set(r, (next() % 5) as usize, 1.0);
                if label {
                    f.set(r, 0, 1.0);
                }
            }
            let edges: Vec<(usize, usize)> = (1..nodes).map(|v| (v / 2, v)).collect();
            Graph::from_edges(nodes, &edges, f, label)
        })
        .collect()
}

/// The "harness body": a pool batch, a search-engine anneal and a GIN
/// training run — the three instrumented layers a real harness drives.
/// Returns the deterministic data rows a harness would write to CSV.
fn harness_body() -> Vec<String> {
    let mut rows = Vec::new();

    // Pool batch (jobs sleep so both workers reliably participate).
    let squares = almost_repro::pool::map_indexed((0..8u64).collect(), |_, x| {
        std::thread::sleep(std::time::Duration::from_millis(2));
        x * x
    });
    for (i, s) in squares.iter().enumerate() {
        rows.push(format!("pool,{i},{s}"));
    }

    // Batched SA search over a cheap structural objective.
    let objective = StructuralObjective;
    let mut engine = SearchEngine::new(IscasBenchmark::C432.build(), &objective);
    let run = engine.anneal(
        Recipe::resyn2(),
        &SaConfig {
            iterations: 3,
            proposals: 2,
            seed: 0x5E,
            ..SaConfig::default()
        },
    );
    for (i, it) in run.trace.iterations.iter().enumerate() {
        rows.push(format!(
            "search,{i},{},{:.6},{}",
            it.recipe, it.objective, it.accepted
        ));
    }

    // GIN training (2 epochs at a tiny profile).
    let stats = train(
        &mut GinClassifier::new(5, 8, 2, 2),
        &tiny_dataset(),
        &TrainConfig {
            epochs: 2,
            batch_size: 8,
            learning_rate: 5e-3,
            seed: 7,
        },
    );
    for (e, loss) in stats.epoch_losses.iter().enumerate() {
        rows.push(format!("train,{e},{loss:.6}"));
    }
    rows
}

#[test]
fn sinks_are_schema_valid_and_inert() {
    std::env::set_var("ALMOST_JOBS", "2");
    std::env::remove_var("ALMOST_TRACE");
    let dir = std::env::temp_dir().join(format!("almost_telemetry_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");

    // Reference run: telemetry fully disabled.
    let baseline = harness_body();

    // Two traced runs, each with its own trace path.
    let mut traced_rows: Vec<Vec<String>> = Vec::new();
    for run in 0..2 {
        let jsonl: PathBuf = dir.join(format!("run{run}.jsonl"));
        std::env::set_var("ALMOST_TRACE", &jsonl);
        telemetry::init_harness("telemetry_sinks_it", Some(&dir));
        traced_rows.push(harness_body());
        let report = telemetry::finish().expect("summary report");
        std::env::remove_var("ALMOST_TRACE");

        assert!(report.count("pool_job") > 0, "pool jobs aggregated");
        assert!(report.count("train_epoch") == 2, "train epochs aggregated");
        assert!(report.count("search_step") == 3, "search steps aggregated");

        let log = std::fs::read_to_string(&jsonl).expect("jsonl written");
        let shape = check_jsonl(&log).unwrap_or_else(|e| panic!("run {run}: {e}"));
        for expected in [
            "span_open",
            "span_close",
            "pool_job",
            "pool_batch",
            "search_step",
            "train_epoch",
        ] {
            assert!(shape.kinds.contains_key(expected), "no {expected} event");
        }
        assert_eq!(
            shape.pool_workers,
            BTreeSet::from([0, 1]),
            "both ALMOST_JOBS=2 workers executed jobs"
        );
        let trace =
            std::fs::read_to_string(jsonl.with_extension("trace.json")).expect("trace written");
        check_chrome(&trace, &shape).unwrap_or_else(|e| panic!("run {run}: {e}"));
    }

    // Inertness: the data rows are byte-identical traced or not.
    for (run, rows) in traced_rows.iter().enumerate() {
        assert_eq!(
            rows, &baseline,
            "run {run}: CSV rows differ under ALMOST_TRACE"
        );
    }

    // The aggregator's BENCH json parses and carries the pool totals.
    let bench_json =
        std::fs::read_to_string(dir.join("BENCH_telemetry_sinks_it.json")).expect("BENCH json");
    let v = parse(&bench_json).expect("BENCH json parses");
    assert_eq!(
        v.get("name").and_then(Value::as_str),
        Some("telemetry_sinks_it")
    );
    assert!(
        v.get("pool_job")
            .and_then(|p| p.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 0
    );

    std::env::remove_var("ALMOST_JOBS");
    let _ = std::fs::remove_dir_all(&dir);
}
