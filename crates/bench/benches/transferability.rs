//! §III-A transferability experiment: train two attack models M_S1 and
//! M_S2 on c5315 locked netlists synthesised with recipes S1 and S2, then
//! cross-evaluate on both test distributions T_S1 and T_S2.
//!
//! Paper numbers (key 64): acc(T_S1, M_S1) = 57.52 > acc(T_S1, M_S2) =
//! 52.27, and acc(T_S2, M_S2) = 58.91 > acc(T_S2, M_S1) = 53.78 — models
//! do not transfer across recipes, motivating the proxy model M\*.

use almost_attacks::{Omla, OmlaConfig};
use almost_bench::{banner, lock_benchmark, pct, pool, telemetry, write_csv};
use almost_circuits::IscasBenchmark;
use almost_core::{ProxyConfig, Recipe, Scale};

fn main() {
    almost_bench::observed("transferability", run);
}

fn run() {
    let scale = Scale::from_env();
    banner("Transferability: accuracy(T_Si, M_Sj) on c5315", scale);
    let locked = lock_benchmark(IscasBenchmark::C5315, scale.key_sizes()[0]);
    let s1 = Recipe::resyn2();
    let s2 = Recipe::from_mnemonics("bsfWbSwFfb").expect("valid mnemonics");

    let p: ProxyConfig = scale.proxy_config(0x77);
    let omla = Omla::new(OmlaConfig {
        hidden: p.hidden,
        layers: p.layers,
        epochs: p.epochs,
        batch_size: p.batch_size,
        learning_rate: p.learning_rate,
        relock_key_size: p.relock_key_size,
        training_samples: p.initial_samples,
        subgraph: p.subgraph,
        seed: 0x7A4,
    });

    let recipes = [("S1", &s1), ("S2", &s2)];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut matrix = [[0.0f64; 2]; 2];
    let deployments: Vec<_> = recipes.iter().map(|(_, r)| r.apply(&locked.aig)).collect();
    let positions: Vec<usize> = locked.key_input_positions().collect();

    // One job per attack model M_Sj (the expensive GIN training); each job
    // also evaluates its model on both test distributions. Jobs fan out on
    // the shared pool and come back in job order, so the printed lines and
    // CSV rows match a serial run.
    let jobs: Vec<usize> = (0..recipes.len()).collect();
    let per_model: Vec<Vec<f64>> = pool::map_indexed(jobs, |_, j| {
        let model = omla.train_model(&locked.aig, recipes[j].1);
        let accs: Vec<f64> = deployments
            .iter()
            .map(|deployed| {
                let probs = omla.predict_bits(&model, deployed, &positions);
                let correct = probs
                    .iter()
                    .zip(locked.key.bits())
                    .filter(|(&prob, &bit)| (prob >= 0.5) == bit)
                    .count();
                correct as f64 / positions.len() as f64
            })
            .collect();
        // Liveness marker (stderr, completion order): the ordered output
        // prints only after both models finish.
        telemetry::cell_done(|| format!("M_{}", recipes[j].0));
        accs
    });

    for (j, (model_name, _)) in recipes.iter().enumerate() {
        for (i, (test_name, _)) in recipes.iter().enumerate() {
            let acc = per_model[j][i];
            matrix[i][j] = acc;
            println!("accuracy(T_{test_name}, M_{model_name}) = {}%", pct(acc));
            rows.push(vec![
                format!("T_{test_name}"),
                format!("M_{model_name}"),
                pct(acc),
            ]);
        }
    }

    println!();
    let diag = (matrix[0][0] + matrix[1][1]) / 2.0;
    let off = (matrix[0][1] + matrix[1][0]) / 2.0;
    println!(
        "mean on-recipe accuracy {}% vs cross-recipe {}%  (paper: on-recipe higher — no transfer)",
        pct(diag),
        pct(off)
    );

    write_csv("transferability.csv", "test_set,model,accuracy_pct", &rows);
}
