//! Performance benchmarks of the synthesis substrate itself:
//! per-pass throughput, full `resyn2` and technology mapping on the
//! paper's circuits. These are not a paper table — they document the cost
//! model behind the SA search budgets.
//!
//! Besides plain c1355, the passes and the mapper run on c5315 locked with
//! 128 RLL key gates (about 2.4k ANDs), the size the recipe search and
//! deployment actually synthesise. The passes also run on c7552 RLL-128
//! after `wWfFsSb`, the restructured input the `g` (fraig) letter sees in
//! a deployed recipe: restructuring leaves classes of near-constant
//! lookalikes that only counterexample feedback splits, which the raw
//! locked netlists never show.
//!
//! `rewrite` and `refactor` keep their resynthesis plans in a per-thread
//! library that outlives a pass call, so repeated iterations on one thread
//! replay plans derived earlier. Each of those passes, and `resyn2`, is
//! therefore timed twice: warm (every iteration on the benchmark thread)
//! and cold (`_cold`: every iteration on a fresh thread, whose library
//! starts empty, as a pool batch thread's does).
//!
//! The cut layer also runs on its own on c5315 RLL-128: priority-cut
//! enumeration at the pass's and the extreme-opt mapper's caps, and a
//! reconvergence cut plus window load for every AND, the per-node set-up
//! of `refactor` and `resub`.
//!
//! Each benchmark runs once untimed, then `almost_bench::SAMPLES` timed
//! times, and prints one `group/name [min mean max] (n samples)` row.

use almost_aig::cut::{CutConfig, CutSet};
use almost_aig::passes::Window;
use almost_aig::{Aig, Pass, Script};
use almost_bench::time_row;
use almost_circuits::IscasBenchmark;
use almost_locking::{LockingScheme, Rll};
use almost_netlist::{map_aig, CellLibrary, MapConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::thread;

/// Times `f` and prints its `group/name` row.
fn bench<O>(group: &str, name: &str, f: impl FnMut() -> O) {
    println!("{}", time_row(&format!("{group}/{name}"), f));
}

/// `bench` with 128 RLL key gates, locked at a fixed seed.
fn rll128(bench: IscasBenchmark, seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    Rll::new(128)
        .lock(&bench.build(), &mut rng)
        .expect("takes 128 key gates")
        .aig
}

/// Runs `f` on a fresh thread, so it starts with an empty plan library.
fn cold<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    thread::scope(|s| s.spawn(f).join().expect("benchmark thread"))
}

fn inputs() -> [(&'static str, Aig); 2] {
    [
        ("c1355", IscasBenchmark::C1355.build()),
        ("c5315_rll128", rll128(IscasBenchmark::C5315, 5315)),
    ]
}

fn bench_passes() {
    let restructured = Script::from_mnemonics("wWfFsSb")
        .expect("valid recipe")
        .apply(&rll128(IscasBenchmark::C7552, 7552));
    let inputs = inputs()
        .into_iter()
        .chain([("c7552_rll128_wWfFsSb", restructured)]);
    for (name, aig) in inputs {
        let g = format!("passes_{name}");
        println!("\n## {g}");
        for pass in Pass::ALL {
            let name = pass.command().replace(' ', "_");
            bench(&g, &name, || pass.apply(black_box(&aig)));
            if matches!(
                pass,
                Pass::Rewrite | Pass::RewriteZ | Pass::Refactor | Pass::RefactorZ
            ) {
                bench(&g, &format!("{name}_cold"), || {
                    cold(|| pass.apply(black_box(&aig)))
                });
            }
        }
    }
}

fn bench_resyn2() {
    let g = "resyn2";
    println!("\n## {g}");
    for benchmark in [IscasBenchmark::C432, IscasBenchmark::C1355] {
        let aig = benchmark.build();
        let name = benchmark.name();
        bench(g, name, || Script::resyn2().apply(black_box(&aig)));
        bench(g, &format!("{name}_cold"), || {
            cold(|| Script::resyn2().apply(black_box(&aig)))
        });
    }
}

fn bench_map() {
    let library = CellLibrary::nangate45();
    let g = "map_aig";
    println!("\n## {g}");
    for (name, aig) in inputs() {
        for (setting, config) in [
            ("no_opt", MapConfig::no_opt()),
            ("extreme_opt", MapConfig::extreme_opt()),
        ] {
            bench(g, &format!("{name}_{setting}"), || {
                map_aig(black_box(&aig), &library, &config)
            });
        }
    }
}

fn bench_cut_layer() {
    let aig = rll128(IscasBenchmark::C5315, 5315);
    let g = "cut_layer_c5315_rll128";
    println!("\n## {g}");
    for max_cuts in [8, 12] {
        bench(g, &format!("cutset_compute_{max_cuts}"), || {
            CutSet::compute(black_box(&aig), CutConfig { max_cuts })
        });
    }
    let mut window = Window::new(aig.num_nodes());
    bench(g, "reconvergence_cut_window_load", || {
        let mut volume = 0;
        for v in aig.iter_ands() {
            let leaves = window.reconvergence_cut(&aig, &[v], 8);
            window.load(&aig, &[v], &leaves);
            volume += window.volume().len();
        }
        volume
    });
}

fn main() {
    bench_passes();
    bench_resyn2();
    bench_map();
    bench_cut_layer();
}
