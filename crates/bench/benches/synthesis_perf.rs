//! Criterion performance benchmarks of the synthesis substrate itself:
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

use almost_aig::cut::{CutConfig, CutSet};
use almost_aig::passes::Window;
use almost_aig::{Aig, Pass, Script};
use almost_circuits::IscasBenchmark;
use almost_locking::{LockingScheme, Rll};
use almost_netlist::{map_aig, CellLibrary, MapConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::thread;

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

fn bench_passes(c: &mut Criterion) {
    let restructured = Script::from_mnemonics("wWfFsSb")
        .expect("valid recipe")
        .apply(&rll128(IscasBenchmark::C7552, 7552));
    let inputs = inputs()
        .into_iter()
        .chain([("c7552_rll128_wWfFsSb", restructured)]);
    for (name, aig) in inputs {
        let mut group = c.benchmark_group(format!("passes_{name}"));
        group.sample_size(10);
        for pass in Pass::ALL {
            let name = pass.command().replace(' ', "_");
            group.bench_function(&name, |b| b.iter(|| black_box(pass.apply(black_box(&aig)))));
            if matches!(
                pass,
                Pass::Rewrite | Pass::RewriteZ | Pass::Refactor | Pass::RefactorZ
            ) {
                group.bench_function(format!("{name}_cold"), |b| {
                    b.iter(|| black_box(cold(|| pass.apply(black_box(&aig)))))
                });
            }
        }
        group.finish();
    }
}

fn bench_resyn2(c: &mut Criterion) {
    let mut group = c.benchmark_group("resyn2");
    group.sample_size(10);
    for bench in [IscasBenchmark::C432, IscasBenchmark::C1355] {
        let aig = bench.build();
        group.bench_function(bench.name(), |b| {
            b.iter(|| black_box(Script::resyn2().apply(black_box(&aig))))
        });
        group.bench_function(format!("{}_cold", bench.name()), |b| {
            b.iter(|| black_box(cold(|| Script::resyn2().apply(black_box(&aig)))))
        });
    }
    group.finish();
}

fn bench_map(c: &mut Criterion) {
    let library = CellLibrary::nangate45();
    let mut group = c.benchmark_group("map_aig");
    group.sample_size(10);
    for (name, aig) in inputs() {
        for (setting, config) in [
            ("no_opt", MapConfig::no_opt()),
            ("extreme_opt", MapConfig::extreme_opt()),
        ] {
            group.bench_function(format!("{name}_{setting}"), |b| {
                b.iter(|| black_box(map_aig(black_box(&aig), &library, &config)))
            });
        }
    }
    group.finish();
}

fn bench_cut_layer(c: &mut Criterion) {
    let aig = rll128(IscasBenchmark::C5315, 5315);
    let mut group = c.benchmark_group("cut_layer_c5315_rll128");
    group.sample_size(10);
    for max_cuts in [8, 12] {
        group.bench_function(format!("cutset_compute_{max_cuts}"), |b| {
            b.iter(|| black_box(CutSet::compute(black_box(&aig), CutConfig { max_cuts })))
        });
    }
    group.bench_function("reconvergence_cut_window_load", |b| {
        let mut window = Window::new(aig.num_nodes());
        b.iter(|| {
            let mut volume = 0;
            for v in aig.iter_ands() {
                let leaves = window.reconvergence_cut(&aig, &[v], 8);
                window.load(&aig, &[v], &leaves);
                volume += window.volume().len();
            }
            black_box(volume)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_passes,
    bench_resyn2,
    bench_map,
    bench_cut_layer
);
criterion_main!(benches);
