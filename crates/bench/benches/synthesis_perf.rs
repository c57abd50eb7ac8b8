//! Criterion performance benchmarks of the synthesis substrate itself:
//! per-pass throughput, full `resyn2` and technology mapping on the
//! paper's circuits. These are not a paper table — they document the cost
//! model behind the SA search budgets.
//!
//! Besides plain c1355, the passes and the mapper run on c5315 locked with
//! 128 RLL key gates (about 2.4k ANDs), the size the recipe search and
//! deployment actually synthesise.

use almost_aig::{Aig, Pass, Script};
use almost_circuits::IscasBenchmark;
use almost_locking::{LockingScheme, Rll};
use almost_netlist::{map_aig, CellLibrary, MapConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// c5315 with 128 RLL key gates at a fixed seed.
fn c5315_rll128() -> Aig {
    let mut rng = StdRng::seed_from_u64(5315);
    Rll::new(128)
        .lock(&IscasBenchmark::C5315.build(), &mut rng)
        .expect("c5315 takes 128 key gates")
        .aig
}

fn inputs() -> [(&'static str, Aig); 2] {
    [
        ("c1355", IscasBenchmark::C1355.build()),
        ("c5315_rll128", c5315_rll128()),
    ]
}

fn bench_passes(c: &mut Criterion) {
    for (name, aig) in inputs() {
        let mut group = c.benchmark_group(format!("passes_{name}"));
        group.sample_size(10);
        for pass in Pass::ALL {
            group.bench_function(pass.command().replace(' ', "_"), |b| {
                b.iter(|| black_box(pass.apply(black_box(&aig))))
            });
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

criterion_group!(benches, bench_passes, bench_resyn2, bench_map);
criterion_main!(benches);
