//! Shared infrastructure for the experiment harnesses that regenerate
//! every table and figure of the ALMOST paper.
//!
//! Each `benches/*.rs` target is a `harness = false` binary that prints the
//! same rows/series the paper reports and writes CSV files under
//! `target/exp/`. Scale is selected with `ALMOST_SCALE=quick|ci|paper`
//! (default `quick`; `ci` runs the harnesses at quick scale); see
//! `almost_core::config::Scale`.
//!
//! The attack harnesses (`sat_attack`, `sat_resilience`, `table2_attacks`)
//! and the figure harnesses (`fig4_sa_search`, `fig5_resynthesis`,
//! `transferability`) fan their independent rows out across cores on the
//! [`pool`] work-stealing pool; worker count follows `ALMOST_JOBS` (set
//! `ALMOST_JOBS=1` for the serial reference run — row content is
//! identical either way, wall-clock columns aside). The pool itself lives
//! in the `almost_pool` crate (the GIN trainer uses it too); the `pool`
//! path is kept as a re-export for the harnesses.

pub use almost_pool as pool;
pub use almost_telemetry as telemetry;

use almost_circuits::IscasBenchmark;
use almost_core::Scale;
use almost_locking::{LockedCircuit, LockingScheme, Rll};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// The benchmark set for a given experiment at the current scale.
pub fn experiment_benchmarks(scale: Scale, figure: bool) -> Vec<IscasBenchmark> {
    let paper7 = IscasBenchmark::PAPER_SEVEN.to_vec();
    // Figures 4/5 plot six circuits (c1355 is dropped in Fig. 4; Fig. 5
    // drops c6288); we keep one consistent six-circuit set for figures.
    let figure6 = vec![
        IscasBenchmark::C1908,
        IscasBenchmark::C2670,
        IscasBenchmark::C3540,
        IscasBenchmark::C5315,
        IscasBenchmark::C6288,
        IscasBenchmark::C7552,
    ];
    match (scale, figure) {
        (Scale::Paper, false) => paper7,
        (Scale::Paper, true) => figure6,
        (Scale::Quick, false) => paper7,
        (Scale::Quick, true) => vec![
            IscasBenchmark::C1908,
            IscasBenchmark::C2670,
            IscasBenchmark::C3540,
        ],
    }
}

/// Locks a benchmark with RLL deterministically (seed derived from the
/// benchmark name and key size).
pub fn lock_benchmark(bench: IscasBenchmark, key_size: usize) -> LockedCircuit {
    let seed = bench.name().bytes().fold(0xA105u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(b as u64)
    }) ^ key_size as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let aig = bench.build();
    Rll::new(key_size)
        .lock(&aig, &mut rng)
        .unwrap_or_else(|e| panic!("{bench} cannot absorb {key_size} key gates: {e}"))
}

/// Locks a benchmark with an arbitrary scheme deterministically (seed
/// derived from the benchmark and scheme names plus `salt`) — the entry
/// point the SAT-resilience harnesses use for Anti-SAT/SARLock and
/// stacked compound locks.
pub fn lock_benchmark_with(
    scheme: &dyn LockingScheme,
    bench: IscasBenchmark,
    salt: u64,
) -> LockedCircuit {
    let seed = bench
        .name()
        .bytes()
        .chain(scheme.name().bytes())
        .fold(0xA105u64, |acc, b| {
            acc.wrapping_mul(131).wrapping_add(b as u64)
        })
        ^ salt;
    let mut rng = StdRng::seed_from_u64(seed);
    let aig = bench.build();
    scheme
        .lock(&aig, &mut rng)
        .unwrap_or_else(|e| panic!("{bench} cannot be locked with {}: {e}", scheme.name()))
}

/// The output directory for experiment CSVs (`target/exp`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("exp");
    fs::create_dir_all(&dir).expect("create target/exp");
    dir
}

/// Writes rows of comma-joined values with a header line.
pub fn write_csv(name: &str, header: &str, rows: &[Vec<String>]) {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    println!("  [csv] {}", path.display());
}

/// Formats a fraction as a percentage with two decimals (paper style).
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

/// Prints an experiment banner with the active scale.
pub fn banner(title: &str, scale: Scale) {
    println!();
    println!("=== {title} (scale: {}) ===", scale.label());
}

/// Standard harness telemetry setup: stderr progress + end-of-run summary
/// (with `BENCH_<name>.json` next to the CSVs), plus JSONL and Chrome
/// trace sinks when `ALMOST_TRACE=<path>` is set. Pair with [`observed`]
/// or call [`telemetry::finish`] before exit.
pub fn observe(name: &str) {
    telemetry::init_harness(name, Some(&out_dir()));
}

/// Runs a harness body under [`observe`]/[`telemetry::finish`], so every
/// exit path flushes the sinks and renders the summary table.
pub fn observed(name: &str, body: impl FnOnce()) {
    observe(name);
    body();
    telemetry::finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_benchmark_is_deterministic() {
        let a = lock_benchmark(IscasBenchmark::C432, 16);
        let b = lock_benchmark(IscasBenchmark::C432, 16);
        assert_eq!(a.key, b.key);
        assert_eq!(a.aig.num_ands(), b.aig.num_ands());
    }

    #[test]
    fn lock_benchmark_with_is_deterministic_and_scheme_aware() {
        use almost_locking::SarLock;
        let scheme = SarLock::new(6);
        let a = lock_benchmark_with(&scheme, IscasBenchmark::C432, 7);
        let b = lock_benchmark_with(&scheme, IscasBenchmark::C432, 7);
        assert_eq!(a.key, b.key);
        let c = lock_benchmark_with(&Rll::new(6), IscasBenchmark::C432, 7);
        assert_ne!(a.key, c.key, "scheme name feeds the seed");
    }

    #[test]
    fn benchmark_sets_are_nonempty() {
        for scale in [Scale::Quick, Scale::Paper] {
            for figure in [false, true] {
                assert!(!experiment_benchmarks(scale, figure).is_empty());
            }
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.00");
        assert_eq!(pct(0.57521), "57.52");
    }
}
