//! CEC throughput: fraig-first equivalence checking across
//! ISCAS-profile benchmarks.
//!
//! Shape to reproduce: on structurally similar pairs (the common CEC
//! case — original vs. restructured, locked vs. key-programmed) the
//! fraig sweep decomposes the proof into many small input-to-output
//! queries and settles *unbudgeted*, the c6288 multiplier included.
//! `tests/cec_envelope.rs` pins the sweep's SAT-call and decision
//! ceilings on the c6288 pair; this harness records the wall time.
//!
//! Each row checks a benchmark against its [`redundify`]-ed copy (every
//! 16th AND wrapped in an absorption identity), so the sweep has to
//! prove every wrapper away with real SAT queries before the output
//! cones collapse.

use almost_bench::{banner, pool, telemetry, write_csv};
use almost_circuits::{redundify, IscasBenchmark};
use almost_core::Scale;
use almost_sat::{check_equivalence, Equivalence};
use std::time::Instant;

fn main() {
    almost_bench::observed("cec", run);
}

fn run() {
    let scale = Scale::from_env();
    banner("CEC throughput: fraig-first sweep", scale);
    let benches = match scale {
        Scale::Quick => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C1355,
            IscasBenchmark::C6288,
        ],
        Scale::Paper => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C880,
            IscasBenchmark::C1355,
            IscasBenchmark::C1908,
            IscasBenchmark::C3540,
            IscasBenchmark::C6288,
        ],
    };

    println!(
        "{:<8} {:>6} {:>8} {:>12} {:>12}",
        "bench", "ands", "pair", "fraig", "verdict"
    );
    let results = pool::map_indexed(benches, |_, bench| {
        let original = bench.build();
        let restructured = redundify(&original, 16);

        let started = Instant::now();
        let verdict = check_equivalence(&original, &restructured);
        let fraig_secs = started.elapsed().as_secs_f64();
        assert_eq!(
            verdict,
            Equivalence::Equivalent,
            "{bench}: redundified pair must certify equivalent"
        );
        telemetry::cell_done(|| bench.name().to_string());

        let line = format!(
            "{:<8} {:>6} {:>8} {:>10.3}s {:>12}",
            bench.name(),
            original.num_ands(),
            restructured.num_ands(),
            fraig_secs,
            "equivalent"
        );
        let row = vec![
            bench.name().into(),
            original.num_ands().to_string(),
            restructured.num_ands().to_string(),
            format!("{fraig_secs:.6}"),
            "equivalent".into(),
        ];
        (line, row)
    });

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (line, row) in results {
        println!("{line}");
        rows.push(row);
    }

    write_csv(
        "cec_throughput.csv",
        "bench,ands,restructured_ands,fraig_seconds,fraig_verdict",
        &rows,
    );
}
