//! SAT-resilience harness: DIPs required vs. key size for the
//! point-function defence family, with the Double-DIP counter-attack.
//!
//! Literature shape to reproduce: RLL falls to the exact SAT attack with
//! DIP counts far below `2^k`; Anti-SAT and SARLock force the attack to
//! the exponential `2^k` / `2^k − 1` DIP floor (the defence metric is
//! DIPs required, not accuracy); Double DIP strips SARLock-over-RLL in
//! roughly the base scheme's DIP count — while Anti-SAT, whose wrong keys
//! flip in agreeing groups, resists it and keeps the exponential floor.
//!
//! Every (bench, key-size, scheme) row is independent — it builds its own
//! design, lock, oracle and solvers — so rows fan out across cores on
//! `almost_bench::pool`. Output row *content* is deterministic and ordered
//! the same whether the run is parallel or serial (`ALMOST_JOBS=1`); the
//! CI `perf-smoke` job diffs the two CSVs.

use almost_attacks::{
    render_dip_scaling, DipScalingRow, DoubleDip, DoubleDipConfig, SatAttack, SatAttackConfig,
    SatAttackMode, SolverStats,
};
use almost_bench::{banner, lock_benchmark_with, pool, write_csv};
use almost_circuits::IscasBenchmark;
use almost_core::Scale;
use almost_locking::{
    apply_key, AntiSat, CircuitOracle, LockedCircuit, LockingScheme, Rll, SarLock, Stacked,
};
use almost_sat::{check_equivalence, Equivalence};

/// Key width of the RLL base under the stacked SARLock compound.
const STACK_BASE_BITS: usize = 8;

/// The scheme lineup of one (bench, key-size) cell. Schemes are built
/// inside the worker jobs (trait objects don't cross threads), so rows are
/// addressed by index into this lineup.
const NUM_SCHEMES: usize = 4;

fn scheme_for(idx: usize, k: usize) -> (Box<dyn LockingScheme>, Option<usize>) {
    match idx {
        0 => (Box::new(Rll::new(k)), None),
        1 => (Box::new(SarLock::new(k)), None),
        2 => (Box::new(AntiSat::new(k)), None),
        _ => (
            Box::new(Stacked::new(Rll::new(STACK_BASE_BITS), SarLock::new(k))),
            Some(STACK_BASE_BITS),
        ),
    }
}

fn exact_with_cap(max_iterations: usize) -> SatAttack {
    SatAttack::new(SatAttackConfig {
        mode: SatAttackMode::Exact,
        max_iterations,
        seed: 0x5A7,
    })
}

fn cec_ok(design: &almost_aig::Aig, locked: &LockedCircuit, key: &[bool]) -> bool {
    let restored = apply_key(&locked.aig, locked.key_input_start, key);
    check_equivalence(design, &restored) == Equivalence::Equivalent
}

/// One rendered result row: the console line, the scaling-table row and
/// the CSV row, produced together so all three views agree.
type RenderedRow = (String, DipScalingRow, Vec<String>);

fn main() {
    almost_bench::observed("sat_resilience", run);
}

fn run() {
    let scale = Scale::from_env();
    banner("SAT resilience: DIPs required vs key size", scale);
    let benches = match scale {
        Scale::Quick => vec![IscasBenchmark::C432],
        Scale::Paper => vec![
            IscasBenchmark::C432,
            IscasBenchmark::C880,
            IscasBenchmark::C1355,
        ],
    };
    let key_sizes: &[usize] = match scale {
        Scale::Quick => &[4, 6, 8],
        Scale::Paper => &[4, 6, 8, 10],
    };

    let mut jobs: Vec<(IscasBenchmark, usize, usize)> = Vec::new();
    for &bench in &benches {
        for &k in key_sizes {
            for scheme_idx in 0..NUM_SCHEMES {
                jobs.push((bench, k, scheme_idx));
            }
        }
    }

    let results: Vec<Vec<RenderedRow>> = pool::map_indexed(jobs, |_, (bench, k, scheme_idx)| {
        let design = bench.build();
        // The exact attack gets a generous cap: past the 2^k ceiling
        // it would only be re-proving the floor the row already shows.
        let cap = (1usize << k) + 16;
        let (scheme, base_bits) = scheme_for(scheme_idx, k);
        let locked = lock_benchmark_with(scheme.as_ref(), bench, k as u64);
        let oracle = CircuitOracle::from_locked(&locked);
        let run = exact_with_cap(cap).run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &oracle,
        );
        let sat_row = render_row(
            bench,
            scheme.name(),
            "SAT",
            k,
            run.iterations.len(),
            run.proved_exact,
            run.proved_exact && cec_ok(&design, &locked, &run.recovered),
            run.solver,
        );

        // Double DIP, same lock: for the stacked SARLock compound
        // the verdict is base-key recovery (overlay bits replaced
        // by ground truth before the CEC). Conflict-budgeted so a
        // resolution-hard instance degrades to an honest
        // `finished = false` row instead of stalling the harness.
        let dd_oracle = CircuitOracle::from_locked(&locked);
        let dd = DoubleDip::new(DoubleDipConfig {
            max_iterations: 2 * cap,
            conflict_budget: Some(200_000),
            ..DoubleDipConfig::default()
        })
        .run(
            &locked.aig,
            locked.key_input_start,
            locked.key_size(),
            &dd_oracle,
        );
        let mut base_key = dd.recovered.clone();
        if let Some(base) = base_bits {
            base_key[base..].copy_from_slice(&locked.key.bits()[base..]);
        }
        let dd_row = render_row(
            bench,
            scheme.name(),
            "DoubleDIP",
            k,
            dd.dip_count(),
            dd.two_dip_settled,
            dd.two_dip_settled && cec_ok(&design, &locked, &base_key),
            dd.solver,
        );
        vec![sat_row, dd_row]
    });

    let mut rows: Vec<DipScalingRow> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();
    for (line, row, csv_row) in results.into_iter().flatten() {
        println!("{line}");
        rows.push(row);
        csv.push(csv_row);
    }

    println!("{}", render_dip_scaling(&rows));
    println!("(SARLock+RLL DoubleDIP rows verify *base-key* recovery: overlay bits");
    println!(" are replaced by ground truth before the CEC — the stripped point");
    println!(" function is exactly the corruption SARLock conceded.)");
    write_csv(
        "sat_resilience.csv",
        "bench,scheme,attack,key_size,dips,finished,correct,decisions,propagations,conflicts,restarts",
        &csv,
    );
}

#[allow(clippy::too_many_arguments)]
fn render_row(
    bench: IscasBenchmark,
    scheme: &str,
    attack: &str,
    k: usize,
    dips: usize,
    finished: bool,
    correct: bool,
    solver: SolverStats,
) -> RenderedRow {
    let line = format!(
        "{:<8} {:<14} {:<10} k={:<3} DIPs={:<5} finished={:<5} correct={:<5} conflicts={}",
        bench.name(),
        scheme,
        attack,
        k,
        dips,
        finished,
        correct,
        solver.conflicts
    );
    let row = DipScalingRow {
        scheme: scheme.into(),
        attack: attack.into(),
        key_size: k,
        dips,
        finished,
        correct,
        solver,
    };
    let csv_row = vec![
        bench.name().into(),
        scheme.into(),
        attack.into(),
        k.to_string(),
        dips.to_string(),
        finished.to_string(),
        correct.to_string(),
        solver.decisions.to_string(),
        solver.propagations.to_string(),
        solver.conflicts.to_string(),
        solver.restarts.to_string(),
    ];
    (line, row, csv_row)
}
