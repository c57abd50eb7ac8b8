//! `deploy_verify`: synthesis kernels on large networks, without the
//! recipe trie.
//!
//! Set-up builds c5315 and c7552 and locks each twice with 128 RLL key
//! gates (2.4k–2.5k ANDs once locked). One operation applies a fixed
//! recipe pass by pass to a locked netlist, maps the result (`map_aig`,
//! no optimisation), analyses it and CECs it against the locked source
//! with `check_equivalence`. A round deploys the recipe on every locked
//! netlist; the work is deterministic, so every round must reproduce
//! the first one's outputs.

use crate::capture::{apply_pass, Capture, Tally};
use crate::{
    derive_seed, lock_rll, ratio, run_rounds, time_setup, timed, Args, OpTimes, Outcome, Speed,
};
use almost_aig::Pass;
use almost_circuits::IscasBenchmark;
use almost_core::Recipe;
use almost_locking::LockedCircuit;
use almost_netlist::{analyze, map_aig, CellLibrary, MapConfig};
use almost_sat::{check_equivalence, Equivalence};
use std::time::Instant;

const CIRCUITS: [(IscasBenchmark, usize); 2] =
    [(IscasBenchmark::C5315, 128), (IscasBenchmark::C7552, 128)];
/// The recipe: each pass once, plus a second rewrite and balance (ten
/// steps, as in the paper), in one fixed order, so the seed only moves
/// the key gates. `Recipe::random`, or a seeded order, would vary a
/// run's cost several-fold between seeds (fraig alone takes 1 ms to 2 s
/// on these netlists, depending on what runs before it).
const RECIPE: [Pass; 10] = [
    Pass::Rewrite,
    Pass::RewriteZ,
    Pass::Refactor,
    Pass::RefactorZ,
    Pass::Resub,
    Pass::ResubZ,
    Pass::Balance,
    Pass::Fraig,
    Pass::Rewrite,
    Pass::Balance,
];
/// Locks per circuit. The recipe's cost follows the key-gate placement
/// (on c7552 it took 2.5 s on some seeds and 3.4 s on others), so a run
/// averages over several.
const LOCKS: usize = 2;
/// Times the set-up (about 2 ms) is repeated for `setup_s`.
const SETUP_REPEATS: usize = 11;

struct Instance {
    name: String,
    locked: LockedCircuit,
}

fn set_up(seed: u64) -> Vec<Instance> {
    (0..LOCKS)
        .flat_map(|l| CIRCUITS.iter().enumerate().map(move |(c, &cb)| (l, c, cb)))
        .map(|(l, c, (bench, bits))| Instance {
            name: format!("{bench} lock {l}"),
            locked: lock_rll(
                bench,
                bits,
                derive_seed(seed, &[0xDE91, c as u64, l as u64]),
            ),
        })
        .collect()
}

/// One deployment's outputs and timings.
struct Op {
    digest: String,
    proved: bool,
    wall_s: f64,
}

fn run_op(
    inst: &Instance,
    recipe: &Recipe,
    library: &CellLibrary,
    mut probe: Option<(&Capture, &mut Tally)>,
) -> (Op, Result<(), String>) {
    let start = Instant::now();
    let (deployed, synth_s) = timed(|| {
        let mut aig = inst.locked.aig.clone();
        for &pass in recipe.passes() {
            aig = apply_pass(pass, &aig, probe.as_mut().map(|(_, t)| &mut **t)).0;
        }
        aig
    });
    let (netlist, map_s) = timed(|| map_aig(&deployed, library, &MapConfig::no_opt()));
    let (report, analyze_s) = timed(|| analyze(&netlist, &deployed, library, 4, 1));
    let mark = probe.as_ref().map_or(0, |(cap, _)| cap.mark());
    let (verdict, cec_s) = timed(|| check_equivalence(&inst.locked.aig, &deployed));
    let wall_s = start.elapsed().as_secs_f64();
    let proved = verdict == Equivalence::Equivalent;
    if let Some((cap, tally)) = probe.as_mut() {
        let events = cap.since(mark);
        tally.add_cec(&events, cec_s);
        tally.add_events(&events);
        tally.add("map.ms", map_s * 1e3);
        tally.add("map.kand", deployed.num_ands() as f64 / 1e3);
        tally.add("analyze.ms", analyze_s * 1e3);
        tally.add("ops", 1.0);
        tally.add("attributed_s", synth_s + map_s + analyze_s + cec_s);
        tally.add("wall_s", wall_s);
    }
    let op = Op {
        digest: format!(
            "{recipe} {} {} {:016x} {proved}",
            deployed.num_ands(),
            netlist.gates().len(),
            report.area.to_bits()
        ),
        proved,
        wall_s,
    };
    let check = if proved {
        Ok(())
    } else {
        Err("the deployed netlist is not equivalent to its locked source".into())
    };
    (op, check)
}

pub fn run(args: &Args) -> Outcome {
    let library = CellLibrary::nangate45();
    let mut out = Outcome::default();
    let (instances, setup_s) = time_setup(SETUP_REPEATS, || set_up(args.seed));
    let recipe = Recipe::new(RECIPE.to_vec());

    let mut tally = Tally::default();
    let mut first_round: Vec<String> = Vec::new();
    let (mut speed, mut op_times) = (Speed::default(), OpTimes::new(instances.len()));
    let (mut proved, mut ops, mut untraced_s) = (0usize, 0usize, 0.0);
    let rounds = run_rounds(args, |r| {
        for (i, inst) in instances.iter().enumerate() {
            let ((op, check), scale) = speed.measure(|| run_op(inst, &recipe, &library, None));
            let what = format!("{} {recipe} round {r}", inst.name);
            if args.trace {
                let capture = Capture::start();
                let (traced, traced_check) =
                    run_op(inst, &recipe, &library, Some((&capture, &mut tally)));
                drop(capture);
                untraced_s += op.wall_s;
                if traced.digest != op.digest {
                    out.problem(format!(
                        "{what}: the traced copy differs from the untraced one"
                    ));
                }
                out.record(format!("{what} (traced)"), traced_check);
            }
            if r == 0 {
                out.fingerprint.add(format!("{} {}", inst.name, op.digest));
                first_round.push(op.digest.clone());
            } else if first_round[i] != op.digest {
                out.problem(format!(
                    "{what}: the deployment did not repeat round 0's result"
                ));
            }
            let scaled = op.wall_s * scale;
            eprintln!("{what}: op {:.3} s, scaled {scaled:.3} s", op.wall_s);
            op_times.record(r, i, scaled);
            ops += 1;
            proved += usize::from(op.proved);
            out.record(what, check);
        }
    });

    let m = &mut out.metrics;
    m.set("deploy_s", op_times.estimate());
    m.set("verified_share", ratio(proved as f64, ops as f64));
    if args.trace {
        let t = &tally;
        t.common_metrics(
            m,
            t.get("ops"),
            t.get("wall_s"),
            t.get("attributed_s"),
            untraced_s,
        );
        m.set(
            "netlist.map_ms_per_kand",
            ratio(t.get("map.ms"), t.get("map.kand")),
        );
        m.set(
            "netlist.analyze_ms",
            ratio(t.get("analyze.ms"), t.get("ops")),
        );
        m.set("rounds", rounds as f64);
    } else {
        m.set("op_s", op_times.estimate());
        m.set("proved_share", ratio(proved as f64, ops as f64));
        m.set("setup_s", setup_s);
    }
    out
}
