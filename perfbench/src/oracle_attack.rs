//! `oracle_attack`: the oracle-guided side, the control workload for
//! synthesis changes.
//!
//! Set-up locks c1908 and c3540 with 64 RLL key gates and c5315 and
//! c7552 with 128 ([`SETS`] lock seeds each), deploys each lock with
//! resyn2 and compiles its activated-chip oracle; it also locks c1355
//! with SARLock-6 over RLL-16. One operation is an exact `SatAttack` on a
//! deployed RLL lock, or a `DoubleDip` on the SARLock compound, followed
//! by an unbudgeted `check_equivalence` of the unlocked netlist against
//! the original function. A round attacks every lock once; the attacks
//! are deterministic, so every round must reproduce the first one's
//! keys, DIP counts and verdicts.

use crate::capture::{Capture, Tally};
use crate::{
    derive_seed, lock_rll, lock_with, ratio, run_rounds, time_setup, timed, Args, OpTimes, Outcome,
    Speed,
};
use almost_aig::{Aig, Script};
use almost_attacks::{DoubleDip, SatAttack};
use almost_circuits::IscasBenchmark;
use almost_locking::{
    apply_key, BatchOracle, CircuitOracle, LockedCircuit, Oracle, Rll, SarLock, Stacked,
};
use almost_sat::{check_equivalence, Equivalence};
use std::cell::Cell;
use std::time::Instant;

/// RLL locks attacked by the exact SAT attack: two 64-bit keys on
/// mid-size circuits and two 128-bit keys on the largest non-multiplier
/// circuits, so DIP counts and miter sizes both vary.
const RLL_LOCKS: [(IscasBenchmark, usize); 4] = [
    (IscasBenchmark::C1908, 64),
    (IscasBenchmark::C3540, 64),
    (IscasBenchmark::C5315, 128),
    (IscasBenchmark::C7552, 128),
];
/// The Double-DIP lock: SARLock over RLL on c1355. A 6-bit point
/// function settles in about 65 2-DIPs on every lock seed tried; at 8 to
/// 12 bits the 2-DIP count and time vary tenfold between lock seeds, and
/// many 12-bit locks do not settle within 4096 2-DIPs. Double DIP is
/// approximate: on about one lock in a hundred its settled base key is
/// wrong on a few patterns, so its locks come from [`DD_LOCK_SEEDS`],
/// checked to yield a correct base key, and not from `--seed`.
const DD_BENCH: IscasBenchmark = IscasBenchmark::C1355;
const DD_BASE_BITS: usize = 16;
const DD_POINT_BITS: usize = 6;
const DD_LOCK_SEEDS: [u64; SETS] = [0xDD00, 0xDD01, 0xDD02];
/// Lock seeds set up per lock.
const SETS: usize = 3;
/// Times the whole set-up (all [`SETS`], about 13 s) is repeated for
/// `setup_s`.
const SETUP_REPEATS: usize = 1;

enum Attack {
    Sat,
    DoubleDip,
}

struct Instance {
    name: String,
    attack: Attack,
    locked: LockedCircuit,
    /// The netlist attacked: the resyn2 deployment (RLL) or the locked
    /// netlist itself (Double DIP).
    target: Aig,
    oracle: CircuitOracle,
}

fn set_up(seed: u64, set: usize) -> Vec<Instance> {
    let mut instances: Vec<Instance> = RLL_LOCKS
        .iter()
        .enumerate()
        .map(|(i, &(bench, bits))| {
            let locked = lock_rll(
                bench,
                bits,
                derive_seed(seed, &[0x0A77, set as u64, i as u64]),
            );
            Instance {
                name: format!("{bench} RLL-{bits} set {set}"),
                attack: Attack::Sat,
                target: Script::resyn2().apply(&locked.aig),
                oracle: CircuitOracle::from_locked(&locked),
                locked,
            }
        })
        .collect();
    let scheme = Stacked::new(Rll::new(DD_BASE_BITS), SarLock::new(DD_POINT_BITS));
    let locked = lock_with(&scheme, DD_BENCH, DD_LOCK_SEEDS[set]);
    instances.push(Instance {
        name: format!("{DD_BENCH} SARLock-{DD_POINT_BITS}+RLL-{DD_BASE_BITS} set {set}"),
        attack: Attack::DoubleDip,
        target: locked.aig.clone(),
        oracle: CircuitOracle::from_locked(&locked),
        locked,
    });
    instances
}

/// Forwards to an oracle, timing every call.
struct TimedOracle<'a> {
    inner: &'a CircuitOracle,
    busy_s: Cell<f64>,
}

impl TimedOracle<'_> {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let (out, seconds) = timed(f);
        self.busy_s.set(self.busy_s.get() + seconds);
        out
    }
}

impl Oracle for TimedOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&self, pattern: &[bool]) -> Vec<bool> {
        self.time(|| self.inner.query(pattern))
    }

    fn queries_served(&self) -> usize {
        self.inner.queries_served()
    }
}

// The attacks here query one pattern at a time; the batch entry points
// keep their default per-pattern routing through `query`.
impl BatchOracle for TimedOracle<'_> {}

/// One attack's outputs and timings.
struct Op {
    key: Vec<bool>,
    dips: usize,
    conflicts: u64,
    propagations: u64,
    queries: usize,
    proved: bool,
    wall_s: f64,
}

impl Op {
    fn digest(&self) -> String {
        let key: String = self
            .key
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        format!(
            "{key} {} {} {} {}",
            self.dips, self.conflicts, self.queries, self.proved
        )
    }
}

fn run_op(inst: &Instance, mut probe: Option<(&Capture, &mut Tally)>) -> (Op, Result<(), String>) {
    let start = Instant::now();
    let timed_oracle = TimedOracle {
        inner: &inst.oracle,
        busy_s: Cell::new(0.0),
    };
    let oracle: &dyn BatchOracle = if probe.is_some() {
        &timed_oracle
    } else {
        &inst.oracle
    };
    let (key_start, key_len) = (inst.locked.key_input_start, inst.locked.key_size());
    let ((key, dips, finished, consistent, solver, queries), attack_s) =
        timed(|| match inst.attack {
            Attack::Sat => {
                let run = SatAttack::exact().run(&inst.target, key_start, key_len, oracle);
                let consistent = run.accounting_consistent();
                let dips = run.iterations.len();
                (
                    run.recovered,
                    dips,
                    run.proved_exact,
                    consistent,
                    run.solver,
                    run.oracle_queries,
                )
            }
            Attack::DoubleDip => {
                let run = DoubleDip::exact().run(&inst.target, key_start, key_len, oracle);
                // Double DIP recovers the base key; the point function's
                // overlay bits are the one-pattern corruption it concedes, so
                // they take the true values before the CEC.
                let mut key = run.recovered.clone();
                key[DD_BASE_BITS..].copy_from_slice(&inst.locked.key.bits()[DD_BASE_BITS..]);
                let consistent = run.accounting_consistent();
                let dips = run.iterations.len();
                (
                    key,
                    dips,
                    run.two_dip_settled,
                    consistent,
                    run.solver,
                    run.oracle_queries,
                )
            }
        });
    let unlocked = apply_key(&inst.target, key_start, &key);
    let mark = probe.as_ref().map_or(0, |(cap, _)| cap.mark());
    let (verdict, cec_s) = timed(|| check_equivalence(inst.oracle.design(), &unlocked));
    let wall_s = start.elapsed().as_secs_f64();
    let op = Op {
        key,
        dips,
        conflicts: solver.conflicts,
        propagations: solver.propagations,
        queries,
        proved: verdict == Equivalence::Equivalent,
        wall_s,
    };
    if let Some((cap, tally)) = probe.as_mut() {
        let events = cap.since(mark);
        tally.add_cec(&events, cec_s);
        tally.add_events(&events);
        let kind = match inst.attack {
            Attack::Sat => "sat",
            Attack::DoubleDip => "dd",
        };
        tally.add(&format!("{kind}.ops"), 1.0);
        tally.add(&format!("{kind}.dips"), dips as f64);
        tally.add("attack_s", attack_s);
        tally.add("oracle_s", timed_oracle.busy_s.get());
        tally.add("queries", queries as f64);
        tally.add("conflicts", op.conflicts as f64);
        tally.add("propagations", op.propagations as f64);
        tally.add("attributed_s", attack_s + cec_s);
        tally.add("wall_s", wall_s);
    }
    let check = if !finished {
        Err("the attack stopped before its miter was settled".into())
    } else if !consistent {
        Err("the DIP log does not reconcile with the oracle's query count".into())
    } else if !op.proved {
        Err("the recovered key does not unlock the original function".into())
    } else {
        Ok(())
    };
    (op, check)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (instances, setup_s) = time_setup(SETUP_REPEATS, || {
        (0..SETS)
            .flat_map(|set| set_up(args.seed, set))
            .collect::<Vec<_>>()
    });

    let mut tally = Tally::default();
    let mut first_round: Vec<String> = Vec::new();
    let (mut speed, mut op_times) = (Speed::default(), OpTimes::new(instances.len()));
    let (mut proved, mut ops, mut untraced_s) = (0usize, 0usize, 0.0);
    let rounds = run_rounds(args, |r| {
        for (i, inst) in instances.iter().enumerate() {
            let ((op, check), scale) = speed.measure(|| run_op(inst, None));
            let what = format!("{} round {r}", inst.name);
            if args.trace {
                let capture = Capture::start();
                let (traced, traced_check) = run_op(inst, Some((&capture, &mut tally)));
                drop(capture);
                untraced_s += op.wall_s;
                if traced.digest() != op.digest() {
                    out.problem(format!(
                        "{what}: the traced copy differs from the untraced one"
                    ));
                }
                out.record(format!("{what} (traced)"), traced_check);
            }
            let digest = op.digest();
            if r == 0 {
                out.fingerprint.add(format!("{} {digest}", inst.name));
                first_round.push(digest);
            } else if first_round[i] != digest {
                out.problem(format!(
                    "{what}: the attack did not repeat round 0's result"
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
    m.set("attack_s", op_times.estimate());
    m.set("keys_proved_share", ratio(proved as f64, ops as f64));
    if args.trace {
        let t = &tally;
        let traced_ops = t.get("sat.ops") + t.get("dd.ops");
        t.common_metrics(
            m,
            traced_ops,
            t.get("wall_s"),
            t.get("attributed_s"),
            untraced_s,
        );
        let all_dips = t.get("sat.dips") + t.get("dd.dips");
        let solver_s = t.get("attack_s") - t.get("oracle_s");
        m.set("sat.dips", ratio(t.get("sat.dips"), t.get("sat.ops")));
        m.set("sat.two_dips", ratio(t.get("dd.dips"), t.get("dd.ops")));
        m.set("sat.dip_ms", ratio(t.get("attack_s") * 1e3, all_dips));
        m.set("cdcl.conflicts", ratio(t.get("conflicts"), traced_ops));
        m.set("cdcl.conflicts_per_s", ratio(t.get("conflicts"), solver_s));
        m.set(
            "cdcl.propagations_per_s",
            ratio(t.get("propagations"), solver_s),
        );
        m.set(
            "locking.oracle_queries",
            ratio(t.get("queries"), traced_ops),
        );
        m.set(
            "locking.oracle_patterns_per_s",
            ratio(t.get("queries"), t.get("oracle_s")),
        );
        m.set("rounds", rounds as f64);
    } else {
        m.set("op_s", op_times.estimate());
        m.set("proved_share", ratio(proved as f64, ops as f64));
        m.set("setup_s", setup_s);
    }
    out
}
