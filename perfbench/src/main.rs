//! The repository's benchmark: three closed-loop workloads over the ALMOST
//! flow, each printing its end-to-end metrics (untraced) or its per-layer
//! metrics (traced), with output-correctness checks.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <secure_recipe|oracle_attack|deploy_verify> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets its workload up (timed as `setup_s`), then runs rounds of
//! operations for `--seconds`, one call at a time (closed loop), and
//! prints one JSON object as the last line of standard output. With
//! `--trace 1` every round runs twice, untraced and then traced: the two
//! must produce identical outputs, the traced copy feeds the per-layer
//! metrics, and the wall-time ratio of the two is
//! `telemetry.trace_overhead_pct`. See `perfbench/README.md` for every
//! metric's definition.

mod capture;
mod deploy_verify;
mod oracle_attack;
mod secure_recipe;

use almost_circuits::IscasBenchmark;
use almost_locking::{LockedCircuit, LockingScheme, Rll};
use almost_telemetry::json::{self, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `BENCHMARK.json`, the one list of the metrics' names and units. A run
/// prints the metrics it declares and fails on any metric it does not.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `kind`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let doc = json::parse(DECLARED).expect("BENCHMARK.json is valid JSON");
    let field = |m: &Value, key: &str| {
        m.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("a {kind} metric in BENCHMARK.json lacks a {key}"))
            .to_string()
    };
    doc.get(kind)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {kind}"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (recipes chosen, keys attacked, recipes deployed).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Failed checks that are not tied to one operation (nondeterminism).
    pub problems: Vec<String>,
    /// Digest of the run's deterministic outputs.
    pub fingerprint: Fingerprint,
    /// End-to-end values and the workload's own results (untraced run),
    /// or per-layer values (traced run).
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one operation; `check` is its correctness verdict.
    pub fn record(&mut self, what: impl Display, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }

    pub fn problem(&mut self, why: String) {
        eprintln!("FAILED {why}");
        self.problems.push(why);
    }
}

/// FNV-1a digest over a run's deterministic outputs (recipe strings,
/// accuracy bits, DIP counts, verdicts).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, value: impl Display) {
        for b in value.to_string().bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Steps of the reference kernel's table walk and of its map updates.
const TABLE_STEPS: u32 = 8_000_000;
const MAP_STEPS: u32 = 400_000;
/// Slots of the kernel's table (256 KiB) and keys of its map.
const TABLE_SLOTS: usize = 1 << 16;
const MAP_KEYS: u64 = 1 << 16;
/// The reference kernel's wall time, in seconds, at the speed scaled
/// times are reported at: about its time on an idle 2-CPU Xeon VM.
const REFERENCE_S: f64 = 0.04;

/// Scales wall times to the reference speed. The 2-CPU VMs this was
/// tuned on change speed by up to 1.8x over minutes and by 10% from one
/// 20 ms stretch to the next, which repetition inside a run does not
/// average out. The reference kernel, a fixed loop of the benchmark's
/// own code timed on either side of each operation, slows down with the
/// machine; no change to the library moves it. A scaled time is
/// `wall × REFERENCE_S / kernel time`: seconds on a machine where the
/// kernel takes `REFERENCE_S`.
pub struct Speed {
    /// The kernel's buffers, allocated once, so that its time does not
    /// depend on the heap the library leaves behind.
    table: Vec<u32>,
    map: HashMap<u64, u32>,
    /// The kernel time taken after the last operation, which serves as
    /// the one before the next.
    last: Option<f64>,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed {
            table: vec![0; TABLE_SLOTS],
            map: HashMap::with_capacity(MAP_KEYS as usize),
            last: None,
        }
    }
}

impl Speed {
    /// The reference kernel, like the library's passes in kind: dependent
    /// reads and writes at hashed positions of a table, then updates and
    /// lookups in a std `HashMap` (the library's structural-hashing
    /// tables are std maps). Returns its wall time.
    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..TABLE_STEPS {
            let x = step();
            let slot = x as usize % TABLE_SLOTS;
            let i = (x as usize ^ self.table[slot] as usize) % TABLE_SLOTS;
            self.table[i] = self.table[i].wrapping_add(x as u32 | 1);
        }
        self.map.clear();
        let mut acc = 0u32;
        for _ in 0..MAP_STEPS {
            let x = step();
            *self.map.entry(x % MAP_KEYS).or_insert(0) += 1;
            acc = acc.wrapping_add(self.map.get(&((x >> 32) % MAP_KEYS)).map_or(0, |v| *v));
        }
        std::hint::black_box((&self.table, acc));
        start.elapsed().as_secs_f64()
    }

    /// Runs `f` between two timings of the reference kernel and returns
    /// its result with the factor that scales a wall time taken inside
    /// `f` to the reference speed.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last.take() {
            Some(seconds) => seconds,
            None => self.kernel(),
        };
        let out = f();
        let after = self.kernel();
        self.last = Some(after);
        (out, 2.0 * REFERENCE_S / (before + after))
    }
}

/// Runs `set_up` `repeats` times and returns its last result with the
/// median scaled time of the repeats (`setup_s`). The set-up is
/// deterministic, so every repeat builds the same thing.
pub fn time_setup<T>(repeats: usize, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut speed = Speed::default();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let ((out, seconds), scale) = speed.measure(|| timed(&mut set_up));
        times.push(seconds * scale);
        last = Some(out);
    }
    eprintln!("set-up: scaled {times:.4?} s");
    (last.expect("at least one set-up"), median(&times))
}

/// Scaled operation times of a run's timed rounds, by instance. Round 0
/// warms caches and the allocator up and is not timed: its operations
/// ran up to 40% slower than the same operations in later rounds. An
/// instance's time is its median over the timed rounds, which a burst of
/// contention moves less than it moves a mean.
pub struct OpTimes(Vec<Vec<f64>>);

impl OpTimes {
    pub fn new(instances: usize) -> OpTimes {
        OpTimes(vec![Vec::new(); instances])
    }

    pub fn record(&mut self, round: usize, instance: usize, seconds: f64) {
        if round > 0 {
            self.0[instance].push(seconds);
        }
    }

    /// Geometric mean over the instances of their median times: every
    /// instance's relative change counts the same, however long it runs
    /// (an `oracle_attack` round mixes 0.05 s and 0.8 s attacks).
    pub fn estimate(&self) -> f64 {
        let medians: Vec<f64> = self.0.iter().map(|t| median(t)).collect();
        (medians.iter().map(|v| v.ln()).sum::<f64>() / medians.len() as f64).exp()
    }
}

/// Runs `round(r)` for r = 0, 1, …: the warm-up round 0, then timed
/// rounds for `args.seconds` (at least one, and another only while one of
/// average length still ends in time). Returns the number of rounds run.
pub fn run_rounds(args: &Args, mut round: impl FnMut(usize)) -> usize {
    round(0);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut timed_rounds = 0;
    while timed_rounds == 0 || start.elapsed() + start.elapsed() / timed_rounds <= budget {
        timed_rounds += 1;
        round(timed_rounds as usize);
    }
    timed_rounds as usize + 1
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A seed for one (workload input, index) pair, derived from `--seed`.
pub fn derive_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut fp = Fingerprint::default();
    fp.add(seed);
    for p in parts {
        fp.add(p);
    }
    fp.0
}

/// Builds `bench` and locks it with `key_bits` RLL key gates.
pub fn lock_rll(bench: IscasBenchmark, key_bits: usize, seed: u64) -> LockedCircuit {
    lock_with(&Rll::new(key_bits), bench, seed)
}

/// Builds `bench` and locks it with `scheme`.
pub fn lock_with(scheme: &dyn LockingScheme, bench: IscasBenchmark, seed: u64) -> LockedCircuit {
    scheme
        .lock(&bench.build(), &mut StdRng::seed_from_u64(seed))
        .unwrap_or_else(|e| panic!("{bench} cannot be locked with {}: {e}", scheme.name()))
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Compares this run's fingerprint with the one recorded by an earlier
/// run of the same executable, workload and seed (recording it if none
/// was). The record sits next to the executable, inside the build
/// directory. Returns an error when the two differ.
fn check_fingerprint(args: &Args, fingerprint: Fingerprint) -> Result<(), String> {
    use std::hash::{Hash, Hasher};
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut hasher);
    let dir: PathBuf = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("perfbench-fingerprints");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{:016x}-{}-{}",
        hasher.finish(),
        args.workload,
        args.seed
    ));
    let current = format!("{:016x}", fingerprint.0);
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == current => Ok(()),
        Ok(earlier) => Err(format!(
            "fingerprint {current} differs from {} recorded by an earlier run of this build",
            earlier.trim()
        )),
        Err(_) => {
            std::fs::write(&path, &current).map_err(|e| format!("writing {}: {e}", path.display()))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("almost_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the library's thread widths before any thread exists: at most
    // two pool workers (and no more than the machine has), and the
    // width-1 serial SAT portfolio, whose DIP and conflict counts repeat
    // exactly from run to run.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("ALMOST_JOBS", cores.min(2).to_string());
    std::env::set_var("ALMOST_SOLVERS", "1");

    let mut outcome = match args.workload.as_str() {
        "secure_recipe" => secure_recipe::run(&args),
        "oracle_attack" => oracle_attack::run(&args),
        "deploy_verify" => deploy_verify::run(&args),
        other => {
            eprintln!("almost_perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    if let Err(e) = check_fingerprint(&args, outcome.fingerprint) {
        outcome.problem(e);
    }
    match peak_rss_mb() {
        Some(mb) => outcome.metrics.set("peak_rss_mb", mb),
        None => outcome.problem("peak RSS unreadable".into()),
    }
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    let is_declared = |list: &[(String, String)], name: &str| list.iter().any(|(n, _)| n == name);
    let mut problems = Vec::new();
    for (name, value) in &outcome.metrics.0 {
        if !is_declared(&end_to_end, name) && !is_declared(&per_layer, name) {
            problems.push(format!("metric {name} is not declared in BENCHMARK.json"));
        } else if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
        if !args.trace && !is_declared(&end_to_end, name) {
            // The workload's own results, for human readers; the JSON
            // line stays last.
            let unit = per_layer
                .iter()
                .find(|(n, _)| n == name)
                .map_or("", |(_, u)| u);
            println!("{name} {value} {unit}");
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in if args.trace { &per_layer } else { &end_to_end } {
        let value = outcome.metrics.0.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for why in problems {
        outcome.problem(why);
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    println!("fingerprint {:016x}", outcome.fingerprint.0);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
