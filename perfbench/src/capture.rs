//! Per-layer attribution for traced rounds: the benchmark's own timers
//! around its calls into each layer, plus the spans and events the
//! library already emits, read back through an in-memory
//! [`CaptureSink`].

use crate::{ratio, Metrics};
use almost_aig::{Aig, Pass};
use almost_telemetry::json::{self, Value};
use almost_telemetry::CaptureSink;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A capture sink installed for the duration of one traced copy of a
/// round. Dropping it uninstalls the sink.
pub struct Capture {
    lines: Arc<Mutex<Vec<String>>>,
}

impl Capture {
    pub fn start() -> Capture {
        let (sink, lines) = CaptureSink::new();
        almost_telemetry::install(vec![Box::new(sink)], true);
        Capture { lines }
    }

    /// Position in the event stream, for [`Capture::since`].
    pub fn mark(&self) -> usize {
        self.lines.lock().expect("capture lock").len()
    }

    /// Every event emitted since `mark`.
    pub fn since(&self, mark: usize) -> Events {
        let lines = self.lines.lock().expect("capture lock");
        Events(
            lines[mark..]
                .iter()
                .map(|l| json::parse(l).expect("telemetry emits valid JSON lines"))
                .collect(),
        )
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        almost_telemetry::finish();
    }
}

/// A slice of the captured event stream.
pub struct Events(Vec<Value>);

impl Events {
    fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Value> + 'a {
        self.0
            .iter()
            .filter(move |e| e.get("kind").and_then(Value::as_str) == Some(kind))
    }

    /// Number of events of `kind`.
    pub fn count(&self, kind: &str) -> usize {
        self.of_kind(kind).count()
    }

    /// Sum of the numeric `field` over events of `kind`.
    pub fn sum(&self, kind: &str, field: &str) -> f64 {
        self.of_kind(kind)
            .filter_map(|e| e.get(field).and_then(Value::as_f64))
            .sum()
    }

    /// Total duration, in seconds, of the closed spans of `scope`.
    pub fn span_s(&self, scope: &str) -> f64 {
        self.of_kind("span_close")
            .filter(|e| e.get("scope").and_then(Value::as_str) == Some(scope))
            .filter_map(|e| e.get("dur_us").and_then(Value::as_f64))
            .sum::<f64>()
            / 1e6
    }

    /// Pool jobs stolen from a sibling worker's queue.
    pub fn stolen_jobs(&self) -> usize {
        self.of_kind("pool_job")
            .filter(|e| matches!(e.get("stolen"), Some(Value::Bool(true))))
            .count()
    }
}

/// Named per-layer accumulators of one run.
#[derive(Default)]
pub struct Tally(BTreeMap<String, f64>);

impl Tally {
    pub fn add(&mut self, key: &str, value: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += value;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Adds the pool counters and the fraig CEC counters of `events`.
    pub fn add_events(&mut self, events: &Events) {
        self.add("pool.busy_s", events.sum("pool_job", "dur_us") / 1e6);
        self.add("pool.stolen", events.stolen_jobs() as f64);
    }

    /// Adds the counters of the fraig sweeps behind one CEC, and its wall
    /// time.
    pub fn add_cec(&mut self, events: &Events, seconds: f64) {
        self.add("cec.calls", 1.0);
        self.add("cec.s", seconds);
        self.add("cec.sat_calls", events.sum("fraig_pass", "sat_calls"));
        self.add("cec.merges", events.sum("fraig_pass", "merges"));
    }

    /// Sets the per-layer metrics shared by the workloads: pass rates,
    /// CEC, pool, trace overhead and the unattributed share. `ops` is the
    /// number of traced operations, `wall_s` the traced rounds' wall
    /// time, `attributed_s` the part of it the layers account for, and
    /// `untraced_s` the untraced copies' wall time.
    pub fn common_metrics(
        &self,
        m: &mut Metrics,
        ops: f64,
        wall_s: f64,
        attributed_s: f64,
        untraced_s: f64,
    ) {
        for pass in Pass::ALL {
            let name = pass_metric(pass);
            m.set(
                &name,
                ratio(
                    self.get(&format!("{name}.ms")),
                    self.get(&format!("{name}.kand")),
                ),
            );
        }
        m.set("aig.pass_calls", ratio(self.get("aig.pass_calls"), ops));
        let cecs = self.get("cec.calls");
        m.set("aig.fraig.cec_ms", ratio(self.get("cec.s") * 1e3, cecs));
        m.set(
            "aig.fraig.sat_calls",
            ratio(self.get("cec.sat_calls"), cecs),
        );
        m.set("aig.fraig.merges", ratio(self.get("cec.merges"), cecs));
        let workers = almost_pool::num_workers() as f64;
        m.set(
            "pool.busy_share",
            ratio(self.get("pool.busy_s"), workers * wall_s),
        );
        m.set("pool.stolen", ratio(self.get("pool.stolen"), ops));
        m.set(
            "telemetry.trace_overhead_pct",
            (ratio(wall_s, untraced_s) - 1.0) * 100.0,
        );
        m.set("unattributed_share", ratio(wall_s - attributed_s, wall_s));
    }
}

/// The `aig.pass_ms_per_kand.*` metric of `pass`, named after its ABC
/// command (`rewrite -z` gives `rewrite_z`).
fn pass_metric(pass: Pass) -> String {
    format!("aig.pass_ms_per_kand.{}", pass.command().replace(" -", "_"))
}

/// Applies `pass`, charging its wall time and input size to the pass's
/// accumulators when a tally is given. Returns the output and the
/// seconds it took.
pub fn apply_pass(pass: Pass, input: &Aig, tally: Option<&mut Tally>) -> (Aig, f64) {
    let (out, seconds) = crate::timed(|| pass.apply(input));
    if let Some(tally) = tally {
        let name = pass_metric(pass);
        tally.add(&format!("{name}.ms"), seconds * 1e3);
        tally.add(&format!("{name}.kand"), input.num_ands() as f64 / 1e3);
        tally.add("aig.pass_calls", 1.0);
    }
    (out, seconds)
}
