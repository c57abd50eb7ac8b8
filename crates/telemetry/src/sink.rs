//! Pluggable event sinks.
//!
//! Four are provided: a human stderr progress sink (the replacement for
//! the harnesses' ad-hoc `eprintln!`s), a JSONL event-log sink (one
//! event per line, streamed as they happen), a Chrome-trace-event
//! exporter (buffered, written as a single Perfetto-loadable JSON array
//! on finish), and an in-memory capture sink for the test suite. Sinks
//! receive every event under the registry lock — they must be cheap and
//! must never panic on I/O failure (a broken trace file degrades to a
//! warning, not a crashed experiment).

use crate::event::{write_object, Event, EventKind, Level};
use crate::json::escape;
use crate::summary::SummaryReport;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Chrome-trace `tid` offset for pool-worker tracks: worker `w` renders
/// on track `POOL_TRACK_BASE + w`, well clear of real thread ordinals.
pub const POOL_TRACK_BASE: u32 = 1000;

/// Chrome-trace `tid` offset for portfolio-solver tracks: racing solver
/// `w` renders on track `PORTFOLIO_TRACK_BASE + w`, clear of both thread
/// ordinals and pool-worker tracks.
pub const PORTFOLIO_TRACK_BASE: u32 = 2000;

/// An event consumer. `record` is called for every emitted event (the
/// registry filters nothing); `finish` flushes/writes output exactly once
/// at end of run.
pub trait Sink: Send {
    /// Consumes one event.
    fn record(&mut self, event: &Event);
    /// Flushes buffered output; called once by `telemetry::finish()`.
    fn finish(&mut self);
    /// The end-of-run report, if this sink aggregates one.
    fn take_summary(&mut self) -> Option<SummaryReport> {
        None
    }
}

/// Human liveness output on stderr: progress-level events only, rendered
/// exactly like the `eprintln!` lines they replace so existing log
/// consumers keep working.
pub struct ProgressSink;

impl Sink for ProgressSink {
    fn record(&mut self, event: &Event) {
        if event.kind.level() != Level::Progress {
            return;
        }
        match &event.kind {
            EventKind::CellDone { label } => eprintln!("  [cell done] {label}"),
            EventKind::Message { text } => eprintln!("{text}"),
            _ => {}
        }
    }

    fn finish(&mut self) {}
}

/// Streams every event as one JSON object per line to the path in
/// `ALMOST_TRACE`. Lines are written (not just buffered) as events
/// arrive, so a killed run still leaves a useful prefix.
pub struct JsonlSink {
    writer: BufWriter<File>,
    path: PathBuf,
    broken: bool,
}

impl JsonlSink {
    /// Opens (truncates) `path`; `None` with a stderr warning on failure.
    pub fn create(path: &Path) -> Option<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        match File::create(path) {
            Ok(f) => Some(JsonlSink {
                writer: BufWriter::new(f),
                path: path.to_path_buf(),
                broken: false,
            }),
            Err(e) => {
                eprintln!("[telemetry] cannot open trace file {}: {e}", path.display());
                None
            }
        }
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        if self.broken {
            return;
        }
        let mut line = event.to_jsonl();
        line.push('\n');
        if self.writer.write_all(line.as_bytes()).is_err() {
            eprintln!(
                "[telemetry] trace write to {} failed; disabling",
                self.path.display()
            );
            self.broken = true;
        }
    }

    fn finish(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Buffers Chrome Trace Event Format fragments and writes a single JSON
/// array on finish — loadable in Perfetto / `chrome://tracing`.
///
/// Every record's `args` are its event's own JSONL fields; the sink only
/// decides the presentation. Track layout:
/// - spans render as complete (`ph:"X"`) slices on `tid` = thread ordinal;
/// - pool jobs render on dedicated per-worker tracks at
///   `tid = POOL_TRACK_BASE + worker`, so occupancy, steals (slices whose
///   `args.stolen` is true) and idle gaps are visible at a glance;
/// - each portfolio race renders one slice per racing solver on
///   `tid = PORTFOLIO_TRACK_BASE + worker`, the winner's named `won`;
/// - solver heartbeats become counter (`ph:"C"`) samples;
/// - pool batches, search steps, budget exhaustions, oracle compiles and
///   cell completions become instants (`ph:"i"`);
/// - train epochs and fraig passes render as slices spanning their
///   measured wall time.
pub struct ChromeTraceSink {
    events: Vec<String>,
    /// Open span stack per thread: (thread, scope label, name, open t_us).
    open: Vec<(u32, &'static str, String, u64)>,
    threads_seen: BTreeSet<u32>,
    workers_seen: BTreeSet<u32>,
    portfolio_seen: BTreeSet<u32>,
    path: PathBuf,
}

impl ChromeTraceSink {
    /// Creates an exporter that will write `path` on finish.
    pub fn new(path: &Path) -> Self {
        ChromeTraceSink {
            events: Vec::new(),
            open: Vec::new(),
            threads_seen: BTreeSet::new(),
            workers_seen: BTreeSet::new(),
            portfolio_seen: BTreeSet::new(),
            path: path.to_path_buf(),
        }
    }
}

/// How an event renders in the Chrome trace.
enum Shape {
    /// A complete slice (`ph:"X"`): start and duration, microseconds.
    Slice(u64, u64),
    /// An instant (`ph:"i"`) of this scope: `t`hread, `p`rocess or `g`lobal.
    Instant(&'static str),
    /// A counter sample (`ph:"C"`): one series per numeric arg.
    Counter,
}

/// One Chrome trace record at time `t` (slices carry their own start);
/// `args` is a JSON object.
fn fragment(name: &str, cat: &str, shape: Shape, t: u64, tid: u32, args: &str) -> String {
    let mut s = format!("{{\"name\":\"{}\",\"cat\":\"{cat}\",", escape(name));
    let _ = match shape {
        Shape::Slice(ts, dur) => write!(s, "\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},"),
        Shape::Instant(scope) => write!(s, "\"ph\":\"i\",\"ts\":{t},\"s\":\"{scope}\","),
        Shape::Counter => write!(s, "\"ph\":\"C\",\"ts\":{t},"),
    };
    let _ = write!(s, "\"pid\":1,\"tid\":{tid},\"args\":{args}}}");
    s
}

impl Sink for ChromeTraceSink {
    fn record(&mut self, event: &Event) {
        let (t, mut track) = (event.t_us, event.thread);
        self.threads_seen.insert(track);
        let mut args = String::new();
        write_object(&mut args, |a| event.kind.write_fields(a));
        // A slice spanning the `dur` microseconds before the event.
        let ending = |dur: u64| Shape::Slice(t.saturating_sub(dur), dur);
        // The presentation of each kind: name, category, shape and track.
        let (name, cat, shape) = match &event.kind {
            EventKind::SpanOpen { scope, name } => {
                self.open.push((track, scope.label(), name.clone(), t));
                return;
            }
            EventKind::SpanClose {
                scope,
                name,
                dur_us,
            } => {
                // Match the innermost open span of the same thread+name;
                // fall back to the close event's own timing if unmatched.
                let open = self.open.iter().rposition(|(th, sc, nm, _)| {
                    *th == track && *sc == scope.label() && nm == name
                });
                let slice = match open {
                    Some(i) => Shape::Slice(self.open.remove(i).3, *dur_us),
                    None => ending(*dur_us),
                };
                (name.clone(), scope.label(), slice)
            }
            EventKind::PoolJob {
                worker,
                job,
                start_us,
                dur_us,
                ..
            } => {
                self.workers_seen.insert(*worker);
                track = POOL_TRACK_BASE + worker;
                (
                    format!("job {job}"),
                    "pool",
                    Shape::Slice(*start_us, *dur_us),
                )
            }
            EventKind::PoolBatch { .. } => ("pool batch".into(), "pool", Shape::Instant("p")),
            EventKind::SolverProgress { .. } => ("solver".into(), "solver", Shape::Counter),
            EventKind::BudgetExhausted { engine, cause, .. } => {
                (format!("{cause} ({engine})"), "solver", Shape::Instant("t"))
            }
            EventKind::PortfolioRace {
                engine,
                winner,
                dur_us,
                per_worker,
                ..
            } => {
                // One slice per racing solver on its own track, so
                // occupancy and winner alternation are visible per query.
                // The event arrives when every worker has parked.
                for w in 0..per_worker.len() as u32 {
                    self.portfolio_seen.insert(w);
                    let name = format!("{} ({engine})", if w == *winner { "won" } else { "race" });
                    let track = PORTFOLIO_TRACK_BASE + w;
                    let slice = fragment(&name, "portfolio", ending(*dur_us), t, track, &args);
                    self.events.push(slice);
                }
                return;
            }
            EventKind::SearchStep { step, .. } => {
                (format!("step {step}"), "search", Shape::Instant("t"))
            }
            EventKind::TrainEpoch { epoch, wall_us, .. } => {
                (format!("epoch {epoch}"), "trainer", ending(*wall_us))
            }
            EventKind::OracleCompile { .. } => {
                ("oracle compile".into(), "oracle", Shape::Instant("t"))
            }
            EventKind::FraigPass { wall_us, .. } => {
                ("fraig pass".into(), "fraig", ending(*wall_us))
            }
            EventKind::CellDone { label } => {
                (format!("cell done: {label}"), "cell", Shape::Instant("g"))
            }
            EventKind::Message { .. } => return,
        };
        let record = fragment(&name, cat, shape, t, track, &args);
        self.events.push(record);
    }

    fn finish(&mut self) {
        // Close any spans still open (a panicking harness, or spans held
        // across finish) so the trace stays well-formed.
        let open = std::mem::take(&mut self.open);
        for (tid, scope, name, start) in open {
            let dur = crate::clock::now_us().saturating_sub(start);
            let slice = fragment(&name, scope, Shape::Slice(start, dur), start, tid, "{}");
            self.events.push(slice);
        }
        // Name the tracks: real threads first, then pool-worker tracks.
        let mut meta = Vec::new();
        for &tid in &self.threads_seen {
            let name = if tid == 0 {
                "main".to_string()
            } else {
                format!("thread-{tid}")
            };
            meta.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for &w in &self.workers_seen {
            meta.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"pool-worker-{w}\"}}}}",
                POOL_TRACK_BASE + w
            ));
        }
        for &w in &self.portfolio_seen {
            meta.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"portfolio-w{w}\"}}}}",
                PORTFOLIO_TRACK_BASE + w
            ));
        }
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        let mut out = String::from("[\n");
        for (i, frag) in meta.iter().chain(self.events.iter()).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(frag);
        }
        out.push_str("\n]\n");
        if let Err(e) = std::fs::write(&self.path, out) {
            eprintln!(
                "[telemetry] cannot write chrome trace {}: {e}",
                self.path.display()
            );
        }
    }
}

/// Captures every event's JSONL line in memory; the handle stays valid
/// after the sink is consumed by `install`, so tests can inspect what a
/// run emitted.
pub struct CaptureSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl CaptureSink {
    /// A new capture sink and the shared handle to its line buffer.
    pub fn new() -> (Self, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        (
            CaptureSink {
                lines: lines.clone(),
            },
            lines,
        )
    }
}

impl Sink for CaptureSink {
    fn record(&mut self, event: &Event) {
        self.lines
            .lock()
            .expect("capture lock")
            .push(event.to_jsonl());
    }

    fn finish(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Scope;
    use crate::json;

    #[test]
    fn chrome_trace_matches_spans_and_names_worker_tracks() {
        let dir =
            std::env::temp_dir().join(format!("almost_telemetry_sink_{}", std::process::id()));
        let path = dir.join("t.trace.json");
        let mut sink = ChromeTraceSink::new(&path);
        let open = Event {
            t_us: 10,
            thread: 0,
            kind: EventKind::SpanOpen {
                scope: Scope::Cell,
                name: "c".into(),
            },
        };
        let close = Event {
            t_us: 25,
            thread: 0,
            kind: EventKind::SpanClose {
                scope: Scope::Cell,
                name: "c".into(),
                dur_us: 15,
            },
        };
        let job = Event {
            t_us: 30,
            thread: 3,
            kind: EventKind::PoolJob {
                worker: 1,
                job: 0,
                stolen: true,
                start_us: 20,
                dur_us: 10,
            },
        };
        sink.record(&open);
        sink.record(&close);
        sink.record(&job);
        sink.finish();
        let text = std::fs::read_to_string(&path).expect("trace written");
        let parsed = json::parse(&text).expect("valid JSON");
        let events = parsed.as_arr().expect("array");
        // One slice for the span with ts matching the open, one job slice
        // on the worker track, plus thread_name metadata.
        let span = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("cat").and_then(|c| c.as_str()) == Some("cell")
            })
            .expect("span slice");
        assert_eq!(span.get("ts").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(span.get("dur").and_then(|v| v.as_u64()), Some(15));
        let job = events
            .iter()
            .find(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some("pool")
                    && e.get("ph").and_then(|p| p.as_str()) == Some("X")
            })
            .expect("job slice");
        assert_eq!(
            job.get("tid").and_then(|v| v.as_u64()),
            Some(POOL_TRACK_BASE as u64 + 1)
        );
        let worker_meta = events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    == Some("pool-worker-1")
        });
        assert!(worker_meta, "worker track is named");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chrome_trace_stays_valid_json_with_non_finite_floats() {
        // One event of every kind, among them a NaN and infinite losses
        // and infinite search objectives.
        let path = std::env::temp_dir().join(format!(
            "almost_telemetry_nonfinite_{}.trace.json",
            std::process::id()
        ));
        let mut sink = ChromeTraceSink::new(&path);
        for (t_us, kind) in crate::event::tests::golden_kinds().into_iter().enumerate() {
            let (t_us, thread) = (t_us as u64, 0);
            sink.record(&Event { t_us, thread, kind });
        }
        sink.finish();
        let text = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let step = parsed
            .as_arr()
            .expect("array")
            .iter()
            .find(|e| e.get("name").and_then(|c| c.as_str()) == Some("step 1"));
        let args = step.and_then(|e| e.get("args")).expect("step 1 args");
        assert_eq!(args.get("current").and_then(|v| v.as_f64()), Some(1e308));
        assert_eq!(args.get("best").and_then(|v| v.as_f64()), Some(-1e308));
    }

    #[test]
    fn jsonl_sink_streams_parseable_lines() {
        let dir =
            std::env::temp_dir().join(format!("almost_telemetry_jsonl_{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let mut sink = JsonlSink::create(&path).expect("create");
        sink.record(&Event {
            t_us: 1,
            thread: 0,
            kind: EventKind::Message {
                text: "hello".into(),
            },
        });
        sink.finish();
        let text = std::fs::read_to_string(&path).expect("written");
        let line = text.lines().next().expect("one line");
        let v = json::parse(line).expect("parses");
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("message"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
