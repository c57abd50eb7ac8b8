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

use crate::event::{Event, EventKind, Level};
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
        if event.level() != Level::Progress {
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
/// Track layout:
/// - spans render as complete (`ph:"X"`) slices on `tid` = thread ordinal;
/// - pool jobs render on dedicated per-worker tracks at
///   `tid = POOL_TRACK_BASE + worker`, so occupancy, steals (slices whose
///   `args.stolen` is true) and idle gaps are visible at a glance;
/// - solver heartbeats become counter (`ph:"C"`) samples;
/// - search steps, budget exhaustions and cell completions become
///   instants (`ph:"i"`);
/// - train epochs render as slices spanning their measured wall time.
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

    fn push(&mut self, fragment: String) {
        self.events.push(fragment);
    }
}

impl Sink for ChromeTraceSink {
    fn record(&mut self, event: &Event) {
        let t = event.t_us;
        let tid = event.thread;
        self.threads_seen.insert(tid);
        match &event.kind {
            EventKind::SpanOpen { scope, name } => {
                self.open.push((tid, scope.label(), name.clone(), t));
            }
            EventKind::SpanClose {
                scope,
                name,
                dur_us,
            } => {
                // Match the innermost open span of the same thread+name;
                // fall back to the close event's own timing if unmatched.
                let start =
                    match self.open.iter().rposition(|(th, sc, nm, _)| {
                        *th == tid && *sc == scope.label() && nm == name
                    }) {
                        Some(i) => self.open.remove(i).3,
                        None => t.saturating_sub(*dur_us),
                    };
                self.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{}}}",
                    crate::json::escape(name),
                    scope.label(),
                    start,
                    dur_us,
                    tid
                ));
            }
            EventKind::PoolJob {
                worker,
                job,
                stolen,
                start_us,
                dur_us,
            } => {
                self.workers_seen.insert(*worker);
                self.push(format!(
                    "{{\"name\":\"job {job}\",\"cat\":\"pool\",\"ph\":\"X\",\"ts\":{start_us},\
                     \"dur\":{dur_us},\"pid\":1,\"tid\":{},\"args\":{{\"stolen\":{stolen}}}}}",
                    POOL_TRACK_BASE + worker
                ));
            }
            EventKind::PoolBatch {
                jobs,
                workers,
                per_worker,
            } => {
                let mut args = String::new();
                for (w, tally) in per_worker.iter().enumerate() {
                    let _ = write!(
                        args,
                        ",\"w{}_executed\":{},\"w{}_stolen\":{},\"w{}_busy_us\":{}",
                        w, tally.executed, w, tally.stolen, w, tally.busy_us
                    );
                }
                self.push(format!(
                    "{{\"name\":\"pool batch\",\"cat\":\"pool\",\"ph\":\"i\",\"ts\":{t},\"s\":\"p\",\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"jobs\":{jobs},\"workers\":{workers}{args}}}}}"
                ));
            }
            EventKind::SolverProgress { total, .. } => {
                self.push(format!(
                    "{{\"name\":\"solver\",\"cat\":\"solver\",\"ph\":\"C\",\"ts\":{t},\"pid\":1,\
                     \"tid\":{tid},\"args\":{{\"conflicts\":{},\"propagations\":{},\"restarts\":{}}}}}",
                    total.conflicts, total.propagations, total.restarts
                ));
            }
            EventKind::BudgetExhausted {
                engine,
                budget,
                conflicts,
                cause,
            } => {
                self.push(format!(
                    "{{\"name\":\"{cause} ({engine})\",\"cat\":\"solver\",\"ph\":\"i\",\
                     \"ts\":{t},\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"budget\":{budget},\"conflicts\":{conflicts},\"cause\":\"{cause}\"}}}}"
                ));
            }
            EventKind::PortfolioRace {
                engine,
                workers: _,
                winner,
                dur_us,
                cancel_us,
                per_worker,
            } => {
                // One slice per racing solver on its dedicated track: the
                // race interval with that worker's effort/exchange args,
                // so occupancy and winner alternation are visible per
                // query. The event arrives when every worker has parked.
                let start = t.saturating_sub(*dur_us);
                for (w, tally) in per_worker.iter().enumerate() {
                    let w = w as u32;
                    self.portfolio_seen.insert(w);
                    let won = w == *winner;
                    self.push(format!(
                        "{{\"name\":\"race ({engine})\",\"cat\":\"portfolio\",\"ph\":\"X\",\
                         \"ts\":{start},\"dur\":{dur_us},\"pid\":1,\"tid\":{},\
                         \"args\":{{\"winner\":{won},\"conflicts\":{},\"imported\":{},\
                         \"exported\":{},\"cancel_us\":{cancel_us}}}}}",
                        PORTFOLIO_TRACK_BASE + w,
                        tally.conflicts,
                        tally.imported,
                        tally.exported
                    ));
                }
            }
            EventKind::SearchStep {
                step,
                candidates,
                accepted,
                cache,
                ..
            } => {
                self.push(format!(
                    "{{\"name\":\"step {step}\",\"cat\":\"search\",\"ph\":\"i\",\"ts\":{t},\
                     \"s\":\"t\",\"pid\":1,\"tid\":{tid},\"args\":{{\"candidates\":{candidates},\
                     \"accepted\":{accepted},\"hits\":{},\"misses\":{}}}}}",
                    cache.hits, cache.misses
                ));
            }
            EventKind::TrainEpoch {
                epoch,
                loss,
                wall_us,
                ..
            } => {
                self.push(format!(
                    "{{\"name\":\"epoch {epoch}\",\"cat\":\"trainer\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{wall_us},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"loss\":{loss}}}}}",
                    t.saturating_sub(*wall_us)
                ));
            }
            EventKind::OracleCompile {
                ands,
                instructions,
                registers,
                wall_us,
            } => {
                self.push(format!(
                    "{{\"name\":\"oracle compile\",\"cat\":\"oracle\",\"ph\":\"i\",\"ts\":{t},\
                     \"s\":\"t\",\"pid\":1,\"tid\":{tid},\"args\":{{\"ands\":{ands},\
                     \"instructions\":{instructions},\"registers\":{registers},\
                     \"wall_us\":{wall_us}}}}}"
                ));
            }
            EventKind::FraigPass {
                classes,
                proved,
                refuted,
                merges,
                sat_calls,
                ands_before,
                ands_after,
                wall_us,
                ..
            } => {
                self.push(format!(
                    "{{\"name\":\"fraig pass\",\"cat\":\"fraig\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{wall_us},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"classes\":{classes},\"proved\":{proved},\
                     \"refuted\":{refuted},\"merges\":{merges},\"sat_calls\":{sat_calls},\
                     \"ands_before\":{ands_before},\"ands_after\":{ands_after}}}}}",
                    t.saturating_sub(*wall_us)
                ));
            }
            EventKind::CellDone { label } => {
                self.push(format!(
                    "{{\"name\":\"cell done: {}\",\"cat\":\"cell\",\"ph\":\"i\",\"ts\":{t},\
                     \"s\":\"g\",\"pid\":1,\"tid\":{tid}}}",
                    crate::json::escape(label)
                ));
            }
            EventKind::Message { .. } => {}
        }
    }

    fn finish(&mut self) {
        // Close any spans still open (a panicking harness, or spans held
        // across finish) so the trace stays well-formed.
        let open = std::mem::take(&mut self.open);
        for (tid, scope, name, start) in open {
            let now = crate::clock::now_us();
            self.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}}}",
                crate::json::escape(&name),
                scope,
                start,
                now.saturating_sub(start),
                tid
            ));
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
