//! `almost_telemetry` — structured spans, typed events, and pluggable
//! sinks for the ALMOST reproduction.
//!
//! This crate is the event channel the harness stderr lines graduate
//! into: one vocabulary of typed events ([`event::EventKind`]) emitted by
//! the pool, the SAT solver, the search engine, the synthesis passes and
//! the GIN trainer, fanned out to whatever sinks a run installs — human
//! stderr progress, a JSONL event log (`ALMOST_TRACE=<path>`), a
//! Perfetto-loadable Chrome trace, and an end-of-run aggregator that
//! writes per-kind counts and totals to `BENCH_<name>.json` (and renders
//! them on stderr in traced runs).
//!
//! Each kind is declared once, in `event.rs`: its JSONL name, level,
//! typed fields and which fields the summary sums. The JSONL line, the
//! [`SCHEMA`] table that the [`check`] validators (and the `trace_check`
//! binary around them) hold a log to, the Chrome trace args and the
//! summary all derive from that declaration.
//!
//! ## Zero cost when off
//!
//! Telemetry is off by default and provably inert: instrumented hot loops
//! guard on [`tracing()`] — one relaxed atomic load — before building
//! anything, and the [`trace`] helper takes a closure so event payloads
//! (and their allocations) only exist when a trace-consuming sink is
//! installed. Progress-level output ([`progress`], [`cell_done`]) is
//! likewise closure-deferred, falling back to plain `eprintln!` when no
//! registry is active so library users see the same liveness lines
//! harnesses always printed.
//!
//! ## Typical harness wiring
//!
//! ```no_run
//! almost_telemetry::init_harness("my_bench", None);
//! // ... run cells, emit events ...
//! almost_telemetry::cell_done(|| "c432 k=8".to_string());
//! let report = almost_telemetry::finish();
//! assert!(report.is_some());
//! ```

pub mod check;
pub mod clock;
pub mod event;
pub mod json;
pub mod sink;
pub mod summary;

pub use event::{
    Event, EventKind, FieldSpec, JsonType, KindSpec, Level, RaceWorkerTally, Scope, WorkerTally,
    SCHEMA,
};
pub use sink::{
    CaptureSink, ChromeTraceSink, JsonlSink, ProgressSink, Sink, POOL_TRACK_BASE,
    PORTFOLIO_TRACK_BASE,
};
pub use summary::{SummaryReport, SummarySink};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// True while any sinks are installed (progress routing enabled).
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// True while at least one installed sink consumes trace-level events.
/// This is THE hot-loop guard: instrumented code must check it before
/// constructing any trace event.
static TRACING: AtomicBool = AtomicBool::new(false);

static SINKS: Mutex<Vec<Box<dyn Sink>>> = Mutex::new(Vec::new());

/// The harness span [`init_harness`] opened, with its start time, until
/// [`finish`] closes it.
static HARNESS: Mutex<Option<(String, u64)>> = Mutex::new(None);

/// Whether any telemetry registry is active (sinks installed).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Whether trace-level events are being consumed. One relaxed atomic
/// load; hot loops branch on this before building events.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Installs `sinks`, replacing any existing registry (the old sinks are
/// finished first). `consume_trace` controls the [`tracing`] flag: the
/// stderr progress sink alone does not need trace events. A harness span
/// still open belongs to the old sinks and is dropped with them.
pub fn install(sinks: Vec<Box<dyn Sink>>, consume_trace: bool) {
    clock::pin_epoch();
    HARNESS.lock().expect("harness span").take();
    let mut reg = SINKS.lock().expect("telemetry registry");
    for sink in reg.iter_mut() {
        sink.finish();
    }
    *reg = sinks;
    ACTIVE.store(!reg.is_empty(), Ordering::Relaxed);
    TRACING.store(consume_trace && !reg.is_empty(), Ordering::Relaxed);
}

/// Standard harness setup: stderr progress + end-of-run summary, and —
/// when the `ALMOST_TRACE=<path>` environment variable is set — a JSONL
/// event log at `<path>` plus a Chrome trace at `<path minus extension>
/// .trace.json`. `out_dir` is where `BENCH_<name>.json` lands (pass the
/// harness CSV directory); `None` skips the JSON summary file. Opens the
/// harness span, which [`finish`] closes: call both on one thread.
pub fn init_harness(name: &str, out_dir: Option<&Path>) {
    let mut sinks: Vec<Box<dyn Sink>> = vec![Box::new(ProgressSink)];
    let mut consume_trace = false;
    if let Ok(trace_path) = std::env::var("ALMOST_TRACE") {
        if !trace_path.is_empty() {
            let jsonl_path = PathBuf::from(&trace_path);
            if let Some(jsonl) = JsonlSink::create(&jsonl_path) {
                sinks.push(Box::new(jsonl));
            }
            let chrome_path = jsonl_path.with_extension("trace.json");
            sinks.push(Box::new(ChromeTraceSink::new(&chrome_path)));
            consume_trace = true;
        }
    }
    // The summary aggregator consumes trace events too, but it must not
    // force the tracing flag on its own: summaries are a bonus when
    // tracing is already paid for, not a reason to slow hot loops down.
    // It still sees progress + whatever trace events others caused.
    sinks.push(Box::new(SummarySink::new(
        name,
        out_dir.map(Path::to_path_buf),
        consume_trace,
    )));
    install(sinks, consume_trace);
    let open = Event::now(EventKind::SpanOpen {
        scope: Scope::Harness,
        name: name.to_string(),
    });
    *HARNESS.lock().expect("harness span") = Some((name.to_string(), open.t_us));
    emit(open);
}

/// Closes the harness span [`init_harness`] opened, if any, then finishes
/// and removes all sinks, returning the aggregated report if a
/// [`SummarySink`] was installed. Idempotent; safe with no registry.
pub fn finish() -> Option<SummaryReport> {
    let harness = HARNESS.lock().expect("harness span").take();
    if let Some((name, t0)) = harness {
        let t = clock::now_us();
        emit(Event {
            t_us: t,
            thread: clock::thread_ordinal(),
            kind: EventKind::SpanClose {
                scope: Scope::Harness,
                name,
                dur_us: t.saturating_sub(t0),
            },
        });
    }
    let mut reg = SINKS.lock().expect("telemetry registry");
    let mut report = None;
    for sink in reg.iter_mut() {
        sink.finish();
        if report.is_none() {
            report = sink.take_summary();
        }
    }
    reg.clear();
    ACTIVE.store(false, Ordering::Relaxed);
    TRACING.store(false, Ordering::Relaxed);
    report
}

/// Delivers `event` to every installed sink. Prefer [`trace`]/[`progress`]
/// in instrumented code — they defer construction behind the flags.
pub fn emit(event: Event) {
    if !active() {
        return;
    }
    let mut reg = SINKS.lock().expect("telemetry registry");
    for sink in reg.iter_mut() {
        sink.record(&event);
    }
}

/// Emits a trace-level event, building it only if a trace-consuming sink
/// is installed. The closure runs at most once.
#[inline]
pub fn trace(f: impl FnOnce() -> EventKind) {
    if tracing() {
        emit(Event::now(f()));
    }
}

/// Emits a human progress line. Routed through the sinks when a registry
/// is active; otherwise printed straight to stderr so ad-hoc runs keep
/// their liveness output.
#[inline]
pub fn progress(f: impl FnOnce() -> String) {
    if active() {
        emit(Event::now(EventKind::Message { text: f() }));
    } else {
        eprintln!("{}", f());
    }
}

/// Emits a cell-completion event (rendered `  [cell done] <label>` by the
/// progress sink). Falls back to stderr without a registry.
#[inline]
pub fn cell_done(f: impl FnOnce() -> String) {
    if active() {
        emit(Event::now(EventKind::CellDone { label: f() }));
    } else {
        eprintln!("  [cell done] {}", f());
    }
}

/// An RAII span guard: opens on construction, closes (with measured
/// duration) on drop. A no-op carrying no allocation when tracing is off.
pub struct Span {
    open: Option<(Scope, String, u64)>,
}

impl Span {
    /// Opens a span named by `name()` at `scope` — only when tracing.
    pub fn enter(scope: Scope, name: impl FnOnce() -> String) -> Span {
        if !tracing() {
            return Span { open: None };
        }
        let name = name();
        let t = clock::now_us();
        emit(Event {
            t_us: t,
            thread: clock::thread_ordinal(),
            kind: EventKind::SpanOpen {
                scope,
                name: name.clone(),
            },
        });
        Span {
            open: Some((scope, name, t)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((scope, name, t0)) = self.open.take() {
            let t = clock::now_us();
            emit(Event {
                t_us: t,
                thread: clock::thread_ordinal(),
                kind: EventKind::SpanClose {
                    scope,
                    name,
                    dur_us: t.saturating_sub(t0),
                },
            });
        }
    }
}

/// Convenience alias for [`Span::enter`].
#[inline]
pub fn span(scope: Scope, name: impl FnOnce() -> String) -> Span {
    Span::enter(scope, name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // All registry tests share one #[test]: the registry is global, and
    // the default test harness runs #[test] fns concurrently.
    #[test]
    fn registry_lifecycle_gating_and_spans() {
        // Disabled by default: flags off, helpers fall through.
        assert!(!active() && !tracing());
        let mut built = false;
        trace(|| {
            built = true;
            EventKind::Message {
                text: String::new(),
            }
        });
        assert!(!built, "trace closure must not run when disabled");

        // Install a capture sink consuming trace events.
        let (capture, lines) = CaptureSink::new();
        install(vec![Box::new(capture)], true);
        assert!(active() && tracing());

        trace(|| EventKind::Message {
            text: "traced".into(),
        });
        progress(|| "progressed".into());
        cell_done(|| "cell".into());
        {
            let _span = span(Scope::Search, || "anneal".into());
            trace(|| EventKind::SearchStep {
                step: 0,
                candidates: 1,
                current: 0.0,
                best: 0.0,
                accepted: false,
                d_hits: 0,
                d_misses: 0,
                d_evictions: 0,
                live_nodes: 0,
            });
        }
        let snapshot = lines.lock().expect("lines").clone();
        assert_eq!(
            snapshot.len(),
            6,
            "message, message, cell, open, step, close"
        );
        for line in &snapshot {
            json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(snapshot[3].contains("span_open") && snapshot[3].contains("anneal"));
        assert!(snapshot[5].contains("span_close") && snapshot[5].contains("dur_us"));

        // finish() clears everything and is idempotent.
        assert!(finish().is_none(), "capture sink has no summary");
        assert!(!active() && !tracing());
        assert!(finish().is_none());

        // Spans allocate nothing and emit nothing when disabled.
        {
            let s = span(Scope::Cell, || unreachable!("name closure must not run"));
            assert!(s.open.is_none());
        }
        assert_eq!(
            lines.lock().expect("lines").len(),
            6,
            "no events after finish"
        );

        // install with consume_trace=false keeps the tracing flag off.
        let (capture2, lines2) = CaptureSink::new();
        install(vec![Box::new(capture2)], false);
        assert!(active() && !tracing());
        trace(|| EventKind::Message {
            text: "dropped".into(),
        });
        progress(|| "kept".into());
        assert_eq!(
            lines2.lock().expect("lines").len(),
            1,
            "trace suppressed, progress kept"
        );
        finish();
    }
}
