//! `trace_check` — CI validator for telemetry output.
//!
//! Usage: `trace_check <events.jsonl> [trace.json]`
//!
//! Checks, exiting non-zero on the first failure:
//! - every JSONL line parses as a JSON object with `t_us`, `thread`, and
//!   a known `kind`, plus the kind-specific required fields;
//! - timestamps are monotone non-decreasing per thread;
//! - span open/close events balance per thread (LIFO, matching names);
//! - if given, the Chrome trace parses as a JSON array whose pool-worker
//!   tracks (`tid >= 1000`) and portfolio-solver tracks (`tid >= 2000`)
//!   each carry a `thread_name` metadata record, with one track per
//!   worker that executed jobs (or raced a query) in the JSONL.

use almost_telemetry::json::{parse, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.len() > 2 {
        eprintln!("usage: trace_check <events.jsonl> [trace.json]");
        return ExitCode::from(2);
    }
    let jsonl = match std::fs::read_to_string(&args[0]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace_check: cannot read {}: {e}", args[0]);
            return ExitCode::FAILURE;
        }
    };
    let (workers, portfolio) = match check_jsonl(&jsonl) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("trace_check: {}: {e}", args[0]);
            return ExitCode::FAILURE;
        }
    };
    if let Some(trace_path) = args.get(1) {
        let trace = match std::fs::read_to_string(trace_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace_check: cannot read {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = check_chrome(&trace, &workers, &portfolio) {
            eprintln!("trace_check: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "trace_check: OK ({} lines, {} pool workers, {} portfolio workers)",
        jsonl.lines().count(),
        workers.len(),
        portfolio.len()
    );
    ExitCode::SUCCESS
}

const KINDS: &[&str] = &[
    "span_open",
    "span_close",
    "pool_job",
    "pool_batch",
    "solver_progress",
    "budget_exhausted",
    "portfolio_race",
    "search_step",
    "train_epoch",
    "oracle_compile",
    "fraig_pass",
    "cell_done",
    "message",
];

/// Validates the JSONL event log; returns the sets of pool workers and
/// portfolio workers seen.
#[allow(clippy::type_complexity)]
fn check_jsonl(text: &str) -> Result<(BTreeSet<u64>, BTreeSet<u64>), String> {
    let mut last_t: BTreeMap<u64, u64> = BTreeMap::new();
    let mut span_stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut workers = BTreeSet::new();
    let mut portfolio = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let v = parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let t = field_u64(&v, "t_us").ok_or(format!("line {n}: missing t_us"))?;
        let thread = field_u64(&v, "thread").ok_or(format!("line {n}: missing thread"))?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or(format!("line {n}: missing kind"))?;
        if !KINDS.contains(&kind) {
            return Err(format!("line {n}: unknown kind {kind:?}"));
        }
        let prev = last_t.entry(thread).or_insert(0);
        if t < *prev {
            return Err(format!("line {n}: t_us {t} < {prev} on thread {thread}"));
        }
        *prev = t;
        match kind {
            "span_open" => {
                let name = req_str(&v, "name", n)?;
                req_str(&v, "scope", n)?;
                span_stacks
                    .entry(thread)
                    .or_default()
                    .push(name.to_string());
            }
            "span_close" => {
                let name = req_str(&v, "name", n)?;
                req_u64(&v, "dur_us", n)?;
                let stack = span_stacks.entry(thread).or_default();
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "line {n}: span_close {name:?} but innermost open span on thread {thread} is {open:?}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "line {n}: span_close {name:?} with no open span on thread {thread}"
                        ))
                    }
                }
            }
            "pool_job" => {
                workers.insert(req_u64(&v, "worker", n)?);
                req_u64(&v, "job", n)?;
                req_u64(&v, "start_us", n)?;
                req_u64(&v, "dur_us", n)?;
            }
            "pool_batch" => {
                req_u64(&v, "jobs", n)?;
                req_u64(&v, "workers", n)?;
                v.get("per_worker")
                    .and_then(Value::as_arr)
                    .ok_or(format!("line {n}: missing per_worker"))?;
            }
            "solver_progress" => {
                for f in ["conflicts", "propagations", "d_conflicts", "d_propagations"] {
                    req_u64(&v, f, n)?;
                }
            }
            "budget_exhausted" => {
                req_str(&v, "engine", n)?;
                req_u64(&v, "budget", n)?;
                req_u64(&v, "conflicts", n)?;
                let cause = req_str(&v, "cause", n)?;
                if cause != "budget" && cause != "cancelled" {
                    return Err(format!(
                        "line {n}: unknown budget_exhausted cause {cause:?}"
                    ));
                }
            }
            "portfolio_race" => {
                req_str(&v, "engine", n)?;
                let w = req_u64(&v, "workers", n)?;
                let winner = req_u64(&v, "winner", n)?;
                req_u64(&v, "dur_us", n)?;
                req_u64(&v, "cancel_us", n)?;
                let per = v
                    .get("per_worker")
                    .and_then(Value::as_arr)
                    .ok_or(format!("line {n}: missing per_worker"))?;
                if per.len() as u64 != w {
                    return Err(format!(
                        "line {n}: portfolio_race has {} per_worker entries for {w} workers",
                        per.len()
                    ));
                }
                if winner >= w {
                    return Err(format!(
                        "line {n}: portfolio_race winner {winner} out of range for {w} workers"
                    ));
                }
                for i in 0..per.len() as u64 {
                    portfolio.insert(i);
                }
            }
            "search_step" => {
                for f in ["step", "candidates", "d_hits", "d_misses"] {
                    req_u64(&v, f, n)?;
                }
            }
            "train_epoch" => {
                req_u64(&v, "epoch", n)?;
                req_u64(&v, "wall_us", n)?;
                v.get("loss")
                    .and_then(Value::as_f64)
                    .ok_or(format!("line {n}: missing loss"))?;
            }
            "oracle_compile" => {
                for f in ["ands", "instructions", "registers", "wall_us"] {
                    req_u64(&v, f, n)?;
                }
            }
            "fraig_pass" => {
                for f in [
                    "classes",
                    "proved",
                    "refuted",
                    "skipped",
                    "merges",
                    "constants",
                    "escalations",
                    "sat_calls",
                    "sim_words_added",
                    "ands_before",
                    "ands_after",
                    "wall_us",
                ] {
                    req_u64(&v, f, n)?;
                }
            }
            "cell_done" => {
                req_str(&v, "label", n)?;
            }
            "message" => {
                req_str(&v, "text", n)?;
            }
            _ => unreachable!("kind list is closed"),
        }
    }
    // The harness span may legitimately still be open (finish() closes
    // sinks before main returns); allow at most one unbalanced span per
    // thread and require everything nested below it to have closed.
    for (thread, stack) in &span_stacks {
        if stack.len() > 1 {
            return Err(format!(
                "thread {thread} ends with {} unclosed spans: {stack:?}",
                stack.len()
            ));
        }
    }
    Ok((workers, portfolio))
}

/// Validates the Chrome trace against the worker sets from the JSONL.
fn check_chrome(
    text: &str,
    workers: &BTreeSet<u64>,
    portfolio: &BTreeSet<u64>,
) -> Result<(), String> {
    let v = parse(text)?;
    let events = v.as_arr().ok_or("top level is not an array")?;
    let mut named_tracks = BTreeSet::new();
    let mut slice_tracks = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let tid = field_u64(e, "tid").ok_or(format!("event {i}: missing tid"))?;
        match ph {
            "M" => {
                named_tracks.insert(tid);
            }
            "X" => {
                field_u64(e, "ts").ok_or(format!("event {i}: missing ts"))?;
                field_u64(e, "dur").ok_or(format!("event {i}: missing dur"))?;
                slice_tracks.insert(tid);
            }
            "i" | "C" | "B" | "E" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for &w in workers {
        let tid = 1000 + w;
        if !slice_tracks.contains(&tid) {
            return Err(format!("pool worker {w}: no job slices on track {tid}"));
        }
        if !named_tracks.contains(&tid) {
            return Err(format!(
                "pool worker {w}: track {tid} has no thread_name metadata"
            ));
        }
    }
    for &w in portfolio {
        let tid = 2000 + w;
        if !slice_tracks.contains(&tid) {
            return Err(format!(
                "portfolio worker {w}: no race slices on track {tid}"
            ));
        }
        if !named_tracks.contains(&tid) {
            return Err(format!(
                "portfolio worker {w}: track {tid} has no thread_name metadata"
            ));
        }
    }
    Ok(())
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn req_u64(v: &Value, key: &str, line: usize) -> Result<u64, String> {
    field_u64(v, key).ok_or(format!("line {line}: missing {key}"))
}

fn req_str<'a>(v: &'a Value, key: &str, line: usize) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or(format!("line {line}: missing {key}"))
}
