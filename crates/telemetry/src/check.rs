//! Validators for telemetry output: the JSONL event log against
//! [`SCHEMA`], and the Chrome trace against the workers the log shows.
//!
//! The `trace_check` binary runs them on files; tests run them on the
//! logs they record. [`check_jsonl`] checks:
//! - every line parses as a JSON object with `t_us`, `thread`, a known
//!   `kind` and exactly the fields [`SCHEMA`] declares for that kind,
//!   each with its JSON type (row lists row by row);
//! - timestamps are monotone non-decreasing per thread;
//! - span open/close events balance per thread: LIFO with matching
//!   names, and every span closed by the end of the log (the harness
//!   span too: [`crate::finish`] closes it);
//! - `budget_exhausted` causes are `budget` or `cancelled`, and each
//!   `portfolio_race` has one `per_worker` row per worker and a winner
//!   among them.
//!
//! [`check_chrome`] checks that the trace parses as a JSON array whose
//! pool-worker tracks ([`POOL_TRACK_BASE`]` + w`) and portfolio-solver
//! tracks ([`PORTFOLIO_TRACK_BASE`]` + w`) each carry slices and a
//! `thread_name` metadata record naming them, one track per worker that
//! executed jobs (or raced a query) in the log.

use crate::json::{parse, Value};
use crate::sink::{POOL_TRACK_BASE, PORTFOLIO_TRACK_BASE};
use crate::{FieldSpec, JsonType, SCHEMA};
use std::collections::{BTreeMap, BTreeSet};

/// What a valid event log contains: the kinds that arrived and the
/// workers whose Chrome tracks [`check_chrome`] requires.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceShape {
    /// Lines per kind, for every kind with at least one line.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Pool workers that executed a job (`pool_job` lines).
    pub pool_workers: BTreeSet<u64>,
    /// Portfolio workers that raced a query (`portfolio_race` lines).
    pub portfolio_workers: BTreeSet<u64>,
}

/// Validates a JSONL event log (see the [module documentation](self));
/// the error names the first offending line.
pub fn check_jsonl(text: &str) -> Result<TraceShape, String> {
    let mut last_t: BTreeMap<u64, u64> = BTreeMap::new();
    let mut span_stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut shape = TraceShape::default();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let v = parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let t = field_u64(&v, "t_us").ok_or(format!("line {n}: missing t_us"))?;
        let thread = field_u64(&v, "thread").ok_or(format!("line {n}: missing thread"))?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or(format!("line {n}: missing kind"))?;
        let spec = SCHEMA
            .iter()
            .find(|k| k.name == kind)
            .ok_or(format!("line {n}: unknown kind {kind:?}"))?;
        check_fields(&v, spec.fields, 3).map_err(|e| format!("line {n}: {kind}: {e}"))?;
        *shape.kinds.entry(spec.name).or_insert(0) += 1;
        let prev = last_t.entry(thread).or_insert(0);
        if t < *prev {
            return Err(format!("line {n}: t_us {t} < {prev} on thread {thread}"));
        }
        *prev = t;
        // Every field is present and well-typed from here on.
        let num = |key| field_u64(&v, key).expect("schema-checked");
        let string = |key| v.get(key).and_then(Value::as_str).expect("schema-checked");
        match kind {
            "span_open" => {
                let stack = span_stacks.entry(thread).or_default();
                stack.push(string("name").to_string());
            }
            "span_close" => {
                let name = string("name");
                match span_stacks.entry(thread).or_default().pop() {
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
                shape.pool_workers.insert(num("worker"));
            }
            "budget_exhausted" => {
                let cause = string("cause");
                if cause != "budget" && cause != "cancelled" {
                    return Err(format!(
                        "line {n}: unknown budget_exhausted cause {cause:?}"
                    ));
                }
            }
            "portfolio_race" => {
                let (w, winner) = (num("workers"), num("winner"));
                let rows = v
                    .get("per_worker")
                    .and_then(Value::as_arr)
                    .map_or(0, <[_]>::len);
                if rows as u64 != w {
                    return Err(format!(
                        "line {n}: portfolio_race has {rows} per_worker entries for {w} workers"
                    ));
                }
                if winner >= w {
                    return Err(format!(
                        "line {n}: portfolio_race winner {winner} out of range for {w} workers"
                    ));
                }
                shape.portfolio_workers.extend(0..w);
            }
            _ => {}
        }
    }
    for (thread, stack) in &span_stacks {
        if !stack.is_empty() {
            return Err(format!(
                "thread {thread} ends with {} unclosed spans: {stack:?}",
                stack.len()
            ));
        }
    }
    Ok(shape)
}

/// Checks that the object `v` carries every field of `fields` with its
/// JSON type, recursing into row lists, and exactly `extra` other keys.
fn check_fields(v: &Value, fields: &[FieldSpec], extra: usize) -> Result<(), String> {
    for f in fields {
        let value = v.get(f.name).ok_or(format!("missing {}", f.name))?;
        let ok = match f.ty {
            JsonType::Uint => value.as_u64().is_some(),
            JsonType::Number => value.as_f64().is_some(),
            JsonType::Bool => matches!(value, Value::Bool(_)),
            JsonType::Str => value.as_str().is_some(),
            JsonType::Rows(row) => match value.as_arr() {
                Some(rows) => {
                    for r in rows {
                        check_fields(r, row, 0).map_err(|e| format!("{}: {e}", f.name))?;
                    }
                    true
                }
                None => false,
            },
        };
        if !ok {
            return Err(format!("{} is not {:?}", f.name, f.ty));
        }
    }
    match v {
        Value::Obj(map) if map.len() == fields.len() + extra => Ok(()),
        Value::Obj(map) => Err(format!(
            "{} keys, the schema has {}",
            map.len(),
            fields.len() + extra
        )),
        _ => Err("not an object".into()),
    }
}

/// Validates a Chrome trace against the workers of its event log (see
/// the [module documentation](self)).
pub fn check_chrome(text: &str, shape: &TraceShape) -> Result<(), String> {
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
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or(format!("event {i}: thread_name without a name"))?;
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
    let tracks = [
        ("pool worker", POOL_TRACK_BASE, &shape.pool_workers, "job"),
        (
            "portfolio worker",
            PORTFOLIO_TRACK_BASE,
            &shape.portfolio_workers,
            "race",
        ),
    ];
    for (what, base, workers, slices) in tracks {
        for &w in workers {
            let tid = u64::from(base) + w;
            if !slice_tracks.contains(&tid) {
                return Err(format!("{what} {w}: no {slices} slices on track {tid}"));
            }
            if !named_tracks.contains(&tid) {
                return Err(format!(
                    "{what} {w}: track {tid} has no thread_name metadata"
                ));
            }
        }
    }
    Ok(())
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}
