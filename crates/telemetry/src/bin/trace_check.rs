//! `trace_check` — CI validator for telemetry output.
//!
//! Usage: `trace_check <events.jsonl> [trace.json]`
//!
//! Checks, exiting non-zero on the first failure:
//! - every JSONL line parses as a JSON object with `t_us`, `thread`, a
//!   known `kind` and exactly the fields `almost_telemetry::SCHEMA`
//!   declares for that kind, each with its JSON type (row lists row by
//!   row);
//! - timestamps are monotone non-decreasing per thread;
//! - span open/close events balance per thread (LIFO, matching names);
//! - `budget_exhausted` causes are `budget` or `cancelled`, and each
//!   `portfolio_race` has one `per_worker` row per worker and a winner
//!   among them;
//! - if given, the Chrome trace parses as a JSON array whose pool-worker
//!   tracks (`tid >= 1000`) and portfolio-solver tracks (`tid >= 2000`)
//!   each carry a `thread_name` metadata record, with one track per
//!   worker that executed jobs (or raced a query) in the JSONL.

use almost_telemetry::json::{parse, Value};
use almost_telemetry::{FieldSpec, JsonType, SCHEMA};
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
        let spec = SCHEMA
            .iter()
            .find(|k| k.name == kind)
            .ok_or(format!("line {n}: unknown kind {kind:?}"))?;
        check_fields(&v, spec.fields, 3).map_err(|e| format!("line {n}: {kind}: {e}"))?;
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
                workers.insert(num("worker"));
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
                portfolio.extend(0..w);
            }
            _ => {}
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One line of every kind on thread 0: time-ordered, spans balanced,
    /// pool worker 1 and portfolio workers 0 and 1.
    const FIXTURE: &str = r#"{"t_us":0,"thread":0,"kind":"span_open","scope":"cell","name":"c17"}
{"t_us":1,"thread":0,"kind":"pool_job","worker":1,"job":0,"stolen":true,"start_us":0,"dur_us":1}
{"t_us":2,"thread":0,"kind":"pool_batch","jobs":1,"workers":2,"per_worker":[{"executed":0,"stolen":0,"busy_us":0},{"executed":1,"stolen":1,"busy_us":77}]}
{"t_us":3,"thread":0,"kind":"solver_progress","conflicts":3,"decisions":1,"propagations":2,"restarts":0,"d_conflicts":3,"d_decisions":1,"d_propagations":2,"d_restarts":0}
{"t_us":4,"thread":0,"kind":"budget_exhausted","engine":"key_miter","budget":20,"conflicts":21,"cause":"budget"}
{"t_us":5,"thread":0,"kind":"portfolio_race","engine":"key_miter","workers":2,"winner":1,"dur_us":3,"cancel_us":1,"per_worker":[{"conflicts":0,"imported":0,"exported":0},{"conflicts":9,"imported":2,"exported":1}]}
{"t_us":6,"thread":0,"kind":"search_step","step":0,"candidates":2,"current":1.5,"best":0,"accepted":true,"d_hits":1,"d_misses":1,"d_evictions":0,"live_nodes":3}
{"t_us":7,"thread":0,"kind":"train_epoch","epoch":0,"loss":0.5,"wall_us":4,"tape_ops":9,"tape_allocs":1}
{"t_us":8,"thread":0,"kind":"oracle_compile","ands":6,"instructions":6,"registers":9,"wall_us":1}
{"t_us":9,"thread":0,"kind":"fraig_pass","classes":4,"proved":2,"refuted":1,"skipped":0,"merges":2,"constants":0,"escalations":0,"sat_calls":3,"sim_words_added":1,"ands_before":10,"ands_after":8,"wall_us":5}
{"t_us":10,"thread":0,"kind":"cell_done","label":"c17"}
{"t_us":11,"thread":0,"kind":"message","text":"done"}
{"t_us":12,"thread":0,"kind":"span_close","scope":"cell","name":"c17","dur_us":12}
"#;

    #[test]
    fn a_line_of_every_kind_passes() {
        let kinds: BTreeSet<&str> = FIXTURE
            .lines()
            .map(|l| parse(l).expect("parses"))
            .map(|v| {
                SCHEMA
                    .iter()
                    .find(|k| v.get("kind").and_then(Value::as_str) == Some(k.name))
            })
            .map(|k| k.expect("declared kind").name)
            .collect();
        assert_eq!(kinds.len(), SCHEMA.len(), "the fixture covers every kind");
        let (workers, portfolio) = check_jsonl(FIXTURE).expect("fixture passes");
        assert_eq!(workers, BTreeSet::from([1]));
        assert_eq!(portfolio, BTreeSet::from([0, 1]));
    }

    #[test]
    fn violations_are_rejected() {
        for (from, to, what) in [
            (",\"dur_us\":12}", "}", "a missing field"),
            ("\"stolen\":true", "\"stolen\":1", "a wrong-typed field"),
            (
                "\"busy_us\":77",
                "\"busy_us\":\"77\"",
                "a wrong-typed row field",
            ),
            (
                "\"current\":1.5",
                "\"current\":\"1.5\"",
                "a string for a number",
            ),
            (
                "\"registers\":9",
                "\"registers\":9,\"extra\":1",
                "an undeclared field",
            ),
            (
                "\"kind\":\"message\"",
                "\"kind\":\"note\"",
                "an unknown kind",
            ),
            (
                "\"cause\":\"budget\"",
                "\"cause\":\"timeout\"",
                "an unknown cause",
            ),
            (
                "\"winner\":1",
                "\"winner\":2",
                "a portfolio winner out of range",
            ),
            (
                "\"workers\":2,\"winner\"",
                "\"workers\":3,\"winner\"",
                "a missing race row",
            ),
            ("\"t_us\":12", "\"t_us\":10", "a timestamp going backwards"),
        ] {
            assert!(FIXTURE.contains(from), "the fixture lacks {from}");
            let bad = FIXTURE.replacen(from, to, 1);
            assert!(check_jsonl(&bad).is_err(), "{what} was accepted");
        }
    }

    #[test]
    fn out_of_order_span_close_is_rejected() {
        let span = |kind: &str, name: &str, dur: &str| {
            format!(
                r#"{{"t_us":1,"thread":0,"kind":"span_{kind}","scope":"search","name":"{name}"{dur}}}"#
            )
        };
        let (open, close) = (
            |n| span("open", n, ""),
            |n| span("close", n, r#","dur_us":0"#),
        );
        let nested = [open("a"), open("b"), close("b"), close("a")].join("\n");
        let crossed = [open("a"), open("b"), close("a"), close("b")].join("\n");
        assert!(check_jsonl(&nested).is_ok());
        let err = check_jsonl(&crossed).expect_err("crossed spans");
        assert!(err.contains("innermost open span"), "{err}");
    }

    #[test]
    fn chrome_trace_needs_a_named_track_per_worker() {
        let (workers, portfolio) = check_jsonl(FIXTURE).expect("fixture passes");
        let meta = |tid: u32| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{}}}}"
            )
        };
        let slice = |tid: u32| {
            format!("{{\"name\":\"s\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":{tid}}}")
        };
        let trace = |tids: &[u32]| {
            let records = tids.iter().flat_map(|&t| [meta(t), slice(t)]);
            format!("[{}]", records.collect::<Vec<_>>().join(","))
        };
        assert!(check_chrome(&trace(&[0, 1001, 2000, 2001]), &workers, &portfolio).is_ok());
        assert!(check_chrome(&trace(&[0, 2000, 2001]), &workers, &portfolio).is_err());
        assert!(check_chrome(&trace(&[0, 1001, 2000]), &workers, &portfolio).is_err());
    }
}
