//! `trace_check` — CI validator for telemetry output.
//!
//! Usage: `trace_check <events.jsonl> [trace.json]`
//!
//! Runs [`almost_telemetry::check`] on the files, exiting non-zero on the
//! first failure: the JSONL log against the event schema, timestamp order
//! and span balance, and, if given, the Chrome trace against the workers
//! the log shows.

use almost_telemetry::check::{check_chrome, check_jsonl};
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
    let shape = match check_jsonl(&jsonl) {
        Ok(shape) => shape,
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
        if let Err(e) = check_chrome(&trace, &shape) {
            eprintln!("trace_check: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "trace_check: OK ({} lines, {} pool workers, {} portfolio workers)",
        jsonl.lines().count(),
        shape.pool_workers.len(),
        shape.portfolio_workers.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_telemetry::json::{parse, Value};
    use almost_telemetry::SCHEMA;
    use std::collections::BTreeSet;

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
{"t_us":9,"thread":0,"kind":"fraig_pass","classes":4,"proved":2,"cut_proved":1,"refuted":1,"skipped":0,"merges":2,"constants":0,"escalations":0,"sat_calls":3,"sim_words_added":1,"ands_before":10,"ands_after":8,"wall_us":5}
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
        let shape = check_jsonl(FIXTURE).expect("fixture passes");
        assert_eq!(shape.kinds.len(), SCHEMA.len());
        assert_eq!(shape.pool_workers, BTreeSet::from([1]));
        assert_eq!(shape.portfolio_workers, BTreeSet::from([0, 1]));
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
    fn an_unclosed_span_is_rejected() {
        let unclosed: Vec<&str> = FIXTURE
            .lines()
            .filter(|l| !l.contains("span_close"))
            .collect();
        let err = check_jsonl(&unclosed.join("\n")).expect_err("unclosed span");
        assert!(err.contains("unclosed"), "{err}");
    }

    #[test]
    fn chrome_trace_needs_a_named_track_per_worker() {
        let shape = check_jsonl(FIXTURE).expect("fixture passes");
        let meta = |tid: u32| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"t{tid}\"}}}}"
            )
        };
        let slice = |tid: u32| {
            format!("{{\"name\":\"s\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":{tid}}}")
        };
        let trace = |tids: &[u32]| {
            let records = tids.iter().flat_map(|&t| [meta(t), slice(t)]);
            format!("[{}]", records.collect::<Vec<_>>().join(","))
        };
        assert!(check_chrome(&trace(&[0, 1001, 2000, 2001]), &shape).is_ok());
        assert!(check_chrome(&trace(&[0, 2000, 2001]), &shape).is_err());
        assert!(check_chrome(&trace(&[0, 1001, 2000]), &shape).is_err());
        let unnamed = trace(&[0, 1001, 2000, 2001]).replace(r#"{"name":"t1001"}"#, "{}");
        assert!(check_chrome(&unnamed, &shape).is_err());
    }
}
