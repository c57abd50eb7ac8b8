//! End-of-run aggregation.
//!
//! [`SummarySink`] folds the event stream into one [`SummaryReport`]: per
//! event kind, how many events arrived and the totals of the fields the
//! schema in `event.rs` marks `[sum]` (the delta convention there makes
//! those plain sums across every instance that emitted). On finish it
//! writes a machine-readable `BENCH_<name>.json` and, in traced runs,
//! renders the same data as a stderr table. A kind that never arrived is
//! absent from both: an untraced run sees only progress events and the
//! harness span, so it reports no layer counters rather than zeros.

use crate::event::{Event, KindSpec, SCHEMA};
use crate::json::escape;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Per-kind event counts and field totals of one run (also serialised
/// as `BENCH_<name>.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryReport {
    /// Harness name (the `BENCH_*.json` stem).
    pub name: String,
    /// Wall time from init to finish, microseconds.
    pub wall_us: u64,
    /// Indexed like [`SCHEMA`]: events seen, and the totals of the kind's
    /// [`KindSpec::columns`].
    kinds: Vec<(u64, Vec<u64>)>,
}

impl SummaryReport {
    fn new(name: &str) -> Self {
        SummaryReport {
            name: name.to_string(),
            wall_us: 0,
            kinds: SCHEMA
                .iter()
                .map(|k| (0, vec![0; k.columns().len()]))
                .collect(),
        }
    }

    /// Events of `kind` seen (0 for a kind that never arrived).
    pub fn count(&self, kind: &str) -> u64 {
        self.kinds[index(kind)].0
    }

    /// The total of `field` over the events of `kind`. A summed row
    /// field is named `<list>.<row field>`, e.g. `per_worker.imported`.
    ///
    /// # Panics
    /// If the schema does not sum `field` of `kind`.
    pub fn total(&self, kind: &str, field: &str) -> u64 {
        let i = index(kind);
        let column = SCHEMA[i]
            .columns()
            .iter()
            .position(|c| c == field)
            .unwrap_or_else(|| panic!("the schema does not sum {kind}.{field}"));
        self.kinds[i].1[column]
    }

    /// The kinds that arrived, in schema order, with their counts and
    /// named totals.
    fn seen(&self) -> impl Iterator<Item = (&'static KindSpec, u64, Vec<(String, u64)>)> + '_ {
        SCHEMA
            .iter()
            .zip(&self.kinds)
            .filter(|(_, (count, _))| *count > 0)
            .map(|(spec, (count, totals))| {
                let named = spec.columns().into_iter().zip(totals.iter().copied());
                (spec, *count, named.collect())
            })
    }

    /// The `BENCH_<name>.json` payload: `name`, `wall_us`, then one object
    /// per kind that arrived, holding its `count` and its totals.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"name\": \"{}\",\n  \"wall_us\": {}",
            escape(&self.name),
            self.wall_us
        );
        for (spec, count, totals) in self.seen() {
            let _ = write!(s, ",\n  \"{}\": {{\"count\": {count}", spec.name);
            for (column, total) in totals {
                let _ = write!(s, ", \"{column}\": {total}");
            }
            s.push('}');
        }
        s.push_str("\n}\n");
        s
    }

    /// The stderr summary table: one row per kind that arrived.
    pub fn render(&self) -> String {
        let mut s = format!(
            "[telemetry] {} summary: {:.2}s wall\n",
            self.name,
            self.wall_us as f64 / 1e6
        );
        for (spec, count, totals) in self.seen() {
            let _ = write!(s, "[telemetry]   {:<16} | {count} events", spec.name);
            for (i, (column, total)) in totals.iter().enumerate() {
                let _ = write!(s, "{} {column} {total}", if i == 0 { ";" } else { "," });
            }
            s.push('\n');
        }
        s
    }
}

/// The [`SCHEMA`] position of `kind`.
fn index(kind: &str) -> usize {
    SCHEMA
        .iter()
        .position(|k| k.name == kind)
        .unwrap_or_else(|| panic!("unknown event kind {kind:?}"))
}

/// The aggregating sink installed by `init_harness`.
pub struct SummarySink {
    report: SummaryReport,
    start_us: u64,
    /// Where to write `BENCH_<name>.json` (skipped when `None`).
    out_dir: Option<PathBuf>,
    /// Render the table to stderr on finish.
    render_stderr: bool,
}

impl SummarySink {
    /// A new aggregator for harness `name`.
    pub fn new(name: &str, out_dir: Option<PathBuf>, render_stderr: bool) -> Self {
        SummarySink {
            report: SummaryReport::new(name),
            start_us: crate::clock::now_us(),
            out_dir,
            render_stderr,
        }
    }
}

impl super::sink::Sink for SummarySink {
    fn record(&mut self, event: &Event) {
        let (count, totals) = &mut self.report.kinds[event.kind.index()];
        *count += 1;
        let mut column = 0;
        event.kind.sum(&mut |v| {
            totals[column] += v;
            column += 1;
        });
    }

    fn finish(&mut self) {
        self.report.wall_us = crate::clock::now_us().saturating_sub(self.start_us);
        if let Some(dir) = &self.out_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(format!("BENCH_{}.json", self.report.name));
            if let Err(e) = std::fs::write(&path, self.report.to_json()) {
                eprintln!("[telemetry] cannot write {}: {e}", path.display());
            }
        }
        if self.render_stderr {
            eprint!("{}", self.report.render());
        }
    }

    fn take_summary(&mut self) -> Option<SummaryReport> {
        Some(self.report.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json;
    use crate::sink::Sink;

    #[test]
    fn aggregates_deltas_and_serialises_valid_json() {
        let mut sink = SummarySink::new("unit", None, false);
        for i in 0..3u64 {
            sink.record(&Event {
                t_us: i,
                thread: 0,
                kind: EventKind::SolverProgress {
                    conflicts: (i + 1) * 10,
                    decisions: 0,
                    propagations: 0,
                    restarts: 0,
                    d_conflicts: 10,
                    d_decisions: 0,
                    d_propagations: 5,
                    d_restarts: 0,
                },
            });
        }
        sink.record(&Event {
            t_us: 4,
            thread: 0,
            kind: EventKind::SearchStep {
                step: 0,
                candidates: 8,
                current: 0.5,
                best: 0.5,
                accepted: true,
                d_hits: 2,
                d_misses: 6,
                d_evictions: 1,
                live_nodes: 10,
            },
        });
        sink.record(&Event {
            t_us: 5,
            thread: 0,
            kind: EventKind::CellDone { label: "x".into() },
        });
        sink.finish();
        let report = sink.take_summary().expect("summary");
        assert_eq!(
            report.total("solver_progress", "d_conflicts"),
            30,
            "summed deltas, not totals"
        );
        assert_eq!(report.total("solver_progress", "d_propagations"), 15);
        assert_eq!(report.total("search_step", "candidates"), 8);
        assert_eq!(report.total("search_step", "d_misses"), 6);
        assert_eq!(report.count("cell_done"), 1);
        let v = json::parse(&report.to_json()).expect("BENCH json parses");
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("unit"));
        assert_eq!(
            v.get("solver_progress")
                .and_then(|s| s.get("d_conflicts"))
                .and_then(|c| c.as_u64()),
            Some(30)
        );
    }
}
