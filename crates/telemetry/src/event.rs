//! The typed event vocabulary and its schema.
//!
//! Events are the one currency every sink understands. The vocabulary is
//! deliberately closed (an enum, not a string bag): each instrumented
//! layer — pool, solver, search engine, trainer, harness — emits its own
//! typed variant, carrying **deltas** for cumulative counters so
//! aggregation is a plain sum even when many solver or engine instances
//! run concurrently. Every event is stamped with the monotonic process
//! clock and the emitting thread's ordinal at construction.
//!
//! The `kinds!` declaration below is the only place a kind's fields are
//! named. Per kind it gives the JSONL name, the [`Level`], the fields in
//! output order with their types, and which fields the run summary
//! totals (marked `[sum]`). The [`EventKind`] enum, the JSONL line, the
//! public [`SCHEMA`] table that `trace_check` validates against, the
//! Chrome trace args and the run summary all derive from it, so a new
//! metric is one edit here.

use crate::clock;
use crate::json::escape;
use std::fmt::Write as _;

/// Where in the hierarchy a span lives: harness → cell → attack/search →
/// solver/trainer (plus the pool, which is orthogonal infrastructure).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scope {
    /// A whole experiment binary.
    Harness,
    /// One (bench, key, scheme)-style unit of harness work.
    Cell,
    /// One attack run (SAT attack, Double DIP, OMLA, …).
    Attack,
    /// One recipe-search run (simulated annealing).
    Search,
    /// One training run.
    Trainer,
    /// One solver episode.
    Solver,
    /// One pool batch.
    Pool,
}

impl Scope {
    /// Stable lowercase label used in JSONL and as the Chrome `cat`.
    pub fn label(self) -> &'static str {
        match self {
            Scope::Harness => "harness",
            Scope::Cell => "cell",
            Scope::Attack => "attack",
            Scope::Search => "search",
            Scope::Trainer => "trainer",
            Scope::Solver => "solver",
            Scope::Pool => "pool",
        }
    }
}

/// The JSON type of an event field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonType {
    /// A non-negative integer.
    Uint,
    /// A number. Non-finite values are written as finite sentinels (NaN
    /// as `0`, ±∞ as `±1e308`), so every line stays valid JSON.
    Number,
    /// `true` or `false`.
    Bool,
    /// A string.
    Str,
    /// An array of objects, each with exactly these fields.
    Rows(&'static [FieldSpec]),
}

/// One field of an event kind, or of a row of a [`JsonType::Rows`] list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldSpec {
    /// The JSONL key.
    pub name: &'static str,
    /// The JSON type of the value.
    pub ty: JsonType,
    /// Whether the run summary totals this field. A summed row list
    /// totals each of its summed row fields across rows.
    pub summed: bool,
}

/// One event kind of the [`SCHEMA`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindSpec {
    /// The JSONL `kind` value.
    pub name: &'static str,
    /// Progress or trace.
    pub level: Level,
    /// The fields after `t_us`, `thread` and `kind`, in output order.
    pub fields: &'static [FieldSpec],
}

impl KindSpec {
    /// The run summary's total columns, in the order
    /// [`EventKind::sum`] feeds them: a summed field is one column named
    /// after it, a summed row list one column per summed row field,
    /// named `<list>.<row field>`.
    pub fn columns(&self) -> Vec<String> {
        let mut columns = Vec::new();
        for field in self.fields.iter().filter(|f| f.summed) {
            match field.ty {
                JsonType::Rows(row) => columns.extend(
                    row.iter()
                        .filter(|r| r.summed)
                        .map(|r| format!("{}.{}", field.name, r.name)),
                ),
                _ => columns.push(field.name.to_string()),
            }
        }
        columns
    }
}

/// A value that can be an event field.
pub trait Field {
    /// The value's JSON type.
    const TYPE: JsonType;
    /// Appends the value as JSON.
    fn write(&self, out: &mut String);
}

/// A field the run summary can total.
pub trait Summed {
    /// Feeds `add` one value per summary column of this field.
    fn sum(&self, add: &mut dyn FnMut(u64));
}

/// One row of a per-worker list field, declared by `rows!`.
pub trait Row {
    /// The row's fields, in output order.
    const FIELDS: &'static [FieldSpec];
    /// Appends `,"<field>":<value>` for every field, in order.
    fn write_fields(&self, out: &mut String);
    /// Feeds `add` the value of every summed field, in order.
    fn sum(&self, add: &mut dyn FnMut(u64));
}

/// Appends a JSON object whose members `fields` writes as a run of
/// `,"<key>":<value>` pairs.
pub(crate) fn write_object(out: &mut String, fields: impl FnOnce(&mut String)) {
    out.push('{');
    let start = out.len();
    fields(out);
    if out.len() > start {
        out.remove(start);
    }
    out.push('}');
}

/// Integers and flags: written as-is, totalled as counts (a flag as the
/// number of events that set it).
macro_rules! counter_field {
    ($($t:ty => $json:ident),*) => {$(
        impl Field for $t {
            const TYPE: JsonType = JsonType::$json;
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Summed for $t {
            fn sum(&self, add: &mut dyn FnMut(u64)) {
                add(u64::from(*self));
            }
        }
    )*};
}
counter_field!(u32 => Uint, u64 => Uint, bool => Bool);

impl Field for f64 {
    const TYPE: JsonType = JsonType::Number;
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else if self.is_nan() {
            out.push('0');
        } else if *self > 0.0 {
            out.push_str("1e308");
        } else {
            out.push_str("-1e308");
        }
    }
}

impl Field for String {
    const TYPE: JsonType = JsonType::Str;
    fn write(&self, out: &mut String) {
        self.as_str().write(out);
    }
}

impl Field for &str {
    const TYPE: JsonType = JsonType::Str;
    fn write(&self, out: &mut String) {
        out.push('"');
        out.push_str(&escape(self));
        out.push('"');
    }
}

impl Field for Scope {
    const TYPE: JsonType = JsonType::Str;
    fn write(&self, out: &mut String) {
        self.label().write(out);
    }
}

impl<R: Row> Field for Vec<R> {
    const TYPE: JsonType = JsonType::Rows(R::FIELDS);
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, row) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_object(out, |o| row.write_fields(o));
        }
        out.push(']');
    }
}

/// A row list totals column by column across its rows.
impl<R: Row> Summed for Vec<R> {
    fn sum(&self, add: &mut dyn FnMut(u64)) {
        let mut totals = vec![0; R::FIELDS.iter().filter(|f| f.summed).count()];
        for row in self {
            let mut column = 0;
            row.sum(&mut |v| {
                totals[column] += v;
                column += 1;
            });
        }
        totals.into_iter().for_each(add);
    }
}

/// The [`FieldSpec`] of one declared field; a trailing `sum` marks it
/// summed.
macro_rules! field_spec {
    ($field:ident, $ty:ty) => {
        FieldSpec {
            name: stringify!($field),
            ty: <$ty as Field>::TYPE,
            summed: false,
        }
    };
    ($field:ident, $ty:ty, $sum:ident) => {
        FieldSpec {
            summed: true,
            ..field_spec!($field, $ty)
        }
    };
}

/// Declares the per-worker row structs. A field marked `[sum]` is
/// totalled by the run summary when its list is (the marker names the
/// [`Summed::sum`] call).
macro_rules! rows {
    ($(
        $(#[$doc:meta])*
        $Row:ident {
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty $([$sum:ident])? ),* $(,)?
        }
    )*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $Row {
            $( $(#[$fdoc])* pub $field: $ty, )*
        }

        impl Row for $Row {
            const FIELDS: &'static [FieldSpec] = &[$(field_spec!($field, $ty $(, $sum)?)),*];

            fn write_fields(&self, out: &mut String) {
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    Field::write(&self.$field, out);
                )*
            }

            #[allow(unused_variables)]
            fn sum(&self, add: &mut dyn FnMut(u64)) {
                $( $( Summed::$sum(&self.$field, add); )? )*
            }
        }
    )*};
}

/// Declares the event kinds: `Variant = "jsonl_name", Level { fields }`,
/// fields in JSONL order, `[sum]` marking the ones the run summary
/// totals. Everything else in this module derives from it.
macro_rules! kinds {
    ($(
        $(#[$doc:meta])*
        $Variant:ident = $name:literal, $level:ident {
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty $([$sum:ident])? ),* $(,)?
        }
    )*) => {
        /// The typed event payloads. See the module docs for the delta
        /// convention.
        #[derive(Clone, Debug, PartialEq)]
        pub enum EventKind {
            $( $(#[$doc])* $Variant { $( $(#[$fdoc])* $field: $ty, )* }, )*
        }

        /// Every kind's declaration, in [`EventKind`] order.
        pub static SCHEMA: &[KindSpec] = &[$(KindSpec {
            name: $name,
            level: Level::$level,
            fields: &[$(field_spec!($field, $ty $(, $sum)?)),*],
        }),*];

        impl EventKind {
            /// This kind's position in the [`SCHEMA`].
            pub fn index(&self) -> usize {
                enum Tag { $($Variant),* }
                let tag = match self { $(EventKind::$Variant { .. } => Tag::$Variant),* };
                tag as usize
            }

            /// Appends `,"<field>":<value>` for every field, in schema
            /// order: the JSONL line's payload and the Chrome trace args.
            pub fn write_fields(&self, out: &mut String) {
                match self {$(
                    EventKind::$Variant { $($field),* } => {$(
                        out.push_str(concat!(",\"", stringify!($field), "\":"));
                        Field::write($field, out);
                    )*}
                )*}
            }

            /// Feeds `add` the value of every run-summary column, in
            /// [`KindSpec::columns`] order.
            #[allow(unused_variables)]
            pub fn sum(&self, add: &mut dyn FnMut(u64)) {
                match self {$(
                    EventKind::$Variant { $($field),* } => {
                        $( $( Summed::$sum($field, add); )? )*
                    }
                )*}
            }
        }
    };
}

rows! {
    /// One pool worker's tally over a whole `map_indexed` batch.
    WorkerTally {
        /// Jobs this worker executed (own-queue pops plus steals).
        executed: u32,
        /// Of those, jobs stolen from a sibling's queue.
        stolen: u32,
        /// Microseconds spent executing jobs (idle/steal-probing excluded).
        busy_us: u64,
    }

    /// One portfolio worker's tally over a single race, carried by
    /// [`EventKind::PortfolioRace`].
    RaceWorkerTally {
        /// Conflicts this worker spent on the raced query.
        conflicts: u64 [sum],
        /// Glue clauses this worker imported from siblings during the query.
        imported: u64 [sum],
        /// Glue clauses this worker published for siblings during the query.
        exported: u64 [sum],
    }
}

kinds! {
    /// A hierarchical span opened on this thread.
    SpanOpen = "span_open", Trace {
        /// Hierarchy level.
        scope: Scope,
        /// Human-readable span name.
        name: String,
    }
    /// The matching close (same thread, `dur_us` after the open).
    SpanClose = "span_close", Trace {
        /// Hierarchy level.
        scope: Scope,
        /// Human-readable span name.
        name: String,
        /// Span duration in microseconds.
        dur_us: u64,
    }
    /// One executed pool job (emitted by the worker as the job finishes).
    PoolJob = "pool_job", Trace {
        /// Executing worker index (stable within a batch: 0..workers).
        worker: u32,
        /// Job index in submission order.
        job: u32,
        /// True when the job was stolen from a sibling's queue.
        stolen: bool [sum],
        /// Job start, microseconds since the process epoch.
        start_us: u64,
        /// Job duration in microseconds.
        dur_us: u64 [sum],
    }
    /// End-of-batch pool summary (emitted by the calling thread).
    PoolBatch = "pool_batch", Trace {
        /// Jobs in the batch.
        jobs: u32,
        /// Workers that ran it.
        workers: u32,
        /// Per-worker tallies, indexed by worker id.
        per_worker: Vec<WorkerTally>,
    }
    /// Periodic solver heartbeat (every few thousand conflicts): the
    /// cumulative counters of this solver instance, then the counters
    /// since its previous heartbeat (`d_`). Mirrors the effort counters
    /// of `almost_sat::SolverStats`; telemetry does not depend on the
    /// solver crate.
    SolverProgress = "solver_progress", Trace {
        /// Conflicts analysed.
        conflicts: u64,
        /// Decision-literal picks.
        decisions: u64,
        /// Literals propagated off the trail.
        propagations: u64,
        /// Restarts performed.
        restarts: u64,
        /// Conflicts since the previous heartbeat.
        d_conflicts: u64 [sum],
        /// Decisions since the previous heartbeat.
        d_decisions: u64 [sum],
        /// Propagations since the previous heartbeat.
        d_propagations: u64 [sum],
        /// Restarts since the previous heartbeat.
        d_restarts: u64 [sum],
    }
    /// A conflict-budgeted query came back without a verdict.
    BudgetExhausted = "budget_exhausted", Trace {
        /// Which engine: `"key_miter"` or `"double_dip_miter"`.
        engine: &'static str,
        /// The per-query conflict budget in force.
        budget: u64,
        /// The solver's cumulative conflicts at the early return.
        conflicts: u64,
        /// Why the query stopped: `"budget"` when the conflict budget ran
        /// out. `"cancelled"` stays in the schema but nothing emits it:
        /// a race's internal stop flag never ends a query without a
        /// verdict, and a portfolio has no external stop flag.
        cause: &'static str,
    }
    /// One portfolio race over a miter query (emitted by the winner's
    /// caller once every worker has parked).
    PortfolioRace = "portfolio_race", Trace {
        /// Which engine raced: `"key_miter"` or `"double_dip_miter"`.
        engine: &'static str,
        /// Portfolio width (racing workers).
        workers: u32,
        /// Index of the worker whose verdict was taken.
        winner: u32,
        /// Race wall time in microseconds.
        dur_us: u64,
        /// Microseconds from the winner finishing to all workers parked.
        cancel_us: u64,
        /// Per-worker effort/exchange tallies, indexed by worker id.
        per_worker: Vec<RaceWorkerTally> [sum],
    }
    /// One temperature step of the batched search engine.
    SearchStep = "search_step", Trace {
        /// Step index (0-based).
        step: u32,
        /// Candidates proposed and scored this step.
        candidates: u32 [sum],
        /// Objective of the current state after the step.
        current: f64,
        /// Best objective seen so far.
        best: f64,
        /// Whether any candidate was accepted this step.
        accepted: bool [sum],
        /// Synthesis-cache (trie) hits since the previous step.
        d_hits: u64 [sum],
        /// Trie misses since the previous step.
        d_misses: u64 [sum],
        /// Trie evictions since the previous step.
        d_evictions: u64 [sum],
        /// Live cached intermediates after the step (a gauge, not a delta).
        live_nodes: u64,
    }
    /// One training epoch.
    TrainEpoch = "train_epoch", Trace {
        /// Epoch index (0-based).
        epoch: u32,
        /// Mean training loss of the epoch.
        loss: f64,
        /// Epoch wall time in microseconds.
        wall_us: u64 [sum],
        /// Tape nodes recorded this epoch (delta).
        tape_ops: u64 [sum],
        /// Fresh tape buffers allocated this epoch (delta; 0 after warm-up).
        tape_allocs: u64 [sum],
    }
    /// An oracle netlist was compiled to the batch instruction buffer.
    OracleCompile = "oracle_compile", Trace {
        /// AND nodes in the source netlist.
        ands: u64,
        /// Instructions emitted (one per AND node).
        instructions: u64,
        /// Register-file size of the compiled program.
        registers: u64,
        /// Compile wall time in microseconds.
        wall_us: u64 [sum],
    }
    /// One fraig / SAT-sweeping pass over a netlist completed.
    FraigPass = "fraig_pass", Trace {
        /// Candidate equivalence classes formed (signature
        /// representatives, excluding the constant class).
        classes: u64 [sum],
        /// Candidate pairs proved equivalent (UNSAT verdicts or equal cut
        /// tables).
        proved: u64 [sum],
        /// Candidate pairs proved by equal tables over a shared cut of at
        /// most 8 leaves, without a SAT call (a subset of `proved`).
        cut_proved: u64 [sum],
        /// Candidate pairs refuted (a counterexample was found).
        refuted: u64 [sum],
        /// Candidate pairs skipped on budget exhaustion.
        skipped: u64 [sum],
        /// Nodes merged into a representative.
        merges: u64 [sum],
        /// Merges whose representative is a constant.
        constants: u64 [sum],
        /// Budget-exhausted queries re-run on a portfolio solver.
        escalations: u64 [sum],
        /// Total SAT queries posed.
        sat_calls: u64 [sum],
        /// Counterexample feedback words appended to the sim vectors.
        sim_words_added: u64 [sum],
        /// AND nodes before the sweep.
        ands_before: u64,
        /// AND nodes after the sweep.
        ands_after: u64,
        /// Sweep wall time in microseconds.
        wall_us: u64 [sum],
    }
    /// A harness cell finished (the streamed liveness marker).
    CellDone = "cell_done", Progress {
        /// Cell label, e.g. `"c1908 k=32"`.
        label: String,
    }
    /// A human progress line (rendered verbatim by the stderr sink).
    Message = "message", Progress {
        /// The line, without trailing newline.
        text: String,
    }
}

impl EventKind {
    /// The JSONL `kind` value.
    pub fn name(&self) -> &'static str {
        SCHEMA[self.index()].name
    }

    /// Progress or trace.
    pub fn level(&self) -> Level {
        SCHEMA[self.index()].level
    }
}

/// Event levels: progress events are for humans and always cheap; trace
/// events only exist when a trace sink is installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Human-facing liveness output ([`EventKind::CellDone`],
    /// [`EventKind::Message`]).
    Progress,
    /// Machine-facing timeline data (everything else).
    Trace,
}

/// A timestamped, thread-stamped event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the process epoch.
    pub t_us: u64,
    /// Emitting thread's ordinal.
    pub thread: u32,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// Stamps `kind` with the current clock and thread.
    pub fn now(kind: EventKind) -> Self {
        Event {
            t_us: clock::now_us(),
            thread: clock::thread_ordinal(),
            kind,
        }
    }

    /// One line of the JSONL schema (no trailing newline): an object with
    /// `t_us`, `thread` and `kind`, then the kind's fields in [`SCHEMA`]
    /// order.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        write_object(&mut s, |s| {
            let _ = write!(
                s,
                ",\"t_us\":{},\"thread\":{},\"kind\":\"{}\"",
                self.t_us,
                self.thread,
                self.kind.name()
            );
            self.kind.write_fields(s);
        });
        s
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn every_variant_serialises_to_valid_json() {
        assert_eq!(SCHEMA.len(), 13, "one SCHEMA entry per kind");
        for kind in golden_kinds() {
            let line = Event::now(kind.clone()).to_jsonl();
            let parsed = json::parse(&line).unwrap_or_else(|e| panic!("{kind:?}: {e}\n{line}"));
            assert!(parsed.get("t_us").is_some(), "{line}");
            assert!(parsed.get("thread").is_some(), "{line}");
            assert_eq!(
                parsed.get("kind").and_then(|k| k.as_str()),
                Some(kind.name()),
                "{line}"
            );
        }
    }

    /// One event of every kind, covering string escapes, non-finite
    /// floats and empty and non-empty worker rows: a table, one event per
    /// line of [`GOLDEN_LINES`].
    #[rustfmt::skip]
    pub(crate) fn golden_kinds() -> Vec<EventKind> {
        let worker = WorkerTally { executed: 2, stolen: 1, busy_us: 77 };
        let racer = RaceWorkerTally { conflicts: 9, imported: 2, exported: 1 };
        vec![
            EventKind::SpanOpen { scope: Scope::Cell, name: "c1908 \"q\"\n\tx\\y".into() },
            EventKind::SpanClose { scope: Scope::Search, name: "anneal".into(), dur_us: 12 },
            EventKind::PoolJob { worker: 1, job: 3, stolen: true, start_us: 5, dur_us: 9 },
            EventKind::PoolBatch { jobs: 4, workers: 2, per_worker: vec![WorkerTally::default(), worker] },
            EventKind::PoolBatch { jobs: 0, workers: 0, per_worker: Vec::new() },
            EventKind::SolverProgress {
                conflicts: 3, decisions: 1, propagations: 2, restarts: 4,
                d_conflicts: 7, d_decisions: 5, d_propagations: 6, d_restarts: 8,
            },
            EventKind::BudgetExhausted { engine: "key_miter", budget: 2000, conflicts: 2100, cause: "cancelled" },
            EventKind::PortfolioRace {
                engine: "key_miter", workers: 2, winner: 1, dur_us: 512, cancel_us: 33,
                per_worker: vec![RaceWorkerTally::default(), racer],
            },
            EventKind::PortfolioRace {
                engine: "double_dip_miter", workers: 0, winner: 0, dur_us: 0, cancel_us: 0,
                per_worker: Vec::new(),
            },
            EventKind::SearchStep {
                step: 0, candidates: 3, current: 0.25, best: f64::NAN, accepted: false,
                d_hits: 1, d_misses: 2, d_evictions: 3, live_nodes: 4,
            },
            EventKind::SearchStep {
                step: 1, candidates: 2, current: f64::INFINITY, best: f64::NEG_INFINITY, accepted: true,
                d_hits: 0, d_misses: 0, d_evictions: 0, live_nodes: 0,
            },
            EventKind::TrainEpoch { epoch: 2, loss: 1.5e-7, wall_us: 100, tape_ops: 10, tape_allocs: 0 },
            EventKind::TrainEpoch { epoch: 3, loss: f64::NAN, wall_us: 1, tape_ops: 0, tape_allocs: 1 },
            EventKind::TrainEpoch { epoch: 4, loss: f64::INFINITY, wall_us: 0, tape_ops: 0, tape_allocs: 0 },
            EventKind::TrainEpoch { epoch: 5, loss: f64::NEG_INFINITY, wall_us: 0, tape_ops: 0, tape_allocs: 0 },
            EventKind::OracleCompile { ands: 640, instructions: 640, registers: 682, wall_us: 85 },
            EventKind::FraigPass {
                classes: 40, proved: 12, cut_proved: 4, refuted: 5, skipped: 1, merges: 12, constants: 2,
                escalations: 1, sat_calls: 18, sim_words_added: 5, ands_before: 300, ands_after: 250,
                wall_us: 1234,
            },
            EventKind::CellDone { label: "c432 k=8\t\"x\"\\".into() },
            EventKind::Message { text: "line\nnext\r\u{1}".into() },
        ]
    }

    /// The exact JSONL line of every [`golden_kinds`] event at
    /// `t_us = 1234`, `thread = 7`.
    const GOLDEN_LINES: &[&str] = &[
        r#"{"t_us":1234,"thread":7,"kind":"span_open","scope":"cell","name":"c1908 \"q\"\n\tx\\y"}"#,
        r#"{"t_us":1234,"thread":7,"kind":"span_close","scope":"search","name":"anneal","dur_us":12}"#,
        r#"{"t_us":1234,"thread":7,"kind":"pool_job","worker":1,"job":3,"stolen":true,"start_us":5,"dur_us":9}"#,
        r#"{"t_us":1234,"thread":7,"kind":"pool_batch","jobs":4,"workers":2,"per_worker":[{"executed":0,"stolen":0,"busy_us":0},{"executed":2,"stolen":1,"busy_us":77}]}"#,
        r#"{"t_us":1234,"thread":7,"kind":"pool_batch","jobs":0,"workers":0,"per_worker":[]}"#,
        r#"{"t_us":1234,"thread":7,"kind":"solver_progress","conflicts":3,"decisions":1,"propagations":2,"restarts":4,"d_conflicts":7,"d_decisions":5,"d_propagations":6,"d_restarts":8}"#,
        r#"{"t_us":1234,"thread":7,"kind":"budget_exhausted","engine":"key_miter","budget":2000,"conflicts":2100,"cause":"cancelled"}"#,
        r#"{"t_us":1234,"thread":7,"kind":"portfolio_race","engine":"key_miter","workers":2,"winner":1,"dur_us":512,"cancel_us":33,"per_worker":[{"conflicts":0,"imported":0,"exported":0},{"conflicts":9,"imported":2,"exported":1}]}"#,
        r#"{"t_us":1234,"thread":7,"kind":"portfolio_race","engine":"double_dip_miter","workers":0,"winner":0,"dur_us":0,"cancel_us":0,"per_worker":[]}"#,
        r#"{"t_us":1234,"thread":7,"kind":"search_step","step":0,"candidates":3,"current":0.25,"best":0,"accepted":false,"d_hits":1,"d_misses":2,"d_evictions":3,"live_nodes":4}"#,
        r#"{"t_us":1234,"thread":7,"kind":"search_step","step":1,"candidates":2,"current":1e308,"best":-1e308,"accepted":true,"d_hits":0,"d_misses":0,"d_evictions":0,"live_nodes":0}"#,
        r#"{"t_us":1234,"thread":7,"kind":"train_epoch","epoch":2,"loss":0.00000015,"wall_us":100,"tape_ops":10,"tape_allocs":0}"#,
        r#"{"t_us":1234,"thread":7,"kind":"train_epoch","epoch":3,"loss":0,"wall_us":1,"tape_ops":0,"tape_allocs":1}"#,
        r#"{"t_us":1234,"thread":7,"kind":"train_epoch","epoch":4,"loss":1e308,"wall_us":0,"tape_ops":0,"tape_allocs":0}"#,
        r#"{"t_us":1234,"thread":7,"kind":"train_epoch","epoch":5,"loss":-1e308,"wall_us":0,"tape_ops":0,"tape_allocs":0}"#,
        r#"{"t_us":1234,"thread":7,"kind":"oracle_compile","ands":640,"instructions":640,"registers":682,"wall_us":85}"#,
        r#"{"t_us":1234,"thread":7,"kind":"fraig_pass","classes":40,"proved":12,"cut_proved":4,"refuted":5,"skipped":1,"merges":12,"constants":2,"escalations":1,"sat_calls":18,"sim_words_added":5,"ands_before":300,"ands_after":250,"wall_us":1234}"#,
        r#"{"t_us":1234,"thread":7,"kind":"cell_done","label":"c432 k=8\t\"x\"\\"}"#,
        r#"{"t_us":1234,"thread":7,"kind":"message","text":"line\nnext\r\u0001"}"#,
    ];

    #[test]
    fn jsonl_lines_match_the_golden_schema() {
        let kinds = golden_kinds();
        assert_eq!(kinds.len(), GOLDEN_LINES.len());
        for (kind, want) in kinds.into_iter().zip(GOLDEN_LINES) {
            let line = Event {
                t_us: 1234,
                thread: 7,
                kind,
            }
            .to_jsonl();
            assert_eq!(line, *want);
            json::parse(&line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        }
    }

    #[test]
    fn levels_split_progress_from_trace() {
        assert_eq!(
            EventKind::Message { text: "x".into() }.level(),
            Level::Progress
        );
        assert_eq!(
            EventKind::SpanOpen {
                scope: Scope::Pool,
                name: "b".into()
            }
            .level(),
            Level::Trace
        );
    }
}
