//! The typed event vocabulary.
//!
//! Events are the one currency every sink understands. The vocabulary is
//! deliberately closed (an enum, not a string bag): each instrumented
//! layer — pool, solver, search engine, trainer, harness — emits its own
//! typed variant, carrying **deltas** for cumulative counters so
//! aggregation is a plain sum even when many solver or engine instances
//! run concurrently. Every event is stamped with the monotonic process
//! clock and the emitting thread's ordinal at construction.

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

/// Solver effort counters carried by [`EventKind::SolverProgress`].
/// Mirrors `almost_sat::SolverStats` field-for-field — the solver
/// converts, telemetry does not depend on the solver crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Decision-literal picks.
    pub decisions: u64,
    /// Literals propagated off the trail.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Synthesis-cache counter deltas carried by [`EventKind::SearchStep`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheDelta {
    /// Trie hits since the previous step.
    pub hits: u64,
    /// Trie misses since the previous step.
    pub misses: u64,
    /// Trie evictions since the previous step.
    pub evictions: u64,
    /// Live cached intermediates after the step (a gauge, not a delta).
    pub live_nodes: u64,
}

/// One pool worker's tally over a whole `map_indexed` batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerTally {
    /// Jobs this worker executed (own-queue pops plus steals).
    pub executed: u32,
    /// Of those, jobs stolen from a sibling's queue.
    pub stolen: u32,
    /// Microseconds spent executing jobs (idle/steal-probing excluded).
    pub busy_us: u64,
}

/// One portfolio worker's tally over a single race, carried by
/// [`EventKind::PortfolioRace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RaceWorkerTally {
    /// Conflicts this worker spent on the raced query.
    pub conflicts: u64,
    /// Glue clauses this worker imported from siblings during the query.
    pub imported: u64,
    /// Glue clauses this worker published for siblings during the query.
    pub exported: u64,
}

/// The typed event payloads. See the module docs for the delta convention.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A hierarchical span opened on this thread.
    SpanOpen {
        /// Hierarchy level.
        scope: Scope,
        /// Human-readable span name.
        name: String,
    },
    /// The matching close (same thread, `dur_us` after the open).
    SpanClose {
        /// Hierarchy level.
        scope: Scope,
        /// Human-readable span name.
        name: String,
        /// Span duration in microseconds.
        dur_us: u64,
    },
    /// One executed pool job (emitted by the worker as the job finishes).
    PoolJob {
        /// Executing worker index (stable within a batch: 0..workers).
        worker: u32,
        /// Job index in submission order.
        job: u32,
        /// True when the job was stolen from a sibling's queue.
        stolen: bool,
        /// Job start, microseconds since the process epoch.
        start_us: u64,
        /// Job duration in microseconds.
        dur_us: u64,
    },
    /// End-of-batch pool summary (emitted by the calling thread).
    PoolBatch {
        /// Jobs in the batch.
        jobs: u32,
        /// Workers that ran it.
        workers: u32,
        /// Per-worker tallies, indexed by worker id.
        per_worker: Vec<WorkerTally>,
    },
    /// Periodic solver heartbeat (every few thousand conflicts).
    SolverProgress {
        /// Cumulative counters of this solver instance.
        total: SolverCounters,
        /// Counters since this instance's previous heartbeat.
        delta: SolverCounters,
    },
    /// A conflict-budgeted query came back without a verdict.
    BudgetExhausted {
        /// Which engine: `"key_miter"` or `"double_dip_miter"`.
        engine: &'static str,
        /// The per-query conflict budget in force.
        budget: u64,
        /// The solver's cumulative conflicts at the early return.
        conflicts: u64,
        /// Why the query stopped: `"budget"` when the conflict budget ran
        /// out, `"cancelled"` when a portfolio stop flag interrupted it —
        /// so traces don't misreport races as effort blowups.
        cause: &'static str,
    },
    /// One portfolio race over a miter query (emitted by the winner's
    /// caller once every worker has parked).
    PortfolioRace {
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
        per_worker: Vec<RaceWorkerTally>,
    },
    /// One temperature step of the batched search engine.
    SearchStep {
        /// Step index (0-based).
        step: u32,
        /// Candidates proposed and scored this step.
        candidates: u32,
        /// Objective of the current state after the step.
        current: f64,
        /// Best objective seen so far.
        best: f64,
        /// Whether any candidate was accepted this step.
        accepted: bool,
        /// Synthesis-cache deltas over the step.
        cache: CacheDelta,
    },
    /// One training epoch.
    TrainEpoch {
        /// Epoch index (0-based).
        epoch: u32,
        /// Mean training loss of the epoch.
        loss: f64,
        /// Epoch wall time in microseconds.
        wall_us: u64,
        /// Tape nodes recorded this epoch (delta).
        tape_ops: u64,
        /// Fresh tape buffers allocated this epoch (delta; 0 after warm-up).
        tape_allocs: u64,
    },
    /// An oracle netlist was compiled to the batch instruction buffer.
    OracleCompile {
        /// AND nodes in the source netlist.
        ands: u64,
        /// Instructions emitted (one per AND node).
        instructions: u64,
        /// Register-file size of the compiled program.
        registers: u64,
        /// Compile wall time in microseconds.
        wall_us: u64,
    },
    /// One fraig / SAT-sweeping pass over a netlist completed.
    FraigPass {
        /// Candidate equivalence classes formed (signature
        /// representatives, excluding the constant class).
        classes: u64,
        /// Candidate pairs proved equivalent (UNSAT verdicts).
        proved: u64,
        /// Candidate pairs refuted (a counterexample was found).
        refuted: u64,
        /// Candidate pairs skipped on budget exhaustion.
        skipped: u64,
        /// Nodes merged into a representative.
        merges: u64,
        /// Merges whose representative is a constant.
        constants: u64,
        /// Budget-exhausted queries re-run on a portfolio solver.
        escalations: u64,
        /// Total SAT queries posed.
        sat_calls: u64,
        /// Counterexample feedback words appended to the sim vectors.
        sim_words_added: u64,
        /// AND nodes before the sweep.
        ands_before: u64,
        /// AND nodes after the sweep.
        ands_after: u64,
        /// Sweep wall time in microseconds.
        wall_us: u64,
    },
    /// A harness cell finished (the streamed liveness marker).
    CellDone {
        /// Cell label, e.g. `"c1908 k=32"`.
        label: String,
    },
    /// A human progress line (rendered verbatim by the stderr sink).
    Message {
        /// The line, without trailing newline.
        text: String,
    },
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

    /// The event's level (progress vs trace).
    pub fn level(&self) -> Level {
        match self.kind {
            EventKind::CellDone { .. } | EventKind::Message { .. } => Level::Progress,
            _ => Level::Trace,
        }
    }

    /// One line of the JSONL schema (no trailing newline).
    ///
    /// Every line is an object with `t_us`, `thread` and `kind`; the
    /// remaining fields depend on `kind` (see the README's Observability
    /// section for the full schema).
    pub fn to_jsonl(&self) -> String {
        let mut s = format!("{{\"t_us\":{},\"thread\":{},", self.t_us, self.thread);
        match &self.kind {
            EventKind::SpanOpen { scope, name } => {
                let _ = write!(
                    s,
                    "\"kind\":\"span_open\",\"scope\":\"{}\",\"name\":\"{}\"",
                    scope.label(),
                    escape(name)
                );
            }
            EventKind::SpanClose {
                scope,
                name,
                dur_us,
            } => {
                let _ = write!(
                    s,
                    "\"kind\":\"span_close\",\"scope\":\"{}\",\"name\":\"{}\",\"dur_us\":{}",
                    scope.label(),
                    escape(name),
                    dur_us
                );
            }
            EventKind::PoolJob {
                worker,
                job,
                stolen,
                start_us,
                dur_us,
            } => {
                let _ = write!(
                    s,
                    "\"kind\":\"pool_job\",\"worker\":{worker},\"job\":{job},\"stolen\":{stolen},\
                     \"start_us\":{start_us},\"dur_us\":{dur_us}"
                );
            }
            EventKind::PoolBatch {
                jobs,
                workers,
                per_worker,
            } => {
                let _ = write!(s, "\"kind\":\"pool_batch\",\"jobs\":{jobs},\"workers\":{workers},\"per_worker\":[");
                for (i, w) in per_worker.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"executed\":{},\"stolen\":{},\"busy_us\":{}}}",
                        w.executed, w.stolen, w.busy_us
                    );
                }
                s.push(']');
            }
            EventKind::SolverProgress { total, delta } => {
                let _ = write!(
                    s,
                    "\"kind\":\"solver_progress\",\"conflicts\":{},\"decisions\":{},\
                     \"propagations\":{},\"restarts\":{},\"d_conflicts\":{},\"d_decisions\":{},\
                     \"d_propagations\":{},\"d_restarts\":{}",
                    total.conflicts,
                    total.decisions,
                    total.propagations,
                    total.restarts,
                    delta.conflicts,
                    delta.decisions,
                    delta.propagations,
                    delta.restarts
                );
            }
            EventKind::BudgetExhausted {
                engine,
                budget,
                conflicts,
                cause,
            } => {
                let _ = write!(
                    s,
                    "\"kind\":\"budget_exhausted\",\"engine\":\"{engine}\",\"budget\":{budget},\
                     \"conflicts\":{conflicts},\"cause\":\"{cause}\""
                );
            }
            EventKind::PortfolioRace {
                engine,
                workers,
                winner,
                dur_us,
                cancel_us,
                per_worker,
            } => {
                let _ = write!(
                    s,
                    "\"kind\":\"portfolio_race\",\"engine\":\"{engine}\",\"workers\":{workers},\
                     \"winner\":{winner},\"dur_us\":{dur_us},\"cancel_us\":{cancel_us},\
                     \"per_worker\":["
                );
                for (i, w) in per_worker.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"conflicts\":{},\"imported\":{},\"exported\":{}}}",
                        w.conflicts, w.imported, w.exported
                    );
                }
                s.push(']');
            }
            EventKind::SearchStep {
                step,
                candidates,
                current,
                best,
                accepted,
                cache,
            } => {
                let _ = write!(
                    s,
                    "\"kind\":\"search_step\",\"step\":{step},\"candidates\":{candidates},\
                     \"current\":{},\"best\":{},\"accepted\":{accepted},\"d_hits\":{},\
                     \"d_misses\":{},\"d_evictions\":{},\"live_nodes\":{}",
                    fmt_f64(*current),
                    fmt_f64(*best),
                    cache.hits,
                    cache.misses,
                    cache.evictions,
                    cache.live_nodes
                );
            }
            EventKind::TrainEpoch {
                epoch,
                loss,
                wall_us,
                tape_ops,
                tape_allocs,
            } => {
                let _ = write!(
                    s,
                    "\"kind\":\"train_epoch\",\"epoch\":{epoch},\"loss\":{},\"wall_us\":{wall_us},\
                     \"tape_ops\":{tape_ops},\"tape_allocs\":{tape_allocs}",
                    fmt_f64(*loss)
                );
            }
            EventKind::OracleCompile {
                ands,
                instructions,
                registers,
                wall_us,
            } => {
                let _ = write!(
                    s,
                    "\"kind\":\"oracle_compile\",\"ands\":{ands},\"instructions\":{instructions},\
                     \"registers\":{registers},\"wall_us\":{wall_us}"
                );
            }
            EventKind::FraigPass {
                classes,
                proved,
                refuted,
                skipped,
                merges,
                constants,
                escalations,
                sat_calls,
                sim_words_added,
                ands_before,
                ands_after,
                wall_us,
            } => {
                let _ = write!(
                    s,
                    "\"kind\":\"fraig_pass\",\"classes\":{classes},\"proved\":{proved},\
                     \"refuted\":{refuted},\"skipped\":{skipped},\"merges\":{merges},\
                     \"constants\":{constants},\"escalations\":{escalations},\
                     \"sat_calls\":{sat_calls},\"sim_words_added\":{sim_words_added},\
                     \"ands_before\":{ands_before},\"ands_after\":{ands_after},\
                     \"wall_us\":{wall_us}"
                );
            }
            EventKind::CellDone { label } => {
                let _ = write!(s, "\"kind\":\"cell_done\",\"label\":\"{}\"", escape(label));
            }
            EventKind::Message { text } => {
                let _ = write!(s, "\"kind\":\"message\",\"text\":\"{}\"", escape(text));
            }
        }
        s.push('}');
        s
    }
}

/// JSON-safe float formatting: finite values print normally, NaN and
/// infinities (which the emitters should never produce, but an objective
/// can in principle go non-finite) degrade to `null`-adjacent sentinels
/// that still parse as numbers.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x.is_nan() {
        "0".into()
    } else if x > 0.0 {
        "1e308".into()
    } else {
        "-1e308".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn every_variant_serialises_to_valid_json() {
        let kinds = vec![
            EventKind::SpanOpen {
                scope: Scope::Cell,
                name: "c1908 \"quoted\"".into(),
            },
            EventKind::SpanClose {
                scope: Scope::Search,
                name: "anneal".into(),
                dur_us: 12,
            },
            EventKind::PoolJob {
                worker: 1,
                job: 3,
                stolen: true,
                start_us: 5,
                dur_us: 9,
            },
            EventKind::PoolBatch {
                jobs: 4,
                workers: 2,
                per_worker: vec![
                    WorkerTally::default(),
                    WorkerTally {
                        executed: 2,
                        stolen: 1,
                        busy_us: 77,
                    },
                ],
            },
            EventKind::SolverProgress {
                total: SolverCounters {
                    decisions: 1,
                    propagations: 2,
                    conflicts: 3,
                    restarts: 4,
                },
                delta: SolverCounters::default(),
            },
            EventKind::BudgetExhausted {
                engine: "key_miter",
                budget: 2000,
                conflicts: 2100,
                cause: "budget",
            },
            EventKind::PortfolioRace {
                engine: "key_miter",
                workers: 4,
                winner: 2,
                dur_us: 512,
                cancel_us: 33,
                per_worker: vec![
                    RaceWorkerTally::default(),
                    RaceWorkerTally {
                        conflicts: 9,
                        imported: 2,
                        exported: 1,
                    },
                ],
            },
            EventKind::SearchStep {
                step: 0,
                candidates: 3,
                current: 0.25,
                best: f64::NAN,
                accepted: false,
                cache: CacheDelta::default(),
            },
            EventKind::TrainEpoch {
                epoch: 2,
                loss: 0.5,
                wall_us: 100,
                tape_ops: 10,
                tape_allocs: 0,
            },
            EventKind::OracleCompile {
                ands: 640,
                instructions: 640,
                registers: 682,
                wall_us: 85,
            },
            EventKind::FraigPass {
                classes: 40,
                proved: 12,
                refuted: 5,
                skipped: 1,
                merges: 12,
                constants: 2,
                escalations: 1,
                sat_calls: 18,
                sim_words_added: 5,
                ands_before: 300,
                ands_after: 250,
                wall_us: 1234,
            },
            EventKind::CellDone {
                label: "c432 k=8".into(),
            },
            EventKind::Message {
                text: "  [cache] hits 1".into(),
            },
        ];
        for kind in kinds {
            let line = Event::now(kind.clone()).to_jsonl();
            let parsed = json::parse(&line).unwrap_or_else(|e| panic!("{kind:?}: {e}\n{line}"));
            assert!(parsed.get("t_us").is_some(), "{line}");
            assert!(parsed.get("thread").is_some(), "{line}");
            assert!(
                parsed.get("kind").and_then(|k| k.as_str()).is_some(),
                "{line}"
            );
        }
    }

    #[test]
    fn levels_split_progress_from_trace() {
        assert_eq!(
            Event::now(EventKind::Message { text: "x".into() }).level(),
            Level::Progress
        );
        assert_eq!(
            Event::now(EventKind::SpanOpen {
                scope: Scope::Pool,
                name: "b".into()
            })
            .level(),
            Level::Trace
        );
    }
}
