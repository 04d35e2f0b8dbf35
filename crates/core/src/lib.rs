//! `dryadsynth`: the cooperative SyGuS solver of *Reconciling Enumerative
//! and Deductive Program Synthesis* (PLDI 2020), reimplemented in Rust.

#![warn(missing_docs)]

mod baselines;
mod certify;
mod cooperative;
pub mod daemon;
mod deduction;
mod divide;
mod encode_clia;
mod encode_general;
mod fixed_height;
mod invariant;
pub mod observe;
mod parallel;
pub mod progress;
pub mod runtime;
mod simplify_solution;
mod solver;

/// The `dryadsynthd` wire protocol as a stable public surface.
///
/// Clients that embed the solver and talk to a remote daemon need the
/// request/response types without reaching through the [`daemon`] service
/// internals, so the protocol module is re-exported here under a short,
/// documented path. Every request and terminal response round-trips
/// through its JSON line form:
///
/// ```
/// use dryadsynth::proto::{Request, Response, SolveJob};
///
/// let req = Request::Solve(SolveJob {
///     id: "r1".into(),
///     sygus: "(set-logic LIA)".into(),
///     timeout_ms: Some(5000),
///     engine: Some("coop".into()),
///     certify: true,
/// });
/// let line = req.to_json().to_string();
/// assert_eq!(Request::parse(&line).unwrap(), req);
///
/// let resp_line = r#"{"id":"r1","outcome":"timeout"}"#;
/// let resp = Response::parse(resp_line).unwrap();
/// assert_eq!(resp.id(), Some("r1"));
/// assert_eq!(Response::parse(&resp.to_json().to_string()).unwrap(), resp);
/// ```
pub mod proto {
    pub use crate::daemon::protocol::{
        DrainSummary, LatencyBankStats, LatencyLine, OutcomeResponse, Request, Response,
        SolveJob, StatsLite, StatsReply, DAEMON_VERSION,
    };
}

pub use baselines::{BaselineConfig, CegqiSolver, HoudiniInvSolver};
pub use certify::{certify_solution, Certificate, SpecVerdict};
pub use cooperative::{CoopStats, CooperativeSolver, SynthOutcome};
pub use deduction::{match_into_grammar, Deduced, DeductOutcome, DeductionConfig, DeductiveEngine};
pub use divide::{verify_solution, DivideConfig, Divider, Division, TypeBOutcome, TypeBRecipe};
pub use encode_clia::{tree_nodes, CliaTreeEncoding};
pub use encode_general::GeneralEncoding;
pub use fixed_height::{
    default_examples, ExamplePool, FixedHeightConfig, FixedHeightResult, FixedHeightSolver,
};
pub use invariant::{
    fast_trans, recognize_translation, strengthen_with_summary, summarize, Translation,
};
pub use observe::{
    dot_graph, outcome_label, parse_trace, search_log, span_profile, trace_jsonl, PathStat,
    Rendering, RunReport, SinkGuard, REPORT_VERSION,
};
pub use parallel::{BottomUpBackend, EnumBackend, FixedHeightBackend, ParallelHeightBackend};
pub use progress::{Watchdog, WatchdogConfig};
pub use runtime::{Budget, BudgetError, EngineFault};
pub use simplify_solution::{simplify_solution, SimplifyConfig};
pub use solver::{
    competition_solvers, Cvc4Baseline, DryadSynth, DryadSynthConfig, Engine, EuSolverBaseline,
    LoopInvGenBaseline, SolveOptions, SolveReport, SolveRequest, Synthesizer,
};
