//! The public solver façade: named engine configurations matching every
//! system compared in the paper's evaluation, behind one [`Synthesizer`]
//! trait the experiment harness drives uniformly.
//!
//! The single entry point is [`Synthesizer::solve`], which takes a
//! [`SolveRequest`] (problem + [`Budget`] + [`SolveOptions`]) and returns
//! a [`SolveReport`] bundling the outcome, run statistics, the
//! machine-readable [`RunReport`], and the certification verdict. The
//! historical `solve_problem` / `solve_governed_problem` /
//! `solve_with_stats` / `solve_governed` shims and the `SygusSolver` trait
//! alias were removed at the 0.2 milestone after a deprecation cycle.

use crate::runtime::{Budget, EngineFault};
use crate::{
    certify_solution, strengthen_with_summary, BaselineConfig, BottomUpBackend, CegqiSolver,
    CoopStats, CooperativeSolver, DeductionConfig, DivideConfig, Divider, FixedHeightBackend,
    FixedHeightConfig, HoudiniInvSolver, ParallelHeightBackend, RunReport, SynthOutcome,
};
use enum_synth::{BottomUpConfig, BottomUpSolver, SynthStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sygus_ast::Problem;

/// Options modifying one solve run beyond its budget.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Re-validate a solved answer end to end (grammar membership, sort
    /// check, independent SMT verification) before reporting it. The
    /// verdict lands in [`SolveReport::certified`] and certification
    /// failures are recorded as `certify` faults in the statistics.
    pub certify: bool,
    /// Wall-clock window for the certification pass, which runs on a fresh
    /// budget so a run that solved near its deadline can still be checked.
    /// `None` certifies without a deadline.
    pub certify_timeout: Option<Duration>,
    /// The problem source (file path or benchmark name) recorded in the
    /// run report.
    pub source: String,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            certify: false,
            certify_timeout: None,
            source: "<memory>".to_owned(),
        }
    }
}

/// A fully-specified solve request: the problem, the [`Budget`] governing
/// the run (deadline, fuel, cancellation, and the observability
/// [`Tracer`](sygus_ast::Tracer) riding on it), and the [`SolveOptions`].
///
/// # Examples
///
/// ```
/// use dryadsynth::{DryadSynth, SolveRequest, Synthesizer, SynthOutcome};
/// use std::time::Duration;
/// use sygus_parser::parse_problem;
/// let p = parse_problem(
///     "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
///      (constraint (= (f x) (+ x 1)))(check-synth)",
/// ).unwrap();
/// let request = SolveRequest::new(&p).with_timeout(Duration::from_secs(20));
/// match DryadSynth::default().solve(&request).outcome {
///     SynthOutcome::Solved(t) => assert_eq!(t.to_string(), "(+ x 1)"),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SolveRequest<'p> {
    /// The SyGuS problem to solve.
    pub problem: &'p Problem,
    /// The resource governor for the run.
    pub budget: Budget,
    /// Per-run options.
    pub options: SolveOptions,
}

impl<'p> SolveRequest<'p> {
    /// A request with an unlimited budget and default options.
    pub fn new(problem: &'p Problem) -> SolveRequest<'p> {
        SolveRequest {
            problem,
            budget: Budget::unlimited(),
            options: SolveOptions::default(),
        }
    }

    /// Replaces the budget (builder style).
    pub fn with_budget(mut self, budget: Budget) -> SolveRequest<'p> {
        self.budget = budget;
        self
    }

    /// Replaces the budget with a plain wall-clock deadline.
    pub fn with_timeout(self, timeout: Duration) -> SolveRequest<'p> {
        self.with_budget(Budget::from_timeout(timeout))
    }

    /// Enables end-to-end certification of solved answers, optionally
    /// bounded by a fresh wall-clock window.
    pub fn certified(mut self, certify_timeout: Option<Duration>) -> SolveRequest<'p> {
        self.options.certify = true;
        self.options.certify_timeout = certify_timeout;
        self
    }

    /// Records the problem source for the run report.
    pub fn with_source(mut self, source: impl Into<String>) -> SolveRequest<'p> {
        self.options.source = source.into();
        self
    }
}

/// Everything a finished solve run produced.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The run outcome.
    pub outcome: SynthOutcome,
    /// Cooperative run statistics (budget-telemetry-only for baselines),
    /// including any `certify` fault appended by certification.
    pub stats: CoopStats,
    /// The versioned machine-readable run report (the `--json` payload).
    pub report: RunReport,
    /// The certification verdict: `None` when certification was not
    /// requested or the run produced no solution.
    pub certified: Option<bool>,
    /// Wall-clock seconds spent solving (certification time excluded).
    pub seconds: f64,
}

/// A uniform interface over every solver in the evaluation.
pub trait Synthesizer: Send + Sync {
    /// The solver's display name (used in the figures).
    fn name(&self) -> &'static str;

    /// Attempts the request's problem under its budget and options.
    fn solve(&self, request: &SolveRequest<'_>) -> SolveReport;
}

/// Shared tail of every [`Synthesizer::solve`] implementation: runs the
/// optional certification pass (on a fresh budget window, metrics recorded
/// on the run's tracer) and assembles the [`SolveReport`] with its
/// [`RunReport`]. `seconds` is measured before certification so solve and
/// certification times stay separable.
fn finish_solve(
    name: &str,
    request: &SolveRequest<'_>,
    outcome: SynthOutcome,
    mut stats: CoopStats,
    started: Instant,
) -> SolveReport {
    let seconds = started.elapsed().as_secs_f64();
    let tracer = request.budget.tracer().clone();
    let mut certified: Option<bool> = None;
    if request.options.certify {
        if let SynthOutcome::Solved(body) = &outcome {
            let cert_budget = match request.options.certify_timeout {
                Some(window) => Budget::from_timeout(window),
                None => Budget::unlimited(),
            }
            .with_tracer(tracer.clone());
            let cert = certify_solution(request.problem, body, Some(&cert_budget));
            certified = Some(cert.certified());
            if let Some(why) = cert.failure_reason() {
                stats.faults.push(EngineFault {
                    stage: "certify",
                    node: 0,
                    message: why,
                });
            }
        }
    }
    // Interner gauges ride every report (batch `--json` and bench runs),
    // matching the daemon's `stats` view of the same memory.
    let interner = sygus_ast::interner_stats();
    let metrics = tracer.metrics();
    metrics.set("interner.symbols", interner.symbols as u64);
    metrics.set("interner.bytes", interner.bytes as u64);
    let report = RunReport::new(
        name,
        request.options.source.clone(),
        outcome.clone(),
        seconds,
        stats.clone(),
        &tracer,
    )
    .with_certified(certified);
    SolveReport {
        outcome,
        stats,
        report,
        certified,
        seconds,
    }
}

/// Statistics for a governed baseline run: only the budget's telemetry
/// counters are populated.
fn governed_stats(budget: &Budget) -> CoopStats {
    CoopStats {
        smt_queries: budget.smt_queries(),
        fuel_spent: budget.fuel_spent(),
        ..CoopStats::default()
    }
}

/// Which engine configuration to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Full cooperative synthesis (the paper's DryadSynth).
    Cooperative,
    /// Plain height-based enumeration (Algorithm 2 alone; Figure 14).
    HeightEnumOnly,
    /// Plain deduction (Algorithm 3 alone; Figure 15).
    DeductionOnly,
    /// Cooperative with the bottom-up enumerator as backend (Figure 16).
    BottomUpBacked,
}

/// Top-level DryadSynth configuration.
#[derive(Clone, Debug)]
pub struct DryadSynthConfig {
    /// The engine variant.
    pub engine: Engine,
    /// Maximum decision-tree height explored by the enumeration backend.
    pub max_height: usize,
    /// Worker threads for the parallel height search (1 = sequential).
    pub threads: usize,
    /// Maximum subproblem-graph nodes.
    pub max_nodes: usize,
    /// Whether invariant problems are strengthened with the loop summary
    /// (Section 6's `fast-trans` reduction) when recognizable.
    pub loop_summarization: bool,
    /// Optional fuel cap: the run stops with
    /// [`SynthOutcome::ResourceExhausted`] after this many governed engine
    /// steps (CEGIS rounds, enumeration layers, deduction passes), even if
    /// wall-clock time remains.
    pub fuel: Option<u64>,
}

impl Default for DryadSynthConfig {
    fn default() -> DryadSynthConfig {
        // Parallel height search only helps with real cores; on a
        // single-CPU host the extra worker doubles the work instead.
        let threads = std::thread::available_parallelism()
            .map(|n| n.get().min(2))
            .unwrap_or(1);
        DryadSynthConfig {
            engine: Engine::Cooperative,
            max_height: 5,
            threads,
            max_nodes: 48,
            loop_summarization: true,
            fuel: None,
        }
    }
}

/// The DryadSynth solver façade.
///
/// # Examples
///
/// ```
/// use dryadsynth::{DryadSynth, SolveRequest, Synthesizer, SynthOutcome};
/// use std::time::Duration;
/// use sygus_parser::parse_problem;
/// let p = parse_problem(
///     "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
///      (constraint (= (f x) (+ x 1)))(check-synth)",
/// ).unwrap();
/// let solver = DryadSynth::default();
/// let request = SolveRequest::new(&p).with_timeout(Duration::from_secs(20));
/// match solver.solve(&request).outcome {
///     SynthOutcome::Solved(t) => assert_eq!(t.to_string(), "(+ x 1)"),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DryadSynth {
    config: DryadSynthConfig,
}

impl DryadSynth {
    /// Creates the solver with a configuration.
    pub fn new(config: DryadSynthConfig) -> DryadSynth {
        DryadSynth { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DryadSynthConfig {
        &self.config
    }

    /// The engine proper: solves under an explicit [`Budget`] (with the
    /// configured fuel cap applied), the single governor shared by every
    /// engine layer (deduction, division, enumeration, SMT).
    fn run_governed(&self, problem: &Problem, budget: Budget) -> (SynthOutcome, CoopStats) {
        let budget = match self.config.fuel {
            Some(fuel) => budget.with_fuel(fuel),
            None => budget,
        };
        let mut problem = problem.clone();
        if self.config.loop_summarization && self.config.engine != Engine::HeightEnumOnly {
            strengthen_with_summary(&mut problem);
        }
        let fh = FixedHeightConfig {
            budget: budget.clone(),
            ..FixedHeightConfig::default()
        };
        let backend: Arc<dyn crate::EnumBackend> = match self.config.engine {
            Engine::BottomUpBacked => {
                Arc::new(BottomUpBackend::new(BottomUpConfig::default()).with_budget(budget.clone()))
            }
            _ if self.config.threads > 1 => Arc::new(ParallelHeightBackend::new(
                fh,
                self.config.max_height,
                self.config.threads,
            )),
            _ => Arc::new(FixedHeightBackend::new(fh, self.config.max_height)),
        };
        let solver = CooperativeSolver::new(
            DeductionConfig {
                budget: budget.clone(),
            },
            Divider::new(DivideConfig {
                budget: budget.clone(),
                ..DivideConfig::default()
            }),
            backend,
            budget.clone(),
        )
        .with_max_nodes(self.config.max_nodes);
        let solver = match self.config.engine {
            Engine::HeightEnumOnly => solver.enumeration_only(),
            Engine::DeductionOnly => solver.deduction_only(),
            _ => solver,
        };
        let (outcome, stats) = solver.solve_with_stats(&problem);
        // Semantic post-simplification (best-effort, budget-bounded);
        // keep the result only when it still verifies and stays in grammar.
        let outcome = match outcome {
            SynthOutcome::Solved(body) => {
                let slim = crate::simplify_solution(
                    &body,
                    &crate::SimplifyConfig {
                        budget: budget.clone(),
                    },
                );
                if slim.size() < body.size()
                    && problem.grammar_admits(&slim)
                    && crate::verify_solution(&problem, &slim, Some(&budget))
                {
                    SynthOutcome::Solved(slim)
                } else {
                    SynthOutcome::Solved(body)
                }
            }
            other => other,
        };
        (outcome, stats)
    }
}

impl Synthesizer for DryadSynth {
    fn name(&self) -> &'static str {
        match self.config.engine {
            Engine::Cooperative => "DryadSynth",
            Engine::HeightEnumOnly => "HeightEnum",
            Engine::DeductionOnly => "Deduction",
            Engine::BottomUpBacked => "DryadSynth-EUSolver-backed",
        }
    }

    fn solve(&self, request: &SolveRequest<'_>) -> SolveReport {
        let started = Instant::now();
        let (outcome, stats) = self.run_governed(request.problem, request.budget.clone());
        finish_solve(self.name(), request, outcome, stats, started)
    }
}

/// The EUSolver comparison point as a [`Synthesizer`].
#[derive(Clone, Debug, Default)]
pub struct EuSolverBaseline;

impl Synthesizer for EuSolverBaseline {
    fn name(&self) -> &'static str {
        "EUSolver"
    }

    fn solve(&self, request: &SolveRequest<'_>) -> SolveReport {
        let started = Instant::now();
        let cfg = BottomUpConfig {
            budget: request.budget.clone(),
            ..BottomUpConfig::default()
        };
        let outcome = match BottomUpSolver::new(cfg).solve(request.problem) {
            SynthStatus::Solved(t) => SynthOutcome::Solved(t),
            SynthStatus::Timeout => SynthOutcome::Timeout,
            SynthStatus::Exhausted => SynthOutcome::GaveUp("exhausted".into()),
            SynthStatus::Failed(m) => SynthOutcome::GaveUp(m),
        };
        let stats = governed_stats(&request.budget);
        finish_solve(self.name(), request, outcome, stats, started)
    }
}

/// The CVC4 comparison point as a [`Synthesizer`].
#[derive(Clone, Debug, Default)]
pub struct Cvc4Baseline;

impl Synthesizer for Cvc4Baseline {
    fn name(&self) -> &'static str {
        "CVC4"
    }

    fn solve(&self, request: &SolveRequest<'_>) -> SolveReport {
        let started = Instant::now();
        let outcome = CegqiSolver::new(BaselineConfig {
            budget: request.budget.clone(),
        })
        .solve(request.problem);
        let stats = governed_stats(&request.budget);
        finish_solve(self.name(), request, outcome, stats, started)
    }
}

/// The LoopInvGen comparison point as a [`Synthesizer`].
#[derive(Clone, Debug, Default)]
pub struct LoopInvGenBaseline;

impl Synthesizer for LoopInvGenBaseline {
    fn name(&self) -> &'static str {
        "LoopInvGen"
    }

    fn solve(&self, request: &SolveRequest<'_>) -> SolveReport {
        let started = Instant::now();
        let outcome = HoudiniInvSolver::new(BaselineConfig {
            budget: request.budget.clone(),
        })
        .solve(request.problem);
        let stats = governed_stats(&request.budget);
        finish_solve(self.name(), request, outcome, stats, started)
    }
}

/// All solvers of the paper's main comparison (Figures 10–13), in display
/// order.
pub fn competition_solvers() -> Vec<Box<dyn Synthesizer>> {
    vec![
        Box::new(DryadSynth::default()),
        Box::new(Cvc4Baseline),
        Box::new(EuSolverBaseline),
        Box::new(LoopInvGenBaseline),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_solution;
    use sygus_parser::parse_problem;

    const MAX2: &str = "(set-logic LIA)(synth-fun max2 ((x Int) (y Int)) Int)\
        (declare-var x Int)(declare-var y Int)\
        (constraint (>= (max2 x y) x))(constraint (>= (max2 x y) y))\
        (constraint (or (= (max2 x y) x) (= (max2 x y) y)))(check-synth)";

    fn timed<'p>(p: &'p Problem, secs: u64) -> SolveRequest<'p> {
        SolveRequest::new(p).with_timeout(Duration::from_secs(secs))
    }

    #[test]
    fn all_engines_solve_max2() {
        let p = parse_problem(MAX2).unwrap();
        for engine in [
            Engine::Cooperative,
            Engine::HeightEnumOnly,
            Engine::DeductionOnly,
            Engine::BottomUpBacked,
        ] {
            let solver = DryadSynth::new(DryadSynthConfig {
                engine,
                threads: 1,
                ..DryadSynthConfig::default()
            });
            match solver.solve(&timed(&p, 30)).outcome {
                SynthOutcome::Solved(t) => {
                    assert!(verify_solution(&p, &t, None), "{engine:?}: bad {t}");
                }
                other => panic!("{engine:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn competition_lineup() {
        let solvers = competition_solvers();
        let names: Vec<&str> = solvers.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["DryadSynth", "CVC4", "EUSolver", "LoopInvGen"]);
    }

    #[test]
    fn loopinvgen_only_does_inv() {
        let p = parse_problem(MAX2).unwrap();
        assert!(matches!(
            LoopInvGenBaseline.solve(&timed(&p, 5)).outcome,
            SynthOutcome::GaveUp(_)
        ));
    }

    #[test]
    fn fuel_cap_reports_resource_exhaustion() {
        let p = parse_problem(MAX2).unwrap();
        let solver = DryadSynth::new(DryadSynthConfig {
            threads: 1,
            fuel: Some(1),
            ..DryadSynthConfig::default()
        });
        match solver.solve(&timed(&p, 30)).outcome {
            SynthOutcome::ResourceExhausted(_) => {}
            other => panic!("expected fuel exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn parallel_engine_solves() {
        let p = parse_problem(MAX2).unwrap();
        let solver = DryadSynth::new(DryadSynthConfig {
            threads: 3,
            ..DryadSynthConfig::default()
        });
        match solver.solve(&timed(&p, 30)).outcome {
            SynthOutcome::Solved(t) => assert!(verify_solution(&p, &t, None)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn solve_report_carries_run_report_and_certification() {
        let p = parse_problem(MAX2).unwrap();
        let solver = DryadSynth::new(DryadSynthConfig {
            threads: 1,
            ..DryadSynthConfig::default()
        });
        let request = timed(&p, 30)
            .certified(Some(Duration::from_secs(30)))
            .with_source("max2.sl");
        let report = solver.solve(&request);
        assert!(matches!(report.outcome, SynthOutcome::Solved(_)));
        assert_eq!(report.certified, Some(true));
        assert_eq!(report.report.source, "max2.sl");
        assert_eq!(report.report.solver, "DryadSynth");
        assert_eq!(report.report.certified, Some(true));
        assert!(report.seconds >= 0.0);
    }

    #[test]
    fn reports_carry_interner_gauges() {
        let p = parse_problem(MAX2).unwrap();
        let solver = DryadSynth::new(DryadSynthConfig {
            threads: 1,
            ..DryadSynthConfig::default()
        });
        let report = solver.solve(&timed(&p, 30));
        let json = report.report.to_json();
        let counters = json.get("metrics").and_then(|m| m.get("counters"));
        let gauge = |name: &str| {
            counters
                .and_then(|c| c.get(name))
                .and_then(sygus_ast::Json::as_i64)
        };
        assert!(gauge("interner.symbols").is_some_and(|n| n > 0));
        assert!(gauge("interner.bytes").is_some_and(|n| n > 0));
    }
}
