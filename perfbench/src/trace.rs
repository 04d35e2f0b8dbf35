//! The traced run: replays the start of a workload with a span around
//! every call into a layer's public entry point, and derives the
//! per-layer metrics from those spans.
//!
//! Every call gets a fresh budget and a fresh metrics-only tracer, and its
//! span records that tracer's work counters when it closes, so SMT work is
//! attributed to the layer that asked for it. Spans stay in memory and are
//! written as JSONL when the run ends.

use crate::run::{self, metric as m, Answer, Done, Inputs, Judged, Metric, Report};
use crate::workloads::{self, Suite, Workload};
use dryadsynth::{
    certify_solution, default_examples, verify_solution, DeductOutcome, DeductionConfig,
    DeductiveEngine, DivideConfig, Divider, DryadSynth, FixedHeightConfig, FixedHeightResult,
    FixedHeightSolver, SolveRequest, SynthOutcome, Synthesizer,
};
use enum_synth::{EnumConfig, TermEnumerator};
use std::time::{Duration, Instant};
use sygus_ast::{Budget, Json, Problem, Stage, Term, Tracer};

/// Largest height the fixed-height probe tries, as the solver does.
const PROBE_HEIGHT: usize = 5;
/// Largest term size the enumeration probe builds, and its per-layer cap.
const PROBE_TERM_SIZE: usize = 7;
const PROBE_TERMS_PER_LAYER: usize = 2_000;

/// Limit of the fixed-height probe. Alone, the fixed-height engine runs
/// into its limit on most `deduce` problems, so it gets less time than a
/// request; this keeps a traced run near a minute. Its counters therefore
/// do not repeat exactly from run to run.
const FIXED_HEIGHT_LIMIT: Duration = Duration::from_millis(500);

/// Requests the traced run replays from the start of each workload's list:
/// three blocks, the whole `hard` list, or a third of the `certify` pairs.
fn replay_len(workload: Workload) -> usize {
    match workloads::block_len(workload) {
        Some(block) => 3 * block,
        None if workload == Workload::Hard => workloads::HARD.len(),
        None => 100,
    }
}

/// Counter prefixes a span keeps from its call's tracer.
const KEPT: [&str; 7] = [
    "search.",
    "smt.",
    "theory.",
    "cegis.rounds",
    "deduct.passes",
    "certify.",
    "probe.",
];

/// One timed call.
pub struct Span {
    pub req: usize,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub counters: Vec<(String, u64)>,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_us - self.start_us) as f64
    }

    fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("req", Json::from(self.req)),
            ("id", Json::from(self.id)),
            ("parent", self.parent.map_or(Json::Null, Json::from)),
            ("name", Json::str(self.name)),
            ("start_us", Json::from(self.start_us)),
            ("end_us", Json::from(self.end_us)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn open(&mut self, req: usize, parent: Option<usize>, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_us: now,
            end_us: now,
            counters: Vec::new(),
        });
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Times `call` as a child of `parent`, on a fresh budget of `limit`
    /// carrying a fresh metrics-only tracer.
    fn call<T>(
        &mut self,
        req: usize,
        parent: usize,
        name: &'static str,
        limit: Duration,
        call: impl FnOnce(&Budget) -> T,
    ) -> T {
        let tracer = Tracer::metrics_only();
        let budget = Budget::from_timeout(limit).with_tracer(tracer.clone());
        let id = self.open(req, Some(parent), name);
        let out = call(&budget);
        self.close(id);
        self.spans[id].counters = kept_counters(&tracer);
        out
    }
}

fn kept_counters(tracer: &Tracer) -> Vec<(String, u64)> {
    let snapshot = tracer.metrics().snapshot();
    let mut kept: Vec<(String, u64)> = snapshot
        .counters
        .into_iter()
        .filter(|(k, _)| KEPT.iter().any(|p| k.starts_with(p)))
        .collect();
    let smt_us = snapshot
        .stages
        .iter()
        .find(|s| s.stage == Stage::Smt.name())
        .map_or(0, |s| s.total_micros);
    kept.push(("stage.smt_us".to_owned(), smt_us));
    kept
}

fn bump(budget: &Budget, key: &str, n: u64) {
    budget.tracer().metrics().add(key, n);
}

/// One traced request. The spans named in `request_spans` are the calls
/// the untraced request makes; the rest probe one layer each.
fn traced_request(
    rec: &mut Recorder,
    solver: &DryadSynth,
    inputs: &Inputs,
    req: usize,
    limit: Duration,
) -> Answer {
    let root = rec.open(req, None, "request");
    let (source, given) = match inputs {
        Inputs::Synthesis(list) => (&list[req].source, None),
        Inputs::Certify(pairs) => (&pairs[req].bench.source, Some(&pairs[req].body)),
    };
    let problem: Problem = rec.call(req, root, "parser.parse_problem", limit, |_| {
        sygus_parser::parse_problem(source).expect("generated problems parse")
    });
    let solved = rec.call(req, root, "solve.solve", limit, |b| {
        match solver
            .solve(&SolveRequest::new(&problem).with_budget(b.clone()))
            .outcome
        {
            SynthOutcome::Solved(body) => Some(body),
            _ => None,
        }
    });
    let answer_body: Option<Term> = given.cloned().or(solved.clone());
    let cert = answer_body.as_ref().map(|body| {
        rec.call(req, root, "certify.certify_solution", limit, |b| {
            certify_solution(&problem, body, Some(b))
        })
    });
    rec.call(req, root, "deduction.deduct", limit, |b| {
        let out = DeductiveEngine::new(DeductionConfig { budget: b.clone() }).deduct(&problem);
        bump(
            b,
            "probe.solved",
            u64::from(matches!(out, DeductOutcome::Solved(_))),
        );
    });
    rec.call(req, root, "divide.divide", limit, |b| {
        let cfg = DivideConfig {
            budget: b.clone(),
            ..DivideConfig::default()
        };
        bump(
            b,
            "probe.proposals",
            Divider::new(cfg).divide(&problem).len() as u64,
        );
    });
    rec.call(
        req,
        root,
        "fixed_height.solve",
        limit.min(FIXED_HEIGHT_LIMIT),
        |b| {
            let cfg = FixedHeightConfig {
                budget: b.clone(),
                ..FixedHeightConfig::default()
            };
            let out = FixedHeightSolver::new(cfg).solve(&problem, PROBE_HEIGHT);
            bump(
                b,
                "probe.solved",
                u64::from(matches!(out, FixedHeightResult::Solved(_))),
            );
        },
    );
    rec.call(req, root, "enumerative.terms_of_size", limit, |b| {
        let cfg = EnumConfig {
            max_size: PROBE_TERM_SIZE,
            max_terms_per_layer: PROBE_TERMS_PER_LAYER,
            budget: b.clone(),
            ..EnumConfig::default()
        };
        let grammar = &problem.synth_fun.grammar;
        let mut e = TermEnumerator::new(
            grammar,
            &problem.definitions,
            default_examples(&problem),
            cfg,
        );
        let terms: usize = (1..=PROBE_TERM_SIZE)
            .map(|s| e.terms_of_size(s).len())
            .sum();
        bump(b, "probe.terms", terms as u64);
    });
    if let Some(body) = &answer_body {
        rec.call(req, root, "smt.verify_solution", limit, |b| {
            bump(
                b,
                "probe.passed",
                u64::from(verify_solution(&problem, body, Some(b))),
            );
        });
    }
    rec.close(root);
    match (inputs, cert) {
        (Inputs::Certify(_), Some(cert)) => Answer::Verdict(cert),
        (_, Some(cert)) => Answer::Solved {
            body: solved.expect("certified a solved answer"),
            certified: cert.certified(),
        },
        _ => Answer::Unsolved("unsolved"),
    }
}

/// The spans that make up the untraced request.
fn request_spans(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::Certify => &["certify.certify_solution"],
        _ => &[
            "parser.parse_problem",
            "solve.solve",
            "certify.certify_solution",
        ],
    }
}

/// The traced run: the per-layer metrics, and the spans.
pub fn per_layer(cfg: &run::Config) -> Result<(Report, Vec<Span>), String> {
    let suite = Suite::load();
    let solver = run::solver();
    let (inputs, _) = run::setup(cfg, &suite, &solver)?;
    let n = replay_len(cfg.workload)
        .min(inputs.len())
        .min(cfg.requests.unwrap_or(usize::MAX));

    // Each request also runs once untraced, as the base of the overhead
    // check: before its traced run on even requests, after it on odd ones,
    // so that neither side always finds the caches the other left warm.
    let untraced_request = |i: usize| {
        let t = Instant::now();
        run::request(&solver, &inputs, i, cfg.timeout);
        t.elapsed().as_secs_f64()
    };
    let mut untraced = Vec::with_capacity(n);
    let own = request_spans(cfg.workload);
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut dones = Vec::with_capacity(n);
    for req in 0..n {
        if req % 2 == 0 {
            untraced.push(untraced_request(req));
        }
        let first = rec.spans.len();
        let answer = traced_request(&mut rec, &solver, &inputs, req, cfg.timeout);
        if req % 2 == 1 {
            untraced.push(untraced_request(req));
        }
        let seconds = rec.spans[first..]
            .iter()
            .filter(|s| own.contains(&s.name))
            .map(|s| s.us() / 1e6)
            .sum();
        dones.push(Done {
            input: req,
            seconds,
            answer,
        });
    }
    let judged = run::judge(cfg, &inputs, &dones);
    let failed = judged.iter().filter(|j| **j == Judged::Wrong).count();

    // Paired by request, so the mix of cheap and dear inputs cancels out.
    let mut ratios: Vec<f64> = dones
        .iter()
        .zip(&untraced)
        .map(|(d, base)| d.seconds / base)
        .collect();
    let overhead = run::median(&mut ratios) - 1.0;
    let metrics = layer_metrics(&rec.spans, n, own, overhead);
    let report = Report {
        metrics,
        attempted: n,
        failed,
        info: vec![
            ("digest.inputs", inputs.digest()),
            ("digest.answers", run::answer_digest(&dones)),
        ],
    };
    Ok((report, rec.spans))
}

/// Sums over the spans of one name.
struct Layer<'a> {
    spans: Vec<&'a Span>,
}

impl Layer<'_> {
    fn calls(&self) -> f64 {
        self.spans.len() as f64
    }

    fn us(&self) -> f64 {
        self.spans.iter().map(|s| s.us()).sum()
    }

    fn sum(&self, key: &str) -> f64 {
        self.spans.iter().map(|s| s.counter(key) as f64).sum()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn layer_metrics(spans: &[Span], n: usize, own: &[&str], overhead: f64) -> Vec<Metric> {
    let layer = |names: &[&str]| Layer {
        spans: spans.iter().filter(|s| names.contains(&s.name)).collect(),
    };
    let parser = layer(&["parser.parse_problem"]);
    let deduction = layer(&["deduction.deduct"]);
    let divide = layer(&["divide.divide"]);
    let fixed = layer(&["fixed_height.solve"]);
    let enumerative = layer(&["enumerative.terms_of_size"]);
    let verify = layer(&["smt.verify_solution"]);
    let certify = layer(&["certify.certify_solution"]);
    let solve = layer(&["solve.solve"]);
    // The SMT layer as the untraced request drives it.
    let smt = layer(own);
    let reqs = n as f64;
    let queries = smt.sum("smt.sat") + smt.sum("smt.unsat") + smt.sum("smt.unknown");
    let dl_checks = smt.sum("theory.dl_dispatched") + smt.sum("theory.dl_fallbacks");
    vec![
        m("parser.us_per_req", parser.us() / reqs, "us"),
        m("deduction.us_per_req", deduction.us() / reqs, "us"),
        m(
            "deduction.smt_conflicts",
            deduction.sum("search.conflicts_total"),
            "count",
        ),
        m(
            "deduction.solved_frac",
            deduction.sum("probe.solved") / reqs,
            "fraction",
        ),
        m("divide.us_per_req", divide.us() / reqs, "us"),
        m(
            "divide.proposals_per_req",
            divide.sum("probe.proposals") / reqs,
            "count",
        ),
        m("fixed_height.us_per_req", fixed.us() / reqs, "us"),
        m(
            "fixed_height.solved_frac",
            fixed.sum("probe.solved") / reqs,
            "fraction",
        ),
        m(
            "fixed_height.cegis_rounds",
            fixed.sum("cegis.rounds"),
            "count",
        ),
        m(
            "fixed_height.smt_conflicts",
            fixed.sum("search.conflicts_total"),
            "count",
        ),
        m(
            "enumerative.terms_per_ms",
            ratio(enumerative.sum("probe.terms"), enumerative.us() / 1e3),
            "1/ms",
        ),
        m(
            "smt.conflicts_per_req",
            smt.sum("search.conflicts_total") / reqs,
            "count",
        ),
        m(
            "smt.decisions_per_req",
            smt.sum("search.decisions_total") / reqs,
            "count",
        ),
        m(
            "smt.propagations_per_req",
            smt.sum("search.propagations_total") / reqs,
            "count",
        ),
        m(
            "smt.mean_lbd",
            ratio(smt.sum("search.lbd_sum"), smt.sum("search.lbd_count")),
            "count",
        ),
        m(
            "smt.conflicts_per_s",
            ratio(fixed.sum("search.conflicts_total"), fixed.us() / 1e6),
            "1/s",
        ),
        m(
            "smt.simplex_pivots_per_req",
            smt.sum("search.simplex_pivots_total") / reqs,
            "count",
        ),
        m(
            "smt.dl_relaxations_per_req",
            smt.sum("search.dl_relaxations_total") / reqs,
            "count",
        ),
        m(
            "smt.dl_dispatch_frac",
            ratio(smt.sum("theory.dl_dispatched"), dl_checks),
            "fraction",
        ),
        m(
            "smt.verify_us_per_req",
            ratio(verify.us(), verify.calls()),
            "us",
        ),
        m(
            "smt.unknown_frac",
            ratio(smt.sum("smt.unknown"), queries),
            "fraction",
        ),
        m(
            "certify.us_per_req",
            ratio(certify.us(), certify.calls()),
            "us",
        ),
        m(
            "certify.smt_conflicts_per_req",
            ratio(certify.sum("search.conflicts_total"), certify.calls()),
            "count",
        ),
        m(
            "certify.pass_frac",
            ratio(certify.sum("certify.passed"), certify.calls()),
            "fraction",
        ),
        m("solve.us_per_req", ratio(solve.us(), solve.calls()), "us"),
        m(
            "solve.smt_share",
            ratio(solve.sum("stage.smt_us"), solve.us()),
            "fraction",
        ),
        m("trace.overhead_frac", overhead, "fraction"),
    ]
}
