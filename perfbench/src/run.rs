//! The untraced closed loop: set-up, the timed requests, the answer
//! checks, and the end-to-end metrics.

use crate::check;
use crate::workloads::{self, Digest, Rng, Suite, Workload};
use dryadsynth::{
    certify_solution, outcome_label, Certificate, DryadSynth, DryadSynthConfig, SolveRequest,
    SpecVerdict, SynthOutcome, Synthesizer,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use sygus_ast::{Budget, Problem, Term};
use sygus_benchmarks::Benchmark;

/// Set-up warms up on the first window of requests (see `window_len`),
/// untimed, each cut at `WARMUP_TIMEOUT` so that warming up `hard` stays
/// short. A window asks for the same work whatever the seed, so set-up
/// time does not depend on which inputs come first.
const WARMUP_TIMEOUT: Duration = Duration::from_millis(100);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `peak_rss_mb` is read after this many timed requests, not at the end:
/// memory grows with every request (the symbol interner gains about 40
/// symbols a `deduce` request, and the answers are kept for checking), so
/// a high-water mark taken at the end would grow with throughput.
const RSS_AFTER: usize = 500;

/// How one run is sized.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed loop (`hard` always makes exactly one pass).
    pub seconds: f64,
    /// Optional cap on requests, which also shrinks the `certify` pool.
    pub requests: Option<usize>,
    /// Limit per synthesis request and per certification call.
    pub timeout: Duration,
}

/// The solver under test: the default configuration pinned to one thread,
/// where conflict counts repeat exactly from run to run.
pub fn solver() -> DryadSynth {
    DryadSynth::new(DryadSynthConfig {
        threads: 1,
        ..Default::default()
    })
}

/// One `certify` input: a problem with a genuine answer or a mutant.
pub struct Pair {
    pub bench: Benchmark,
    pub problem: Problem,
    pub body: Term,
    pub genuine: bool,
}

/// A workload's generated inputs.
pub enum Inputs {
    Synthesis(Vec<Benchmark>),
    Certify(Vec<Pair>),
}

impl Inputs {
    pub fn len(&self) -> usize {
        match self {
            Inputs::Synthesis(list) => list.len(),
            Inputs::Certify(pairs) => pairs.len(),
        }
    }

    pub fn digest(&self) -> String {
        let mut d = Digest::default();
        match self {
            Inputs::Synthesis(list) => list.iter().for_each(|b| d.add(&b.source)),
            Inputs::Certify(pairs) => {
                for p in pairs {
                    d.add(&p.bench.source);
                    d.add(&p.body.to_string());
                    d.add(if p.genuine { "genuine" } else { "mutant" });
                }
            }
        }
        d.hex()
    }
}

/// What one request returned, before the benchmark's own checks.
pub enum Answer {
    Solved { body: Term, certified: bool },
    Unsolved(&'static str),
    Verdict(Certificate),
}

impl Answer {
    fn text(&self) -> String {
        match self {
            Answer::Solved { body, .. } => body.to_string(),
            Answer::Unsolved(label) => (*label).to_owned(),
            Answer::Verdict(cert) => cert.to_string(),
        }
    }
}

pub fn parse(b: &Benchmark) -> Problem {
    sygus_parser::parse_problem(&b.source)
        .unwrap_or_else(|e| panic!("generated problem {} does not parse: {e}", b.name))
}

/// The `certify` call on the SMT layer, as one request.
pub fn certify(problem: &Problem, body: &Term, timeout: Duration) -> Certificate {
    certify_solution(problem, body, Some(&Budget::from_timeout(timeout)))
}

/// One synthesis request: parse, solve, certify.
pub fn synthesize(solver: &DryadSynth, b: &Benchmark, timeout: Duration) -> Answer {
    let problem = parse(b);
    match solver
        .solve(&SolveRequest::new(&problem).with_timeout(timeout))
        .outcome
    {
        SynthOutcome::Solved(body) => {
            let certified = certify(&problem, &body, timeout).certified();
            Answer::Solved { body, certified }
        }
        other => Answer::Unsolved(outcome_label(&other)),
    }
}

pub fn request(solver: &DryadSynth, inputs: &Inputs, i: usize, timeout: Duration) -> Answer {
    match inputs {
        Inputs::Synthesis(list) => synthesize(solver, &list[i], timeout),
        Inputs::Certify(pairs) => {
            Answer::Verdict(certify(&pairs[i].problem, &pairs[i].body, timeout))
        }
    }
}

/// Generates the inputs and warms up. Returns the inputs and the seconds
/// it took.
pub fn setup(cfg: &Config, suite: &Suite, solver: &DryadSynth) -> Result<(Inputs, f64), String> {
    let started = Instant::now();
    let inputs = match cfg.workload {
        Workload::Certify => Inputs::Certify(certify_pairs(cfg, suite, solver)?),
        w => Inputs::Synthesis(workloads::synthesis_inputs(w, cfg.seed, suite)),
    };
    for i in 0..window_len(cfg.workload, &inputs) {
        request(solver, &inputs, i, WARMUP_TIMEOUT);
    }
    Ok((inputs, started.elapsed().as_secs_f64()))
}

/// Requests in a window of equal work: a block of `deduce` or `cegis`, or
/// one pass over the `hard` list or the `certify` pairs.
fn window_len(workload: Workload, inputs: &Inputs) -> usize {
    workloads::block_len(workload).unwrap_or(inputs.len())
}

/// Half the pairs are the solver's certified answers to the first block
/// of the `deduce` list and of the `cegis` list; the other half are seeded
/// mutants of those answers that a concrete point refutes, so their right
/// verdict is known without trusting the SMT layer.
fn certify_pairs(cfg: &Config, suite: &Suite, solver: &DryadSynth) -> Result<Vec<Pair>, String> {
    let mut rng = Rng::seeded(cfg.seed, "mutants");
    let mut genuine = Vec::new();
    let mut mutants = Vec::new();
    for source in [Workload::Deduce, Workload::Cegis] {
        let draws = workloads::block_len(source).expect("synthesis workloads have blocks");
        let draws = cfg.requests.map_or(draws, |n| n.min(draws));
        for b in workloads::synthesis_inputs(source, cfg.seed, suite)
            .into_iter()
            .take(draws)
        {
            let problem = parse(&b);
            let body = match synthesize(solver, &b, cfg.timeout) {
                Answer::Solved {
                    body,
                    certified: true,
                } => body,
                Answer::Unsolved(label) => {
                    eprintln!("certify set-up: {} {label}, left out", b.name);
                    continue;
                }
                _ => return Err(format!("set-up: the answer to {} is not certified", b.name)),
            };
            let points = check::points(&problem, &b.name, cfg.seed);
            if check::refuted(&problem, &body, &points) {
                return Err(format!(
                    "set-up: the answer {body} to {} fails a concrete point",
                    b.name
                ));
            }
            let mutant = check::mutate(&body, &mut rng);
            if check::refuted(&problem, &mutant, &points) {
                mutants.push(Pair {
                    bench: b.clone(),
                    problem: problem.clone(),
                    body: mutant,
                    genuine: false,
                });
            }
            genuine.push(Pair {
                bench: b,
                problem,
                body,
                genuine: true,
            });
        }
    }
    let mut pairs: Vec<Pair> = genuine.into_iter().chain(mutants).collect();
    rng.shuffle(&mut pairs);
    Ok(pairs)
}

/// One timed request.
pub struct Done {
    pub input: usize,
    pub seconds: f64,
    pub answer: Answer,
}

/// Runs requests back to back until `cfg.seconds` pass (`hard`: one pass
/// over its list), cycling through the inputs. Returns the requests and
/// the peak resident set after the first `RSS_AFTER` of them.
pub fn timed_loop(
    cfg: &Config,
    inputs: &Inputs,
    solver: &DryadSynth,
) -> Result<(Vec<Done>, f64), String> {
    let mut limit = cfg.requests.unwrap_or(usize::MAX);
    if cfg.workload == Workload::Hard {
        limit = limit.min(inputs.len());
    }
    let started = Instant::now();
    let mut dones = Vec::new();
    let mut rss = None;
    while dones.len() < limit
        && (cfg.workload == Workload::Hard || started.elapsed().as_secs_f64() < cfg.seconds)
    {
        let input = dones.len() % inputs.len();
        let t = Instant::now();
        let answer = request(solver, inputs, input, cfg.timeout);
        dones.push(Done {
            input,
            seconds: t.elapsed().as_secs_f64(),
            answer,
        });
        if dones.len() == RSS_AFTER {
            rss = Some(peak_rss_mb()?);
        }
    }
    let rss = match rss {
        Some(mb) => mb,
        None => peak_rss_mb()?,
    };
    Ok((dones, rss))
}

/// The verdict on one request.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Judged {
    /// A certified answer that holds on every concrete point, or the right
    /// certification verdict.
    Ok,
    /// No answer within the limit (expected only on `hard`).
    Unsolved,
    /// An answer that is wrong or uncertified, or a wrong verdict.
    Wrong,
}

/// Checks every answer independently of the solver. Answers repeat when
/// the loop wraps, so each (input, answer) is judged once.
pub fn judge(cfg: &Config, inputs: &Inputs, dones: &[Done]) -> Vec<Judged> {
    let mut memo: HashMap<(usize, String), Judged> = HashMap::new();
    dones
        .iter()
        .map(|d| {
            let key = (d.input, d.answer.text());
            *memo.entry(key).or_insert_with(|| {
                let judged = judge_one(cfg, inputs, d);
                if judged == Judged::Wrong {
                    println!(
                        "{} MISMATCH input {} answer {}",
                        cfg.workload.name(),
                        d.input,
                        d.answer.text()
                    );
                }
                judged
            })
        })
        .collect()
}

fn judge_one(cfg: &Config, inputs: &Inputs, d: &Done) -> Judged {
    match (&d.answer, inputs) {
        (Answer::Unsolved(_), _) => Judged::Unsolved,
        (Answer::Solved { body, certified }, Inputs::Synthesis(list)) => {
            let b = &list[d.input];
            let problem = parse(b);
            let points = check::points(&problem, &b.name, cfg.seed);
            if *certified && !check::refuted(&problem, body, &points) {
                Judged::Ok
            } else {
                Judged::Wrong
            }
        }
        (Answer::Verdict(cert), Inputs::Certify(pairs)) => {
            let right = if pairs[d.input].genuine {
                cert.certified()
            } else {
                cert.spec == SpecVerdict::Refuted
            };
            if right {
                Judged::Ok
            } else if matches!(cert.spec, SpecVerdict::Unknown(_)) {
                Judged::Unsolved
            } else {
                Judged::Wrong
            }
        }
        _ => unreachable!("answer kind matches the inputs"),
    }
}

/// Digest of the answers in request order.
pub fn answer_digest(dones: &[Done]) -> String {
    let mut d = Digest::default();
    for done in dones {
        d.add(&done.input.to_string());
        d.add(&done.answer.text());
    }
    d.hex()
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Peak resident set of this process, from the kernel's high-water mark.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run: metrics plus the counts the result line needs.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Extra `workload key value` lines (digests, sample counts).
    pub info: Vec<(&'static str, String)>,
}

/// The untraced run: the end-to-end metrics.
pub fn end_to_end(cfg: &Config) -> Result<Report, String> {
    let suite = Suite::load();
    let solver = solver();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (generated, seconds) = setup(cfg, &suite, &solver)?;
        setups.push(seconds);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");
    let (dones, rss) = timed_loop(cfg, &inputs, &solver)?;
    let judged = judge(cfg, &inputs, &dones);

    let n = dones.len();
    let ok = judged.iter().filter(|j| **j == Judged::Ok).count();
    let failed = judged.iter().filter(|j| **j == Judged::Wrong).count();
    let limit = cfg.timeout.as_secs_f64();
    let latencies: Vec<f64> = dones
        .iter()
        .zip(&judged)
        .map(|(d, j)| {
            if *j == Judged::Wrong {
                f64::INFINITY
            } else {
                d.seconds * 1e3
            }
        })
        .collect();
    let par2: Vec<f64> = dones
        .iter()
        .zip(&judged)
        .map(|(d, j)| {
            if *j == Judged::Ok {
                d.seconds
            } else {
                2.0 * limit
            }
        })
        .collect();
    // Throughput, PAR-2 and the median latency are taken per window of
    // equal work and reported as the median window, so a few seconds of
    // interference from other processes on the host move them little. The
    // tail needs every sample: p99 is taken over the whole run.
    let window = window_len(cfg.workload, &inputs).min(n);
    let per_window = |f: &dyn Fn(&[f64]) -> f64, xs: &[f64]| {
        let mut v: Vec<f64> = xs.chunks_exact(window).map(f).collect();
        median(&mut v)
    };
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    let window_median = |w: &[f64]| median(&mut w.to_vec());
    let seconds: Vec<f64> = dones.iter().map(|d| d.seconds).collect();
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let metrics = vec![
        metric("setup_s", median(&mut setups), "s"),
        metric("ok_frac", ok as f64 / n as f64, "fraction"),
        metric("throughput_rps", 1.0 / per_window(&mean, &seconds), "req/s"),
        metric(
            "latency_p50_ms",
            per_window(&window_median, &latencies),
            "ms",
        ),
        metric("latency_p99_ms", percentile(&sorted, 0.99), "ms"),
        metric("par2_s", per_window(&mean, &par2), "s"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    Ok(Report {
        metrics,
        attempted: n,
        failed,
        info: vec![
            ("samples", n.to_string()),
            ("digest.inputs", inputs.digest()),
            ("digest.answers", answer_digest(&dones)),
        ],
    })
}
