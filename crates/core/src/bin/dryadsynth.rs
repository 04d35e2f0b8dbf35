//! The `dryadsynth` command-line SyGuS solver.
//!
//! Usage:
//!
//! ```text
//! dryadsynth [--engine coop|enum|deduct|euback|eusolver|cvc4|loopinvgen]
//!            [--timeout SECONDS] [--fuel STEPS] [--threads N] [--stats]
//!            [--json] [--trace FILE] [--progress SECS] [--stall-after SECS]
//!            [--certify] [--theory auto|simplex] FILE.sl
//! dryadsynth --lint FILE.sl
//! dryadsynth --render dot|folded|search TRACE.jsonl
//! ```
//!
//! Reads a SyGuS-IF problem, solves it, and prints the solution in the
//! competition's `define-fun` answer format (or `(fail)` / `(timeout)` /
//! `(resource-exhausted)`). With `--json` the answer is replaced by a
//! versioned machine-readable run report. `--trace FILE` writes the run's
//! records as JSONL — every span (with its id and parent span id), point,
//! subproblem-graph event, and CDCL search interval — flushed by a drop
//! guard, so the file survives panics, resource exhaustion, and timeouts;
//! the `--json` report of a traced run carries the top span-tree paths as
//! a `profile` table.
//!
//! `--render KIND TRACE.jsonl` skips solving: it reads a `--trace` file and
//! prints one offline rendering of it to stdout — `dot`, the subproblem
//! graph with per-node solver attribution as Graphviz DOT; `folded`, the
//! span tree as inferno-compatible folded stacks (`path self_micros` per
//! line); or `search`, the search log (one `search_interval` JSON object
//! per line, summing exactly to the report's `search` block).
//!
//! `--progress SECS` prints a heartbeat line to stderr every SECS seconds
//! (current stage, height, CEGIS rounds, counterexamples, SMT
//! checks/conflicts, remaining fuel and time); `--stall-after SECS` dumps a
//! full diagnostic (every thread's open span stack, progress counters,
//! active SMT query size, metric counters) when no progress counter
//! advances for SECS seconds — one dump per stall episode.
//!
//! With `--certify`, every solved answer is re-validated end to end (grammar
//! membership, sort check, independent SMT verification) before it is
//! printed; a solution that flunks certification prints
//! `(certification-failed)`, records a `certify` fault, and exits 7.
//! `--lint FILE.sl` skips solving entirely: it parses the problem, runs the
//! grammar dataflow analysis, prints the deterministic lint report, and
//! exits 7 when the grammar has error-level findings (e.g. an unproductive
//! reachable nonterminal).
//!
//! `--theory` sets the process-wide SMT theory-engine selection (see
//! [`smtkit::TheorySelect`]): `auto` (default) dispatches queries whose
//! atoms all fit the difference-logic fragment to the specialized
//! constraint-graph engine, `simplex` forces the general warm simplex
//! everywhere (the A/B baseline).
//!
//! Exit codes distinguish the failure modes:
//!
//! | code | meaning                                            |
//! |------|----------------------------------------------------|
//! | 0    | solved (and certified, when requested)             |
//! | 1    | gave up (search exhausted / unsupported problem)   |
//! | 2    | usage, I/O, or parse error (trace files included)  |
//! | 4    | wall-clock timeout                                 |
//! | 5    | resource exhaustion (fuel / memory) or cancellation|
//! | 6    | engine fault (a contained panic) and no solution   |
//! | 7    | certification failure or error-level lint findings |

use dryadsynth::{
    parse_trace, Budget, CoopStats, Cvc4Baseline, DryadSynth, DryadSynthConfig, Engine,
    EuSolverBaseline, LoopInvGenBaseline, Rendering, SinkGuard, SolveRequest, SynthOutcome,
    Synthesizer, Watchdog, WatchdogConfig,
};
use std::process::ExitCode;
use std::time::Duration;
use sygus_ast::{lint_grammar, Tracer};

const USAGE: &str = "usage: dryadsynth \
[--engine coop|enum|deduct|euback|eusolver|cvc4|loopinvgen] \
[--timeout SECONDS] [--fuel STEPS] [--threads N] [--stats] \
[--json] [--trace FILE] [--progress SECS] [--stall-after SECS] [--certify] \
[--theory auto|simplex] FILE.sl\n\
       dryadsynth --lint FILE.sl\n\
       dryadsynth --render dot|folded|search TRACE.jsonl\n\
  --timeout 0 expires the budget immediately (useful for plumbing tests);\n\
  --fuel caps governed engine steps independently of wall-clock time;\n\
  --json prints a versioned machine-readable run report instead of the\n\
  s-expression answer;\n\
  --trace writes the run's records as JSONL (spans with parent ids,\n\
  points, subproblem-graph events, CDCL search intervals), flushed even on\n\
  panic or timeout, and embeds the top span paths in the --json report;\n\
  --render prints one rendering of a --trace file instead of solving: dot\n\
  (subproblem graph with solver attribution), folded (inferno-compatible\n\
  folded stacks), or search (one JSON object per CDCL search interval);\n\
  --progress prints a heartbeat line to stderr every SECS seconds;\n\
  --stall-after dumps a diagnostic (open span stacks, counters, active\n\
  SMT query size) when no progress counter advances for SECS seconds;\n\
  --certify re-validates solved answers (grammar, sorts, independent SMT)\n\
  and exits 7 on failure;\n\
  --theory picks the eager SMT theory engine: auto (default) dispatches\n\
  difference-logic queries to the specialized engine, simplex forces the\n\
  general path;\n\
  --lint prints the grammar dataflow report for a problem without solving\n\
  it (exit 7 on error-level findings).";

struct Options {
    engine: String,
    timeout: Duration,
    fuel: Option<u64>,
    threads: usize,
    stats: bool,
    json: bool,
    trace: Option<String>,
    progress: Option<Duration>,
    stall_after: Option<Duration>,
    certify: bool,
    theory: smtkit::TheorySelect,
    lint: Option<String>,
    render: Option<Rendering>,
    file: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        engine: "coop".to_owned(),
        timeout: Duration::from_secs(30),
        fuel: None,
        threads: 2,
        stats: false,
        json: false,
        trace: None,
        progress: None,
        stall_after: None,
        certify: false,
        theory: smtkit::TheorySelect::Auto,
        lint: None,
        render: None,
        file: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--engine" => {
                opts.engine = args.next().ok_or("--engine needs a value")?;
            }
            "--timeout" => {
                let v = args.next().ok_or("--timeout needs seconds")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad timeout `{v}`"))?;
                // 0 is deliberate: a zero-duration budget is born expired.
                opts.timeout = Duration::from_secs(secs);
            }
            "--fuel" => {
                let v = args.next().ok_or("--fuel needs a step count")?;
                let fuel: u64 = v.parse().map_err(|_| format!("bad fuel `{v}`"))?;
                opts.fuel = Some(fuel);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a count")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
                opts.threads = n;
            }
            "--stats" => opts.stats = true,
            "--json" => opts.json = true,
            "--trace" => {
                opts.trace = Some(args.next().ok_or("--trace needs a file path")?);
            }
            "--progress" => {
                let v = args.next().ok_or("--progress needs seconds")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad progress interval `{v}`"))?;
                if secs.is_nan() || secs <= 0.0 {
                    return Err("--progress must be positive".to_owned());
                }
                opts.progress = Some(Duration::from_secs_f64(secs));
            }
            "--stall-after" => {
                let v = args.next().ok_or("--stall-after needs seconds")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad stall window `{v}`"))?;
                if secs.is_nan() || secs <= 0.0 {
                    return Err("--stall-after must be positive".to_owned());
                }
                opts.stall_after = Some(Duration::from_secs_f64(secs));
            }
            "--certify" => opts.certify = true,
            "--theory" => {
                let v = args.next().ok_or("--theory needs auto|simplex")?;
                opts.theory = v.parse()?;
            }
            "--lint" => {
                opts.lint = Some(args.next().ok_or("--lint needs a file path")?);
            }
            "--render" => {
                let v = args.next().ok_or("--render needs dot|folded|search")?;
                opts.render = Some(v.parse()?);
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            file => {
                if opts.file.is_some() {
                    return Err("multiple input files".to_owned());
                }
                opts.file = Some(file.to_owned());
            }
        }
    }
    Ok(opts)
}

/// Maps an outcome (plus faults recorded along the way) to the CLI's exit
/// code contract. A solved run exits 0 even if faults were contained — unless
/// the solution flunked certification (exit 7); an unsolved run with faults
/// exits 6 so harnesses can flag flaky engines.
fn exit_code(outcome: &SynthOutcome, stats: &CoopStats, certified: Option<bool>) -> ExitCode {
    match outcome {
        SynthOutcome::Solved(_) if certified == Some(false) => ExitCode::from(7),
        SynthOutcome::Solved(_) => ExitCode::SUCCESS,
        _ if !stats.faults.is_empty() => ExitCode::from(6),
        SynthOutcome::ResourceExhausted(_) => ExitCode::from(5),
        SynthOutcome::Timeout => ExitCode::from(4),
        SynthOutcome::GaveUp(_) => ExitCode::from(1),
    }
}

/// The `--lint` mode: parse the problem, run the grammar dataflow lint,
/// print the deterministic report, and exit by findings severity.
fn lint_mode(file: &str) -> ExitCode {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let problem = match sygus_parser::parse_problem(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{file}: parse error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = lint_grammar(&problem.synth_fun.grammar);
    println!("; lint report for {file}");
    println!("{report}");
    if report.errors() > 0 {
        ExitCode::from(7)
    } else {
        ExitCode::SUCCESS
    }
}

/// The `--render` mode: read a `--trace` file and print one rendering of
/// its records.
fn render_mode(rendering: Rendering, file: &str) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    match parse_trace(&text) {
        Ok(records) => {
            print!("{}", rendering.render(&records));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{file}: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // One process-wide knob set before any solver is constructed: every
    // SmtConfig::default() in the engines below then inherits it.
    smtkit::set_process_default_theory(opts.theory);
    if let Some(file) = &opts.lint {
        return lint_mode(file);
    }
    let Some(file) = &opts.file else {
        eprintln!("no input file; see --help");
        return ExitCode::from(2);
    };
    if let Some(rendering) = opts.render {
        return render_mode(rendering, file);
    }
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let problem = match sygus_parser::parse_problem(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{file}: parse error: {e}");
            return ExitCode::from(2);
        }
    };

    let dryad_config = |engine: Engine| DryadSynthConfig {
        engine,
        threads: opts.threads,
        fuel: opts.fuel,
        ..DryadSynthConfig::default()
    };
    let solver: Box<dyn Synthesizer> = match opts.engine.as_str() {
        "coop" => Box::new(DryadSynth::new(dryad_config(Engine::Cooperative))),
        "enum" => Box::new(DryadSynth::new(dryad_config(Engine::HeightEnumOnly))),
        "deduct" => Box::new(DryadSynth::new(dryad_config(Engine::DeductionOnly))),
        "euback" => Box::new(DryadSynth::new(dryad_config(Engine::BottomUpBacked))),
        "eusolver" => Box::new(EuSolverBaseline),
        "cvc4" => Box::new(Cvc4Baseline),
        "loopinvgen" => Box::new(LoopInvGenBaseline),
        other => {
            eprintln!("unknown engine `{other}`");
            return ExitCode::from(2);
        }
    };

    // Recording and live stacks are opt-in (they buffer or lock per span);
    // metrics are always on — a metrics-only tracer costs a few atomic ops
    // per span. The watchdog needs live stacks: its stall dump shows every
    // thread's open span stack.
    let watched = opts.progress.is_some() || opts.stall_after.is_some();
    let tracer = Tracer::new(opts.trace.is_some(), watched);
    let budget = Budget::from_timeout(opts.timeout).with_tracer(tracer.clone());

    // The trace sink is registered on a drop guard *before* solving, so a
    // panic, resource exhaustion, or timeout still flushes it to disk.
    let mut sink = opts
        .trace
        .as_ref()
        .map(|path| SinkGuard::new(tracer.clone(), path));

    let watchdog = watched.then(|| {
        Watchdog::spawn(
            &budget,
            WatchdogConfig::new(opts.progress, opts.stall_after),
            Box::new(std::io::stderr()),
        )
    });

    // End-to-end certification of solved answers (grammar membership, sort
    // check, independent SMT verification) is requested through the solve
    // options; it runs on a fresh budget window so a run that solved near
    // its deadline can still be checked, failures become a `certify` fault
    // and exit code 7, never a panic.
    let mut request = SolveRequest::new(&problem)
        .with_budget(budget)
        .with_source(file.clone());
    if opts.certify {
        request = request.certified(Some(opts.timeout));
    }
    let solved = solver.solve(&request);
    let name = solver.name();
    let outcome = solved.outcome;
    let stats = solved.stats;
    let certified = solved.certified;

    if let Some(watchdog) = watchdog {
        let dumps = watchdog.stop();
        if dumps > 0 && opts.stats {
            eprintln!("; stall_dumps={dumps}");
        }
    }
    if let Err(e) = sink.as_mut().map_or(Ok(()), SinkGuard::flush) {
        eprintln!("cannot write the trace: {e}");
        return ExitCode::from(2);
    }

    if opts.stats {
        eprintln!(
            "; solver={} time={:.3}s faults={} smt_queries={} fuel_spent={}",
            name,
            solved.seconds,
            stats.faults.len(),
            stats.smt_queries,
            stats.fuel_spent,
        );
        for fault in &stats.faults {
            eprintln!("; {fault}");
        }
    }

    let code = exit_code(&outcome, &stats, certified);
    if opts.json {
        println!("{}", solved.report.to_json());
        return code;
    }
    match outcome {
        SynthOutcome::Solved(body) => {
            if certified == Some(false) {
                // Do not print an uncertified answer as a solution.
                println!("(certification-failed)");
                if opts.stats {
                    for fault in stats.faults.iter().filter(|f| f.stage == "certify") {
                        eprintln!("; reason: {}", fault.message);
                    }
                }
            } else {
                println!("{}", sygus_parser::solution_to_sygus(&problem, &body));
                if opts.stats {
                    eprintln!("; size={} height={}", body.size(), body.height());
                }
            }
        }
        SynthOutcome::Timeout => println!("(timeout)"),
        SynthOutcome::ResourceExhausted(reason) => {
            println!("(resource-exhausted)");
            if opts.stats {
                eprintln!("; reason: {reason}");
            }
        }
        SynthOutcome::GaveUp(reason) => {
            println!("(fail)");
            if opts.stats {
                eprintln!("; reason: {reason}");
            }
        }
    }
    code
}
