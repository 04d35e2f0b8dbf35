//! The `bench` CLI: generate and compare benchmark trajectory files.
//!
//! ```text
//! bench run [--out FILE] [--timeout SECS] [--track INV|CLIA|General]
//!           [--lineup competition|full]
//! bench compare OLD.json NEW.json [--noise FRAC] [--min-seconds S]
//!           [--solved-only]
//! bench explain OLD.json NEW.json
//! ```
//!
//! `run` executes the solver matrix over the generated suite and writes the
//! versioned trajectory document ([`observability_json`]) to `--out`
//! (default stdout) — the format committed as `BENCH_PR5.json` and consumed
//! by `compare`. `compare` diffs two trajectory files and exits non-zero
//! when the new one regresses: the solved set shrank, a per-benchmark or
//! per-stage time exceeded the noise threshold (unless `--solved-only`), or
//! a CDCL search-work counter grew past its gate. See
//! `crates/bench/src/compare.rs` for the exact gates. `explain` prints the
//! deterministic per-stage × per-benchmark-family diff table between two
//! trajectory documents (where did the time and the conflicts move?); it
//! always exits 0 — it is a drill-down, not a gate.
//!
//! Exit codes: 0 = no regression, 1 = regression found, 2 = usage, I/O, or
//! parse error.

use bench_harness::{
    compare, explain, observability_json, problem_timeout, run_matrix, BenchDoc, CompareConfig,
};
use dryadsynth::{
    Cvc4Baseline, DryadSynth, DryadSynthConfig, Engine, EuSolverBaseline, LoopInvGenBaseline,
    Synthesizer,
};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: bench run [--out FILE] [--timeout SECS] \
[--track INV|CLIA|General] [--lineup competition|full] [--theory auto|simplex]\n\
       bench compare OLD.json NEW.json [--noise FRAC] [--min-seconds S] [--solved-only]\n\
       bench explain OLD.json NEW.json\n\
  run writes the trajectory document (observability_json) for the suite;\n\
  compare diffs two trajectory files and exits 1 on regression:\n\
  a shrunken solved set always fails; per-benchmark and per-stage times\n\
  fail when slower by more than --noise (default 0.25) AND --min-seconds\n\
  (default 0.1); search-work counters (conflicts, decisions, propagations,\n\
  theory pivots) fail on the same relative threshold past an absolute\n\
  floor; --solved-only reports time deltas without failing on them\n\
  (the cross-machine CI mode);\n\
  explain prints the deterministic per-stage x per-family diff table\n\
  between two trajectory files (always exits 0).";

fn competition_lineup() -> Vec<Box<dyn Synthesizer>> {
    vec![
        Box::new(DryadSynth::default()),
        Box::new(Cvc4Baseline),
        Box::new(EuSolverBaseline),
        Box::new(LoopInvGenBaseline),
    ]
}

fn full_lineup() -> Vec<Box<dyn Synthesizer>> {
    let mut solvers = competition_lineup();
    for engine in [
        Engine::HeightEnumOnly,
        Engine::DeductionOnly,
        Engine::BottomUpBacked,
    ] {
        solvers.push(Box::new(DryadSynth::new(DryadSynthConfig {
            engine,
            ..DryadSynthConfig::default()
        })));
    }
    solvers
}

fn run_mode(args: &[String]) -> Result<ExitCode, String> {
    let mut out: Option<String> = None;
    let mut timeout = problem_timeout();
    let mut track: Option<String> = None;
    let mut lineup = "competition".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a file path")?.clone()),
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs seconds")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad timeout `{v}`"))?;
                timeout = Duration::from_secs(secs);
            }
            "--track" => track = Some(it.next().ok_or("--track needs a name")?.clone()),
            "--lineup" => lineup = it.next().ok_or("--lineup needs a value")?.clone(),
            "--theory" => {
                let v = it.next().ok_or("--theory needs auto|simplex")?;
                smtkit::set_process_default_theory(v.parse()?);
            }
            other => return Err(format!("unknown run flag `{other}`")),
        }
    }
    let solvers = match lineup.as_str() {
        "competition" => competition_lineup(),
        "full" => full_lineup(),
        other => return Err(format!("unknown lineup `{other}`")),
    };
    let mut suite = sygus_benchmarks::suite();
    if let Some(filter) = &track {
        suite.retain(|b| b.track.name().eq_ignore_ascii_case(filter));
        if suite.is_empty() {
            return Err(format!("no benchmarks in track `{filter}`"));
        }
    }
    eprintln!(
        "bench run: {} solvers x {} benchmarks, {:?}/problem",
        solvers.len(),
        suite.len(),
        timeout
    );
    let records = run_matrix(&solvers, &suite, timeout, |r| {
        eprintln!(
            "  {:<24} {:<28} {} ({:.2}s)",
            r.benchmark,
            r.solver,
            if r.solved { "solved" } else { "-" },
            r.seconds
        );
    });
    let text = observability_json(&records);
    match out {
        Some(path) => std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?,
        None => println!("{text}"),
    }
    let solved = records.iter().filter(|r| r.solved).count();
    eprintln!("bench run: {solved}/{} runs solved", records.len());
    Ok(ExitCode::SUCCESS)
}

fn compare_mode(args: &[String]) -> Result<ExitCode, String> {
    let mut files: Vec<&String> = Vec::new();
    let mut cfg = CompareConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--noise" => {
                let v = it.next().ok_or("--noise needs a fraction")?;
                cfg.noise_frac = v.parse().map_err(|_| format!("bad noise fraction `{v}`"))?;
            }
            "--min-seconds" => {
                let v = it.next().ok_or("--min-seconds needs seconds")?;
                cfg.min_seconds = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
            }
            "--solved-only" => cfg.solved_only = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown compare flag `{other}`"))
            }
            _ => files.push(a),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        return Err("compare needs exactly OLD.json and NEW.json".to_owned());
    };
    // Either side may be a BENCH*.json trajectory document or a
    // dryadsynthd --audit log (auto-detected by shape).
    let load = |path: &str| -> Result<BenchDoc, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchDoc::parse_any(&text).map_err(|e| format!("{path}: {e}"))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    let report = compare(&old, &new, &cfg);
    print!("{}", report.render());
    if report.has_regressions() {
        eprintln!("bench compare: REGRESSED ({old_path} -> {new_path})");
        Ok(ExitCode::from(1))
    } else {
        eprintln!("bench compare: ok ({old_path} -> {new_path})");
        Ok(ExitCode::SUCCESS)
    }
}

fn explain_mode(args: &[String]) -> Result<ExitCode, String> {
    let [old_path, new_path] = args else {
        return Err("explain needs exactly OLD.json and NEW.json".to_owned());
    };
    let load = |path: &str| -> Result<BenchDoc, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchDoc::parse_any(&text).map_err(|e| format!("{path}: {e}"))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    print!("{}", explain(&old, &new));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_mode(&args[1..]),
        Some("compare") => compare_mode(&args[1..]),
        Some("explain") => explain_mode(&args[1..]),
        Some("--help" | "-h") | None => Err(USAGE.to_owned()),
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
