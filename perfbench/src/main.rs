//! `perfbench`: the closed-loop benchmark of the DryadSynth reproduction.
//!
//! ```text
//! perfbench [--workload deduce|cegis|hard|certify] [--seed N] [--seconds S]
//!           [--trace 0|1] [--spans FILE] [--requests N] [--timeout-ms MS]
//! ```
//!
//! One client sends requests in-process to the solver pinned to one
//! thread, each only after the previous one returned, checks every answer
//! independently, and prints every metric as `workload metric value unit`,
//! then one JSON result line. `--trace 1` replays the start of the
//! workload with a span around every layer call instead, prints the
//! per-layer metrics, and writes the spans as JSONL. Without `--workload`,
//! every workload runs in a child process of its own, one after another.
//!
//! Exit codes: 0 = every answer checked out, 1 = a wrong answer or verdict
//! (or a failed run), 2 = usage error.

mod check;
mod run;
mod trace;
mod workloads;

use run::{Config, Report};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;
use sygus_ast::Json;
use workloads::Workload;

const USAGE: &str = "usage: perfbench [--workload deduce|cegis|hard|certify] [--seed N] \
[--seconds S] [--trace 0|1] [--spans FILE] [--requests N] [--timeout-ms MS]";

struct Args {
    workload: Option<Workload>,
    trace: bool,
    spans: Option<PathBuf>,
    cfg: Config,
}

fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("bad {flag} value `{text}`"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        trace: false,
        spans: None,
        cfg: Config {
            workload: Workload::Deduce,
            seed: 1,
            seconds: 25.0,
            requests: None,
            timeout: Duration::from_secs(2),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?)
            }
            "--seed" => out.cfg.seed = number(v, flag)?,
            "--seconds" => out.cfg.seconds = number(v, flag)?,
            "--trace" => {
                out.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--spans" => out.spans = Some(PathBuf::from(v)),
            "--requests" => out.cfg.requests = Some(number(v, flag)?),
            "--timeout-ms" => out.cfg.timeout = Duration::from_millis(number(v, flag)?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = out.cfg.seconds;
    if !seconds.is_finite()
        || seconds <= 0.0
        || out.cfg.requests == Some(0)
        || out.cfg.timeout.is_zero()
    {
        return Err(
            "--seconds, --requests and --timeout-ms must be positive and finite".to_owned(),
        );
    }
    Ok(out)
}

/// Runs every workload in a child process of its own, so that each gets
/// its own peak resident set.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut worst = 0u8;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .status()
            .map_err(|e| format!("cannot run the {} child: {e}", w.name()))?;
        let code = status.code().map_or(1, |c| u8::try_from(c).unwrap_or(1));
        worst = worst.max(code);
    }
    Ok(ExitCode::from(worst))
}

fn print_report(workload: Workload, report: &Report) {
    let name = workload.name();
    for (key, v) in &report.info {
        println!("{name} {key} {v}");
    }
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() {
            Json::from(m.value)
        } else {
            Json::Null
        };
        metrics.push((
            m.name.to_owned(),
            Json::obj([("value", value), ("unit", Json::str(m.unit))]),
        ));
    }
    let result = Json::obj([
        ("correct", Json::from(report.failed == 0)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
}

fn run_one(workload: Workload, args: Args) -> Result<ExitCode, String> {
    let cfg = Config {
        workload,
        ..args.cfg
    };
    let report = if args.trace {
        let (report, spans) = trace::per_layer(&cfg)?;
        let path = args.spans.unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench/out/spans-{}-seed{}.jsonl",
                workload.name(),
                cfg.seed
            ))
        });
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let text: String = spans
            .iter()
            .map(|s| s.to_json().to_string() + "\n")
            .collect();
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "{}: {} spans written to {}",
            workload.name(),
            spans.len(),
            path.display()
        );
        report
    } else {
        run::end_to_end(&cfg)?
    };
    print_report(workload, &report);
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match parsed.workload {
        Some(w) => run_one(w, parsed),
        None => run_all(&args),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("perfbench: {msg}");
        ExitCode::from(1)
    })
}
