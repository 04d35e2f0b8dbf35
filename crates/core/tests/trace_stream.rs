//! Invariants of the one record stream, over a recorded 2-thread
//! cooperative solve: the folded span tree accounts for every stage's
//! metric time exactly, the search records sum to the report's `search`
//! block, and the `dryadsynth --render` mode reproduces from a written
//! trace file exactly what the renderers print from the records in memory.

use dryadsynth::{
    parse_trace, search_log, span_profile, trace_jsonl, DryadSynth, DryadSynthConfig, Engine,
    Rendering, SolveReport, SolveRequest, SynthOutcome, Synthesizer,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;
use sygus_ast::{Budget, Json, Record, Stage, Tracer};

/// An invariant problem deduction cannot close, so the parallel height
/// search runs on both worker threads.
const INV: &str = "(set-logic LIA)
(synth-inv inv ((x Int)))
(define-fun pre ((x Int)) Bool (= x 0))
(define-fun trans ((x Int) (x! Int)) Bool (= x! (ite (< x 100) (+ x 1) x)))
(define-fun post ((x Int)) Bool (=> (not (< x 100)) (= x 100)))
(inv-constraint inv pre trans post)
(check-synth)";

fn recorded_solve() -> (Tracer, SolveReport) {
    let problem = sygus_parser::parse_problem(INV).unwrap();
    let tracer = Tracer::recording();
    let solver = DryadSynth::new(DryadSynthConfig {
        engine: Engine::Cooperative,
        threads: 2,
        ..DryadSynthConfig::default()
    });
    let budget = Budget::from_timeout(Duration::from_secs(60)).with_tracer(tracer.clone());
    let report = solver.solve(&SolveRequest::new(&problem).with_budget(budget));
    assert!(
        matches!(report.outcome, SynthOutcome::Solved(_)),
        "{:?}",
        report.outcome
    );
    (tracer, report)
}

fn counter(block: &Json, key: &str) -> u64 {
    block.get(key).and_then(Json::as_i64).unwrap_or(0) as u64
}

#[test]
fn folded_paths_account_for_every_stage_exactly_and_search_sums_to_the_report() {
    let (tracer, report) = recorded_solve();
    let records = tracer.records();

    // The solve really ran on two threads.
    let threads: BTreeSet<u64> = records
        .iter()
        .filter(|r| matches!(r, Record::Span { .. }))
        .filter_map(|r| r.stamp().map(|s| s.thread))
        .collect();
    assert!(threads.len() >= 2, "spans came from threads {threads:?}");
    assert!(tracer.metrics().stage(Stage::Worker).count() >= 2);

    // For every stage, the folded paths ending in it carry exactly the
    // stage's metrics total.
    let mut by_leaf: BTreeMap<String, u64> = BTreeMap::new();
    for (path, stat) in span_profile(&records) {
        let leaf = path.rsplit(';').next().unwrap_or_default().to_owned();
        *by_leaf.entry(leaf).or_default() += stat.total_micros;
    }
    for stage in Stage::ALL {
        assert_eq!(
            by_leaf.get(stage.name()).copied().unwrap_or(0),
            tracer.metrics().stage(stage).total_micros(),
            "stage {}",
            stage.name()
        );
    }

    // The search records sum exactly to the report's `search` block.
    let doc = report.report.to_json();
    let block = doc.get("search").expect("the solve reached the SAT core");
    let lines: Vec<Json> = search_log(&records)
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(counter(block, "intervals"), lines.len() as u64);
    for key in ["conflicts", "decisions", "propagations", "restarts", "phase_flips"] {
        let sum: u64 = lines.iter().map(|l| counter(l, key)).sum();
        assert_eq!(sum, counter(block, key), "{key}");
    }
}

/// Runs `dryadsynth` with `args`, returning (exit code, stdout, stderr).
fn dryadsynth(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dryadsynth"))
        .args(args)
        .output()
        .expect("dryadsynth runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dryadsynth-trace-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn render_mode_reproduces_the_in_memory_renderings() {
    let (tracer, _) = recorded_solve();
    let records = tracer.records();
    let path = scratch("inv.trace.jsonl");
    std::fs::write(&path, trace_jsonl(&records)).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(parse_trace(&text).unwrap(), records, "trace file round trip");
    let file = path.to_str().unwrap();
    for kind in ["dot", "folded", "search"] {
        let (code, stdout, stderr) = dryadsynth(&["--render", kind, file]);
        assert_eq!(code, 0, "{kind}: {stderr}");
        let rendering: Rendering = kind.parse().unwrap();
        assert_eq!(stdout, rendering.render(&records), "{kind}");
        assert!(!stdout.is_empty(), "{kind} rendering is empty");
    }
    // Bad kinds and malformed traces are usage errors.
    assert_eq!(dryadsynth(&["--render", "flame", file]).0, 2);
    let bad = scratch("bad.trace.jsonl");
    std::fs::write(&bad, "{\"type\":\"span\"}\n").unwrap();
    let (code, _, stderr) = dryadsynth(&["--render", "dot", bad.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(stderr.contains("line 1"), "{stderr}");
}

#[test]
fn removed_sink_flags_are_unknown() {
    for flag in ["--dot", "--profile", "--search-log"] {
        let (code, _, stderr) = dryadsynth(&[flag, "out.txt", "problem.sl"]);
        assert_eq!(code, 2, "{flag}");
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}
