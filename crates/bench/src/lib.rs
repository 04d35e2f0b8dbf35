//! `bench-harness`: the evaluation harness that regenerates every table and
//! figure of the paper's Section 7 on the generated benchmark suite.
//!
//! The harness runs each solver on each benchmark once (with a per-problem
//! wall-clock timeout), independently re-verifies every claimed solution,
//! and derives all figures from the resulting [`RunRecord`] matrix:
//!
//! * Figure 10 — solved benchmarks per track per solver;
//! * Figure 11 — fastest-solved counts (pseudo-log buckets);
//! * Figure 12 — #solved vs cumulative time;
//! * Figure 13 — per-benchmark times, ascending;
//! * Table 1 — smallest-solution counts and median sizes;
//! * Figure 14 — cooperative vs plain height enumeration;
//! * Figure 15 — deduction-only vs cooperative solved counts;
//! * Figure 16 — vanilla vs EUSolver-backed DryadSynth;
//! * the "uniquely solved" statistic.

#![warn(missing_docs)]

pub mod compare;
pub mod explain;

use dryadsynth::{outcome_label, verify_solution, SolveRequest, SynthOutcome, Synthesizer};
use std::time::Duration;
use sygus_ast::{Json, Tracer};
use sygus_benchmarks::{Benchmark, Track};

// The shared resource-governance handle, re-exported so harness extensions
// can budget their own verification passes.
pub use compare::{compare, BenchDoc, BenchRun, CompareConfig, CompareReport, TimeDelta};
pub use explain::{explain, family};
pub use dryadsynth::{Budget, BudgetError};

/// One (solver, benchmark) measurement.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Benchmark track.
    pub track: Track,
    /// Solver display name.
    pub solver: String,
    /// Whether a verified solution was produced within the timeout.
    pub solved: bool,
    /// The stable outcome label (`solved` / `timeout` / `resource-exhausted`
    /// / `gave-up`), or `unverified` when a claimed solution failed the
    /// harness's independent re-verification.
    pub outcome: String,
    /// Wall-clock seconds spent.
    pub seconds: f64,
    /// `seconds` on the competition's pseudo-log scale
    /// ([`sygus_ast::time_bucket`]).
    pub time_bucket: usize,
    /// Solution size (node count) when solved.
    pub size: Option<usize>,
    /// `size` on the pseudo-log scale ([`sygus_ast::size_bucket`]).
    pub size_bucket: Option<usize>,
    /// Per-stage cumulative span time in microseconds, from the run's
    /// tracer ([`sygus_ast::Stage`] names, zero-count stages omitted).
    pub stage_micros: Vec<(String, u64)>,
    /// The run's `search.*` analytics counters (CDCL conflicts, decisions,
    /// propagations, LBD sums, theory work — see the smtkit search-analytics
    /// layer), sorted by name; empty when the run never reached the SMT
    /// core.
    pub search: Vec<(String, u64)>,
}

/// Per-problem timeout, configurable with `BENCH_TIMEOUT_SECS`.
pub fn problem_timeout() -> Duration {
    std::env::var("BENCH_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs)
        .unwrap_or(Duration::from_secs(5))
}

/// Runs one solver on one benchmark, re-verifying any claimed solution.
///
/// Each run gets a fresh metrics-only [`Tracer`] on its [`Budget`], so the
/// per-stage timing totals in the record cover exactly that (solver,
/// benchmark) pair and the instrumentation adds no per-event allocation.
pub fn run_one(solver: &dyn Synthesizer, bench: &Benchmark, timeout: Duration) -> RunRecord {
    let problem = bench.problem();
    let tracer = Tracer::metrics_only();
    let budget = Budget::from_timeout(timeout).with_tracer(tracer.clone());
    let request = SolveRequest::new(&problem)
        .with_budget(budget)
        .with_source(bench.name.clone());
    let report = solver.solve(&request);
    let (outcome, seconds) = (report.outcome, report.seconds);
    let mut label = outcome_label(&outcome);
    let (solved, size) = match &outcome {
        SynthOutcome::Solved(body) => {
            // Never trust a solver in the evaluation: re-verify. The
            // verification pass runs on its own budget (and tracer) so it
            // does not pollute the solver's stage timings.
            let verify_budget = Budget::from_timeout(timeout);
            if verify_solution(&problem, body, Some(&verify_budget)) {
                (true, Some(body.size()))
            } else {
                label = "unverified";
                (false, None)
            }
        }
        _ => (false, None),
    };
    let snapshot = tracer.metrics().snapshot();
    let stage_micros = snapshot
        .stages
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| (s.stage.to_owned(), s.total_micros))
        .collect();
    let search = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("search."))
        .cloned()
        .collect();
    RunRecord {
        benchmark: bench.name.clone(),
        track: bench.track,
        solver: solver.name().to_owned(),
        solved,
        outcome: label.to_owned(),
        seconds,
        time_bucket: sygus_ast::time_bucket(seconds),
        size,
        size_bucket: size.map(sygus_ast::size_bucket),
        stage_micros,
        search,
    }
}

/// Runs the full matrix: every solver on every benchmark.
pub fn run_matrix(
    solvers: &[Box<dyn Synthesizer>],
    suite: &[Benchmark],
    timeout: Duration,
    mut progress: impl FnMut(&RunRecord),
) -> Vec<RunRecord> {
    let mut out = Vec::with_capacity(solvers.len() * suite.len());
    for bench in suite {
        for solver in solvers {
            let rec = run_one(solver.as_ref(), bench, timeout);
            progress(&rec);
            out.push(rec);
        }
    }
    out
}

fn solvers_in(records: &[RunRecord]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in records {
        if !out.contains(&r.solver) {
            out.push(r.solver.clone());
        }
    }
    out
}

fn tracks_in(records: &[RunRecord]) -> Vec<Track> {
    Track::all()
        .into_iter()
        .filter(|t| records.iter().any(|r| r.track == *t))
        .collect()
}

/// Figure 10: solved benchmarks per (solver, track).
pub fn fig10_solved_by_track(records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("[fig10] solved benchmarks (breakdown by track)\n");
    out.push_str(&format!("{:<28}", "solver"));
    for t in tracks_in(records) {
        out.push_str(&format!("{:>9}", t.name()));
    }
    out.push_str(&format!("{:>9}\n", "total"));
    for s in solvers_in(records) {
        out.push_str(&format!("{s:<28}"));
        let mut total = 0;
        for t in tracks_in(records) {
            let n = records
                .iter()
                .filter(|r| r.solver == s && r.track == t && r.solved)
                .count();
            total += n;
            out.push_str(&format!("{n:>9}"));
        }
        out.push_str(&format!("{total:>9}\n"));
    }
    out
}

/// Figure 11: fastest-solved counts per (solver, track), with the
/// competition's pseudo-logarithmic time buckets (ties within a bucket are
/// shared wins).
pub fn fig11_fastest_by_track(records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("[fig11] fastest-solved benchmarks (pseudo-log buckets, breakdown by track)\n");
    out.push_str(&format!("{:<28}", "solver"));
    for t in tracks_in(records) {
        out.push_str(&format!("{:>9}", t.name()));
    }
    out.push('\n');
    let benchmarks: Vec<&str> = {
        let mut v: Vec<&str> = records.iter().map(|r| r.benchmark.as_str()).collect();
        v.sort();
        v.dedup();
        v
    };
    for s in solvers_in(records) {
        out.push_str(&format!("{s:<28}"));
        for t in tracks_in(records) {
            let mut wins = 0;
            for b in &benchmarks {
                let here: Vec<&RunRecord> = records
                    .iter()
                    .filter(|r| r.benchmark == *b && r.track == t && r.solved)
                    .collect();
                let Some(me) = here.iter().find(|r| r.solver == s) else {
                    continue;
                };
                let my_bucket = sygus_ast::time_bucket(me.seconds);
                if here
                    .iter()
                    .all(|r| sygus_ast::time_bucket(r.seconds) >= my_bucket)
                {
                    wins += 1;
                }
            }
            out.push_str(&format!("{wins:>9}"));
        }
        out.push('\n');
    }
    out
}

/// Figure 12: number solved vs cumulative solving time, per track.
pub fn fig12_cumulative(records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("[fig12] solved count vs cumulative time (per track)\n");
    for t in tracks_in(records) {
        out.push_str(&format!("  track {t}\n"));
        for s in solvers_in(records) {
            let mut times: Vec<f64> = records
                .iter()
                .filter(|r| r.solver == s && r.track == t && r.solved)
                .map(|r| r.seconds)
                .collect();
            times.sort_by(|a, b| a.total_cmp(b));
            let mut cum = 0.0;
            let series: Vec<String> = times
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    cum += t;
                    format!("({},{:.2})", i + 1, cum)
                })
                .collect();
            out.push_str(&format!(
                "    {s}: {} solved, cumulative {}\n",
                times.len(),
                if series.is_empty() {
                    "-".to_owned()
                } else {
                    series.join(" ")
                }
            ));
        }
    }
    out
}

/// Figure 13: per-benchmark solving time in ascending order, per track.
pub fn fig13_times_ascending(records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("[fig13] per-benchmark solving time, ascending (per track)\n");
    for t in tracks_in(records) {
        out.push_str(&format!("  track {t}\n"));
        for s in solvers_in(records) {
            let mut times: Vec<f64> = records
                .iter()
                .filter(|r| r.solver == s && r.track == t && r.solved)
                .map(|r| r.seconds)
                .collect();
            times.sort_by(|a, b| a.total_cmp(b));
            let series: Vec<String> = times.iter().map(|x| format!("{x:.3}")).collect();
            out.push_str(&format!("    {s}: [{}]\n", series.join(", ")));
        }
    }
    out
}

/// Table 1: number of smallest solutions (bucketed sizes) and median
/// solution size per (solver, track).
pub fn table1_solution_sizes(records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("[table1] smallest solutions (bucketed) and median size\n");
    out.push_str(&format!(
        "{:<28}{:>22}{:>22}\n",
        "solver", "smallest (I/C/G)", "median size (I/C/G)"
    ));
    let benchmarks: Vec<&str> = {
        let mut v: Vec<&str> = records.iter().map(|r| r.benchmark.as_str()).collect();
        v.sort();
        v.dedup();
        v
    };
    for s in solvers_in(records) {
        let mut smallest = Vec::new();
        let mut medians = Vec::new();
        for t in tracks_in(records) {
            let mut wins = 0;
            let mut sizes: Vec<f64> = Vec::new();
            for b in &benchmarks {
                let here: Vec<&RunRecord> = records
                    .iter()
                    .filter(|r| r.benchmark == *b && r.track == t && r.solved)
                    .collect();
                let Some(me) = here.iter().find(|r| r.solver == s) else {
                    continue;
                };
                let my_size = me.size.expect("solved has size");
                sizes.push(my_size as f64);
                let my_bucket = sygus_ast::size_bucket(my_size);
                if here
                    .iter()
                    .all(|r| sygus_ast::size_bucket(r.size.expect("solved")) >= my_bucket)
                {
                    wins += 1;
                }
            }
            smallest.push(wins.to_string());
            medians.push(
                sygus_ast::median(&mut sizes)
                    .map(|m| format!("{m:.1}"))
                    .unwrap_or_else(|| "-".to_owned()),
            );
        }
        out.push_str(&format!(
            "{s:<28}{:>22}{:>22}\n",
            smallest.join("/"),
            medians.join("/")
        ));
    }
    out
}

/// Figure 14/16 style scatter: per-benchmark time pairs between two
/// solvers (both must appear in the records).
pub fn scatter_pairs(records: &[RunRecord], solver_a: &str, solver_b: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "[scatter] {solver_a} (x) vs {solver_b} (y); TO = not solved\n"
    ));
    let benchmarks: Vec<&str> = {
        let mut v: Vec<&str> = records.iter().map(|r| r.benchmark.as_str()).collect();
        v.sort();
        v.dedup();
        v
    };
    let mut a_better = 0;
    let mut b_better = 0;
    for b in benchmarks {
        let ra = records
            .iter()
            .find(|r| r.benchmark == b && r.solver == solver_a);
        let rb = records
            .iter()
            .find(|r| r.benchmark == b && r.solver == solver_b);
        let (Some(ra), Some(rb)) = (ra, rb) else {
            continue;
        };
        let fmt = |r: &RunRecord| {
            if r.solved {
                format!("{:.3}", r.seconds)
            } else {
                "TO".to_owned()
            }
        };
        match (ra.solved, rb.solved) {
            (true, false) => a_better += 1,
            (false, true) => b_better += 1,
            (true, true) if ra.seconds < rb.seconds => a_better += 1,
            (true, true) if rb.seconds < ra.seconds => b_better += 1,
            _ => {}
        }
        out.push_str(&format!("  {b}: ({}, {})\n", fmt(ra), fmt(rb)));
    }
    out.push_str(&format!(
        "  summary: {solver_a} faster/solves-more on {a_better}, {solver_b} on {b_better}\n"
    ));
    out
}

/// Figure 15: per track, benchmarks solved by pure deduction vs additional
/// ones solved by the full cooperative solver.
pub fn fig15_deduction_share(records: &[RunRecord], deduct: &str, coop: &str) -> String {
    let mut out = String::new();
    out.push_str("[fig15] solved by pure deduction vs with enumeration's help\n");
    let mut ded_total = 0usize;
    let mut coop_total = 0usize;
    for t in tracks_in(records) {
        let ded = records
            .iter()
            .filter(|r| r.solver == deduct && r.track == t && r.solved)
            .count();
        let all = records
            .iter()
            .filter(|r| r.solver == coop && r.track == t && r.solved)
            .count();
        ded_total += ded;
        coop_total += all;
        out.push_str(&format!(
            "  {t}: deduction alone {ded}, cooperative total {all} (enumeration adds {})\n",
            all.saturating_sub(ded)
        ));
    }
    if coop_total > 0 {
        out.push_str(&format!(
            "  share solved by pure deduction: {:.1}%\n",
            100.0 * ded_total as f64 / coop_total as f64
        ));
    }
    out
}

/// Benchmarks solved by exactly one solver (the "58 uniquely solved"
/// statistic), restricted to the competition lineup.
pub fn unique_solved(records: &[RunRecord], lineup: &[&str]) -> String {
    let mut out = String::new();
    out.push_str("[unique] benchmarks solved by exactly one solver\n");
    let benchmarks: Vec<&str> = {
        let mut v: Vec<&str> = records.iter().map(|r| r.benchmark.as_str()).collect();
        v.sort();
        v.dedup();
        v
    };
    for s in lineup {
        let mut uniques: Vec<&str> = Vec::new();
        for b in &benchmarks {
            let solvers_that_solved: Vec<&str> = records
                .iter()
                .filter(|r| r.benchmark == *b && r.solved && lineup.contains(&r.solver.as_str()))
                .map(|r| r.solver.as_str())
                .collect();
            if solvers_that_solved == vec![*s] {
                uniques.push(b);
            }
        }
        out.push_str(&format!(
            "  {s}: {} uniquely solved{}{}\n",
            uniques.len(),
            if uniques.is_empty() { "" } else { ": " },
            uniques.join(", ")
        ));
    }
    out
}

/// Renders the matrix as CSV (for external plotting).
pub fn to_csv(records: &[RunRecord]) -> String {
    let mut out = String::from("benchmark,track,solver,solved,seconds,size\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{:.4},{}\n",
            r.benchmark,
            r.track,
            r.solver,
            r.solved,
            r.seconds,
            r.size.map(|s| s.to_string()).unwrap_or_default()
        ));
    }
    out
}

/// The `BENCH_observability.json` emitter: the whole run matrix as one
/// versioned JSON document (schema version [`dryadsynth::REPORT_VERSION`]),
/// with per-benchmark outcome, wall time, pseudo-log bucket indices, and
/// per-stage timing totals. The document's `theory` field names the
/// process's theory-engine setting (`auto` or `simplex`), so `bench compare`
/// can tell an engine switch from a search regression.
pub fn observability_json(records: &[RunRecord]) -> String {
    let runs: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut fields: Vec<(&str, Json)> = vec![
                ("benchmark", Json::str(&r.benchmark)),
                ("track", Json::str(r.track.name())),
                ("solver", Json::str(&r.solver)),
                ("outcome", Json::str(&r.outcome)),
                ("solved", Json::from(r.solved)),
                ("seconds", Json::from(r.seconds)),
                ("time_bucket", Json::from(r.time_bucket)),
            ];
            if let Some(size) = r.size {
                fields.push(("size", Json::from(size)));
            }
            if let Some(bucket) = r.size_bucket {
                fields.push(("size_bucket", Json::from(bucket)));
            }
            fields.push((
                "stage_micros",
                Json::Obj(
                    r.stage_micros
                        .iter()
                        .map(|(stage, micros)| (stage.clone(), Json::from(*micros)))
                        .collect(),
                ),
            ));
            // Search analytics keyed without the `search.` prefix — the
            // same shape `bench compare` reads back for its search gate.
            if !r.search.is_empty() {
                fields.push((
                    "search",
                    Json::Obj(
                        r.search
                            .iter()
                            .map(|(name, value)| {
                                let key = name.strip_prefix("search.").unwrap_or(name);
                                (key.to_owned(), Json::from(*value))
                            })
                            .collect(),
                    ),
                ));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("version", Json::from(dryadsynth::REPORT_VERSION)),
        ("theory", Json::str(smtkit::process_default_theory().as_str())),
        ("runs", Json::Arr(runs)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(b: &str, t: Track, s: &str, solved: bool, secs: f64, size: Option<usize>) -> RunRecord {
        RunRecord {
            benchmark: b.to_owned(),
            track: t,
            solver: s.to_owned(),
            solved,
            outcome: if solved { "solved" } else { "timeout" }.to_owned(),
            seconds: secs,
            time_bucket: sygus_ast::time_bucket(secs),
            size,
            size_bucket: size.map(sygus_ast::size_bucket),
            stage_micros: vec![("smt".to_owned(), 120)],
            search: vec![
                ("search.conflicts_total".to_owned(), 40),
                ("search.lbd_count".to_owned(), 40),
                ("search.lbd_sum".to_owned(), 120),
            ],
        }
    }

    fn sample() -> Vec<RunRecord> {
        vec![
            rec("b1", Track::Clia, "A", true, 0.1, Some(5)),
            rec("b1", Track::Clia, "B", true, 2.0, Some(12)),
            rec("b2", Track::Clia, "A", true, 0.5, Some(7)),
            rec("b2", Track::Clia, "B", false, 5.0, None),
            rec("b3", Track::Inv, "A", false, 5.0, None),
            rec("b3", Track::Inv, "B", true, 0.2, Some(3)),
        ]
    }

    #[test]
    fn fig10_counts() {
        let s = fig10_solved_by_track(&sample());
        let a_line = s.lines().find(|l| l.starts_with('A')).unwrap();
        // A: INV 0, CLIA 2, total 2.
        assert!(a_line.trim_end().ends_with('2'), "{a_line}");
    }

    #[test]
    fn fig11_bucketed_ties() {
        let s = fig11_fastest_by_track(&sample());
        // On b1, A is in bucket 0 and B in bucket 1: A wins both CLIA.
        let a_line = s.lines().find(|l| l.starts_with('A')).unwrap();
        assert!(a_line.contains('2'), "{a_line}");
    }

    #[test]
    fn unique_counts() {
        let s = unique_solved(&sample(), &["A", "B"]);
        assert!(s.contains("A: 1 uniquely solved: b2"), "{s}");
        assert!(s.contains("B: 1 uniquely solved: b3"), "{s}");
    }

    #[test]
    fn scatter_summary() {
        let s = scatter_pairs(&sample(), "A", "B");
        assert!(s.contains("(0.100, 2.000)"), "{s}");
        assert!(s.contains("summary"), "{s}");
    }

    #[test]
    fn table1_medians() {
        let s = table1_solution_sizes(&sample());
        assert!(s.contains("6.0"), "median of 5 and 7 expected in {s}");
    }

    #[test]
    fn csv_shape() {
        let csv = to_csv(&sample());
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.lines().nth(1).unwrap().starts_with("b1,CLIA,A,true"));
    }

    #[test]
    fn observability_json_is_versioned_and_parses() {
        let text = observability_json(&sample());
        let doc = Json::parse(&text).expect("emitter output must parse");
        assert_eq!(
            doc.get("version").and_then(Json::as_i64),
            Some(dryadsynth::REPORT_VERSION as i64)
        );
        assert_eq!(
            doc.get("theory").and_then(Json::as_str),
            Some(smtkit::process_default_theory().as_str())
        );
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 6);
        let first = &runs[0];
        assert_eq!(first.get("outcome").and_then(Json::as_str), Some("solved"));
        assert_eq!(first.get("time_bucket").and_then(Json::as_i64), Some(0));
        assert_eq!(first.get("size_bucket").and_then(Json::as_i64), Some(0));
        assert_eq!(
            first
                .get("stage_micros")
                .and_then(|m| m.get("smt"))
                .and_then(Json::as_i64),
            Some(120)
        );
        // Unsolved records omit the size fields but keep the time bucket.
        let unsolved = runs.iter().find(|r| r.get("solved").and_then(Json::as_bool) == Some(false)).unwrap();
        assert!(unsolved.get("size").is_none());
        assert_eq!(unsolved.get("outcome").and_then(Json::as_str), Some("timeout"));
        // Search analytics ride along with the prefix stripped.
        assert_eq!(
            first
                .get("search")
                .and_then(|s| s.get("conflicts_total"))
                .and_then(Json::as_i64),
            Some(40)
        );
    }

    #[test]
    fn fig15_shares() {
        let recs = vec![
            rec("b1", Track::Clia, "Deduction", true, 0.1, Some(5)),
            rec("b1", Track::Clia, "DryadSynth", true, 0.1, Some(5)),
            rec("b2", Track::Clia, "Deduction", false, 5.0, None),
            rec("b2", Track::Clia, "DryadSynth", true, 0.4, Some(9)),
        ];
        let s = fig15_deduction_share(&recs, "Deduction", "DryadSynth");
        assert!(s.contains("deduction alone 1, cooperative total 2"), "{s}");
        assert!(s.contains("50.0%"), "{s}");
    }
}
