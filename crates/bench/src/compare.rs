//! The bench regression harness: diffing two `BENCH*.json` trajectory
//! files (as written by [`observability_json`](crate::observability_json)
//! and the `bench run` subcommand).
//!
//! A comparison matches runs by `(solver, benchmark)` key and reports three
//! classes of difference, each with its own gate:
//!
//! * **Solved-set changes** — a benchmark solved in the old file but not in
//!   the new one (or missing from it entirely) is always a regression; the
//!   solved set is the paper's headline number and must never shrink
//!   silently. Newly solved benchmarks are reported as improvements.
//! * **Per-benchmark time changes** — a solved-in-both run is a regression
//!   when the new time exceeds the old by more than the noise threshold
//!   (relative fraction) *and* the absolute floor (so microsecond-scale
//!   runs cannot trip the relative gate on scheduler noise).
//! * **Per-stage time changes** — same thresholds, applied to the
//!   `stage_micros` totals, so a regression can be attributed to the stage
//!   that slowed down even when the end-to-end time gate stays quiet.
//! * **Search-metric changes** — the same relative threshold applied to
//!   the machine-independent CDCL work counters (`conflicts_total`,
//!   `decisions_total`, `propagations_total`, theory pivot/relaxation
//!   totals) with an absolute floor in counter units, so a search-strategy
//!   regression is caught even on hardware where wall times are noisy.
//!   The gate is skipped per run when either side lacks search data (e.g.
//!   a baseline written before the search-analytics layer existed). The
//!   engine-specific counters (pivots, relaxations) gate only when both
//!   documents name the same `theory` setting: switching the engine moves
//!   work between them by design. A document without the field gates them
//!   as before.
//!
//! With [`CompareConfig::solved_only`] the time gates are reported but do
//! not fail the comparison — the mode for cross-machine CI gates, where
//! absolute times are not comparable but the solved set is. Search-metric
//! gates stay live in that mode: conflict counts are a property of the
//! search, not the machine.

use crate::RunRecord;
use std::collections::BTreeMap;
use sygus_ast::Json;

/// One run parsed back out of a `BENCH*.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRun {
    /// Benchmark name.
    pub benchmark: String,
    /// Solver display name.
    pub solver: String,
    /// Whether the run solved (with verification) within its timeout.
    pub solved: bool,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Per-stage cumulative micros, sorted by stage name.
    pub stage_micros: BTreeMap<String, u64>,
    /// Search-analytics totals (prefix-stripped `search.*` counters:
    /// `conflicts_total`, `lbd_sum`, ...), empty for documents written
    /// before the search-analytics layer.
    pub search: BTreeMap<String, u64>,
}

impl BenchRun {
    /// The `(solver, benchmark)` identity used to match runs across files.
    pub fn key(&self) -> String {
        format!("{}/{}", self.solver, self.benchmark)
    }
}

/// A parsed `BENCH*.json` trajectory document.
#[derive(Clone, Debug, Default)]
pub struct BenchDoc {
    /// The document's schema version field.
    pub version: i64,
    /// The theory-engine setting the runs used (`auto`, `simplex`); `None`
    /// for documents that do not record it.
    pub theory: Option<String>,
    /// Every run in document order.
    pub runs: Vec<BenchRun>,
}

impl BenchDoc {
    /// Parses the output of
    /// [`observability_json`](crate::observability_json).
    ///
    /// # Errors
    ///
    /// A human-readable message when the text is not JSON or runs lack the
    /// required fields.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let version = doc
            .get("version")
            .and_then(Json::as_i64)
            .ok_or("missing `version` field")?;
        let runs_json = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("missing `runs` array")?;
        let mut runs = Vec::with_capacity(runs_json.len());
        for (i, run) in runs_json.iter().enumerate() {
            let field_str = |name: &str| {
                run.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("run {i}: missing `{name}`"))
            };
            let mut stage_micros = BTreeMap::new();
            if let Some(Json::Obj(stages)) = run.get("stage_micros") {
                for (stage, micros) in stages {
                    stage_micros.insert(
                        stage.clone(),
                        micros.as_i64().unwrap_or(0).max(0) as u64,
                    );
                }
            }
            runs.push(BenchRun {
                benchmark: field_str("benchmark")?,
                solver: field_str("solver")?,
                solved: run
                    .get("solved")
                    .and_then(Json::as_bool)
                    .ok_or(format!("run {i}: missing `solved`"))?,
                seconds: run
                    .get("seconds")
                    .and_then(Json::as_f64)
                    .ok_or(format!("run {i}: missing `seconds`"))?,
                stage_micros,
                search: parse_counter_obj(run.get("search")),
            });
        }
        let theory = doc.get("theory").and_then(Json::as_str).map(str::to_owned);
        Ok(BenchDoc {
            version,
            theory,
            runs,
        })
    }

    /// Parses a `dryadsynthd` audit log (`--audit`, one JSON object per
    /// line) into a comparable document: benchmark = request id, solver =
    /// `dryadsynthd`, seconds = `solve_us`. Records that never ran an
    /// engine (shed or cancelled while still queued — no `solve_us`) are
    /// skipped; an engine run is a data point whatever its outcome.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line, or stating that no
    /// engine-run records were found.
    pub fn parse_audit_jsonl(text: &str) -> Result<BenchDoc, String> {
        let mut runs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("audit line {}: {e}", i + 1))?;
            let field_str = |name: &str| {
                v.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("audit line {}: missing `{name}`", i + 1))
            };
            let id = field_str("id")?;
            let outcome = field_str("outcome")?;
            let Some(solve_us) = v.get("solve_us").and_then(Json::as_i64) else {
                continue;
            };
            let mut stage_micros = BTreeMap::new();
            if let Some(Json::Obj(stages)) = v.get("stages") {
                for (stage, micros) in stages {
                    stage_micros.insert(
                        stage.clone(),
                        micros.as_i64().unwrap_or(0).max(0) as u64,
                    );
                }
            }
            runs.push(BenchRun {
                benchmark: id,
                solver: "dryadsynthd".to_owned(),
                solved: outcome == "solved",
                seconds: solve_us.max(0) as f64 / 1e6,
                stage_micros,
                search: parse_counter_obj(v.get("search")),
            });
        }
        if runs.is_empty() {
            return Err("no engine-run audit records found".to_owned());
        }
        Ok(BenchDoc {
            version: dryadsynth::REPORT_VERSION as i64,
            theory: None,
            runs,
        })
    }

    /// Parses any supported input by shape: a `BENCH*.json` trajectory
    /// document or a `dryadsynthd` audit log.
    ///
    /// # Errors
    ///
    /// A message combining both parsers' complaints when the text is
    /// neither.
    pub fn parse_any(text: &str) -> Result<BenchDoc, String> {
        let doc_err = match BenchDoc::parse(text) {
            Ok(doc) => return Ok(doc),
            Err(e) => e,
        };
        BenchDoc::parse_audit_jsonl(text).map_err(|audit_err| {
            format!(
                "neither a bench document ({doc_err}) nor an audit log ({audit_err})"
            )
        })
    }

    /// Converts an in-process record matrix (no JSON round trip), for tests
    /// and same-process comparisons.
    pub fn from_records(records: &[RunRecord]) -> BenchDoc {
        BenchDoc {
            version: dryadsynth::REPORT_VERSION as i64,
            theory: None,
            runs: records
                .iter()
                .map(|r| BenchRun {
                    benchmark: r.benchmark.clone(),
                    solver: r.solver.clone(),
                    solved: r.solved,
                    seconds: r.seconds,
                    stage_micros: r.stage_micros.iter().cloned().collect(),
                    search: r
                        .search
                        .iter()
                        .map(|(name, value)| {
                            let key = name.strip_prefix("search.").unwrap_or(name);
                            (key.to_owned(), *value)
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Extracts a flat `{name: count}` JSON object into a counter map (absent
/// or malformed objects yield an empty map, not an error — older documents
/// simply lack the field).
fn parse_counter_obj(obj: Option<&Json>) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(fields)) = obj {
        for (name, value) in fields {
            out.insert(name.clone(), value.as_i64().unwrap_or(0).max(0) as u64);
        }
    }
    out
}

/// The search counters the comparison gates on: deterministic, monotone
/// work measures. Deliberately excludes derived sums (`lbd_sum`), gauges
/// (`db_clauses`), and bookkeeping (`intervals_total`).
const GATED_SEARCH_METRICS: [&str; 3] =
    ["conflicts_total", "decisions_total", "propagations_total"];

/// Work counters of one theory engine each, gated only between documents
/// that used the same engine setting.
const GATED_ENGINE_METRICS: [&str; 2] = ["simplex_pivots_total", "dl_relaxations_total"];

/// Thresholds and mode for a comparison.
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Relative slowdown tolerated before a time counts as regressed
    /// (0.25 = new may be up to 25% slower than old).
    pub noise_frac: f64,
    /// Absolute slowdown floor in seconds: below this, relative changes are
    /// noise regardless of the fraction.
    pub min_seconds: f64,
    /// Absolute floor for search-metric regressions, in counter units: a
    /// search counter must grow by more than this *and* the relative
    /// threshold to count. Keeps tiny problems (a few hundred conflicts)
    /// from tripping the gate on enumeration-order jitter.
    pub min_search_units: u64,
    /// Gate only on the solved set (cross-machine mode): time and stage
    /// regressions are still *reported* but do not fail the comparison.
    /// Search-metric regressions still gate — work counters are
    /// machine-independent.
    pub solved_only: bool,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig {
            noise_frac: 0.25,
            min_seconds: 0.1,
            min_search_units: 1_000,
            solved_only: false,
        }
    }
}

/// One time delta that crossed the thresholds.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeDelta {
    /// The run's `(solver, benchmark)` key (plus `:stage` for stage deltas).
    pub key: String,
    /// Old value (seconds for run deltas, micros for stage deltas).
    pub old: f64,
    /// New value, same unit as `old`.
    pub new: f64,
}

/// The result of comparing two trajectory files; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Runs solved in old but not solved (or absent) in new. Always fatal.
    pub solved_regressions: Vec<String>,
    /// Runs solved in new but not in old.
    pub newly_solved: Vec<String>,
    /// Solved-in-both runs slower than the thresholds allow.
    pub time_regressions: Vec<TimeDelta>,
    /// Solved-in-both runs faster by more than the thresholds.
    pub time_improvements: Vec<TimeDelta>,
    /// Per-stage totals slower than the thresholds allow.
    pub stage_regressions: Vec<TimeDelta>,
    /// Search work counters that grew past the thresholds
    /// ([`GATED_SEARCH_METRICS`], plus [`GATED_ENGINE_METRICS`] between
    /// documents of the same engine setting; `old`/`new` carry counter
    /// values).
    pub search_regressions: Vec<TimeDelta>,
    /// Whether the time/stage gates participate in [`Self::has_regressions`].
    pub gate_times: bool,
}

impl CompareReport {
    /// Whether the comparison should fail a gate: the solved set shrank, or
    /// (unless `solved_only`) a time/stage regression crossed the
    /// thresholds.
    pub fn has_regressions(&self) -> bool {
        !self.solved_regressions.is_empty()
            || !self.search_regressions.is_empty()
            || (self.gate_times
                && (!self.time_regressions.is_empty() || !self.stage_regressions.is_empty()))
    }

    /// A human-readable summary, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for key in &self.solved_regressions {
            out.push_str(&format!("REGRESSION solved-set: {key} no longer solved\n"));
        }
        for d in &self.time_regressions {
            out.push_str(&format!(
                "{} time: {} {:.3}s -> {:.3}s (+{:.0}%)\n",
                if self.gate_times { "REGRESSION" } else { "note" },
                d.key,
                d.old,
                d.new,
                100.0 * (d.new - d.old) / d.old.max(1e-9),
            ));
        }
        for d in &self.stage_regressions {
            out.push_str(&format!(
                "{} stage: {} {:.0}us -> {:.0}us (+{:.0}%)\n",
                if self.gate_times { "REGRESSION" } else { "note" },
                d.key,
                d.old,
                d.new,
                100.0 * (d.new - d.old) / d.old.max(1e-9),
            ));
        }
        for d in &self.search_regressions {
            out.push_str(&format!(
                "REGRESSION search: {} {:.0} -> {:.0} (+{:.0}%)\n",
                d.key,
                d.old,
                d.new,
                100.0 * (d.new - d.old) / d.old.max(1e-9),
            ));
        }
        for key in &self.newly_solved {
            out.push_str(&format!("improvement solved-set: {key} newly solved\n"));
        }
        for d in &self.time_improvements {
            out.push_str(&format!(
                "improvement time: {} {:.3}s -> {:.3}s ({:.0}%)\n",
                d.key,
                d.old,
                d.new,
                100.0 * (d.new - d.old) / d.old.max(1e-9),
            ));
        }
        if out.is_empty() {
            out.push_str("no differences beyond the noise thresholds\n");
        }
        out
    }
}

/// Compares `new` against the `old` baseline; see the module docs for the
/// three gates.
pub fn compare(old: &BenchDoc, new: &BenchDoc, cfg: &CompareConfig) -> CompareReport {
    let index = |doc: &BenchDoc| -> BTreeMap<String, BenchRun> {
        doc.runs.iter().map(|r| (r.key(), r.clone())).collect()
    };
    let old_runs = index(old);
    let new_runs = index(new);
    let mut report = CompareReport {
        gate_times: !cfg.solved_only,
        ..CompareReport::default()
    };
    let same_engine = match (&old.theory, &new.theory) {
        (Some(a), Some(b)) => a == b,
        _ => true,
    };
    let engine_metrics: &[&str] = if same_engine {
        &GATED_ENGINE_METRICS
    } else {
        &[]
    };
    // A slowdown must clear both the relative and the absolute bar.
    let regressed = |old_s: f64, new_s: f64| -> bool {
        new_s > old_s * (1.0 + cfg.noise_frac) && new_s - old_s > cfg.min_seconds
    };
    for (key, old_run) in &old_runs {
        let Some(new_run) = new_runs.get(key) else {
            if old_run.solved {
                report.solved_regressions.push(key.clone());
            }
            continue;
        };
        match (old_run.solved, new_run.solved) {
            (true, false) => {
                report.solved_regressions.push(key.clone());
                continue;
            }
            (false, true) => {
                report.newly_solved.push(key.clone());
                continue;
            }
            (false, false) => continue,
            (true, true) => {}
        }
        if regressed(old_run.seconds, new_run.seconds) {
            report.time_regressions.push(TimeDelta {
                key: key.clone(),
                old: old_run.seconds,
                new: new_run.seconds,
            });
        } else if regressed(new_run.seconds, old_run.seconds) {
            report.time_improvements.push(TimeDelta {
                key: key.clone(),
                old: old_run.seconds,
                new: new_run.seconds,
            });
        }
        for (stage, &old_micros) in &old_run.stage_micros {
            let new_micros = new_run.stage_micros.get(stage).copied().unwrap_or(0);
            if regressed(
                old_micros as f64 / 1e6,
                new_micros as f64 / 1e6,
            ) {
                report.stage_regressions.push(TimeDelta {
                    key: format!("{key}:{stage}"),
                    old: old_micros as f64,
                    new: new_micros as f64,
                });
            }
        }
        // The search gate needs both sides instrumented; a baseline from
        // before the analytics layer (or a run that never hit the SMT
        // core) contributes nothing rather than a spurious zero baseline.
        if !old_run.search.is_empty() && !new_run.search.is_empty() {
            for &metric in GATED_SEARCH_METRICS.iter().chain(engine_metrics) {
                let old_v = old_run.search.get(metric).copied().unwrap_or(0);
                let new_v = new_run.search.get(metric).copied().unwrap_or(0);
                if new_v as f64 > old_v as f64 * (1.0 + cfg.noise_frac)
                    && new_v - old_v > cfg.min_search_units
                {
                    report.search_regressions.push(TimeDelta {
                        key: format!("{key}:{metric}"),
                        old: old_v as f64,
                        new: new_v as f64,
                    });
                }
            }
        }
    }
    for (key, new_run) in &new_runs {
        if new_run.solved && !old_runs.contains_key(key) {
            report.newly_solved.push(key.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(b: &str, s: &str, solved: bool, seconds: f64, smt_micros: u64) -> BenchRun {
        BenchRun {
            benchmark: b.to_owned(),
            solver: s.to_owned(),
            solved,
            seconds,
            stage_micros: [("smt".to_owned(), smt_micros)].into_iter().collect(),
            search: BTreeMap::new(),
        }
    }

    fn with_search(mut r: BenchRun, conflicts: u64) -> BenchRun {
        r.search = [
            ("conflicts_total".to_owned(), conflicts),
            ("decisions_total".to_owned(), conflicts * 2),
        ]
        .into_iter()
        .collect();
        r
    }

    fn doc(runs: Vec<BenchRun>) -> BenchDoc {
        BenchDoc {
            version: 3,
            theory: None,
            runs,
        }
    }

    #[test]
    fn identical_docs_have_no_regressions() {
        let base = doc(vec![
            run("b1", "A", true, 1.0, 500_000),
            run("b2", "A", false, 5.0, 4_000_000),
        ]);
        let report = compare(&base, &base.clone(), &CompareConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(report.render().contains("no differences"));
    }

    #[test]
    fn twice_as_slow_is_a_regression() {
        let old = doc(vec![run("b1", "A", true, 1.0, 800_000)]);
        let new = doc(vec![run("b1", "A", true, 2.0, 1_600_000)]);
        let report = compare(&old, &new, &CompareConfig::default());
        assert!(report.has_regressions(), "{}", report.render());
        assert_eq!(report.time_regressions.len(), 1);
        assert_eq!(report.time_regressions[0].key, "A/b1");
        // The stage attribution fires too: smt doubled.
        assert_eq!(report.stage_regressions.len(), 1);
        assert_eq!(report.stage_regressions[0].key, "A/b1:smt");
    }

    #[test]
    fn sub_floor_slowdowns_are_noise() {
        // 2x slower but only 40ms absolute: below the 0.1s floor.
        let old = doc(vec![run("b1", "A", true, 0.04, 10_000)]);
        let new = doc(vec![run("b1", "A", true, 0.08, 20_000)]);
        let report = compare(&old, &new, &CompareConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn a_shrinking_solved_set_always_fails() {
        let old = doc(vec![
            run("b1", "A", true, 1.0, 0),
            run("b2", "A", true, 1.0, 0),
        ]);
        // b1 now times out; b2 vanished from the file entirely.
        let new = doc(vec![run("b1", "A", false, 5.0, 0)]);
        let solved_only = CompareConfig {
            solved_only: true,
            ..CompareConfig::default()
        };
        let report = compare(&old, &new, &solved_only);
        assert!(report.has_regressions(), "{}", report.render());
        assert_eq!(report.solved_regressions, vec!["A/b1", "A/b2"]);
    }

    #[test]
    fn solved_only_ignores_time_regressions_but_reports_them() {
        let old = doc(vec![run("b1", "A", true, 1.0, 900_000)]);
        let new = doc(vec![run("b1", "A", true, 3.0, 2_700_000)]);
        let solved_only = CompareConfig {
            solved_only: true,
            ..CompareConfig::default()
        };
        let report = compare(&old, &new, &solved_only);
        assert!(!report.has_regressions(), "{}", report.render());
        assert_eq!(report.time_regressions.len(), 1);
        assert!(report.render().contains("note time"), "{}", report.render());
    }

    #[test]
    fn improvements_are_reported_not_fatal() {
        let old = doc(vec![
            run("b1", "A", true, 2.0, 0),
            run("b2", "A", false, 5.0, 0),
        ]);
        let new = doc(vec![
            run("b1", "A", true, 0.5, 0),
            run("b2", "A", true, 1.0, 0),
        ]);
        let report = compare(&old, &new, &CompareConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert_eq!(report.newly_solved, vec!["A/b2"]);
        assert_eq!(report.time_improvements.len(), 1);
    }

    #[test]
    fn docs_round_trip_through_the_emitter() {
        let records = vec![crate::RunRecord {
            benchmark: "b1".to_owned(),
            track: sygus_benchmarks::Track::Clia,
            solver: "A".to_owned(),
            solved: true,
            outcome: "solved".to_owned(),
            seconds: 0.25,
            time_bucket: 0,
            size: Some(7),
            size_bucket: Some(0),
            stage_micros: vec![("smt".to_owned(), 1234)],
            search: vec![
                ("search.conflicts_total".to_owned(), 4096),
                ("search.lbd_sum".to_owned(), 9000),
            ],
        }];
        let text = crate::observability_json(&records);
        let parsed = BenchDoc::parse(&text).unwrap();
        assert_eq!(parsed.version, dryadsynth::REPORT_VERSION as i64);
        assert_eq!(
            parsed.theory.as_deref(),
            Some(smtkit::process_default_theory().as_str())
        );
        assert_eq!(parsed.runs, BenchDoc::from_records(&records).runs);
        assert_eq!(parsed.runs[0].stage_micros["smt"], 1234);
        // The search totals survive the round trip with the prefix stripped.
        assert_eq!(parsed.runs[0].search["conflicts_total"], 4096);
        assert_eq!(parsed.runs[0].search["lbd_sum"], 9000);
    }

    #[test]
    fn search_work_blowups_gate_even_in_solved_only_mode() {
        let old = doc(vec![with_search(run("b1", "A", true, 1.0, 0), 10_000)]);
        let new = doc(vec![with_search(run("b1", "A", true, 1.0, 0), 40_000)]);
        let solved_only = CompareConfig {
            solved_only: true,
            ..CompareConfig::default()
        };
        let report = compare(&old, &new, &solved_only);
        assert!(report.has_regressions(), "{}", report.render());
        // conflicts_total and decisions_total both quadrupled.
        assert_eq!(report.search_regressions.len(), 2);
        assert_eq!(report.search_regressions[0].key, "A/b1:conflicts_total");
        assert!(report.render().contains("REGRESSION search"), "{}", report.render());
    }

    #[test]
    fn search_gate_tolerates_noise_and_missing_baselines() {
        // +20% is inside the default 25% noise band.
        let old = doc(vec![with_search(run("b1", "A", true, 1.0, 0), 10_000)]);
        let new = doc(vec![with_search(run("b1", "A", true, 1.0, 0), 12_000)]);
        let report = compare(&old, &new, &CompareConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        // Growth under the absolute floor is noise even at a huge ratio.
        let old = doc(vec![with_search(run("b1", "A", true, 1.0, 0), 100)]);
        let new = doc(vec![with_search(run("b1", "A", true, 1.0, 0), 400)]);
        let report = compare(&old, &new, &CompareConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        // An uninstrumented baseline skips the gate entirely.
        let old = doc(vec![run("b1", "A", true, 1.0, 0)]);
        let new = doc(vec![with_search(run("b1", "A", true, 1.0, 0), 1_000_000)]);
        let report = compare(&old, &new, &CompareConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
    }

    /// One run whose search block carries the shared counters and both
    /// engines' work counters.
    fn engine_run(conflicts: u64, pivots: u64, relaxations: u64) -> BenchRun {
        let mut r = with_search(run("b1", "A", true, 1.0, 0), conflicts);
        r.search.insert("simplex_pivots_total".to_owned(), pivots);
        r.search
            .insert("dl_relaxations_total".to_owned(), relaxations);
        r
    }

    fn doc_on(theory: Option<&str>, runs: Vec<BenchRun>) -> BenchDoc {
        BenchDoc {
            theory: theory.map(str::to_owned),
            ..doc(runs)
        }
    }

    fn solved_only() -> CompareConfig {
        CompareConfig {
            solved_only: true,
            ..CompareConfig::default()
        }
    }

    fn regression_keys(report: &CompareReport) -> Vec<&str> {
        report
            .search_regressions
            .iter()
            .map(|d| d.key.as_str())
            .collect()
    }

    #[test]
    fn engine_counters_do_not_gate_across_engine_settings() {
        // Dispatching difference logic moves work from pivots to
        // relaxations; that is the switch working, not a regression.
        let old = doc_on(Some("simplex"), vec![engine_run(10_000, 5_000, 0)]);
        let new = doc_on(Some("auto"), vec![engine_run(10_000, 5_000, 1_585)]);
        let report = compare(&old, &new, &solved_only());
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn shared_counters_gate_across_engine_settings() {
        let old = doc_on(Some("simplex"), vec![engine_run(10_000, 5_000, 0)]);
        let new = doc_on(Some("auto"), vec![engine_run(40_000, 5_000, 9_000)]);
        let report = compare(&old, &new, &solved_only());
        assert_eq!(
            regression_keys(&report),
            ["A/b1:conflicts_total", "A/b1:decisions_total"]
        );
    }

    #[test]
    fn engine_counters_gate_under_the_same_engine_setting() {
        let old = doc_on(Some("auto"), vec![engine_run(10_000, 5_000, 0)]);
        let new = doc_on(Some("auto"), vec![engine_run(10_000, 20_000, 1_585)]);
        let report = compare(&old, &new, &solved_only());
        assert_eq!(
            regression_keys(&report),
            ["A/b1:simplex_pivots_total", "A/b1:dl_relaxations_total"]
        );
    }

    #[test]
    fn engine_counters_gate_when_a_document_lacks_the_setting() {
        let settings = [(None, Some("auto")), (Some("simplex"), None), (None, None)];
        for (old_theory, new_theory) in settings {
            let old = doc_on(old_theory, vec![engine_run(10_000, 5_000, 0)]);
            let new = doc_on(new_theory, vec![engine_run(10_000, 5_000, 1_585)]);
            let report = compare(&old, &new, &solved_only());
            assert_eq!(
                regression_keys(&report),
                ["A/b1:dl_relaxations_total"],
                "{}",
                report.render()
            );
        }
    }

    #[test]
    fn parse_reads_the_theory_setting() {
        let with = BenchDoc::parse(r#"{"version": 6, "theory": "simplex", "runs": []}"#).unwrap();
        assert_eq!(with.theory.as_deref(), Some("simplex"));
        let without = BenchDoc::parse(r#"{"version": 6, "runs": []}"#).unwrap();
        assert_eq!(without.theory, None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(BenchDoc::parse("not json").is_err());
        assert!(BenchDoc::parse("{\"runs\": []}").is_err(), "missing version");
        assert!(
            BenchDoc::parse("{\"version\": 3, \"runs\": [{\"solver\": \"A\"}]}").is_err(),
            "run missing fields"
        );
    }

    const AUDIT: &str = concat!(
        "{\"id\": \"q1\", \"outcome\": \"solved\", \"queue_wait_us\": 120, ",
        "\"worker\": 0, \"solve_us\": 250000, \"stages\": {\"smt\": 9000}}\n",
        "{\"id\": \"q2\", \"outcome\": \"overloaded\", \"cause\": \"queue full (3 waiting)\"}\n",
        "{\"id\": \"q3\", \"outcome\": \"timeout\", \"queue_wait_us\": 80, ",
        "\"worker\": 1, \"solve_us\": 2000000}\n",
    );

    #[test]
    fn audit_logs_ingest_as_bench_documents() {
        let doc = BenchDoc::parse_audit_jsonl(AUDIT).unwrap();
        // The shed record never ran an engine and is not a data point.
        assert_eq!(doc.runs.len(), 2);
        assert_eq!(doc.runs[0].benchmark, "q1");
        assert_eq!(doc.runs[0].solver, "dryadsynthd");
        assert!(doc.runs[0].solved);
        assert!((doc.runs[0].seconds - 0.25).abs() < 1e-9);
        assert_eq!(doc.runs[0].stage_micros["smt"], 9000);
        assert!(!doc.runs[1].solved);
        // Comparing an audit log against itself is quiet.
        let report = compare(&doc, &doc, &CompareConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn parse_any_detects_both_shapes() {
        assert_eq!(BenchDoc::parse_any(AUDIT).unwrap().runs.len(), 2);
        let doc_text = crate::observability_json(&[]);
        assert_eq!(BenchDoc::parse_any(&doc_text).unwrap().runs.len(), 0);
        let err = BenchDoc::parse_any("not either").unwrap_err();
        assert!(err.contains("neither"), "{err}");
        assert!(
            BenchDoc::parse_any("{\"id\": \"only-shed\", \"outcome\": \"overloaded\"}").is_err(),
            "an audit log with no engine runs has nothing to compare"
        );
    }
}
