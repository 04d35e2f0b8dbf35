//! Observability sinks and renderers for the solver runtime: the versioned
//! machine-readable run report (`--json`), the JSONL trace sink (`--trace`,
//! one [`Record`] per line), and the offline renderers of a trace's records
//! (`--render dot|folded|search`): the subproblem graph as Graphviz DOT, the
//! span tree as folded stacks, and the CDCL search log.
//!
//! The data all comes from the [`Tracer`] riding on the run's
//! [`Budget`](crate::Budget) — the code here only *formats*; it never
//! instruments. Every renderer is a function of `&[Record]`, so rendering
//! the records in memory and rendering a written trace file give the same
//! text. See `crates/ast/src/trace.rs` for the recording side and DESIGN.md
//! ("Observability") for the record schema and versioning policy.

use crate::{CoopStats, SynthOutcome};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::str::FromStr;
use sygus_ast::trace::{GraphEvent, Record, Tracer};
use sygus_ast::{size_bucket, solution_size, time_bucket, Json};

/// The `version` field of the run-report schema. Bump on any breaking change
/// to the report's shape; consumers must check it before reading further.
///
/// Version history: 1 = initial schema; 2 = added the optional `certified`
/// field on solved runs; 3 = added the `profile` span-tree table (top paths
/// by self time, present only on recording `--trace` runs); 4 =
/// `metrics.counters` always carries the `interner.symbols` /
/// `interner.bytes` gauges, and `metrics` may carry a `latencies` object on
/// runs that recorded latency histograms; 5 = runs that exercised the SMT core carry a `search`
/// summary block (CDCL/theory search-analytics aggregates: totals,
/// mean/p90 LBD, restarts, propagations-per-decision — see DESIGN.md §13);
/// 6 = `stats` drops the SMT retry-ladder counter (the ladder is gone),
/// and the `search` block gains `theory_splits` (integer splits on demand).
pub const REPORT_VERSION: u64 = 6;

/// Paths carried in the report's `profile` table, at most this many, ranked
/// by self time. The folded-stack rendering (`--render folded`) is
/// unabridged; the report table is a summary.
pub const PROFILE_TOP_PATHS: usize = 20;

/// The stable one-word label of a [`SynthOutcome`] for reports and the bench
/// trajectory (`solved` / `timeout` / `resource-exhausted` / `gave-up`).
pub fn outcome_label(outcome: &SynthOutcome) -> &'static str {
    match outcome {
        SynthOutcome::Solved(_) => "solved",
        SynthOutcome::Timeout => "timeout",
        SynthOutcome::ResourceExhausted(_) => "resource-exhausted",
        SynthOutcome::GaveUp(_) => "gave-up",
    }
}

/// A machine-readable description of one solver run, serialisable as the
/// versioned `--json` report.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The solver/engine display name.
    pub solver: String,
    /// The problem source (file path or benchmark name).
    pub source: String,
    /// The run outcome.
    pub outcome: SynthOutcome,
    /// Wall-clock seconds spent.
    pub seconds: f64,
    /// The cooperative run statistics (empty-default for baselines).
    pub stats: CoopStats,
    /// The metrics snapshot taken from the run's tracer.
    pub metrics: sygus_ast::MetricsSnapshot,
    /// The span-tree profile of the run's records ([`span_profile`]; empty
    /// unless the tracer was recording), sorted by path.
    pub profile: Vec<(String, PathStat)>,
    /// Whether the solution passed end-to-end certification (`None` when
    /// certification was not run or the run produced no solution).
    pub certified: Option<bool>,
}

impl RunReport {
    /// Assembles a report from a finished run, snapshotting `tracer`'s
    /// metrics and records at this moment.
    pub fn new(
        solver: impl Into<String>,
        source: impl Into<String>,
        outcome: SynthOutcome,
        seconds: f64,
        stats: CoopStats,
        tracer: &Tracer,
    ) -> RunReport {
        RunReport {
            solver: solver.into(),
            source: source.into(),
            outcome,
            seconds,
            stats,
            metrics: tracer.metrics().snapshot(),
            profile: span_profile(&tracer.records()),
            certified: None,
        }
    }

    /// Records the certification verdict on the report (builder style).
    pub fn with_certified(mut self, certified: Option<bool>) -> RunReport {
        self.certified = certified;
        self
    }

    /// The report as a JSON object (schema `version` [`REPORT_VERSION`]).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("version", Json::from(REPORT_VERSION)),
            ("solver", Json::str(&self.solver)),
            ("source", Json::str(&self.source)),
            ("outcome", Json::str(outcome_label(&self.outcome))),
            ("seconds", Json::from(self.seconds)),
            ("time_bucket", Json::from(time_bucket(self.seconds))),
        ];
        match &self.outcome {
            SynthOutcome::Solved(body) => {
                let size = solution_size(body);
                fields.push(("solution", Json::str(body.to_string())));
                fields.push(("solution_size", Json::from(size)));
                fields.push(("size_bucket", Json::from(size_bucket(size))));
                if let Some(certified) = self.certified {
                    fields.push(("certified", Json::Bool(certified)));
                }
            }
            SynthOutcome::ResourceExhausted(reason) | SynthOutcome::GaveUp(reason) => {
                fields.push(("reason", Json::str(reason)));
            }
            SynthOutcome::Timeout => {}
        }
        fields.push(("stats", stats_json(&self.stats)));
        fields.push((
            "faults",
            Json::Arr(
                self.stats
                    .faults
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("stage", Json::str(f.stage)),
                            ("node", Json::from(f.node)),
                            ("message", Json::str(&f.message)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if let Some(search) = search_summary_json(&self.metrics) {
            fields.push(("search", search));
        }
        fields.push(("metrics", self.metrics.to_json()));
        if !self.profile.is_empty() {
            fields.push(("profile", profile_table_json(&self.profile)));
        }
        Json::obj(fields)
    }
}

/// The report's `search` block (schema v5): CDCL/theory search aggregates
/// derived from the `search.*` counters and the `search.lbd` histogram the
/// SMT core's drain layer accumulated. `None` when the run never touched
/// the SAT core, so pure-enumeration reports are unchanged.
fn search_summary_json(metrics: &sygus_ast::MetricsSnapshot) -> Option<Json> {
    let counter = |name: &str| -> u64 {
        metrics
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    };
    let conflicts = counter("search.conflicts_total");
    let decisions = counter("search.decisions_total");
    let propagations = counter("search.propagations_total");
    if conflicts == 0 && decisions == 0 && propagations == 0 {
        return None;
    }
    let lbd_sum = counter("search.lbd_sum");
    let lbd_count = counter("search.lbd_count");
    let mean_lbd = if lbd_count > 0 {
        lbd_sum as f64 / lbd_count as f64
    } else {
        0.0
    };
    let p90_lbd = metrics
        .latencies
        .iter()
        .find(|(k, _)| k == "search.lbd")
        .map_or(0, |(_, snap)| snap.lifetime.p90());
    let propagations_per_decision = if decisions > 0 {
        propagations as f64 / decisions as f64
    } else {
        0.0
    };
    Some(Json::obj([
        ("conflicts", Json::from(conflicts)),
        ("decisions", Json::from(decisions)),
        ("propagations", Json::from(propagations)),
        ("propagations_per_decision", Json::from(propagations_per_decision)),
        ("restarts", Json::from(counter("search.restarts_total"))),
        ("phase_flips", Json::from(counter("search.phase_flips_total"))),
        ("learned_literals", Json::from(counter("search.learned_literals_total"))),
        ("mean_lbd", Json::from(mean_lbd)),
        ("p90_lbd", Json::from(p90_lbd)),
        ("intervals", Json::from(counter("search.intervals_total"))),
        ("db_clauses", Json::from(counter("search.db_clauses"))),
        ("theory_checks", Json::from(counter("search.theory_checks_total"))),
        ("theory_conflicts", Json::from(counter("search.theory_conflicts_total"))),
        ("theory_cert_lits", Json::from(counter("search.theory_cert_lits_total"))),
        ("theory_splits", Json::from(counter("search.theory_splits_total"))),
        ("simplex_pivots", Json::from(counter("search.simplex_pivots_total"))),
        ("dl_relaxations", Json::from(counter("search.dl_relaxations_total"))),
    ]))
}

/// The report's `profile` table: the [`PROFILE_TOP_PATHS`] hottest paths by
/// self time, ties and order made deterministic by the path itself.
fn profile_table_json(profile: &[(String, PathStat)]) -> Json {
    let mut ranked: Vec<&(String, PathStat)> = profile.iter().collect();
    ranked.sort_by(|a, b| b.1.self_micros.cmp(&a.1.self_micros).then(a.0.cmp(&b.0)));
    ranked.truncate(PROFILE_TOP_PATHS);
    Json::Arr(
        ranked
            .iter()
            .map(|(path, stat)| {
                Json::obj([
                    ("path", Json::str(path)),
                    ("count", Json::from(stat.count)),
                    ("self_micros", Json::from(stat.self_micros)),
                    ("total_micros", Json::from(stat.total_micros)),
                ])
            })
            .collect(),
    )
}

fn stats_json(stats: &CoopStats) -> Json {
    Json::obj([
        ("nodes", Json::from(stats.nodes)),
        (
            "solved_by_deduction",
            Json::from(stats.solved_by_deduction),
        ),
        (
            "solved_by_enumeration",
            Json::from(stats.solved_by_enumeration),
        ),
        (
            "source_solved_deductively",
            Json::from(stats.source_solved_deductively),
        ),
        (
            "divisions_proposed",
            Json::Obj(
                stats
                    .divisions_proposed
                    .iter()
                    .map(|&(s, n)| (s.to_owned(), Json::from(n)))
                    .collect(),
            ),
        ),
        ("type_b_fired", Json::from(stats.type_b_fired)),
        ("smt_queries", Json::from(stats.smt_queries)),
        ("fuel_spent", Json::from(stats.fuel_spent)),
    ])
}

/// Aggregated statistics for one span-tree path (see [`span_profile`]).
/// `total_micros` is inclusive of child spans; `self_micros` has the time
/// spent in child spans subtracted, so summing `self_micros` over all paths
/// gives wall time attributed exactly once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStat {
    /// Spans completed at this path.
    pub count: u64,
    /// Exclusive time: inclusive duration minus child-span time.
    pub self_micros: u64,
    /// Inclusive duration summed over all spans at this path.
    pub total_micros: u64,
}

/// Folds the span records into per-path aggregates, sorted by path. A
/// span's path is the semicolon-joined stage names from its thread's
/// outermost span down to it (`enumerate;fixed-height;smt`), followed
/// through the exact `parent` ids the spans carry.
pub fn span_profile(records: &[Record]) -> Vec<(String, PathStat)> {
    let mut spans: HashMap<u64, (&str, Option<u64>)> = HashMap::new();
    let mut child_micros: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if let Record::Span { id, parent, name, duration_micros, .. } = r {
            spans.insert(*id, (name, *parent));
            if let Some(parent) = parent {
                *child_micros.entry(*parent).or_default() += duration_micros;
            }
        }
    }
    let path = |id: u64| -> String {
        // `take` bounds the walk, so a malformed (cyclic) file still ends.
        let mut names: Vec<&str> =
            std::iter::successors(spans.get(&id), |(_, parent)| parent.and_then(|p| spans.get(&p)))
                .take(spans.len())
                .map(|&(name, _)| name)
                .collect();
        names.reverse();
        names.join(";")
    };
    let mut profile: BTreeMap<String, PathStat> = BTreeMap::new();
    for r in records {
        if let Record::Span { id, duration_micros, .. } = r {
            let stat = profile.entry(path(*id)).or_default();
            stat.count += 1;
            stat.total_micros += duration_micros;
            stat.self_micros += duration_micros
                .saturating_sub(child_micros.get(id).copied().unwrap_or(0));
        }
    }
    profile.into_iter().collect()
}

/// The span profile as inferno-compatible folded stacks: one
/// `path self_micros` line per path, sample values in microseconds of
/// exclusive time.
pub fn folded_stacks(records: &[Record]) -> String {
    span_profile(records)
        .iter()
        .map(|(path, stat)| format!("{path} {}\n", stat.self_micros))
        .collect()
}

/// The search log: one `search_interval` JSON line per search record.
pub fn search_log(records: &[Record]) -> String {
    records
        .iter()
        .filter(|r| matches!(r, Record::Search(_)))
        .map(|r| format!("{}\n", r.to_json()))
        .collect()
}

/// The records as JSONL (one record object per line), the `--trace FILE`
/// sink format.
pub fn trace_jsonl(records: &[Record]) -> String {
    records.iter().map(|r| format!("{}\n", r.to_json())).collect()
}

/// Parses a `--trace` file back into its records (blank lines skipped).
///
/// # Errors
///
/// The first line that is not a record, with its 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            Json::parse(line)
                .and_then(|v| Record::from_json(&v))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[derive(Default)]
struct DotNode {
    label: String,
    engine: Option<String>,
    dead: bool,
}

/// Reconstructs the subproblem graph from the graph records and renders it
/// as Graphviz DOT, with per-node solver attribution (the paper's
/// Type-A/Type-B analysis). An empty graph when there are none.
pub fn dot_graph(records: &[Record]) -> String {
    let mut nodes: BTreeMap<usize, DotNode> = BTreeMap::new();
    let mut edges: Vec<(usize, usize, &str)> = Vec::new();
    for r in records {
        let Record::Graph { event, .. } = r else {
            continue;
        };
        match event {
            GraphEvent::Node { id, label } => {
                nodes.entry(*id).or_default().label.clone_from(label);
            }
            GraphEvent::Edge {
                parent,
                child,
                strategy,
            } => edges.push((*parent, *child, strategy)),
            GraphEvent::Solved { id, engine } => {
                nodes.entry(*id).or_default().engine = Some(engine.to_string());
            }
            GraphEvent::Dead { id } => {
                nodes.entry(*id).or_default().dead = true;
            }
        }
    }
    let mut out = String::from(
        "digraph subproblems {\n  rankdir=TB;\n  node [shape=box fontname=\"monospace\"];\n",
    );
    for (id, node) in &nodes {
        let mut label = format!("n{id}");
        if !node.label.is_empty() {
            label.push_str("\\n");
            label.push_str(&dot_escape(&node.label));
        }
        let style = match (&node.engine, node.dead) {
            (Some(engine), _) => {
                label.push_str("\\nsolved by ");
                label.push_str(engine);
                match engine.as_str() {
                    "deduction" => " style=filled fillcolor=palegreen",
                    "enumeration" => " style=filled fillcolor=lightskyblue",
                    _ => " style=filled fillcolor=khaki",
                }
            }
            (None, true) => {
                label.push_str("\\ndead");
                " style=filled fillcolor=lightgray"
            }
            (None, false) => "",
        };
        out.push_str(&format!("  n{id} [label=\"{label}\"{style}];\n"));
    }
    for (parent, child, strategy) in &edges {
        out.push_str(&format!(
            "  n{parent} -> n{child} [label=\"{strategy}\"];\n"
        ));
    }
    out.push_str("}\n");
    out
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One offline rendering of a trace (`--render dot|folded|search`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rendering {
    /// The subproblem graph ([`dot_graph`]).
    Dot,
    /// The span tree as folded stacks ([`folded_stacks`]).
    Folded,
    /// The CDCL search log ([`search_log`]).
    Search,
}

impl Rendering {
    /// Renders `records`.
    pub fn render(self, records: &[Record]) -> String {
        match self {
            Rendering::Dot => dot_graph(records),
            Rendering::Folded => folded_stacks(records),
            Rendering::Search => search_log(records),
        }
    }
}

impl FromStr for Rendering {
    type Err = String;

    fn from_str(s: &str) -> Result<Rendering, String> {
        match s {
            "dot" => Ok(Rendering::Dot),
            "folded" => Ok(Rendering::Folded),
            "search" => Ok(Rendering::Search),
            other => Err(format!(
                "unknown rendering `{other}` (expected dot, folded, or search)"
            )),
        }
    }
}

/// Drop-flushing holder for the `--trace` sink. The file is written when
/// the guard drops, so the records reach disk even when the run dies
/// mid-flight — a panic unwinding through the solver, a `ResourceExhausted`
/// bail-out, or a timeout path that skips the normal exit sequence. Call
/// [`SinkGuard::flush`] on the healthy path to surface I/O errors; the
/// drop path is best-effort and swallows them.
pub struct SinkGuard {
    tracer: Tracer,
    path: PathBuf,
    flushed: bool,
}

impl SinkGuard {
    /// A guard that writes `tracer`'s records to `path` as JSONL
    /// ([`trace_jsonl`]).
    pub fn new(tracer: Tracer, path: impl Into<PathBuf>) -> SinkGuard {
        SinkGuard {
            tracer,
            path: path.into(),
            flushed: false,
        }
    }

    /// Writes the trace now and disarms the drop hook. Subsequent flushes
    /// (including the one in `Drop`) are no-ops, so the file reflects the
    /// tracer state at the *first* flush.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.flushed {
            return Ok(());
        }
        self.flushed = true;
        std::fs::write(&self.path, trace_jsonl(&self.tracer.records()))
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineFault;
    use std::time::Duration;
    use sygus_ast::trace::SearchRecord;
    use sygus_ast::Stage;

    fn sample_stats() -> CoopStats {
        CoopStats {
            nodes: 3,
            solved_by_deduction: 1,
            solved_by_enumeration: 1,
            divisions_proposed: vec![("subterm", 2), ("weaker-spec-or", 1)],
            type_b_fired: 2,
            faults: vec![EngineFault {
                stage: "enumerate",
                node: 1,
                message: "injected".into(),
            }],
            smt_queries: 9,
            ..CoopStats::default()
        }
    }

    #[test]
    fn report_round_trips_with_current_version() {
        let tracer = Tracer::metrics_only();
        tracer.metrics().bump("smt.sat");
        let report = RunReport::new(
            "DryadSynth",
            "bench/max2.sl",
            SynthOutcome::Solved(sygus_ast::Term::int_var("x")),
            2.5,
            sample_stats(),
            &tracer,
        );
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("version").and_then(Json::as_i64), Some(6));
        assert_eq!(
            parsed.get("outcome").and_then(Json::as_str),
            Some("solved")
        );
        assert_eq!(parsed.get("time_bucket").and_then(Json::as_i64), Some(1));
        assert_eq!(parsed.get("size_bucket").and_then(Json::as_i64), Some(0));
        assert_eq!(
            parsed
                .get("stats")
                .and_then(|s| s.get("smt_queries"))
                .and_then(Json::as_i64),
            Some(9)
        );
        let faults = parsed.get("faults").and_then(Json::as_arr).unwrap();
        assert_eq!(faults[0].get("stage").and_then(Json::as_str), Some("enumerate"));
        // The metrics snapshot rode along.
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("smt.sat"))
                .and_then(Json::as_i64),
            Some(1)
        );
    }

    #[test]
    fn certified_field_appears_only_when_recorded() {
        let tracer = Tracer::metrics_only();
        let report = RunReport::new(
            "DryadSynth",
            "bench/max2.sl",
            SynthOutcome::Solved(sygus_ast::Term::int_var("x")),
            0.2,
            CoopStats::default(),
            &tracer,
        );
        let absent = Json::parse(&report.to_json().to_string()).unwrap();
        assert!(absent.get("certified").is_none());
        let with = Json::parse(
            &report
                .clone()
                .with_certified(Some(true))
                .to_json()
                .to_string(),
        )
        .unwrap();
        assert_eq!(with.get("certified").and_then(Json::as_bool), Some(true));
        let failed = Json::parse(
            &report
                .with_certified(Some(false))
                .to_json()
                .to_string(),
        )
        .unwrap();
        assert_eq!(failed.get("certified").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn unsuccessful_outcomes_carry_reasons() {
        let tracer = Tracer::metrics_only();
        let report = RunReport::new(
            "DryadSynth",
            "p.sl",
            SynthOutcome::GaveUp("search space exhausted".into()),
            0.1,
            CoopStats::default(),
            &tracer,
        );
        let parsed = Json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(parsed.get("outcome").and_then(Json::as_str), Some("gave-up"));
        assert_eq!(
            parsed.get("reason").and_then(Json::as_str),
            Some("search space exhausted")
        );
        assert!(parsed.get("solution").is_none());
    }

    #[test]
    fn profile_table_appears_only_on_profiling_runs_and_ranks_by_self_time() {
        let plain = RunReport::new(
            "DryadSynth",
            "p.sl",
            SynthOutcome::Timeout,
            0.1,
            CoopStats::default(),
            &Tracer::metrics_only(),
        );
        let parsed = Json::parse(&plain.to_json().to_string()).unwrap();
        assert!(parsed.get("profile").is_none());

        let tracer = Tracer::recording();
        {
            let _outer = tracer.span(sygus_ast::Stage::Enumerate);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = tracer.span(sygus_ast::Stage::Smt);
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let report = RunReport::new(
            "DryadSynth",
            "p.sl",
            SynthOutcome::Timeout,
            0.1,
            CoopStats::default(),
            &tracer,
        );
        let parsed = Json::parse(&report.to_json().to_string()).unwrap();
        let table = parsed.get("profile").and_then(Json::as_arr).unwrap();
        assert_eq!(table.len(), 2);
        // Ranked by self time: the inner SMT span slept longer.
        assert_eq!(
            table[0].get("path").and_then(Json::as_str),
            Some("enumerate;smt")
        );
        assert_eq!(table[1].get("path").and_then(Json::as_str), Some("enumerate"));
        let self0 = table[0].get("self_micros").and_then(Json::as_i64).unwrap();
        let self1 = table[1].get("self_micros").and_then(Json::as_i64).unwrap();
        assert!(self0 >= self1, "{self0} {self1}");
        assert!(table[0].get("total_micros").and_then(Json::as_i64).unwrap() > 0);
    }

    #[test]
    fn search_block_appears_only_with_search_counters() {
        // A run that never touched the SAT core: no `search` block, so
        // pure-enumeration reports keep their old shape.
        let tracer = Tracer::metrics_only();
        let quiet = RunReport::new(
            "DryadSynth",
            "b.sl",
            SynthOutcome::Timeout,
            1.0,
            CoopStats::default(),
            &tracer,
        );
        assert!(quiet.to_json().get("search").is_none());

        // A run with drained search counters carries the aggregates.
        let tracer = Tracer::metrics_only();
        let m = tracer.metrics();
        m.add("search.conflicts_total", 100);
        m.add("search.decisions_total", 50);
        m.add("search.propagations_total", 500);
        m.add("search.restarts_total", 2);
        m.add("search.lbd_sum", 300);
        m.add("search.lbd_count", 100);
        for _ in 0..95 {
            m.record_latency("search.lbd", 3);
        }
        for _ in 0..5 {
            m.record_latency("search.lbd", 9);
        }
        let report = RunReport::new(
            "DryadSynth",
            "b.sl",
            SynthOutcome::Timeout,
            1.0,
            CoopStats::default(),
            &tracer,
        );
        let parsed = Json::parse(&report.to_json().to_string()).unwrap();
        let search = parsed.get("search").expect("search block present");
        assert_eq!(search.get("conflicts").and_then(Json::as_i64), Some(100));
        assert_eq!(search.get("restarts").and_then(Json::as_i64), Some(2));
        assert_eq!(search.get("mean_lbd").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            search.get("propagations_per_decision").and_then(Json::as_f64),
            Some(10.0)
        );
        // p90 of 95×3 + 5×9 sits in the fast mode.
        assert_eq!(search.get("p90_lbd").and_then(Json::as_i64), Some(3));
    }

    /// A scratch file path unique to one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dryadsynth-sink-guard-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn sink_guard_flushes_search_log_jsonl() {
        let path = scratch("search.trace.jsonl");
        let tracer = Tracer::recording();
        let mut guard = SinkGuard::new(tracer.clone(), &path);
        for seq in 0..2 {
            tracer.search(|| SearchRecord {
                seq,
                conflicts: 10,
                ..SearchRecord::default()
            });
        }
        drop(tracer.span(Stage::Smt));
        guard.flush().unwrap();
        let records = parse_trace(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(records, tracer.records());
        // The search rendering keeps only the interval lines.
        let log = search_log(&records);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2);
        for (seq, line) in lines.into_iter().enumerate() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("type").and_then(Json::as_str), Some("search_interval"));
            assert_eq!(v.get("seq").and_then(Json::as_i64), Some(seq as i64));
        }
    }

    #[test]
    fn sink_guard_flushes_on_panic() {
        let trace_path = scratch("trace.jsonl");
        let tracer = Tracer::recording();
        drop(tracer.span(Stage::Smt));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = SinkGuard::new(tracer.clone(), &trace_path);
            panic!("engine died mid-run");
        }));
        assert!(result.is_err());
        // The trace reached disk despite the panic, and renders offline.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"name\":\"smt\""), "{trace}");
        let folded = folded_stacks(&parse_trace(&trace).unwrap());
        assert!(folded.starts_with("smt "), "{folded}");
    }

    #[test]
    fn sink_guard_flush_disarms_the_drop_hook() {
        let path = scratch("flush-once.trace.jsonl");
        let tracer = Tracer::recording();
        drop(tracer.span(Stage::Verify));
        let mut guard = SinkGuard::new(tracer.clone(), &path);
        guard.flush().unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        // More spans after the flush must not change the file on drop.
        drop(tracer.span(Stage::Verify));
        drop(guard);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
    }

    #[test]
    fn jsonl_sink_emits_one_parseable_line_per_event() {
        let tracer = Tracer::recording();
        drop(tracer.span(Stage::Deduct).with_node(0));
        drop(tracer.span(Stage::Smt));
        let jsonl = trace_jsonl(&tracer.records());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Json::parse(line).unwrap();
        }
        assert_eq!(parse_trace(&jsonl).unwrap(), tracer.records());
        assert!(trace_jsonl(&Tracer::metrics_only().records()).is_empty());
        let err = parse_trace("{\"type\":\"span\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn dot_graph_attributes_solvers_and_strategies() {
        let tracer = Tracer::recording();
        tracer.graph_event(|| GraphEvent::Node {
            id: 0,
            label: "(= (f x) \"q\")".into(),
        });
        tracer.graph_event(|| GraphEvent::Node {
            id: 1,
            label: "aux".into(),
        });
        tracer.graph_event(|| GraphEvent::Edge {
            parent: 0,
            child: 1,
            strategy: "subterm".into(),
        });
        tracer.graph_event(|| GraphEvent::Solved {
            id: 1,
            engine: "deduction".into(),
        });
        tracer.graph_event(|| GraphEvent::Dead { id: 0 });
        let records = tracer.records();
        let dot = dot_graph(&records);
        assert!(dot.starts_with("digraph subproblems {"));
        assert!(dot.contains("n0 -> n1 [label=\"subterm\"]"));
        assert!(dot.contains("solved by deduction"));
        assert!(dot.contains("fillcolor=palegreen"));
        assert!(dot.contains("\\\"q\\\""), "quotes must be escaped: {dot}");
        assert!(dot.trim_end().ends_with('}'));
        // The renderer reads the graph from a written trace identically.
        assert_eq!(dot_graph(&parse_trace(&trace_jsonl(&records)).unwrap()), dot);
        assert_eq!("dot".parse::<Rendering>().unwrap().render(&records), dot);
        assert!("profile".parse::<Rendering>().is_err());
    }

    #[test]
    fn profiler_builds_paths_and_subtracts_child_time() {
        let t = Tracer::recording();
        {
            let _outer = t.span(Stage::Enumerate);
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = t.span(Stage::Smt);
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _inner = t.span(Stage::Smt);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let profile: BTreeMap<String, PathStat> =
            span_profile(&t.records()).into_iter().collect();
        assert_eq!(profile.len(), 2, "{profile:?}");
        let outer = profile["enumerate"];
        let inner = profile["enumerate;smt"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // Outer self-time excludes the nested SMT spans.
        assert_eq!(
            outer.self_micros,
            outer.total_micros - inner.total_micros,
            "{profile:?}"
        );
        assert!(inner.total_micros >= 4_000, "{profile:?}");
        assert!(outer.total_micros >= 8_000, "{profile:?}");
        // Per-stage metrics totals equal the sum of path totals with that
        // stage as leaf.
        assert_eq!(
            t.metrics().stage(Stage::Smt).total_micros(),
            inner.total_micros
        );
        assert_eq!(
            t.metrics().stage(Stage::Enumerate).total_micros(),
            outer.total_micros
        );
    }

    #[test]
    fn folded_stacks_render_one_line_per_path() {
        let t = Tracer::recording();
        {
            let _a = t.span(Stage::FixedHeight);
            let _b = t.span(Stage::Smt);
        }
        let folded = folded_stacks(&t.records());
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(lines[0].starts_with("fixed-height "), "{folded}");
        assert!(lines[1].starts_with("fixed-height;smt "), "{folded}");
        for line in lines {
            let value = line.rsplit(' ').next().unwrap();
            value.parse::<u64>().expect("folded value is an integer");
        }
        assert!(folded_stacks(&Tracer::metrics_only().records()).is_empty());
    }

    #[test]
    fn interleaved_tracers_keep_separate_trees() {
        let a = Tracer::recording();
        let b = Tracer::recording();
        {
            let _a1 = a.span(Stage::Enumerate);
            let _b1 = b.span(Stage::Worker);
            let _a2 = a.span(Stage::Smt);
        }
        let paths = |t: &Tracer| -> Vec<String> {
            span_profile(&t.records()).into_iter().map(|(p, _)| p).collect()
        };
        assert_eq!(paths(&a), vec!["enumerate", "enumerate;smt"]);
        assert_eq!(paths(&b), vec!["worker"]);
    }
}
