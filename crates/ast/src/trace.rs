//! Dependency-free structured tracing and metrics for the solver runtime.
//!
//! A [`Tracer`] is a cheap, cloneable handle (one `Arc` clone) that rides on
//! the [`Budget`](crate::runtime::Budget) through every engine layer. It has
//! three tiers:
//!
//! * **Metrics (always on).** A [`MetricsRegistry`] of atomic per-stage
//!   span statistics (count, total time, pseudo-log duration histogram on
//!   the competition's [`TIME_BUCKETS`](crate::TIME_BUCKETS) scale) and
//!   named counters. Recording a span costs a handful of relaxed atomic
//!   operations — no allocation, no locking on the stage path — so leaving
//!   the tracer threaded through a hot loop is free for practical purposes.
//!   The always-on tier also includes the [`ProgressState`] live counters
//!   engines feed for heartbeat/stall reporting.
//! * **Records (opt in).** Every closed span, point event, subproblem-graph
//!   event and drained CDCL search interval becomes one [`Record`], the
//!   only recording type. One private emit path hands it to whichever
//!   record store is attached: the unbounded buffer of a
//!   [`Tracer::recording`] tracer (the `--trace` sink) and the bounded
//!   [`EventRing`] flight recorder of a daemon worker. Span records carry
//!   an `id` and the `parent` id of the enclosing open span on the same
//!   thread and tracer, so folded stacks, the subproblem graph and the
//!   search log are exact offline renderings of the records. Detail, graph
//!   and search closures run only when a store is attached.
//! * **Live stacks (opt in).** A [`Tracer::watched`] tracer mirrors each
//!   thread's open-span stack into a shared table ([`Tracer::live_stacks`])
//!   and keeps [`ProgressState::set_stage`] on the innermost open span, so a
//!   watchdog can report what every thread is doing *right now*.
//!
//! The per-thread open-span stack behind `parent` ids and live stacks is
//! kept only by tracers with a record store or live stacks; a metrics-only
//! span does its atomic metric updates and nothing else.
//!
//! Clones share all state, so metrics recorded by parallel workers (which
//! receive the tracer through [`Budget::child`](crate::runtime::Budget::child)
//! scoping) aggregate into the same registry.

use crate::json::Json;
use crate::metrics::{
    size_bucket, time_bucket, LatencyBankSnapshot, LatencyHistogram, LatencySnapshot,
    SIZE_BUCKETS, TIME_BUCKETS,
};
use crate::progress::ProgressState;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The instrumented solver stages. Each stage owns one slot of atomic span
/// statistics in the [`MetricsRegistry`]; finer distinctions (divide
/// strategy, enumeration height, SMT answer) go into named counters or the
/// span's detail string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// One deductive rewrite pass over a subproblem (Algorithm 3).
    Deduct,
    /// One divide-and-conquer proposal pass (all strategies, Section 4).
    Divide,
    /// One Type-B recombination step at a parent node.
    TypeB,
    /// One fixed-height CEGIS attempt at a single height (Algorithm 2).
    FixedHeight,
    /// One driver-level enumeration step (backend invocation) at a node.
    Enumerate,
    /// One bottom-up enumeration CEGIS round: layer construction and the
    /// candidate checks against the round's examples, in the EUSolver-style
    /// backend and on the fixed-height engine's concrete path (nested in
    /// its [`Stage::FixedHeight`] span).
    BottomUp,
    /// One SMT query (sat/unsat/validity check) in the substrate.
    Smt,
    /// One independent re-verification of a claimed solution.
    Verify,
    /// One parallel height-band worker (Section 5.1).
    Worker,
    /// One difference-logic theory check (negative-cycle propagation) in
    /// the SMT substrate. Nested in its query's [`Stage::Smt`] span: `smt`
    /// spans cover the whole query, `dl` spans only the DL engine's share.
    Dl,
}

impl Stage {
    /// Every stage, in registry order.
    pub const ALL: [Stage; 10] = [
        Stage::Deduct,
        Stage::Divide,
        Stage::TypeB,
        Stage::FixedHeight,
        Stage::Enumerate,
        Stage::BottomUp,
        Stage::Smt,
        Stage::Verify,
        Stage::Worker,
        Stage::Dl,
    ];

    /// The stage's stable snake-case name (used in events and reports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Deduct => "deduct",
            Stage::Divide => "divide",
            Stage::TypeB => "type-b",
            Stage::FixedHeight => "fixed-height",
            Stage::Enumerate => "enumerate",
            Stage::BottomUp => "bottom-up",
            Stage::Smt => "smt",
            Stage::Verify => "verify",
            Stage::Worker => "worker",
            Stage::Dl => "dl",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Atomic span statistics for one stage: invocation count, cumulative
/// duration, and a pseudo-log histogram of durations on the competition
/// time-bucket scale (see [`time_bucket`]).
#[derive(Debug, Default)]
pub struct StageMetrics {
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
    hist: [AtomicU64; TIME_BUCKETS.len()],
}

impl StageMetrics {
    /// Records one span of `micros` microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
        let bucket = time_bucket(micros as f64 / 1e6);
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Spans recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Cumulative span time in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.total_micros.load(Ordering::Relaxed)
    }

    fn snapshot(&self, stage: Stage) -> StageSnapshot {
        StageSnapshot {
            stage: stage.name(),
            count: self.count.load(Ordering::Relaxed),
            total_micros: self.total_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
            hist: std::array::from_fn(|i| self.hist[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of one stage's statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSnapshot {
    /// The stage name (see [`Stage::name`]).
    pub stage: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Cumulative duration in microseconds.
    pub total_micros: u64,
    /// Longest single span in microseconds.
    pub max_micros: u64,
    /// Duration histogram on the [`TIME_BUCKETS`] pseudo-log scale.
    pub hist: [u64; TIME_BUCKETS.len()],
}

/// The registry of run metrics: per-stage span statistics, named counters,
/// and the solution-size histogram on the [`SIZE_BUCKETS`] scale. All
/// updates are lock-free on the stage path; named counters take a short
/// mutex (they sit on cold paths: per SMT query, per division proposal).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stages: [StageMetrics; Stage::ALL.len()],
    counters: Mutex<BTreeMap<String, u64>>,
    size_hist: [AtomicU64; SIZE_BUCKETS.len() + 1],
    /// Named percentile latency histograms (fleet telemetry: queue-wait,
    /// solve-wall, per-stage request latency). Created on first use; empty
    /// for runs that never record one, so batch reports are unchanged.
    latencies: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

impl MetricsRegistry {
    /// The atomic statistics slot for `stage`.
    pub fn stage(&self, stage: Stage) -> &StageMetrics {
        &self.stages[stage.index()]
    }

    /// Adds `n` to the named counter (creating it at zero first).
    pub fn add(&self, name: &str, n: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        match counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Increments the named counter by one.
    pub fn bump(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the named counter to an absolute value (a gauge write: the last
    /// write wins, unlike [`MetricsRegistry::add`] which accumulates).
    pub fn set(&self, name: &str, value: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        counters.insert(name.to_owned(), value);
    }

    /// The current value of a named counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        counters.get(name).copied().unwrap_or(0)
    }

    /// Records one solution size in the pseudo-log size histogram.
    pub fn record_size(&self, size: usize) {
        self.size_hist[size_bucket(size)].fetch_add(1, Ordering::Relaxed);
    }

    /// The named percentile latency histogram, created (with the default
    /// rolling window) on first use. The handle can be cached by hot
    /// callers to skip the registry lookup.
    pub fn latency(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut latencies = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            latencies
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(LatencyHistogram::default())),
        )
    }

    /// Records `micros` into the named latency histogram.
    pub fn record_latency(&self, name: &str, micros: u64) {
        self.latency(name).record(micros);
    }

    /// A point-in-time copy of every metric, for reports. Stages with zero
    /// recorded spans are included (callers may filter); counters come out
    /// sorted by name, so serialised output is deterministic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let latencies = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            stages: Stage::ALL
                .iter()
                .map(|&s| self.stage(s).snapshot(s))
                .collect(),
            counters: counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            size_hist: std::array::from_fn(|i| self.size_hist[i].load(Ordering::Relaxed)),
            latencies: latencies
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of the whole [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Per-stage span statistics, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Solution-size histogram on the [`SIZE_BUCKETS`] scale (last bucket
    /// is the overflow bucket).
    pub size_hist: [u64; SIZE_BUCKETS.len() + 1],
    /// Named latency-histogram snapshots, sorted by name; empty for runs
    /// that recorded no latencies.
    pub latencies: Vec<(String, LatencySnapshot)>,
}

impl MetricsSnapshot {
    /// The snapshot as a JSON object (stages with zero spans omitted).
    /// Stage entries come out sorted by stage name — not in [`Stage::ALL`]
    /// declaration order — so the serialised form is stable across enum
    /// reorderings and easy to diff.
    pub fn to_json(&self) -> Json {
        let mut active: Vec<&StageSnapshot> =
            self.stages.iter().filter(|s| s.count > 0).collect();
        active.sort_by_key(|s| s.stage);
        let stages: Vec<Json> = active
            .iter()
            .map(|s| {
                Json::obj([
                    ("stage", Json::str(s.stage)),
                    ("count", Json::from(s.count)),
                    ("total_micros", Json::from(s.total_micros)),
                    ("max_micros", Json::from(s.max_micros)),
                    (
                        "time_hist",
                        Json::Arr(s.hist.iter().map(|&n| Json::from(n)).collect()),
                    ),
                ])
            })
            .collect();
        let counters: Vec<(String, Json)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect();
        let mut fields = vec![
            ("stages".to_owned(), Json::Arr(stages)),
            ("counters".to_owned(), Json::Obj(counters)),
            (
                "size_hist".to_owned(),
                Json::Arr(self.size_hist.iter().map(|&n| Json::from(n)).collect()),
            ),
        ];
        if !self.latencies.is_empty() {
            let latencies: Vec<(String, Json)> = self
                .latencies
                .iter()
                .map(|(name, snap)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("lifetime", latency_bank_json(&snap.lifetime)),
                            ("recent", latency_bank_json(&snap.recent)),
                        ]),
                    )
                })
                .collect();
            fields.push(("latencies".to_owned(), Json::Obj(latencies)));
        }
        Json::Obj(fields)
    }
}

/// One latency bank as JSON: count, total/max, and the three headline
/// percentiles (all in microseconds).
fn latency_bank_json(bank: &LatencyBankSnapshot) -> Json {
    Json::obj([
        ("count", Json::from(bank.count)),
        ("total_micros", Json::from(bank.total)),
        ("max_micros", Json::from(bank.max)),
        ("p50_micros", Json::from(bank.p50())),
        ("p90_micros", Json::from(bank.p90())),
        ("p99_micros", Json::from(bank.p99())),
    ])
}

/// Where and when a record happened: its position in the store holding it,
/// the emitting thread, and its time offset from that store's epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stamp {
    /// Position in the holding store's push order (the `--trace` buffer or
    /// the flight ring), assigned when the record is stored.
    pub seq: u64,
    /// Emitting thread's [`thread_ordinal`].
    pub thread: u64,
    /// Offset from the store's epoch in microseconds: a span's start, or
    /// the instant of a point or graph event.
    pub start_micros: u64,
}

/// A subproblem-graph event; the DOT renderer reconstructs the graph (with
/// per-node solver attribution) from the sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphEvent {
    /// A node joined the subproblem graph.
    Node {
        /// Node id (index in the driver's node table).
        id: usize,
        /// Short human-readable label (truncated spec).
        label: String,
    },
    /// A division created (or re-used) a parent→child edge.
    Edge {
        /// Parent node id.
        parent: usize,
        /// Child (Type-A subproblem) node id.
        child: usize,
        /// The proposing strategy tag.
        strategy: Cow<'static, str>,
    },
    /// A node was solved, with the engine that produced the solution
    /// (`"deduction"`, `"enumeration"`, or `"type-b"`).
    Solved {
        /// Node id.
        id: usize,
        /// Solver attribution tag.
        engine: Cow<'static, str>,
    },
    /// A node was proven unsolvable (dead).
    Dead {
        /// Node id.
        id: usize,
    },
}

/// One restart episode: the stretch of CDCL search between two restarts,
/// closed by the restart it describes. The LBD aggregates carry the trend
/// that preceded the restart (high mean = the episode was learning wide,
/// poor-quality clauses when the restart budget expired).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestartEpisode {
    /// Conflicts since the previous restart (or query start).
    pub conflicts: u64,
    /// Sum of learned-clause LBDs over the episode.
    pub lbd_sum: u64,
    /// Learned clauses over the episode.
    pub lbd_count: u64,
}

/// One drained CDCL search interval (all fields are deltas over the
/// interval unless noted). Its JSON form is the `search_interval` line of
/// the search log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchRecord {
    /// Zero-based interval index within the run (it continues the
    /// `search.intervals_total` counter, so it is monotone across queries).
    pub seq: u64,
    /// Conflicts hit.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals assigned with an antecedent clause.
    pub propagations: u64,
    /// Restarts taken.
    pub restarts: u64,
    /// Assignments that flipped the variable's saved phase.
    pub phase_flips: u64,
    /// Total literals across learned clauses.
    pub learned_literals: u64,
    /// Sum of learned-clause LBDs.
    pub lbd_sum: u64,
    /// Learned clauses with a recorded LBD.
    pub lbd_count: u64,
    /// Clause-DB size when the interval closed (a gauge).
    pub db_clauses: u64,
    /// Restart episodes that ended inside the interval.
    pub episodes: Vec<RestartEpisode>,
}

/// One record of the trace stream — the only recording type. Each record
/// serialises to one JSONL line whose `type` key names its kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A closed span.
    Span {
        /// Store position, thread, and start offset.
        stamp: Stamp,
        /// Per-tracer span id, assigned when the span opened.
        id: u64,
        /// Id of the enclosing open span on the same thread and tracer.
        parent: Option<u64>,
        /// The stage name.
        name: Cow<'static, str>,
        /// Subproblem-graph node id, when the span is node-scoped.
        node: Option<usize>,
        /// Inclusive duration in microseconds.
        duration_micros: u64,
        /// Freeform detail (height, strategy, SMT answer, …); empty when none.
        detail: String,
    },
    /// An instantaneous event: a tracer point or a flight-ring marker.
    Point {
        /// Store position, thread, and offset.
        stamp: Stamp,
        /// The stage or marker name.
        name: Cow<'static, str>,
        /// Subproblem-graph node id, when the event is node-scoped.
        node: Option<usize>,
        /// Freeform detail; empty when none.
        detail: String,
    },
    /// A subproblem-graph event.
    Graph {
        /// Store position, thread, and offset.
        stamp: Stamp,
        /// The graph change.
        event: GraphEvent,
    },
    /// A drained CDCL search interval. It carries no stamp, so its line is
    /// exactly the search log's `search_interval` object.
    Search(SearchRecord),
}

impl Record {
    /// The record's stamp (`None` for search intervals).
    pub fn stamp(&self) -> Option<&Stamp> {
        match self {
            Record::Span { stamp, .. } | Record::Point { stamp, .. } | Record::Graph { stamp, .. } => {
                Some(stamp)
            }
            Record::Search(_) => None,
        }
    }

    /// The record with its stamp filled in by the store that keeps it.
    fn stamped(mut self, seq: u64, epoch: Instant, at: Instant) -> Record {
        if let Record::Span { stamp, .. } | Record::Point { stamp, .. } | Record::Graph { stamp, .. } =
            &mut self
        {
            *stamp = Stamp {
                seq,
                thread: thread_ordinal(),
                start_micros: at.saturating_duration_since(epoch).as_micros() as u64,
            };
        }
        self
    }

    /// The record as one JSON object (one line of the `--trace` sink).
    pub fn to_json(&self) -> Json {
        let (kind, stamp) = match self {
            Record::Span { stamp, .. } => ("span", stamp),
            Record::Point { stamp, .. } => ("point", stamp),
            Record::Graph { stamp, .. } => ("graph", stamp),
            Record::Search(search) => return search.to_json(),
        };
        let mut fields = vec![
            ("type".to_owned(), Json::str(kind)),
            ("seq".to_owned(), Json::from(stamp.seq)),
            ("thread".to_owned(), Json::from(stamp.thread)),
            ("start_micros".to_owned(), Json::from(stamp.start_micros)),
        ];
        match self {
            Record::Span { id, parent, name, node, duration_micros, detail, .. } => {
                fields.push(("id".to_owned(), Json::from(*id)));
                if let Some(parent) = parent {
                    fields.push(("parent".to_owned(), Json::from(*parent)));
                }
                event_fields(&mut fields, name, *node, Some(*duration_micros), detail);
            }
            Record::Point { name, node, detail, .. } => {
                event_fields(&mut fields, name, *node, None, detail);
            }
            Record::Graph { event, .. } => fields.extend(event.json_fields()),
            Record::Search(_) => {}
        }
        Json::Obj(fields)
    }

    /// Parses one record back from its [`Record::to_json`] form.
    ///
    /// # Errors
    ///
    /// A message naming the unknown `type` or the missing field.
    pub fn from_json(v: &Json) -> Result<Record, String> {
        let kind = v.get("type").and_then(Json::as_str).ok_or("record has no `type`")?;
        if kind == "search_interval" {
            return SearchRecord::from_json(v).map(Record::Search);
        }
        let stamp = Stamp {
            seq: uint(v, "seq")?,
            thread: uint(v, "thread")?,
            start_micros: uint(v, "start_micros")?,
        };
        let name = || text(v, "name").map(|s| Cow::Owned(s.to_owned()));
        let node = opt_uint(v, "node")?.map(|n| n as usize);
        let detail = v.get("detail").and_then(Json::as_str).unwrap_or("").to_owned();
        match kind {
            "span" => Ok(Record::Span {
                stamp,
                id: uint(v, "id")?,
                parent: opt_uint(v, "parent")?,
                name: name()?,
                node,
                duration_micros: uint(v, "duration_micros")?,
                detail,
            }),
            "point" => Ok(Record::Point {
                stamp,
                name: name()?,
                node,
                detail,
            }),
            "graph" => Ok(Record::Graph {
                stamp,
                event: GraphEvent::from_json(v)?,
            }),
            other => Err(format!("unknown record type `{other}`")),
        }
    }

    /// One human-readable timeline line, e.g.
    /// `+12.345678s [t3] smt node=4 1250us answer=sat`.
    pub fn render(&self) -> String {
        let (stamp, text) = match self {
            Record::Span { stamp, name, node, duration_micros, detail, .. } => {
                (stamp, event_text(name, *node, Some(*duration_micros), detail))
            }
            Record::Point { stamp, name, node, detail } => {
                (stamp, event_text(name, *node, None, detail))
            }
            Record::Graph { stamp, event } => (
                stamp,
                match event {
                    GraphEvent::Node { id, label } => format!("graph node n{id} {label}"),
                    GraphEvent::Edge { parent, child, strategy } => {
                        format!("graph edge n{parent}->n{child} {strategy}")
                    }
                    GraphEvent::Solved { id, engine } => format!("graph solved n{id} by {engine}"),
                    GraphEvent::Dead { id } => format!("graph dead n{id}"),
                },
            ),
            Record::Search(s) => {
                return format!(
                    "search_interval seq={} conflicts={} decisions={} restarts={}",
                    s.seq, s.conflicts, s.decisions, s.restarts
                )
            }
        };
        format!(
            "+{}.{:06}s [t{}] {text}",
            stamp.start_micros / 1_000_000,
            stamp.start_micros % 1_000_000,
            stamp.thread,
        )
    }
}

/// Appends a span's or point's own fields after the record head.
fn event_fields(
    fields: &mut Vec<(String, Json)>,
    name: &str,
    node: Option<usize>,
    duration_micros: Option<u64>,
    detail: &str,
) {
    fields.push(("name".to_owned(), Json::str(name)));
    if let Some(node) = node {
        fields.push(("node".to_owned(), Json::from(node)));
    }
    if let Some(d) = duration_micros {
        fields.push(("duration_micros".to_owned(), Json::from(d)));
    }
    if !detail.is_empty() {
        fields.push(("detail".to_owned(), Json::str(detail)));
    }
}

/// A span's or point's timeline text: `name node=N 1250us detail`.
fn event_text(name: &str, node: Option<usize>, duration_micros: Option<u64>, detail: &str) -> String {
    let mut out = name.to_owned();
    if let Some(node) = node {
        out.push_str(&format!(" node={node}"));
    }
    if let Some(d) = duration_micros {
        out.push_str(&format!(" {d}us"));
    }
    if !detail.is_empty() {
        out.push(' ');
        out.push_str(detail);
    }
    out
}

/// A required non-negative integer field.
fn uint(v: &Json, key: &str) -> Result<u64, String> {
    opt_uint(v, key)?.ok_or_else(|| format!("record has no `{key}`"))
}

/// An optional non-negative integer field.
fn opt_uint(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_i64()
            .and_then(|n| u64::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not a non-negative integer")),
    }
}

/// A required string field.
fn text<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("record has no string `{key}`"))
}

impl GraphEvent {
    /// The event's fields after the record head: the `event` tag, then the
    /// variant's own fields.
    fn json_fields(&self) -> Vec<(String, Json)> {
        let field = |k: &str, v: Json| (k.to_owned(), v);
        match self {
            GraphEvent::Node { id, label } => vec![
                field("event", Json::str("node")),
                field("node", Json::from(*id)),
                field("label", Json::str(label)),
            ],
            GraphEvent::Edge { parent, child, strategy } => vec![
                field("event", Json::str("edge")),
                field("parent", Json::from(*parent)),
                field("child", Json::from(*child)),
                field("strategy", Json::str(strategy.as_ref())),
            ],
            GraphEvent::Solved { id, engine } => vec![
                field("event", Json::str("solved")),
                field("node", Json::from(*id)),
                field("engine", Json::str(engine.as_ref())),
            ],
            GraphEvent::Dead { id } => vec![
                field("event", Json::str("dead")),
                field("node", Json::from(*id)),
            ],
        }
    }

    fn from_json(v: &Json) -> Result<GraphEvent, String> {
        let node = || uint(v, "node").map(|n| n as usize);
        let owned = |key| text(v, key).map(|s| Cow::Owned(s.to_owned()));
        match text(v, "event")? {
            "node" => Ok(GraphEvent::Node {
                id: node()?,
                label: text(v, "label")?.to_owned(),
            }),
            "edge" => Ok(GraphEvent::Edge {
                parent: uint(v, "parent")? as usize,
                child: uint(v, "child")? as usize,
                strategy: owned("strategy")?,
            }),
            "solved" => Ok(GraphEvent::Solved {
                id: node()?,
                engine: owned("engine")?,
            }),
            "dead" => Ok(GraphEvent::Dead { id: node()? }),
            other => Err(format!("unknown graph event `{other}`")),
        }
    }
}

impl SearchRecord {
    /// The interval as its `search_interval` JSON object.
    pub fn to_json(&self) -> Json {
        let episodes = self
            .episodes
            .iter()
            .map(|ep| {
                Json::obj([
                    ("conflicts", Json::from(ep.conflicts)),
                    ("lbd_sum", Json::from(ep.lbd_sum)),
                    ("lbd_count", Json::from(ep.lbd_count)),
                ])
            })
            .collect();
        Json::obj([
            ("type", Json::str("search_interval")),
            ("seq", Json::from(self.seq)),
            ("conflicts", Json::from(self.conflicts)),
            ("decisions", Json::from(self.decisions)),
            ("propagations", Json::from(self.propagations)),
            ("restarts", Json::from(self.restarts)),
            ("phase_flips", Json::from(self.phase_flips)),
            ("learned_literals", Json::from(self.learned_literals)),
            ("lbd_sum", Json::from(self.lbd_sum)),
            ("lbd_count", Json::from(self.lbd_count)),
            ("db_clauses", Json::from(self.db_clauses)),
            ("episodes", Json::Arr(episodes)),
        ])
    }

    fn from_json(v: &Json) -> Result<SearchRecord, String> {
        let episodes = v
            .get("episodes")
            .and_then(Json::as_arr)
            .ok_or("search interval has no `episodes`")?
            .iter()
            .map(|ep| {
                Ok(RestartEpisode {
                    conflicts: uint(ep, "conflicts")?,
                    lbd_sum: uint(ep, "lbd_sum")?,
                    lbd_count: uint(ep, "lbd_count")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(SearchRecord {
            seq: uint(v, "seq")?,
            conflicts: uint(v, "conflicts")?,
            decisions: uint(v, "decisions")?,
            propagations: uint(v, "propagations")?,
            restarts: uint(v, "restarts")?,
            phase_flips: uint(v, "phase_flips")?,
            learned_literals: uint(v, "learned_literals")?,
            lbd_sum: uint(v, "lbd_sum")?,
            lbd_count: uint(v, "lbd_count")?,
            db_clauses: uint(v, "db_clauses")?,
            episodes,
        })
    }
}

/// One open span on a thread's stack.
struct Frame {
    /// Identity of the owning tracer (`Arc::as_ptr` of its inner state), so
    /// interleaved spans from unrelated tracers don't corrupt each other's
    /// trees.
    tracer: usize,
    stage: Stage,
    id: u64,
}

thread_local! {
    /// The thread's open-span stack, shared by all tracers (frames carry
    /// their owner's identity).
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    metrics: MetricsRegistry,
    progress: ProgressState,
    /// The unbounded record buffer of a recording tracer (`--trace`).
    buffer: Option<Mutex<Vec<Record>>>,
    /// The bounded flight recorder (a daemon worker's ring).
    ring: Option<Arc<EventRing>>,
    /// Whether open-span stacks are mirrored into `live` and the progress
    /// stage (the watchdog's view).
    live_stacks: bool,
    /// Whether spans get ids and frames: true when a record store is
    /// attached or live stacks are on.
    frames: bool,
    next_span: AtomicU64,
    /// Current open-span stack of every thread (keyed by thread ordinal)
    /// that has a live span on this tracer.
    live: Mutex<BTreeMap<u64, Vec<&'static str>>>,
}

/// The tracing handle; see the module docs. Cloning shares all state.
#[derive(Clone, Debug)]
pub struct Tracer(Arc<TracerInner>);

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::metrics_only()
    }
}

impl Tracer {
    /// Builds a tracer with the given optional tiers: `record` keeps every
    /// record in an unbounded buffer (the `--trace` sink); `live_stacks`
    /// mirrors each thread's open-span stack for a watchdog.
    pub fn new(record: bool, live_stacks: bool) -> Tracer {
        Tracer::build(record.then(|| Mutex::new(Vec::new())), None, live_stacks)
    }

    /// A tracer whose records go only to `ring` (a daemon worker's flight
    /// recorder), with optional live stacks.
    pub fn with_flight_recorder(live_stacks: bool, ring: Arc<EventRing>) -> Tracer {
        Tracer::build(None, Some(ring), live_stacks)
    }

    fn build(
        buffer: Option<Mutex<Vec<Record>>>,
        ring: Option<Arc<EventRing>>,
        live_stacks: bool,
    ) -> Tracer {
        Tracer(Arc::new(TracerInner {
            epoch: Instant::now(),
            metrics: MetricsRegistry::default(),
            progress: ProgressState::default(),
            frames: buffer.is_some() || ring.is_some() || live_stacks,
            buffer,
            ring,
            live_stacks,
            next_span: AtomicU64::new(0),
            live: Mutex::new(BTreeMap::new()),
        }))
    }

    /// The attached flight-recorder ring, when one was given at
    /// construction.
    pub fn flight_recorder(&self) -> Option<&Arc<EventRing>> {
        self.0.ring.as_ref()
    }

    /// A tracer that keeps atomic metrics but records nothing — the
    /// default, suitable for leaving permanently enabled.
    pub fn metrics_only() -> Tracer {
        Tracer::new(false, false)
    }

    /// A tracer that buffers every record in memory (the `--trace` sink).
    pub fn recording() -> Tracer {
        Tracer::new(true, false)
    }

    /// A tracer with live stacks for the progress watchdog, recording
    /// nothing.
    pub fn watched() -> Tracer {
        Tracer::new(false, true)
    }

    /// Whether a record store (buffer or ring) is attached. Detail, graph
    /// and search closures run only when this is true.
    pub fn is_recording(&self) -> bool {
        self.0.buffer.is_some() || self.0.ring.is_some()
    }

    /// The always-on metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.0.metrics
    }

    /// The always-on live-progress counters (shared by all clones).
    pub fn progress(&self) -> &ProgressState {
        &self.0.progress
    }

    /// Starts an RAII span for `stage`; metrics are recorded (and a span
    /// record emitted, when a store is attached) when the guard drops.
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        let frame = self.0.frames.then(|| self.push_frame(stage));
        SpanGuard {
            tracer: self,
            stage,
            frame,
            node: None,
            detail: String::new(),
            start: Instant::now(),
        }
    }

    /// The identity key frames use to tell tracers apart on the shared
    /// per-thread stack.
    fn frame_key(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Opens a frame on this thread's stack; returns the new span's id and
    /// the id of its enclosing same-tracer span.
    fn push_frame(&self, stage: Stage) -> (u64, Option<u64>) {
        let key = self.frame_key();
        let id = self.0.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let parent = frames.iter().rev().find(|f| f.tracer == key).map(|f| f.id);
            frames.push(Frame { tracer: key, stage, id });
            parent
        });
        if self.0.live_stacks {
            self.sync_thread_state();
        }
        (id, parent)
    }

    /// Closes span `id`'s frame on this thread's stack.
    fn pop_frame(&self, id: u64) {
        let key = self.frame_key();
        FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            if let Some(idx) = frames.iter().rposition(|f| f.tracer == key && f.id == id) {
                frames.remove(idx);
            }
        });
        if self.0.live_stacks {
            self.sync_thread_state();
        }
    }

    /// Mirrors this thread's stack into the shared live table and keeps the
    /// progress stage pointing at the innermost open span (last writer wins
    /// across threads).
    fn sync_thread_state(&self) {
        let key = self.frame_key();
        let stack: Vec<Stage> = FRAMES.with(|frames| {
            frames
                .borrow()
                .iter()
                .filter(|f| f.tracer == key)
                .map(|f| f.stage)
                .collect()
        });
        match stack.last() {
            Some(&top) => self.0.progress.set_stage(top),
            None => self.0.progress.clear_stage(),
        }
        let mut live = self.0.live.lock().unwrap_or_else(|e| e.into_inner());
        if stack.is_empty() {
            live.remove(&thread_ordinal());
        } else {
            live.insert(
                thread_ordinal(),
                stack.into_iter().map(Stage::name).collect(),
            );
        }
    }

    /// Every thread's current open-span stack (outermost first), keyed by
    /// thread ordinal. Only threads with at least one live span appear, and
    /// only on tracers built with live stacks.
    pub fn live_stacks(&self) -> Vec<(u64, Vec<&'static str>)> {
        self.0
            .live
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&t, v)| (t, v.clone()))
            .collect()
    }

    /// Records an instantaneous point event (the detail closure runs only
    /// when a record store is attached).
    pub fn point(&self, stage: Stage, node: Option<usize>, detail: impl FnOnce() -> String) {
        if self.is_recording() {
            self.emit(
                Instant::now(),
                Record::Point {
                    stamp: Stamp::default(),
                    name: Cow::Borrowed(stage.name()),
                    node,
                    detail: detail(),
                },
            );
        }
    }

    /// Records a subproblem-graph event (the closure runs only when a
    /// record store is attached).
    pub fn graph_event(&self, event: impl FnOnce() -> GraphEvent) {
        if self.is_recording() {
            self.emit(
                Instant::now(),
                Record::Graph {
                    stamp: Stamp::default(),
                    event: event(),
                },
            );
        }
    }

    /// Records a drained CDCL search interval (the closure runs only when a
    /// record store is attached).
    pub fn search(&self, interval: impl FnOnce() -> SearchRecord) {
        if self.is_recording() {
            self.emit(Instant::now(), Record::Search(interval()));
        }
    }

    /// A copy of the buffered records, in push order (empty unless the
    /// tracer is recording).
    pub fn records(&self) -> Vec<Record> {
        self.0.buffer.as_ref().map_or_else(Vec::new, |buffer| {
            buffer.lock().unwrap_or_else(|e| e.into_inner()).clone()
        })
    }

    /// The one emit path: hands `record`, which happened at `at`, to every
    /// attached store.
    fn emit(&self, at: Instant, record: Record) {
        if let Some(buffer) = &self.0.buffer {
            if let Some(ring) = &self.0.ring {
                ring.push(at, record.clone());
            }
            let mut buffer = buffer.lock().unwrap_or_else(|e| e.into_inner());
            let seq = buffer.len() as u64;
            buffer.push(record.stamped(seq, self.0.epoch, at));
        } else if let Some(ring) = &self.0.ring {
            ring.push(at, record);
        }
    }
}

/// RAII span guard returned by [`Tracer::span`]; records the stage metrics
/// (and emits a span record when a store is attached) when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    stage: Stage,
    /// The span's id and parent id, on tracers that keep frames.
    frame: Option<(u64, Option<u64>)>,
    node: Option<usize>,
    detail: String,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Tags the span with a subproblem-graph node id.
    #[must_use]
    pub fn with_node(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    /// Attaches a detail string; the closure runs only when a record store
    /// is attached, so the metrics-only path never allocates.
    #[must_use]
    pub fn with_detail(mut self, detail: impl FnOnce() -> String) -> Self {
        if self.tracer.is_recording() {
            self.detail = detail();
        }
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let micros = self.start.elapsed().as_micros() as u64;
        self.tracer.metrics().stage(self.stage).record_micros(micros);
        if let Some((id, parent)) = self.frame {
            self.tracer.pop_frame(id);
            if self.tracer.is_recording() {
                self.tracer.emit(
                    self.start,
                    Record::Span {
                        stamp: Stamp::default(),
                        id,
                        parent,
                        name: Cow::Borrowed(self.stage.name()),
                        node: self.node,
                        duration_micros: micros,
                        detail: std::mem::take(&mut self.detail),
                    },
                );
            }
        }
    }
}

/// Opens an RAII span on a tracer: `span!(tracer, Stage::Deduct)` or
/// `span!(tracer, Stage::Deduct, node)`. Bind the result (`let _span = …`)
/// so the guard lives to the end of the stage.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $stage:expr) => {
        $tracer.span($stage)
    };
    ($tracer:expr, $stage:expr, $node:expr) => {
        $tracer.span($stage).with_node($node)
    };
}

/// A small dense per-process thread ordinal (the first thread to record an
/// event gets 0), stable for the thread's lifetime — friendlier in traces
/// than the opaque `std::thread::ThreadId`.
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|&id| id)
}

/// The flight recorder: a fixed-capacity ring buffer of the most recent
/// [`Record`]s, cheap enough to leave attached to every daemon worker.
/// Writers claim slots with one atomic increment and never block each
/// other (each slot has its own lock, and two writers only share a slot
/// after a full wrap); readers snapshot without stopping writers.
///
/// The slot count is rounded up to a power of two so the slot index is
/// `seq & (len - 1)`: unlike `seq % len` for a general `len`, the mask is
/// continuous when the sequence counter wraps past `u64::MAX`, so adjacent
/// claims never collide in one slot at the wrap seam. Ordering likewise
/// survives the wrap: [`EventRing::recent`] orders survivors by wrapping
/// distance from the claim counter, not by raw `seq`.
///
/// The ring persists across requests on a worker, so a dump shows the
/// last-seconds timeline *leading up to* a fault, including prior
/// requests' tail activity. Stamps are offsets from the ring's creation.
#[derive(Debug)]
pub struct EventRing {
    epoch: Instant,
    next: AtomicU64,
    /// Each survivor with its claim number (search records carry no stamp
    /// to order them by).
    slots: Vec<Mutex<Option<(u64, Record)>>>,
}

impl EventRing {
    /// A ring holding the most recent `capacity` records (at least 1;
    /// rounded up to the next power of two — see the type docs).
    pub fn new(capacity: usize) -> EventRing {
        EventRing::with_first_seq(capacity, 0)
    }

    /// Like [`EventRing::new`], but the first claimed record gets sequence
    /// number `first_seq`. Exists so tests (and the interleaving harness)
    /// can start the counter next to `u64::MAX` and exercise the wrap seam
    /// without 2^64 pushes.
    pub fn with_first_seq(capacity: usize, first_seq: u64) -> EventRing {
        EventRing {
            epoch: Instant::now(),
            next: AtomicU64::new(first_seq),
            slots: (0..capacity.max(1).next_power_of_two())
                .map(|_| Mutex::new(None))
                .collect(),
        }
    }

    /// The number of slots (the requested capacity rounded up to a power
    /// of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores one record that happened at `at`, overwriting the oldest once
    /// the ring is full.
    fn push(&self, at: Instant, record: Record) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let record = record.stamped(seq, self.epoch, at);
        // Power-of-two mask, not `%`: stays continuous when `seq` wraps.
        let slot = (seq & (self.slots.len() as u64 - 1)) as usize;
        *self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some((seq, record));
    }

    /// Records a free-form marker (request start/finish, fault notes) as a
    /// point record.
    pub fn note(&self, name: &'static str, detail: impl Into<String>) {
        self.push(
            Instant::now(),
            Record::Point {
                stamp: Stamp::default(),
                name: Cow::Borrowed(name),
                node: None,
                detail: detail.into(),
            },
        );
    }

    /// Records pushed over the ring's lifetime (not capped at capacity).
    /// This is the raw claim counter, so it wraps with `seq`.
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// The surviving records in push order (oldest first). A torn slot
    /// (overwritten mid-snapshot) simply carries the newer record. Order is
    /// restored by wrapping distance from the claim counter — survivors
    /// all sit within `capacity` claims of `next`, so the distance is
    /// small and well-ordered even when raw `seq` has wrapped `u64::MAX`.
    pub fn recent(&self) -> Vec<Record> {
        let next = self.next.load(Ordering::Relaxed);
        let mut out: Vec<(u64, Record)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|(seq, _)| std::cmp::Reverse(next.wrapping_sub(*seq)));
        out.into_iter().map(|(_, record)| record).collect()
    }

    /// The timeline rendered one line per record (oldest first), ready to
    /// write into a diagnostics sink.
    pub fn render_timeline(&self) -> Vec<String> {
        self.recent().iter().map(Record::render).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn metrics_record_without_recording() {
        let t = Tracer::metrics_only();
        {
            let _s = t.span(Stage::Deduct).with_node(3);
        }
        {
            let _s = span!(t, Stage::Deduct);
        }
        assert_eq!(t.metrics().stage(Stage::Deduct).count(), 2);
        assert!(t.records().is_empty(), "disabled tracer keeps no records");
        // Detail closures must not run when disabled.
        let _s = t
            .span(Stage::Smt)
            .with_detail(|| panic!("detail evaluated on a disabled tracer"));
    }

    #[test]
    fn histogram_buckets_match_known_timings() {
        let m = StageMetrics::default();
        m.record_micros(500);            // 0.0005 s -> bucket 0
        m.record_micros(2_000_000);      // 2 s      -> bucket 1
        m.record_micros(2_500_000);      // 2.5 s    -> bucket 1
        m.record_micros(15_000_000);     // 15 s     -> bucket 3
        let snap = m.snapshot(Stage::Smt);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.hist[0], 1);
        assert_eq!(snap.hist[1], 2);
        assert_eq!(snap.hist[3], 1);
        assert_eq!(snap.total_micros, 500 + 2_000_000 + 2_500_000 + 15_000_000);
        assert_eq!(snap.max_micros, 15_000_000);
    }

    /// The span fields of a record (panics on other kinds).
    fn span_fields(r: &Record) -> (u64, Option<u64>, &str, Option<usize>, u64, &str) {
        match r {
            Record::Span { id, parent, name, node, duration_micros, detail, .. } => {
                (*id, *parent, name, *node, *duration_micros, detail)
            }
            other => panic!("not a span: {other:?}"),
        }
    }

    /// The name and detail of a span or point record.
    fn name_and_detail(r: &Record) -> (&str, &str) {
        match r {
            Record::Span { name, detail, .. } | Record::Point { name, detail, .. } => (name, detail),
            other => panic!("not a span or point: {other:?}"),
        }
    }

    #[test]
    fn spans_nest_and_order_in_the_event_buffer() {
        let t = Tracer::recording();
        {
            let _outer = t
                .span(Stage::Enumerate)
                .with_node(0)
                .with_detail(|| "height=2".into());
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = t.span(Stage::Smt).with_node(0);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let records = t.records();
        assert_eq!(records.len(), 2);
        // Spans complete inside-out: the inner span lands first.
        let (inner_id, inner_parent, inner_name, _, inner_micros, _) = span_fields(&records[0]);
        let (outer_id, outer_parent, outer_name, outer_node, outer_micros, outer_detail) =
            span_fields(&records[1]);
        assert_eq!((inner_name, outer_name), ("smt", "enumerate"));
        let (inner, outer) = (records[0].stamp().unwrap(), records[1].stamp().unwrap());
        assert_eq!((inner.seq, outer.seq), (0, 1));
        // The inner span's parent is exactly the outer span.
        assert_eq!(inner_parent, Some(outer_id));
        assert_eq!(outer_parent, None);
        assert_ne!(inner_id, outer_id);
        // The outer span started first and fully contains the inner one.
        assert!(outer.start_micros <= inner.start_micros);
        assert!(inner.start_micros + inner_micros <= outer.start_micros + outer_micros);
        assert_eq!(outer_detail, "height=2");
        assert_eq!(outer_node, Some(0));
    }

    #[test]
    fn named_counters_and_size_hist() {
        let t = Tracer::metrics_only();
        t.metrics().bump("smt.sat");
        t.metrics().add("smt.sat", 2);
        t.metrics().bump("divide.subterm");
        t.metrics().record_size(5); // bucket 0
        t.metrics().record_size(50); // bucket 2
        assert_eq!(t.metrics().counter("smt.sat"), 3);
        assert_eq!(t.metrics().counter("never"), 0);
        let snap = t.metrics().snapshot();
        assert_eq!(
            snap.counters,
            vec![("divide.subterm".to_owned(), 1), ("smt.sat".to_owned(), 3)]
        );
        assert_eq!(snap.size_hist[0], 1);
        assert_eq!(snap.size_hist[2], 1);
    }

    #[test]
    fn set_overwrites_like_a_gauge() {
        let t = Tracer::metrics_only();
        t.metrics().set("interner.symbols", 7);
        t.metrics().set("interner.symbols", 4); // last write wins
        t.metrics().add("interner.symbols", 1); // add still accumulates on top
        assert_eq!(t.metrics().counter("interner.symbols"), 5);
    }

    #[test]
    fn graph_events_buffer_only_when_recording() {
        let off = Tracer::metrics_only();
        off.graph_event(|| panic!("graph closure evaluated on disabled tracer"));
        off.search(|| panic!("search closure evaluated on disabled tracer"));
        assert!(off.records().is_empty());
        let on = Tracer::recording();
        on.graph_event(|| GraphEvent::Node {
            id: 0,
            label: "source".into(),
        });
        on.graph_event(|| GraphEvent::Solved {
            id: 0,
            engine: "deduction".into(),
        });
        let records = on.records();
        assert_eq!(records.len(), 2);
        assert!(matches!(
            &records[1],
            Record::Graph { event: GraphEvent::Solved { id: 0, .. }, .. }
        ));
    }

    #[test]
    fn event_json_has_the_schema_fields() {
        let t = Tracer::recording();
        t.point(Stage::Smt, Some(7), || "answer=sat".into());
        let records = t.records();
        let json = records[0].to_json().to_string();
        for needle in [
            "\"type\":\"point\"",
            "\"name\":\"smt\"",
            "\"node\":7",
            "\"detail\":\"answer=sat\"",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        // Round-trips through the parser.
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("smt"));
        assert_eq!(Record::from_json(&parsed).unwrap(), records[0]);
    }

    #[test]
    fn every_record_kind_round_trips_through_json() {
        let t = Tracer::recording();
        {
            let _outer = t.span(Stage::Deduct).with_node(2).with_detail(|| "pass=1".into());
            drop(t.span(Stage::Smt));
        }
        t.point(Stage::Verify, None, String::new);
        for event in [
            GraphEvent::Node { id: 0, label: "(= (f x) \"q\")".into() },
            GraphEvent::Edge { parent: 0, child: 1, strategy: "subterm".into() },
            GraphEvent::Solved { id: 1, engine: "deduction".into() },
            GraphEvent::Dead { id: 0 },
        ] {
            t.graph_event(|| event);
        }
        t.search(|| SearchRecord {
            seq: 3,
            conflicts: 4096,
            decisions: 5120,
            lbd_sum: 20_480,
            lbd_count: 4096,
            episodes: vec![RestartEpisode { conflicts: 128, lbd_sum: 640, lbd_count: 128 }],
            ..SearchRecord::default()
        });
        let records = t.records();
        let kinds: Vec<&str> = records
            .iter()
            .map(|r| match r {
                Record::Span { .. } => "span",
                Record::Point { .. } => "point",
                Record::Graph { .. } => "graph",
                Record::Search(_) => "search",
            })
            .collect();
        assert_eq!(
            kinds,
            ["span", "span", "point", "graph", "graph", "graph", "graph", "search"]
        );
        for r in &records {
            let line = r.to_json().to_string();
            let back = Record::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(&back, r, "{line}");
        }
        // The search line is exactly the search log's interval object.
        let line = records[7].to_json().to_string();
        assert!(line.starts_with("{\"type\":\"search_interval\",\"seq\":3,"), "{line}");
        assert!(!line.contains("thread"), "{line}");
        assert!(Record::from_json(&Json::parse("{\"type\":\"nope\"}").unwrap()).is_err());
    }

    #[test]
    fn live_stacks_track_open_spans_and_progress_stage() {
        let t = Tracer::watched();
        assert!(t.live_stacks().is_empty());
        {
            let _outer = t.span(Stage::Deduct);
            assert_eq!(t.progress().snapshot().stage, Some("deduct"));
            {
                let _inner = t.span(Stage::Verify);
                let live = t.live_stacks();
                assert_eq!(live.len(), 1);
                assert_eq!(live[0].1, vec!["deduct", "verify"]);
                assert_eq!(t.progress().snapshot().stage, Some("verify"));
            }
            assert_eq!(t.progress().snapshot().stage, Some("deduct"));
        }
        assert!(t.live_stacks().is_empty());
        assert_eq!(t.progress().snapshot().stage, None);
    }

    #[test]
    fn non_profiling_tracer_records_no_paths() {
        let t = Tracer::metrics_only();
        {
            let _s = t.span(Stage::Smt);
        }
        assert!(!t.is_recording());
        assert!(t.records().is_empty());
        assert!(t.live_stacks().is_empty());
        // Metrics still land.
        assert_eq!(t.metrics().stage(Stage::Smt).count(), 1);
    }

    #[test]
    fn metrics_json_sorts_stages_by_name() {
        let t = Tracer::metrics_only();
        // Record in an order that differs from alphabetical.
        t.metrics().stage(Stage::Worker).record_micros(5);
        t.metrics().stage(Stage::Deduct).record_micros(5);
        t.metrics().stage(Stage::Smt).record_micros(5);
        let json = t.metrics().snapshot().to_json().to_string();
        let deduct = json.find("\"stage\":\"deduct\"").unwrap();
        let smt = json.find("\"stage\":\"smt\"").unwrap();
        let worker = json.find("\"stage\":\"worker\"").unwrap();
        assert!(deduct < smt && smt < worker, "{json}");
    }

    #[test]
    fn record_size_lands_on_pseudo_log_bucket_boundaries() {
        let t = Tracer::metrics_only();
        // One probe just below and one at each SIZE_BUCKETS boundary.
        for &(size, bucket) in &[
            (1usize, 0usize),
            (9, 0),
            (10, 1),
            (29, 1),
            (30, 2),
            (99, 2),
            (100, 3),
            (299, 3),
            (300, 4),
            (999, 4),
            (1000, 5), // open-ended overflow bucket
            (100_000, 5),
        ] {
            let before = t.metrics().snapshot().size_hist[bucket];
            t.metrics().record_size(size);
            let after = t.metrics().snapshot().size_hist[bucket];
            assert_eq!(after, before + 1, "size {size} must land in bucket {bucket}");
        }
        let snap = t.metrics().snapshot();
        assert_eq!(snap.size_hist, [2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn latency_histograms_snapshot_through_the_registry() {
        let t = Tracer::metrics_only();
        for micros in [100u64, 200, 400, 100_000] {
            t.metrics().record_latency("queue_wait", micros);
        }
        t.metrics().record_latency("solve_wall", 5_000);
        let snap = t.metrics().snapshot();
        assert_eq!(snap.latencies.len(), 2);
        assert_eq!(snap.latencies[0].0, "queue_wait");
        let qw = &snap.latencies[0].1;
        assert_eq!(qw.lifetime.count, 4);
        assert_eq!(qw.lifetime.max, 100_000);
        assert!(qw.lifetime.p99() >= 100_000 / 2, "{qw:?}");
        assert_eq!(qw.recent.count, 4, "fresh recordings are in the window");
        // The JSON carries a latencies object with both banks...
        let json = snap.to_json().to_string();
        for needle in ["\"latencies\"", "\"queue_wait\"", "\"lifetime\"", "\"recent\"", "\"p99_micros\""] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        // ... but a run with no latency recordings keeps the old shape.
        let plain = Tracer::metrics_only().metrics().snapshot().to_json().to_string();
        assert!(!plain.contains("latencies"), "{plain}");
    }

    #[test]
    fn flight_ring_keeps_the_most_recent_entries_in_order() {
        let ring = Arc::new(EventRing::new(4));
        for i in 0..10u64 {
            ring.note("request", format!("id=j{i}"));
        }
        assert_eq!(ring.recorded(), 10);
        let recent = ring.recent();
        assert_eq!(recent.len(), 4, "capacity bounds survivors");
        let seqs: Vec<u64> = recent.iter().map(|e| e.stamp().unwrap().seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, order kept");
        let lines = ring.render_timeline();
        assert!(lines[3].contains("request") && lines[3].contains("id=j9"), "{lines:?}");
    }

    #[test]
    fn flight_ring_survives_seq_wraparound() {
        // Start the claim counter 3 pushes shy of the wrap; five pushes
        // leave the four survivors straddling u64::MAX → 0.
        let ring = EventRing::with_first_seq(4, u64::MAX - 2);
        for i in 0..5u64 {
            ring.note("request", format!("id=j{i}"));
        }
        assert_eq!(ring.recorded(), 2, "claim counter wrapped through zero");
        let recent = ring.recent();
        assert_eq!(recent.len(), 4, "oldest entry evicted across the wrap");
        // Push order is preserved even though raw seq wrapped: sorting by
        // raw seq would put the post-wrap entries (j3, j4) first.
        let details: Vec<&str> = recent.iter().map(|e| name_and_detail(e).1).collect();
        assert_eq!(details, vec!["id=j1", "id=j2", "id=j3", "id=j4"]);
        // The seam really is inside the window: survivors carry both
        // near-MAX and near-zero raw seqs.
        let seqs: Vec<u64> = recent.iter().map(|e| e.stamp().unwrap().seq).collect();
        assert!(seqs.iter().any(|&s| s >= u64::MAX - 1), "{seqs:?}");
        assert!(seqs.iter().any(|&s| s < 2), "{seqs:?}");
    }

    #[test]
    fn flight_ring_rounds_capacity_to_a_power_of_two() {
        assert_eq!(EventRing::new(5).capacity(), 8);
        assert_eq!(EventRing::new(32).capacity(), 32);
        assert_eq!(EventRing::new(0).capacity(), 1);
        // With a pow2 slot count, adjacent claims across the wrap land in
        // adjacent slots — no double-write collision at the seam.
        let ring = EventRing::with_first_seq(8, u64::MAX);
        ring.note("a", "");
        ring.note("b", "");
        let recent = ring.recent();
        assert_eq!(recent.len(), 2, "wrap-adjacent claims keep both entries");
        assert_eq!(name_and_detail(&recent[0]).0, "a");
        assert_eq!(name_and_detail(&recent[1]).0, "b");
    }

    #[test]
    fn ring_attached_tracer_mirrors_spans_and_points() {
        let ring = Arc::new(EventRing::new(16));
        let t = Tracer::with_flight_recorder(false, Arc::clone(&ring));
        assert!(t.flight_recorder().is_some());
        {
            let _s = t.span(Stage::Smt).with_node(3);
        }
        // Points reach the ring even though the tracer keeps no buffer.
        t.point(Stage::Verify, None, || "answer=sat".into());
        assert!(t.records().is_empty(), "ring only: no record buffer");
        let entries = ring.recent();
        assert_eq!(entries.len(), 2);
        let (_, _, name, node, _, _) = span_fields(&entries[0]);
        assert_eq!((name, node), ("smt", Some(3)));
        assert!(matches!(&entries[1], Record::Point { .. }));
        assert_eq!(name_and_detail(&entries[1]), ("verify", "answer=sat"));
        // A plain tracer still skips the detail closure entirely.
        Tracer::metrics_only().point(Stage::Smt, None, || {
            panic!("detail evaluated without ring or recording")
        });
    }

    #[test]
    fn ring_only_span_details_reach_the_ring() {
        let ring = Arc::new(EventRing::new(8));
        let t = Tracer::with_flight_recorder(false, Arc::clone(&ring));
        drop(
            t.span(Stage::Enumerate)
                .with_detail(|| "answer=sat rung=2".into()),
        );
        let entries = ring.recent();
        assert_eq!(entries.len(), 1);
        assert_eq!(name_and_detail(&entries[0]), ("enumerate", "answer=sat rung=2"));
        assert!(ring.render_timeline()[0].ends_with("answer=sat rung=2"));
    }

    #[test]
    fn flight_ring_accepts_concurrent_writers() {
        let ring = Arc::new(EventRing::new(32));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        ring.note("worker", format!("w={w} i={i}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 400);
        let recent = ring.recent();
        assert_eq!(recent.len(), 32);
        // Strictly increasing seq with no duplicates even under contention.
        let seqs: Vec<u64> = recent.iter().map(|e| e.stamp().unwrap().seq).collect();
        for pair in seqs.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?}");
        }
    }

    #[test]
    fn clones_share_metrics_across_threads() {
        let t = Tracer::metrics_only();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        t.metrics().stage(Stage::Worker).record_micros(10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.metrics().stage(Stage::Worker).count(), 400);
    }
}
