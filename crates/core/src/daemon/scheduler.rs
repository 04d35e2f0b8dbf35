//! The daemon's fault-isolated scheduler: a bounded worker pool fed by an
//! admission-controlled queue, multiplexing concurrent solve requests with
//! per-request budgets, panic isolation, cancellation, and graceful drain.
//!
//! Lifecycle invariants (the chaos harness asserts these end to end):
//!
//! * **Exactly once** — every admitted solve id receives exactly one
//!   terminal response, whatever mix of panics, cancels, worker deaths,
//!   shed decisions and shutdowns occurs.
//! * **Fault isolation** — an engine panic is contained inside the
//!   worker's `catch_unwind` envelope and answered as `engine_fault`; a
//!   worker thread that dies between requests is respawned by the monitor.
//!   The process never dies for an engine's sins.
//! * **Bounded admission** — the queue has a hard cap; beyond it requests
//!   are shed immediately with `overloaded` plus a `retry_after_ms` hint,
//!   never silently dropped or unboundedly buffered.
//! * **Fair aging** — the queue orders by `arrival + size-penalty`, so
//!   small requests may overtake one large one, but an old large request's
//!   score is eventually lowest: it cannot starve.
//! * **Graceful drain** — shutdown stops admission and lets queued and
//!   in-flight work finish inside the drain deadline; past it, remaining
//!   requests are cancelled through their budgets and still answered.

use crate::daemon::chaos::{Chaos, ChaosConfig};
use crate::daemon::protocol::{
    DrainSummary, LatencyBankStats, LatencyLine, OutcomeResponse, Request, Response, SolveJob,
    StatsLite, StatsReply, DAEMON_VERSION,
};
use crate::runtime::panic_message;
use crate::{
    outcome_label, Budget, DryadSynth, DryadSynthConfig, Engine, SolveRequest, Synthesizer,
    SynthOutcome, Watchdog, WatchdogConfig,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sygus_ast::{interner_stats, EventRing, Json, Tracer};
use sygus_parser::parse_problem;

/// Where one submission's responses go (stdout, a socket, a test channel).
pub type Responder = Arc<dyn Fn(Response) + Send + Sync>;

/// Shared sink for operational diagnostics (heartbeats, stall dumps).
pub type DiagSink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Shared sink for the request audit log (one JSONL record per answered
/// request, flushed line by line so drains and panics keep records).
pub type AuditSink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Flight-recorder depth: each worker keeps this many recent tracer events
/// for post-mortem timelines.
const FLIGHT_RING_CAPACITY: usize = 128;

/// Queue scoring: every `SIZE_PENALTY_UNIT` bytes of request text push a
/// job back by one arrival slot, capped so giants still age to the front.
const SIZE_PENALTY_UNIT: usize = 256;
const MAX_SIZE_PENALTY: u64 = 64;

/// Scheduler tuning; see the field docs for the contract of each knob.
#[derive(Clone)]
pub struct SchedulerConfig {
    /// Worker threads solving concurrently (the pool bound).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Per-request wall-clock window when the request names none.
    pub default_timeout: Duration,
    /// Hard clamp on client-requested windows.
    pub max_timeout: Duration,
    /// How long a drain lets work finish before cancelling what remains.
    pub drain_deadline: Duration,
    /// Enumeration threads inside each solve (keep `workers ×
    /// threads_per_solve` near the core count).
    pub threads_per_solve: usize,
    /// Per-request watchdog heartbeat interval (`None` = off).
    pub heartbeat: Option<Duration>,
    /// Per-request stall-dump window (`None` = off).
    pub stall_after: Option<Duration>,
    /// Certify every solved answer before reporting it.
    pub certify: bool,
    /// Fault injection for chaos runs (`None` in production).
    pub chaos: Option<ChaosConfig>,
    /// Diagnostics sink; `None` writes to stderr.
    pub diag: Option<DiagSink>,
    /// Request audit log (`--audit`); `None` disables auditing.
    pub audit: Option<AuditSink>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            workers: 2,
            queue_cap: 64,
            default_timeout: Duration::from_secs(30),
            max_timeout: Duration::from_secs(300),
            drain_deadline: Duration::from_secs(30),
            threads_per_solve: 1,
            heartbeat: None,
            stall_after: None,
            certify: false,
            chaos: None,
            diag: None,
            audit: None,
        }
    }
}

struct QueueEntry {
    score: u64,
    seq: u64,
    job: SolveJob,
    deadline: Instant,
    /// Admission time, for the queue-wait histogram and audit records.
    enqueued: Instant,
    reply: Responder,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &QueueEntry) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &QueueEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &QueueEntry) -> std::cmp::Ordering {
        (self.score, self.seq).cmp(&(other.score, other.seq))
    }
}

struct InFlight {
    budget: Budget,
    cancelled: Arc<AtomicBool>,
}

struct State {
    queue: BinaryHeap<Reverse<QueueEntry>>,
    /// Ids currently queued, with their responders (for immediate
    /// cancel-while-queued replies and duplicate detection).
    queued: HashMap<String, Responder>,
    /// Ids cancelled while queued; their heap entries are skipped on pop.
    tombstones: HashSet<String>,
    in_flight: HashMap<String, InFlight>,
    stopping: bool,
}

struct Inner {
    config: SchedulerConfig,
    state: Mutex<State>,
    ready: Condvar,
    /// Daemon-lifetime budget: unlimited, carrying the daemon-wide metrics
    /// tracer. Every request budget is a child of it, so request fuel and
    /// SMT charges aggregate here and a daemon-wide cancel fans out.
    root: Budget,
    chaos: Option<Chaos>,
    started: Instant,
    seq: AtomicU64,
    worker_seq: AtomicU64,
    accepting: AtomicBool,
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    faulted: AtomicU64,
    cancelled: AtomicU64,
    recycled: AtomicU64,
    diag: DiagSink,
}

/// A running scheduler; see the module docs for its invariants.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    monitor_stop: Arc<AtomicBool>,
    monitor: Mutex<Option<JoinHandle<()>>>,
    drained: AtomicBool,
}

impl Scheduler {
    /// Starts the worker pool and its monitor thread.
    pub fn start(config: SchedulerConfig) -> Scheduler {
        let diag: DiagSink = config
            .diag
            .clone()
            .unwrap_or_else(|| Arc::new(Mutex::new(Box::new(std::io::stderr()))));
        let inner = Arc::new(Inner {
            root: Budget::unlimited().with_tracer(Tracer::metrics_only()),
            chaos: config.chaos.map(Chaos::new),
            state: Mutex::new(State {
                queue: BinaryHeap::new(),
                queued: HashMap::new(),
                tombstones: HashSet::new(),
                in_flight: HashMap::new(),
                stopping: false,
            }),
            ready: Condvar::new(),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            worker_seq: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            diag,
            config,
        });
        let workers = Arc::new(Mutex::new(
            (0..inner.config.workers.max(1))
                .map(|_| spawn_worker(&inner))
                .collect::<Vec<_>>(),
        ));
        let monitor_stop = Arc::new(AtomicBool::new(false));
        let monitor = {
            let inner = Arc::clone(&inner);
            let workers = Arc::clone(&workers);
            let stop = Arc::clone(&monitor_stop);
            std::thread::Builder::new()
                .name("daemon-monitor".into())
                .spawn(move || monitor_loop(&inner, &workers, &stop))
                // synthlint: allow(panic-surface) — spawn failure at startup is fatal by design; no requests are in flight yet
                .expect("spawn monitor thread")
        };
        Scheduler {
            inner,
            workers,
            monitor_stop,
            monitor: Mutex::new(Some(monitor)),
            drained: AtomicBool::new(false),
        }
    }

    /// Parses and dispatches one protocol line, routing responses through
    /// `reply`. Returns `true` when the line asked for shutdown (the
    /// caller then runs [`Scheduler::drain`]). Blank lines are ignored;
    /// malformed ones are answered with an error response and the
    /// scheduler keeps serving.
    pub fn handle_line(&self, line: &str, reply: &Responder) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return false;
        }
        match Request::parse(line) {
            Ok(Request::Solve(job)) => self.submit(job, reply.clone()),
            Ok(Request::Cancel(id)) => self.cancel(&id, reply),
            Ok(Request::Stats) => reply(Response::Stats(self.stats())),
            Ok(Request::Shutdown) => return true,
            Err(message) => {
                // Best effort: surface the id when the line was valid JSON
                // with one, so clients can correlate the rejection.
                let id = Json::parse(line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_owned));
                reply(Response::Error { id, message });
            }
        }
        false
    }

    /// Admission control: enqueue the job or shed it, always answering.
    pub fn submit(&self, job: SolveJob, reply: Responder) {
        let inner = &self.inner;
        if !inner.accepting.load(Ordering::SeqCst) {
            inner.shed.fetch_add(1, Ordering::Relaxed);
            audit_simple(inner, &job.id, "overloaded", "daemon is draining");
            reply(Response::Outcome(OutcomeResponse {
                id: job.id,
                outcome: "overloaded".into(),
                reason: Some("daemon is draining".into()),
                ..OutcomeResponse::default()
            }));
            return;
        }
        let timeout = job
            .timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(inner.config.default_timeout)
            .min(inner.config.max_timeout);
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.queued.contains_key(&job.id) || st.in_flight.contains_key(&job.id) {
            drop(st);
            reply(Response::Error {
                id: Some(job.id),
                message: "duplicate id: a request with this id is still active".into(),
            });
            return;
        }
        if st.queued.len() >= inner.config.queue_cap {
            let depth = st.queued.len();
            drop(st);
            inner.shed.fetch_add(1, Ordering::Relaxed);
            audit_simple(
                inner,
                &job.id,
                "overloaded",
                &format!("queue full ({depth} waiting)"),
            );
            reply(Response::Outcome(OutcomeResponse {
                id: job.id,
                outcome: "overloaded".into(),
                reason: Some(format!("queue full ({depth} waiting)")),
                retry_after_ms: Some(retry_after_hint(
                    depth,
                    inner.config.workers,
                    inner.config.default_timeout,
                )),
                ..OutcomeResponse::default()
            }));
            return;
        }
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let penalty = (job.sygus.len() / SIZE_PENALTY_UNIT) as u64;
        let id = job.id.clone();
        st.queued.insert(id.clone(), reply.clone());
        st.queue.push(Reverse(QueueEntry {
            score: seq + penalty.min(MAX_SIZE_PENALTY),
            seq,
            job,
            deadline: Instant::now() + timeout,
            enqueued: Instant::now(),
            reply,
        }));
        drop(st);
        inner.accepted.fetch_add(1, Ordering::Relaxed);
        inner.ready.notify_one();
        if inner.chaos.as_ref().is_some_and(|c| c.inject_cancel()) {
            // Chaos cancels ride the real cancellation path; the request
            // still gets its one terminal response (as `cancelled`).
            let noop: Responder = Arc::new(|_| {});
            self.cancel(&id, &noop);
        }
    }

    /// Cancels a queued or in-flight request. A queued one is answered
    /// `cancelled` immediately; an in-flight one is interrupted through
    /// its budget and answered by its worker. Unknown ids are reported on
    /// `reply` (the canceller's own connection).
    pub fn cancel(&self, id: &str, reply: &Responder) {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(orig_reply) = st.queued.remove(id) {
            st.tombstones.insert(id.to_owned());
            drop(st);
            inner.cancelled.fetch_add(1, Ordering::Relaxed);
            inner.completed.fetch_add(1, Ordering::Relaxed);
            audit_simple(inner, id, "cancelled", "cancelled while queued");
            orig_reply(Response::Outcome(OutcomeResponse {
                id: id.to_owned(),
                outcome: "cancelled".into(),
                reason: Some("cancelled while queued".into()),
                ..OutcomeResponse::default()
            }));
            return;
        }
        if let Some(inf) = st.in_flight.get(id) {
            inf.cancelled.store(true, Ordering::SeqCst);
            inf.budget.cancel();
            return; // the worker sends the terminal response
        }
        drop(st);
        reply(Response::Error {
            id: Some(id.to_owned()),
            message: "unknown or already completed id".into(),
        });
    }

    /// A point-in-time introspection snapshot. Also refreshes the
    /// `interner.symbols` / `interner.bytes` gauges on the daemon tracer.
    pub fn stats(&self) -> StatsReply {
        let inner = &self.inner;
        let interner = interner_stats();
        let metrics = inner.root.tracer().metrics();
        metrics.set("interner.symbols", interner.symbols as u64);
        metrics.set("interner.bytes", interner.bytes as u64);
        let latencies = metrics
            .snapshot()
            .latencies
            .iter()
            .map(|(name, snap)| LatencyLine {
                name: name.clone(),
                lifetime: LatencyBankStats::from_bank(&snap.lifetime),
                recent: LatencyBankStats::from_bank(&snap.recent),
            })
            .collect();
        let st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        StatsReply {
            queue_depth: st.queued.len() as u64,
            in_flight: st.in_flight.keys().cloned().collect(),
            workers: inner.config.workers.max(1) as u64,
            accepted: inner.accepted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            shed: inner.shed.load(Ordering::Relaxed),
            faulted: inner.faulted.load(Ordering::Relaxed),
            cancelled: inner.cancelled.load(Ordering::Relaxed),
            recycled: inner.recycled.load(Ordering::Relaxed),
            interner_symbols: interner.symbols as u64,
            interner_bytes: interner.bytes as u64,
            uptime_secs: inner.started.elapsed().as_secs(),
            version: DAEMON_VERSION.to_owned(),
            latencies,
        }
    }

    /// Prometheus-text-format exposition of every daemon counter, gauge,
    /// and latency histogram (served by `--metrics-socket`).
    pub fn metrics_text(&self) -> String {
        let stats = self.stats();
        let snapshot = self.inner.root.tracer().metrics().snapshot();
        crate::daemon::expose::render(&stats, &snapshot)
    }

    /// Graceful drain: stop admitting, let queued and in-flight work
    /// finish inside the drain deadline, then cancel what remains (still
    /// answering every id), and summarize. Idempotent; bounded in time.
    pub fn drain(&self) -> DrainSummary {
        let inner = &self.inner;
        inner.accepting.store(false, Ordering::SeqCst);
        if self.drained.swap(true, Ordering::SeqCst) {
            return self.summary(true);
        }
        {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.stopping = true;
        }
        inner.ready.notify_all();
        let deadline = Instant::now() + inner.config.drain_deadline;
        let mut cancelled_late = false;
        let clean = loop {
            let idle = {
                let st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
                st.queue.is_empty() && st.in_flight.is_empty()
            };
            if idle {
                break true;
            }
            if Instant::now() >= deadline {
                if !cancelled_late {
                    cancelled_late = true;
                    self.cancel_remaining();
                    continue; // give workers one grace window to answer
                }
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        // Past-deadline stragglers get half a drain window of grace after
        // their budgets were cancelled; the cooperative engines poll the
        // budget, so this converges unless an engine is truly wedged.
        let clean = clean || {
            let grace = Instant::now() + inner.config.drain_deadline / 2;
            loop {
                let idle = {
                    let st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
                    st.queue.is_empty() && st.in_flight.is_empty()
                };
                if idle {
                    break true;
                }
                if Instant::now() >= grace {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        self.monitor_stop.store(true, Ordering::SeqCst);
        if let Some(m) = self.monitor.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = m.join();
        }
        inner.ready.notify_all();
        let join_by = Instant::now() + Duration::from_secs(2);
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        let mut all_joined = true;
        for handle in workers.drain(..) {
            while !handle.is_finished() && Instant::now() < join_by {
                std::thread::sleep(Duration::from_millis(5));
            }
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                all_joined = false; // leave it detached; the process exits anyway
            }
        }
        self.summary(clean && all_joined)
    }

    /// Flushes still-queued jobs as `cancelled` and cancels every
    /// in-flight budget (the workers answer `cancelled`).
    fn cancel_remaining(&self) {
        let inner = &self.inner;
        let mut flushed = Vec::new();
        {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            while let Some(Reverse(entry)) = st.queue.pop() {
                if st.tombstones.remove(&entry.job.id) {
                    continue; // already answered at cancel time
                }
                st.queued.remove(&entry.job.id);
                flushed.push((entry.job.id, entry.reply));
            }
            for inf in st.in_flight.values() {
                inf.cancelled.store(true, Ordering::SeqCst);
                inf.budget.cancel();
            }
        }
        for (id, reply) in flushed {
            inner.cancelled.fetch_add(1, Ordering::Relaxed);
            inner.completed.fetch_add(1, Ordering::Relaxed);
            audit_simple(inner, &id, "cancelled", "daemon shutting down");
            reply(Response::Outcome(OutcomeResponse {
                id,
                outcome: "cancelled".into(),
                reason: Some("daemon shutting down".into()),
                ..OutcomeResponse::default()
            }));
        }
    }

    fn summary(&self, clean: bool) -> DrainSummary {
        let inner = &self.inner;
        DrainSummary {
            accepted: inner.accepted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            shed: inner.shed.load(Ordering::Relaxed),
            faulted: inner.faulted.load(Ordering::Relaxed),
            cancelled: inner.cancelled.load(Ordering::Relaxed),
            recycled: inner.recycled.load(Ordering::Relaxed),
            uptime_secs: inner.started.elapsed().as_secs(),
            version: DAEMON_VERSION.to_owned(),
            clean,
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        if !self.drained.load(Ordering::SeqCst) {
            let _ = self.drain();
        }
    }
}

/// Shed hint: a rough time for one queue slot to free up.
fn retry_after_hint(depth: usize, workers: usize, default_timeout: Duration) -> u64 {
    let per_slot = default_timeout.as_millis() as u64 / workers.max(1) as u64;
    (per_slot.saturating_mul(depth as u64 + 1)).clamp(50, 60_000)
}

fn spawn_worker(inner: &Arc<Inner>) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name("daemon-worker".into())
        .spawn(move || worker_loop(&inner))
        // synthlint: allow(panic-surface) — a daemon that cannot spawn workers cannot serve; dying loudly beats limping
        .expect("spawn daemon worker")
}

fn worker_loop(inner: &Arc<Inner>) {
    // Ordinals are never reused: a recycled worker gets a fresh one, so
    // audit records distinguish pre- and post-respawn incarnations. The
    // flight ring outlives individual requests by design — a fault dump
    // shows the tail of the previous request too.
    let worker = inner.worker_seq.fetch_add(1, Ordering::Relaxed);
    let ring = Arc::new(EventRing::new(FLIGHT_RING_CAPACITY));
    loop {
        let entry = {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(Reverse(entry)) = st.queue.pop() {
                    if st.tombstones.remove(&entry.job.id) {
                        continue; // cancelled while queued; already answered
                    }
                    st.queued.remove(&entry.job.id);
                    break Some(entry);
                }
                if st.stopping {
                    break None;
                }
                // Timed wait so a missed notification self-heals.
                st = inner
                    .ready
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        let Some(entry) = entry else { return };
        run_one(inner, entry, worker, &ring);
        if inner
            .chaos
            .as_ref()
            .is_some_and(|c| c.inject_worker_kill())
        {
            // Die *between* requests: the response above already went out,
            // so recycling can never violate exactly-once.
            return;
        }
    }
}

/// Solves one admitted request and sends its single terminal response.
fn run_one(inner: &Arc<Inner>, entry: QueueEntry, worker: u64, ring: &Arc<EventRing>) {
    let QueueEntry {
        job,
        deadline,
        enqueued,
        reply,
        ..
    } = entry;
    let queue_wait_us = enqueued.elapsed().as_micros() as u64;
    let root_metrics = inner.root.tracer().metrics();
    root_metrics.record_latency("queue_wait", queue_wait_us);
    ring.note(
        "request",
        format!("id={} dequeued after {queue_wait_us}us", job.id),
    );
    let finish = |response: OutcomeResponse,
                  solve_us: Option<u64>,
                  stages: Vec<(String, u64)>,
                  search: Vec<(String, u64)>| {
        inner.completed.fetch_add(1, Ordering::Relaxed);
        ring.note(
            "request",
            format!("id={} outcome={}", response.id, response.outcome),
        );
        audit_finish(
            inner,
            &response,
            queue_wait_us,
            solve_us,
            worker,
            &stages,
            &search,
        );
        reply(Response::Outcome(response));
    };
    if Instant::now() >= deadline {
        finish(
            OutcomeResponse {
                id: job.id,
                outcome: "timeout".into(),
                reason: Some("deadline expired while queued".into()),
                ..OutcomeResponse::default()
            },
            None,
            Vec::new(),
            Vec::new(),
        );
        return;
    }
    let engine = match job.engine.as_deref() {
        None | Some("coop") | Some("cooperative") => Engine::Cooperative,
        Some("enum") | Some("height-enum") => Engine::HeightEnumOnly,
        Some("deduce") | Some("deduction") => Engine::DeductionOnly,
        Some("bottomup") | Some("eusolver-backed") => Engine::BottomUpBacked,
        Some(other) => {
            finish(
                OutcomeResponse {
                    id: job.id,
                    outcome: "error".into(),
                    reason: Some(format!("unknown engine `{other}`")),
                    ..OutcomeResponse::default()
                },
                None,
                Vec::new(),
                Vec::new(),
            );
            return;
        }
    };
    let problem = match parse_problem(&job.sygus) {
        Ok(p) => p,
        Err(e) => {
            finish(
                OutcomeResponse {
                    id: job.id,
                    outcome: "error".into(),
                    reason: Some(format!("parse error: {e}")),
                    ..OutcomeResponse::default()
                },
                None,
                Vec::new(),
                Vec::new(),
            );
            return;
        }
    };
    if let Some(delay) = inner.chaos.as_ref().and_then(|c| c.inject_delay()) {
        std::thread::sleep(delay);
    }
    // Per-request isolation: own tracer (so per-request metrics and stall
    // dumps don't bleed across requests), own deadline, parent-chained
    // cancellation and charge propagation via the daemon root budget. The
    // worker's flight ring is the tracer's only record store, so every
    // record leaves a bounded post-mortem trail; live stacks only when a
    // stall dump may need them.
    let live_stacks = inner.config.stall_after.is_some();
    let tracer = Tracer::with_flight_recorder(live_stacks, Arc::clone(ring));
    let budget = inner.root.child_with(Some(deadline), Some(tracer));
    let cancelled = Arc::new(AtomicBool::new(false));
    {
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.in_flight.insert(
            job.id.clone(),
            InFlight {
                budget: budget.clone(),
                cancelled: Arc::clone(&cancelled),
            },
        );
    }
    let watchdog = if inner.config.heartbeat.is_some() || inner.config.stall_after.is_some() {
        Some(Watchdog::spawn(
            &budget,
            WatchdogConfig::new(inner.config.heartbeat, inner.config.stall_after),
            Box::new(TagSink::new(Arc::clone(&inner.diag), &job.id)),
        ))
    } else {
        None
    };
    let solver = DryadSynth::new(DryadSynthConfig {
        engine,
        threads: inner.config.threads_per_solve.max(1),
        ..DryadSynthConfig::default()
    });
    let mut request = SolveRequest::new(&problem)
        .with_budget(budget.clone())
        .with_source(job.id.clone());
    if inner.config.certify || job.certify {
        request = request.certified(Some(Duration::from_secs(10)));
    }
    let started = Instant::now();
    let chaos_panic = inner.chaos.as_ref().is_some_and(|c| c.inject_panic());
    let result = catch_unwind(AssertUnwindSafe(|| {
        if chaos_panic {
            // synthlint: allow(panic-surface) — deliberate chaos injection, contained by the catch_unwind boundary above
            panic!("chaos: injected worker panic");
        }
        solver.solve(&request)
    }));
    drop(watchdog);
    {
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.in_flight.remove(&job.id);
    }
    // Wall time and per-stage breakdown feed the daemon-wide histograms
    // whatever the outcome: a faulted request's partial stages are still
    // evidence.
    let solve_us = started.elapsed().as_micros() as u64;
    root_metrics.record_latency("solve_wall", solve_us);
    let request_metrics = budget.tracer().metrics().snapshot();
    let stage_micros: Vec<(String, u64)> = request_metrics
        .stages
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| (s.stage.to_owned(), s.total_micros))
        .collect();
    for (name, micros) in &stage_micros {
        root_metrics.record_latency(&format!("stage.{name}"), *micros);
    }
    // Theory-dispatch and search-analytics counters are per-request (the
    // request has its own tracer); roll them up so the Prometheus
    // exposition sees them. `search.db_clauses` is a gauge — the freshest
    // request overwrites rather than summing.
    for (name, value) in &request_metrics.counters {
        if name == "search.db_clauses" {
            root_metrics.set(name, *value);
        } else if name.starts_with("theory.") || name.starts_with("search.") {
            root_metrics.add(name, *value);
        }
    }
    // Fold the request's LBD distribution into the daemon-lifetime bank so
    // the exposition's `search_lbd` histogram covers every request served.
    for (name, snap) in &request_metrics.latencies {
        if name == "search.lbd" {
            root_metrics.latency(name).merge_bank(&snap.lifetime);
        }
    }
    let search_totals: Vec<(String, u64)> = request_metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("search."))
        .cloned()
        .collect();
    let response = match result {
        Err(payload) => {
            inner.faulted.fetch_add(1, Ordering::Relaxed);
            dump_flight(inner, &job.id, ring, "engine_fault");
            OutcomeResponse {
                id: job.id,
                outcome: "engine_fault".into(),
                reason: Some(panic_message(&*payload)),
                ..OutcomeResponse::default()
            }
        }
        Ok(report) => {
            let stats = Some(StatsLite {
                seconds: started.elapsed().as_secs_f64(),
                fuel_spent: report.stats.fuel_spent,
                smt_queries: report.stats.smt_queries,
                faults: report.stats.faults.len() as u64,
            });
            let was_cancelled = cancelled.load(Ordering::SeqCst);
            match report.outcome {
                // A solution that raced the cancel still counts: the work
                // is done, so the client gets it.
                SynthOutcome::Solved(term) => OutcomeResponse {
                    id: job.id,
                    outcome: "solved".into(),
                    solution: Some(term.to_string()),
                    certified: report.certified,
                    stats,
                    ..OutcomeResponse::default()
                },
                _ if was_cancelled => {
                    inner.cancelled.fetch_add(1, Ordering::Relaxed);
                    OutcomeResponse {
                        id: job.id,
                        outcome: "cancelled".into(),
                        reason: Some("cancelled by client".into()),
                        stats,
                        ..OutcomeResponse::default()
                    }
                }
                outcome => {
                    let reason = match &outcome {
                        SynthOutcome::ResourceExhausted(r) | SynthOutcome::GaveUp(r) => {
                            Some(r.clone())
                        }
                        _ => None,
                    };
                    OutcomeResponse {
                        id: job.id,
                        outcome: outcome_label(&outcome).into(),
                        reason,
                        stats,
                        ..OutcomeResponse::default()
                    }
                }
            }
        }
    };
    finish(response, Some(solve_us), stage_micros, search_totals);
}

/// Writes one flushed JSONL line to the audit log, if configured.
fn audit_line(inner: &Inner, record: Json) {
    if let Some(sink) = &inner.config.audit {
        let mut out = sink.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{record}");
        let _ = out.flush();
    }
}

/// Audit record for a request answered without running an engine (shed at
/// admission, or cancelled while still queued).
fn audit_simple(inner: &Inner, id: &str, outcome: &str, cause: &str) {
    if inner.config.audit.is_none() {
        return;
    }
    audit_line(
        inner,
        Json::obj([
            ("id", Json::str(id)),
            ("outcome", Json::str(outcome)),
            ("cause", Json::str(cause)),
        ]),
    );
}

/// Audit record for a request a worker finished (any terminal outcome).
fn audit_finish(
    inner: &Inner,
    response: &OutcomeResponse,
    queue_wait_us: u64,
    solve_us: Option<u64>,
    worker: u64,
    stages: &[(String, u64)],
    search: &[(String, u64)],
) {
    if inner.config.audit.is_none() {
        return;
    }
    let mut fields = vec![
        ("id".to_owned(), Json::str(&response.id)),
        ("outcome".to_owned(), Json::str(&response.outcome)),
        ("queue_wait_us".to_owned(), Json::from(queue_wait_us)),
        ("worker".to_owned(), Json::from(worker)),
    ];
    if let Some(micros) = solve_us {
        fields.push(("solve_us".to_owned(), Json::from(micros)));
    }
    if let Some(certified) = response.certified {
        fields.push(("certified".to_owned(), Json::from(certified)));
    }
    if let Some(reason) = &response.reason {
        fields.push(("cause".to_owned(), Json::str(reason)));
    }
    if !stages.is_empty() {
        fields.push((
            "stages".to_owned(),
            Json::Obj(
                stages
                    .iter()
                    .map(|(name, micros)| (name.clone(), Json::from(*micros)))
                    .collect(),
            ),
        ));
    }
    // Per-request search aggregates, keyed without the `search.` prefix
    // (e.g. `conflicts_total`, `lbd_sum`) — the run's whole CDCL footprint
    // in one object, matching the RunReport `search` block's totals.
    if !search.is_empty() {
        fields.push((
            "search".to_owned(),
            Json::Obj(
                search
                    .iter()
                    .map(|(name, value)| {
                        let key = name.strip_prefix("search.").unwrap_or(name);
                        (key.to_owned(), Json::from(*value))
                    })
                    .collect(),
            ),
        ));
    }
    audit_line(inner, Json::Obj(fields));
}

/// Dumps the worker's flight-recorder timeline to the diagnostics sink,
/// tagged with the faulting request's id.
fn dump_flight(inner: &Inner, id: &str, ring: &EventRing, cause: &str) {
    let mut sink = TagSink::new(Arc::clone(&inner.diag), id);
    let _ = writeln!(
        sink,
        "[flight] dump cause={cause} entries={}",
        ring.recorded().min(FLIGHT_RING_CAPACITY as u64)
    );
    for line in ring.render_timeline() {
        let _ = writeln!(sink, "[flight] {line}");
    }
    let _ = writeln!(sink, "[flight] end");
    let _ = sink.flush();
}

fn monitor_loop(
    inner: &Arc<Inner>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        // Keep the interner gauges live between stats requests too.
        let interner = interner_stats();
        let metrics = inner.root.tracer().metrics();
        metrics.set("interner.symbols", interner.symbols as u64);
        metrics.set("interner.bytes", interner.bytes as u64);
        let respawn_wanted = {
            let st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            // During a drain, a dead worker only needs replacing while
            // work remains; afterwards workers exit by design.
            !st.stopping || !st.queue.is_empty() || !st.in_flight.is_empty()
        };
        let mut workers = workers.lock().unwrap_or_else(|e| e.into_inner());
        for slot in workers.iter_mut() {
            if slot.is_finished() && respawn_wanted {
                let dead = std::mem::replace(slot, spawn_worker(inner));
                let _ = dead.join();
                inner.recycled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A `Write` adapter that prefixes every diagnostic line with its request
/// id, so interleaved heartbeats and stall dumps from concurrent requests
/// stay attributable.
struct TagSink {
    out: DiagSink,
    tag: String,
    buf: Vec<u8>,
}

impl TagSink {
    fn new(out: DiagSink, id: &str) -> TagSink {
        TagSink {
            out,
            tag: format!("[req={id}] "),
            buf: Vec::new(),
        }
    }
}

impl Write for TagSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
            out.write_all(self.tag.as_bytes())?;
            out.write_all(&line)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .flush()
    }
}

impl Drop for TagSink {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(b'\n');
            let _ = self.write(&[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn shared_diag() -> (DiagSink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink: DiagSink = Arc::new(Mutex::new(Box::new(SharedBuf(Arc::clone(&buf)))));
        (sink, buf)
    }

    #[test]
    fn tag_sink_lines_never_interleave_across_concurrent_writers() {
        let (sink, buf) = shared_diag();
        let lines_per_writer = 50;
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    let id = format!("t{w}");
                    let mut tagged = TagSink::new(sink, &id);
                    for n in 0..lines_per_writer {
                        // Dribble each line in three writes so an unbuffered
                        // sink would interleave fragments across workers.
                        let line = format!("payload-{id}-{n}\n");
                        let bytes = line.as_bytes();
                        tagged.write_all(&bytes[..4]).unwrap();
                        tagged.write_all(&bytes[4..9]).unwrap();
                        tagged.write_all(&bytes[9..]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let out = buf.lock().unwrap_or_else(|e| e.into_inner());
        let text = std::str::from_utf8(&out).unwrap();
        let mut seen = HashMap::new();
        for line in text.lines() {
            let rest = line
                .strip_prefix("[req=")
                .unwrap_or_else(|| panic!("untagged line: {line:?}"));
            let (id, payload) = rest.split_once("] ").expect("tag terminator");
            // Each line must be exactly one whole payload for its own id —
            // any fragment mixing would break this shape.
            let n: usize = payload
                .strip_prefix(&format!("payload-{id}-"))
                .unwrap_or_else(|| panic!("fragmented line: {line:?}"))
                .parse()
                .unwrap();
            let next = seen.entry(id.to_owned()).or_insert(0);
            assert_eq!(n, *next, "per-writer lines arrived out of order");
            *next += 1;
        }
        assert_eq!(seen.len(), 4);
        assert!(seen.values().all(|&n| n == lines_per_writer));
    }

    #[test]
    fn tag_sink_drop_flushes_a_partial_line_with_newline() {
        let (sink, buf) = shared_diag();
        {
            let mut tagged = TagSink::new(sink, "tail");
            tagged.write_all(b"no trailing newline").unwrap();
        }
        let out = buf.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            "[req=tail] no trailing newline\n"
        );
    }
}
