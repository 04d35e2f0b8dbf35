//! Live progress reporting and stall detection for long solver runs.
//!
//! A [`Watchdog`] is a background thread watching the
//! [`ProgressState`](sygus_ast::ProgressState) that every engine layer
//! updates through its [`Budget`](crate::Budget)'s tracer. It does two
//! jobs, each independently optional:
//!
//! * **Heartbeats** (`--progress`): every heartbeat interval it prints a
//!   one-line summary to its sink — current stage, CEGIS height and round
//!   count, counterexamples, SMT checks/conflicts, and the budget's
//!   remaining fuel and wall time.
//! * **Stall dumps** (`--stall-after SECS`): "progress" is defined as the
//!   progress tick counter moving (see `crates/ast/src/progress.rs`). When
//!   the tick freezes for longer than the stall window the watchdog writes
//!   one full diagnostic — the progress counters, every thread's open span
//!   stack, the active SMT query size, and the named metric counters — then
//!   arms again only after the tick next advances, so a single stall
//!   episode produces exactly one dump no matter how long it lasts.
//!
//! The watchdog never interrupts the solver; it only observes and reports.
//! Stop it with [`Watchdog::stop`] after the run finishes.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sygus_ast::Budget;

/// What the watchdog thread should do and how often.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Print a heartbeat line this often (`None` = no heartbeats).
    pub heartbeat: Option<Duration>,
    /// Dump a diagnostic when the progress tick freezes for this long
    /// (`None` = no stall detection).
    pub stall_after: Option<Duration>,
    /// Polling granularity of the background thread.
    pub poll: Duration,
}

impl WatchdogConfig {
    /// A config with sub-second polling, suitable for the CLI flags.
    pub fn new(heartbeat: Option<Duration>, stall_after: Option<Duration>) -> WatchdogConfig {
        let mut poll = Duration::from_millis(200);
        for window in [heartbeat, stall_after].into_iter().flatten() {
            poll = poll.min(window / 4).max(Duration::from_millis(5));
        }
        WatchdogConfig {
            heartbeat,
            stall_after,
            poll,
        }
    }
}

/// Handle to the background reporter thread; see the module docs.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    stall_dumps: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the reporter thread watching `budget`'s tracer, writing to
    /// `sink` (stderr in the CLI; a shared buffer in tests).
    pub fn spawn(
        budget: &Budget,
        config: WatchdogConfig,
        mut sink: Box<dyn Write + Send>,
    ) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stall_dumps = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_dumps = Arc::clone(&stall_dumps);
        let budget = budget.clone();
        let handle = std::thread::Builder::new()
            .name("watchdog".into())
            .spawn(move || {
                let tracer = budget.tracer().clone();
                let started = Instant::now();
                let mut last_ticks = tracer.progress().ticks();
                let mut last_advance = Instant::now();
                let mut dumped_this_stall = false;
                let mut next_heartbeat = config.heartbeat.map(|h| started + h);
                while !thread_stop.load(Ordering::Relaxed) {
                    std::thread::park_timeout(config.poll);
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let now = Instant::now();
                    let ticks = tracer.progress().ticks();
                    if ticks != last_ticks {
                        last_ticks = ticks;
                        last_advance = now;
                        dumped_this_stall = false;
                    }
                    if let Some(at) = next_heartbeat {
                        if now >= at {
                            let _ = writeln!(
                                sink,
                                "[progress +{:.1}s] {} {}",
                                started.elapsed().as_secs_f64(),
                                tracer.progress().snapshot(),
                                budget_line(&budget),
                            );
                            let _ = sink.flush();
                            next_heartbeat = Some(at + config.heartbeat.unwrap());
                        }
                    }
                    if let Some(window) = config.stall_after {
                        if !dumped_this_stall && now.duration_since(last_advance) >= window {
                            dumped_this_stall = true;
                            thread_dumps.fetch_add(1, Ordering::Relaxed);
                            let _ = write_stall_dump(&mut sink, &budget, window);
                            let _ = sink.flush();
                        }
                    }
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop,
            stall_dumps,
            handle: Some(handle),
        }
    }

    /// Stall dumps written so far.
    pub fn stall_dumps(&self) -> u64 {
        self.stall_dumps.load(Ordering::Relaxed)
    }

    /// Stops and joins the reporter thread, returning the number of stall
    /// dumps it wrote.
    pub fn stop(mut self) -> u64 {
        self.shutdown();
        self.stall_dumps()
    }

    fn shutdown(&mut self) {
        // synthlint: allow(relaxed-handoff) — monotonic stop latch; unpark below provides the wakeup edge
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn budget_line(budget: &Budget) -> String {
    let fuel = match (budget.fuel_limit(), budget.fuel_spent()) {
        (Some(limit), spent) => format!("{}", limit.saturating_sub(spent)),
        (None, _) => "inf".into(),
    };
    let time = match budget.remaining_time() {
        Some(left) => format!("{:.1}s", left.as_secs_f64()),
        None => "inf".into(),
    };
    format!("fuel_left={fuel} time_left={time}")
}

/// The full "what is the solver doing" diagnostic written on a stall.
fn write_stall_dump(
    sink: &mut Box<dyn Write + Send>,
    budget: &Budget,
    window: Duration,
) -> std::io::Result<()> {
    let tracer = budget.tracer();
    writeln!(
        sink,
        "[stall] no progress for {:.1}s; diagnostic dump:",
        window.as_secs_f64()
    )?;
    writeln!(sink, "[stall]   {} {}", tracer.progress().snapshot(), budget_line(budget))?;
    let stacks = tracer.live_stacks();
    if stacks.is_empty() {
        writeln!(sink, "[stall]   no open spans (live stacks off or between stages)")?;
    }
    for (thread, stack) in stacks {
        writeln!(sink, "[stall]   thread {}: {}", thread, stack.join(";"))?;
    }
    let snapshot = tracer.metrics().snapshot();
    for (name, value) in &snapshot.counters {
        writeln!(sink, "[stall]   counter {name}={value}")?;
    }
    // When a flight recorder rides the tracer (the daemon attaches one per
    // worker), its recent-event timeline lands in the same dump.
    if let Some(ring) = tracer.flight_recorder() {
        writeln!(sink, "[stall]   flight-recorder timeline:")?;
        for line in ring.render_timeline() {
            writeln!(sink, "[stall]   flight {line}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use sygus_ast::{Stage, Tracer};

    /// A `Write` sink tests can read back from outside the watchdog thread.
    #[derive(Clone, Default)]
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl SharedSink {
        fn contents(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
    }

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn watched_budget() -> Budget {
        Budget::unlimited().with_tracer(Tracer::watched())
    }

    #[test]
    fn a_stalled_run_produces_exactly_one_dump() {
        let budget = watched_budget();
        let tracer = budget.tracer().clone();
        // Leave a span open so the dump has a live stack to show, then
        // freeze: no further progress updates.
        let _span = tracer.span(Stage::Smt);
        tracer.progress().note_smt_check(77);
        let sink = SharedSink::default();
        let config = WatchdogConfig {
            heartbeat: None,
            stall_after: Some(Duration::from_millis(40)),
            poll: Duration::from_millis(5),
        };
        let watchdog = Watchdog::spawn(&budget, config, Box::new(sink.clone()));
        // Several stall windows pass with no progress: still one dump.
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(watchdog.stop(), 1);
        let out = sink.contents();
        assert_eq!(out.matches("[stall] no progress").count(), 1, "{out}");
        assert!(out.contains("query_size=77"), "{out}");
        assert!(out.contains("thread "), "{out}");
        assert!(out.contains("smt"), "{out}");
    }

    #[test]
    fn progress_rearms_the_stall_detector() {
        let budget = watched_budget();
        let tracer = budget.tracer().clone();
        let sink = SharedSink::default();
        let config = WatchdogConfig {
            heartbeat: None,
            stall_after: Some(Duration::from_millis(30)),
            poll: Duration::from_millis(5),
        };
        let watchdog = Watchdog::spawn(&budget, config, Box::new(sink.clone()));
        std::thread::sleep(Duration::from_millis(120)); // first stall
        tracer.progress().note_cegis_round(); // progress resumes
        std::thread::sleep(Duration::from_millis(120)); // second stall
        assert_eq!(watchdog.stop(), 2);
        let out = sink.contents();
        assert_eq!(out.matches("[stall] no progress").count(), 2, "{out}");
    }

    #[test]
    fn an_active_run_emits_heartbeats_but_no_dump() {
        let budget = watched_budget();
        let tracer = budget.tracer().clone();
        let sink = SharedSink::default();
        let config = WatchdogConfig {
            heartbeat: Some(Duration::from_millis(20)),
            stall_after: Some(Duration::from_millis(200)),
            poll: Duration::from_millis(5),
        };
        let watchdog = Watchdog::spawn(&budget, config, Box::new(sink.clone()));
        for _ in 0..15 {
            tracer.progress().note_cegis_round();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(watchdog.stop(), 0);
        let out = sink.contents();
        assert!(out.contains("[progress +"), "{out}");
        assert!(out.contains("cegis="), "{out}");
        assert!(out.contains("fuel_left=inf"), "{out}");
        assert!(!out.contains("[stall]"), "{out}");
    }

    #[test]
    fn a_ring_attached_tracer_dumps_its_flight_timeline_on_stall() {
        let ring = Arc::new(sygus_ast::EventRing::new(8));
        let tracer = Tracer::with_flight_recorder(true, Arc::clone(&ring));
        let budget = Budget::unlimited().with_tracer(tracer.clone());
        ring.note("request", "id=r1 start");
        tracer.progress().note_smt_check(5);
        let sink = SharedSink::default();
        let config = WatchdogConfig {
            heartbeat: None,
            stall_after: Some(Duration::from_millis(40)),
            poll: Duration::from_millis(5),
        };
        let watchdog = Watchdog::spawn(&budget, config, Box::new(sink.clone()));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(watchdog.stop(), 1);
        let out = sink.contents();
        assert!(out.contains("flight-recorder timeline"), "{out}");
        assert!(out.contains("id=r1 start"), "{out}");
    }

    #[test]
    fn config_polls_finer_than_the_smallest_window() {
        let config = WatchdogConfig::new(
            Some(Duration::from_millis(100)),
            Some(Duration::from_millis(40)),
        );
        assert_eq!(config.poll, Duration::from_millis(10));
        let coarse = WatchdogConfig::new(None, None);
        assert_eq!(coarse.poll, Duration::from_millis(200));
    }
}
