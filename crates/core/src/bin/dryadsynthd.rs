//! `dryadsynthd`: the synthesis-as-a-service daemon.
//!
//! Usage:
//!
//! ```text
//! dryadsynthd [--workers N] [--queue-cap N] [--default-timeout SECS]
//!             [--max-timeout SECS] [--drain-deadline SECS]
//!             [--threads-per-solve N] [--heartbeat SECS]
//!             [--stall-after SECS] [--certify] [--chaos-seed SEED]
//!             [--socket PATH] [--metrics-socket PATH] [--audit FILE]
//! ```
//!
//! Speaks newline-delimited JSON (see `crates/core/src/daemon/protocol.rs`
//! and DESIGN.md section 10). Without `--socket` it serves stdin and
//! answers on stdout; with `--socket PATH` it serves every connection on a
//! Unix socket, answering each on its own connection. Diagnostics
//! (per-request heartbeats and stall dumps, tagged `[req=<id>]`) go to
//! stderr.
//!
//! Shutdown: EOF on stdin, a `{"shutdown": true}` line, SIGTERM, or SIGINT
//! all trigger the same graceful drain — admission stops, queued and
//! in-flight requests finish inside `--drain-deadline` (past it they are
//! cancelled but still answered), and the final `{"shutdown": {...}}`
//! summary is printed. Exit code 0 on a clean drain, 3 when the drain
//! deadline forced cancellations, 2 on usage or socket errors.
//!
//! `--chaos-seed` arms the deterministic fault injector (random contained
//! panics, worker deaths, cancels, delays) for harness runs; the
//! `DRYADSYNTHD_CHAOS_SEED` environment variable does the same.
//!
//! Telemetry (DESIGN.md section 11): `--metrics-socket PATH` serves a
//! Prometheus-text-format exposition of every daemon counter, gauge, and
//! latency histogram on a Unix socket — one minimal `HTTP/1.0 200`
//! response per connection, so both `curl --unix-socket` and a raw reader
//! work. `--audit FILE` appends one JSON line per answered request
//! (outcome, queue wait, solve wall, per-stage micros, worker id), flushed
//! per record so drains and contained panics lose nothing.

use dryadsynth::daemon::{ChaosConfig, Responder, Response, Scheduler, SchedulerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const USAGE: &str = "usage: dryadsynthd [--workers N] [--queue-cap N] \
[--default-timeout SECS] [--max-timeout SECS] [--drain-deadline SECS] \
[--threads-per-solve N] [--heartbeat SECS] [--stall-after SECS] \
[--certify] [--chaos-seed SEED] [--theory auto|simplex] [--socket PATH] \
[--metrics-socket PATH] [--audit FILE]\n\
  Serves newline-delimited JSON solve requests on stdin (or PATH) and\n\
  answers on stdout (or the connection). EOF, {\"shutdown\":true}, SIGTERM\n\
  and SIGINT all drain gracefully and print a {\"shutdown\":{...}} summary.\n\
  --theory picks the incremental theory engine for all solves (default\n\
  auto: difference logic when every atom fits, simplex otherwise);\n\
  --metrics-socket serves Prometheus text exposition per connection;\n\
  --audit appends one JSON line per answered request.";

/// Set from the signal handler; polled by the serving loops.
static TERMINATE: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    TERMINATE.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // std already links libc; declaring `signal` directly avoids a crate
    // dependency. Storing to a static AtomicBool is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

struct Options {
    config: SchedulerConfig,
    socket: Option<String>,
    metrics_socket: Option<String>,
    audit: Option<String>,
    theory: smtkit::TheorySelect,
}

fn parse_args() -> Result<Options, String> {
    let mut config = SchedulerConfig::default();
    let mut socket = None;
    let mut metrics_socket = None;
    let mut audit = None;
    let mut theory = smtkit::TheorySelect::Auto;
    let mut chaos_seed: Option<u64> = std::env::var("DRYADSYNTHD_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or(format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("{name} needs a non-negative integer"))
        };
        match arg.as_str() {
            "--workers" => config.workers = num("--workers")?.max(1) as usize,
            "--queue-cap" => config.queue_cap = num("--queue-cap")? as usize,
            "--default-timeout" => {
                config.default_timeout = Duration::from_secs(num("--default-timeout")?)
            }
            "--max-timeout" => config.max_timeout = Duration::from_secs(num("--max-timeout")?),
            "--drain-deadline" => {
                config.drain_deadline = Duration::from_secs(num("--drain-deadline")?)
            }
            "--threads-per-solve" => {
                config.threads_per_solve = num("--threads-per-solve")?.max(1) as usize
            }
            "--heartbeat" => config.heartbeat = Some(Duration::from_secs(num("--heartbeat")?)),
            "--stall-after" => {
                config.stall_after = Some(Duration::from_secs(num("--stall-after")?))
            }
            "--certify" => config.certify = true,
            "--chaos-seed" => chaos_seed = Some(num("--chaos-seed")?),
            "--theory" => {
                let v = args.next().ok_or("--theory needs auto|simplex")?;
                theory = v.parse()?;
            }
            "--socket" => socket = Some(args.next().ok_or("--socket needs a path")?),
            "--metrics-socket" => {
                metrics_socket = Some(args.next().ok_or("--metrics-socket needs a path")?)
            }
            "--audit" => audit = Some(args.next().ok_or("--audit needs a file path")?),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    config.chaos = chaos_seed.map(ChaosConfig::from_seed);
    Ok(Options {
        config,
        socket,
        metrics_socket,
        audit,
        theory,
    })
}

/// A responder that writes whole JSON lines under a lock, so responses
/// from concurrent workers never interleave.
fn line_responder(out: Arc<Mutex<Box<dyn Write + Send>>>) -> Responder {
    Arc::new(move |response: Response| {
        let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{}", response.to_json());
        let _ = out.flush();
    })
}

fn main() -> ExitCode {
    let mut options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &options.audit {
        match std::fs::OpenOptions::new().create(true).append(true).open(path) {
            Ok(file) => options.config.audit = Some(Arc::new(Mutex::new(Box::new(file)))),
            Err(e) => {
                eprintln!("dryadsynthd: open audit log {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // Process-wide theory selection: every `SmtConfig::default()` built by
    // worker threads after this point inherits it.
    smtkit::set_process_default_theory(options.theory);
    install_signal_handlers();
    // Worker panics are contained by design (answered as `engine_fault`);
    // one stderr line each beats a full default backtrace per fault.
    std::panic::set_hook(Box::new(|info| {
        let thread = std::thread::current().name().unwrap_or("?").to_owned();
        eprintln!("[panic contained] thread={thread} {info}");
    }));
    let scheduler = Arc::new(Scheduler::start(options.config));
    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics_thread = match &options.metrics_socket {
        Some(path) => match serve_metrics(&scheduler, path, &metrics_stop) {
            Ok(handle) => Some(handle),
            Err(msg) => {
                eprintln!("dryadsynthd: {msg}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let served = match &options.socket {
        Some(path) => serve_socket(&scheduler, path),
        None => serve_stdin(&scheduler),
    };
    if let Err(msg) = served {
        eprintln!("dryadsynthd: {msg}");
        return ExitCode::from(2);
    }
    // Drain first so the exposition endpoint stays scrapeable while
    // in-flight work finishes; then stop it.
    let summary = scheduler.drain();
    metrics_stop.store(true, Ordering::SeqCst);
    if let Some(handle) = metrics_thread {
        let _ = handle.join();
    }
    let stdout: Arc<Mutex<Box<dyn Write + Send>>> =
        Arc::new(Mutex::new(Box::new(std::io::stdout())));
    line_responder(stdout)(Response::Shutdown(summary.clone()));
    if summary.clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

/// Stdin mode: a reader thread feeds lines over a channel so the main
/// loop stays responsive to SIGTERM even while stdin is idle.
fn serve_stdin(scheduler: &Arc<Scheduler>) -> Result<(), String> {
    let stdout: Arc<Mutex<Box<dyn Write + Send>>> =
        Arc::new(Mutex::new(Box::new(std::io::stdout())));
    let reply = line_responder(stdout);
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::Builder::new()
        .name("stdin-reader".into())
        .spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
            // Dropping tx signals EOF to the serving loop.
        })
        .map_err(|e| format!("spawn stdin reader: {e}"))?;
    loop {
        if TERMINATE.load(Ordering::SeqCst) {
            return Ok(());
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                if scheduler.handle_line(&line, &reply) {
                    return Ok(()); // explicit {"shutdown": true}
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()), // EOF
        }
    }
}

/// Metrics exposition: answer every connection on the Unix socket with one
/// minimal HTTP/1.0 response carrying the Prometheus text page, then close.
/// The request (if any) is deliberately not read — HTTP/1.0 close semantics
/// make write-and-shutdown correct for curl and raw readers alike.
fn serve_metrics(
    scheduler: &Arc<Scheduler>,
    path: &str,
    stop: &Arc<AtomicBool>,
) -> Result<std::thread::JoinHandle<()>, String> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path); // stale socket from a prior run
    let listener =
        UnixListener::bind(path).map_err(|e| format!("bind metrics socket {path}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking on metrics socket: {e}"))?;
    let scheduler = Arc::clone(scheduler);
    let stop = Arc::clone(stop);
    let path = path.to_owned();
    std::thread::Builder::new()
        .name("daemon-metrics".into())
        .spawn(move || {
            loop {
                if stop.load(Ordering::SeqCst) || TERMINATE.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((mut stream, _addr)) => {
                        let body = scheduler.metrics_text();
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                        let _ = write!(
                            stream,
                            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
                            body.len(),
                            body
                        );
                        let _ = stream.flush();
                        // FIN our side so raw until-EOF readers finish, then
                        // drain whatever request the client sent: closing
                        // with unread bytes in the receive queue would reset
                        // the peer mid-read (curl sees ECONNRESET).
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                        let mut scratch = [0u8; 1024];
                        while matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => break,
                }
            }
            let _ = std::fs::remove_file(&path);
        })
        .map_err(|e| format!("spawn metrics thread: {e}"))
}

/// Socket mode: each connection gets a reader thread and answers on its
/// own stream; the scheduler (and its worker pool) is shared.
fn serve_socket(scheduler: &Arc<Scheduler>, path: &str) -> Result<(), String> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path); // stale socket from a prior run
    let listener =
        UnixListener::bind(path).map_err(|e| format!("bind {path}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let shutdown_requested = Arc::new(AtomicBool::new(false));
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if TERMINATE.load(Ordering::SeqCst) || shutdown_requested.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let scheduler = Arc::clone(scheduler);
                let shutdown_requested = Arc::clone(&shutdown_requested);
                let handle = std::thread::Builder::new()
                    .name("daemon-conn".into())
                    .spawn(move || {
                        let write_half = match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => return,
                        };
                        let _ = stream.set_nonblocking(false);
                        let out: Arc<Mutex<Box<dyn Write + Send>>> =
                            Arc::new(Mutex::new(Box::new(write_half)));
                        let reply = line_responder(out);
                        for line in BufReader::new(stream).lines() {
                            let Ok(line) = line else { break };
                            if scheduler.handle_line(&line, &reply) {
                                shutdown_requested.store(true, Ordering::SeqCst);
                                break;
                            }
                        }
                    })
                    .map_err(|e| format!("spawn connection thread: {e}"))?;
                connections.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
        connections.retain(|h| !h.is_finished());
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}
