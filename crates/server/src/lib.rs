//! `smartly serve`: a crash-recoverable optimization daemon.
//!
//! This crate is the service wrapper around the optimizer — and *only*
//! the wrapper: it depends on `smartly-sat` for the workspace's shared
//! codecs (JSON for the [`wire`] protocol, binary frames for the
//! [`journal`]) and the cancellation token, and on the fail-point
//! registry, never on the optimizer itself. The daemon machinery is
//! generic over a [`JobRunner`]; the `smartly` binary injects a
//! driver-backed runner, and the test suites inject mocks (wedging,
//! panicking, instant) to pin the fault ladder without paying for real
//! optimizations.
//!
//! # Shape
//!
//! A [`Server`] listens on a Unix socket speaking one JSON object per
//! line ([`protocol`]): `submit` / `status` / `result` / `health` /
//! `drain`. Accepted jobs are journaled ([`journal`]) *before* the
//! submitter sees `ok`, executed on a small worker pool, and journaled
//! again on completion — so a SIGKILL at any instruction boundary
//! loses no accepted work: restart replays the journal, completed jobs
//! come back queryable, unfinished jobs re-run, and the optimizer's
//! deterministic digest makes the re-run byte-identical to the run the
//! crash stole.
//!
//! # Fault ladder
//!
//! * **Admission control** — a bounded queue; a full queue is an
//!   explicit `{"rejected":"overloaded"}`, never an unbounded buffer.
//! * **Per-job deadlines** — each job runs under a cooperative
//!   [`Deadline`]; a budgeted job that exceeds its budget degrades
//!   inside the optimizer (timed-out modules revert, the job still
//!   completes).
//! * **Watchdog** — a job wedged past its budget plus a grace period
//!   (stuck in non-cooperative code) is marked `poisoned`, its worker
//!   abandoned and replaced, and the queue keeps moving.
//! * **Panic isolation** — a panicking runner poisons one job, not the
//!   daemon.
//! * **Graceful drain** — SIGTERM or the `drain` verb stops
//!   admissions, lets running jobs finish within a grace window, then
//!   trips their deadlines, then force-poisons stragglers; queued jobs
//!   stay journaled for the next start. [`Server::run`] returns a
//!   [`DrainReport`] and the process exits 0.
//!
//! Fail points: `server.accept` injects admission rejections,
//! `server.journal.append` / `server.journal.fsync` fault the journal
//! (an unjournalable submit is *rejected* — durability is part of the
//! accept contract).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod protocol;
pub mod wire;

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use smartly_failpoint as fail;
use smartly_sat::Deadline;

use journal::{JobStatus, Journal, Record};
use protocol::{error_response, parse_request, rejected_response, Request};
use wire::Value;

/// Fail point on job admission: when armed, `submit` is rejected as
/// `overloaded` regardless of actual queue depth.
pub const FP_ACCEPT: &str = "server.accept";

pub use journal::{FP_JOURNAL_APPEND, FP_JOURNAL_FSYNC};

/// Everything a worker needs to run one job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Server-assigned id.
    pub id: u64,
    /// Verilog source text.
    pub source: String,
    /// Optimization level name (the runner validates it).
    pub level: String,
    /// Wall-clock budget in milliseconds; 0 = no deadline.
    pub timeout_ms: u64,
    /// Whether to run SAT equivalence verification.
    pub verify: bool,
}

/// What one job produced.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The optimizer completed (possibly with internally degraded
    /// modules — reverted, timed-out or poisoned by the driver's own
    /// isolation; the job as a whole is still `done`).
    Done {
        /// The timing-free digest of the design report.
        digest: String,
        /// The optimized design as Verilog.
        verilog: String,
        /// Modules the driver poisoned inside this run.
        modules_poisoned: u64,
    },
    /// The job failed outright (bad source, unknown level, ...).
    Failed {
        /// Human-readable failure description.
        error: String,
    },
}

/// The execution seam the daemon is generic over.
///
/// The `smartly` binary implements this with the driver's
/// `optimize_source`; tests implement it with mocks. Runners must be
/// panic-safe in the ordinary sense — the server wraps every call in
/// `catch_unwind` and a panic poisons only that job.
pub trait JobRunner: Send + Sync {
    /// Runs one job to completion, honoring `deadline` cooperatively.
    fn run(&self, spec: &JobSpec, deadline: &Deadline) -> RunOutcome;

    /// Extra counters for the `health` verb (e.g. knowledge-base
    /// statistics). Keys are flat snake_case names.
    fn health(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// Daemon tuning. Build one with [`ServerConfig::new`] and override
/// fields as needed.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Path of the Unix socket to listen on.
    pub socket: PathBuf,
    /// Path of the job journal; `None` disables crash recovery.
    pub journal: Option<PathBuf>,
    /// Bounded queue depth; submits beyond it are rejected.
    pub queue_capacity: usize,
    /// Worker threads (each job is internally parallel in the real
    /// runner, so 1 is the sensible default).
    pub workers: usize,
    /// Default per-job budget applied when a submit carries
    /// `timeout_ms: 0`; 0 = unlimited.
    pub default_timeout_ms: u64,
    /// Slack past a job's budget before the watchdog poisons it.
    pub watchdog_grace: Duration,
    /// Watchdog poll interval.
    pub watchdog_poll: Duration,
    /// How long drain waits for running jobs — once to finish
    /// naturally, then once more after tripping their deadlines.
    pub drain_grace: Duration,
    /// Install SIGTERM/SIGINT handlers that trigger drain. The CLI
    /// sets this; in-process tests leave it off.
    pub handle_signals: bool,
}

impl ServerConfig {
    /// A config with production defaults, listening on `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            socket: socket.into(),
            journal: None,
            queue_capacity: 64,
            workers: 1,
            default_timeout_ms: 0,
            watchdog_grace: Duration::from_secs(2),
            watchdog_poll: Duration::from_millis(20),
            drain_grace: Duration::from_secs(2),
            handle_signals: false,
        }
    }
}

/// Monotonic event counters, all visible through `health`.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Jobs admitted (journaled and queued).
    pub accepted: u64,
    /// Submits refused because the queue was full (or `server.accept`
    /// fired).
    pub rejected_overloaded: u64,
    /// Submits refused because the daemon was draining.
    pub rejected_draining: u64,
    /// Submits refused because the accept-path journal append failed.
    pub rejected_journal: u64,
    /// Jobs that finished `done`.
    pub completed: u64,
    /// Jobs that finished `failed`.
    pub failed: u64,
    /// Jobs the server poisoned (panic, watchdog, drain cancel).
    pub poisoned: u64,
    /// Completion-side journal appends that failed (the job result
    /// stays served from memory; a restart re-runs the job).
    pub journal_append_failed: u64,
    /// Corrupt journal records skipped during replay.
    pub journal_corrupt_records: u64,
    /// Torn-tail bytes truncated during replay.
    pub journal_truncated_bytes: u64,
    /// Terminal jobs restored from the journal at startup.
    pub replayed_completed: u64,
    /// Unfinished jobs re-queued from the journal at startup.
    pub replayed_requeued: u64,
}

/// A job's terminal result. The digest and Verilog are interned in
/// [`State::texts`], so jobs with equal output share one allocation.
#[derive(Clone, Debug)]
struct Terminal {
    status: JobStatus,
    digest: Arc<str>,
    error: String,
    verilog: Arc<str>,
    modules_poisoned: u64,
}

#[derive(Clone, Debug)]
enum Phase {
    Queued,
    Running {
        started: Instant,
        deadline: Deadline,
    },
    Terminal(Terminal),
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    phase: Phase,
}

#[derive(Default)]
struct State {
    jobs: HashMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    next_id: u64,
    draining: bool,
    counters: Counters,
    journal: Option<Journal>,
    /// Every distinct digest and Verilog text a terminal job holds: a
    /// long-lived daemon's memory grows with distinct outputs, not with
    /// jobs served.
    texts: HashSet<Arc<str>>,
}

impl State {
    /// The shared copy of `text`, stored on first sight.
    fn intern(&mut self, text: &str) -> Arc<str> {
        if let Some(shared) = self.texts.get(text) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(text);
        self.texts.insert(Arc::clone(&shared));
        shared
    }

    /// Restores one replayed journal record: an accepted job queues
    /// again, a completion becomes its terminal result.
    fn restore(&mut self, record: Record) {
        match record {
            Record::Accepted {
                id,
                source,
                level,
                timeout_ms,
                verify,
            } => {
                self.jobs.insert(
                    id,
                    JobEntry {
                        spec: JobSpec {
                            id,
                            source,
                            level,
                            timeout_ms,
                            verify,
                        },
                        phase: Phase::Queued,
                    },
                );
            }
            Record::Completed {
                id,
                status,
                digest,
                error,
                verilog,
                modules_poisoned,
            } => {
                let terminal = Terminal {
                    status,
                    digest: self.intern(&digest),
                    error,
                    verilog: self.intern(&verilog),
                    modules_poisoned,
                };
                // an orphan completion (its accept record was the corrupt
                // one) still serves results
                let entry = self.jobs.entry(id).or_insert_with(|| JobEntry {
                    spec: JobSpec {
                        id,
                        source: String::new(),
                        level: String::new(),
                        timeout_ms: 0,
                        verify: false,
                    },
                    phase: Phase::Queued,
                });
                entry.phase = Phase::Terminal(terminal);
            }
        }
    }
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    /// Drain requested (signal, `drain` verb, or [`ServerHandle`]).
    shutdown: AtomicBool,
    /// Teardown: watchdog and connection threads exit.
    stopping: AtomicBool,
    started: Instant,
    config: ServerConfig,
    runner: Arc<dyn JobRunner>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        // a panicking runner is caught before it can poison this lock,
        // but recover anyway: the state is counters + phases, all valid
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::drain_requested()
    }
}

/// What drain left behind; returned by [`Server::run`].
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Jobs that finished `done` over the daemon's lifetime.
    pub completed: u64,
    /// Jobs that finished `failed`.
    pub failed: u64,
    /// Jobs poisoned (including any drain force-poisoned).
    pub poisoned: u64,
    /// Jobs still queued at shutdown — journaled, so the next start
    /// re-runs them.
    pub queued_for_restart: u64,
    /// True when no job had to be force-poisoned by drain.
    pub clean: bool,
}

/// Errors binding or running the daemon.
#[derive(Debug)]
pub struct ServerError {
    /// What failed (`"bind"`, `"journal"`, ...).
    pub op: &'static str,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server {}: {}", self.op, self.message)
    }
}

impl std::error::Error for ServerError {}

/// A clonable remote control for an in-process server: lets tests and
/// embedding code request drain without a socket round trip.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Requests graceful drain, as SIGTERM would.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
    }

    /// Snapshot of the counters (for assertions).
    pub fn counters(&self) -> Counters {
        self.inner.lock().counters.clone()
    }
}

/// The daemon: bind, then [`run`](Server::run) until drain.
pub struct Server {
    inner: Arc<Inner>,
    listener: UnixListener,
    replayed: Vec<u64>,
}

impl Server {
    /// Opens the journal (replaying it), binds the socket, and
    /// prepares the daemon. No threads start until [`Server::run`].
    ///
    /// A leftover socket file from a crashed daemon is removed and
    /// rebound; a socket with a *live* daemon behind it is an error.
    pub fn bind(config: ServerConfig, runner: Arc<dyn JobRunner>) -> Result<Server, ServerError> {
        let mut state = State {
            next_id: 1,
            ..State::default()
        };
        let mut replayed = Vec::new();

        if let Some(path) = &config.journal {
            let (journal, replay) = Journal::open(path).map_err(|e| ServerError {
                op: "journal",
                message: e.to_string(),
            })?;
            state.counters.journal_corrupt_records = replay.corrupt_records;
            state.counters.journal_truncated_bytes = replay.truncated_bytes;
            state.next_id = replay.max_id + 1;
            for record in replay.records {
                state.restore(record);
            }
            let mut requeue: Vec<u64> = state
                .jobs
                .iter()
                .filter(|(_, e)| matches!(e.phase, Phase::Queued))
                .map(|(&id, _)| id)
                .collect();
            requeue.sort_unstable();
            state.counters.replayed_requeued = requeue.len() as u64;
            state.counters.replayed_completed =
                state.jobs.len() as u64 - state.counters.replayed_requeued;
            replayed.clone_from(&requeue);
            state.queue.extend(requeue);
            state.journal = Some(journal);
        }

        let listener = bind_socket(&config.socket)?;
        listener.set_nonblocking(true).map_err(|e| ServerError {
            op: "bind",
            message: e.to_string(),
        })?;

        Ok(Server {
            inner: Arc::new(Inner {
                state: Mutex::new(state),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                stopping: AtomicBool::new(false),
                started: Instant::now(),
                config,
                runner,
            }),
            listener,
            replayed,
        })
    }

    /// Job ids re-queued from the journal at startup (for logging).
    pub fn replayed_jobs(&self) -> &[u64] {
        &self.replayed
    }

    /// A drain control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Runs the daemon: workers, watchdog, accept loop — until a
    /// drain request — then the drain ladder. Returns what was left.
    pub fn run(self) -> DrainReport {
        if self.inner.config.handle_signals {
            signal::install();
        }
        for _ in 0..self.inner.config.workers.max(1) {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || worker_loop(&inner));
        }
        {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || watchdog_loop(&inner));
        }

        // accept loop: nonblocking so drain requests are noticed fast
        while !self.inner.shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let inner = Arc::clone(&self.inner);
                    std::thread::spawn(move || connection_loop(&inner, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }

        let report = drain(&self.inner);
        self.inner.stopping.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        let _ = std::fs::remove_file(&self.inner.config.socket);
        report
    }
}

/// Removes a stale socket file (crashed predecessor) but refuses to
/// displace a live daemon.
fn bind_socket(path: &std::path::Path) -> Result<UnixListener, ServerError> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(ServerError {
                    op: "bind",
                    message: format!(
                        "{}: another daemon is already serving this socket",
                        path.display()
                    ),
                });
            }
            std::fs::remove_file(path).map_err(|e| ServerError {
                op: "bind",
                message: format!("{}: stale socket: {e}", path.display()),
            })?;
            UnixListener::bind(path).map_err(|e| ServerError {
                op: "bind",
                message: format!("{}: {e}", path.display()),
            })
        }
        Err(e) => Err(ServerError {
            op: "bind",
            message: format!("{}: {e}", path.display()),
        }),
    }
}

// ---------------------------------------------------------------- workers

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (spec, deadline) = {
            let mut st = inner.lock();
            loop {
                if inner.shutdown_requested() || st.draining {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    let deadline = if st.jobs[&id].spec.timeout_ms > 0 {
                        Deadline::after(Duration::from_millis(st.jobs[&id].spec.timeout_ms))
                    } else {
                        // trippable stand-in for "no deadline": drain
                        // and the watchdog can still cancel the job
                        Deadline::after(Duration::from_secs(86_400 * 365))
                    };
                    let entry = st.jobs.get_mut(&id).expect("queued job exists");
                    entry.phase = Phase::Running {
                        started: Instant::now(),
                        deadline: deadline.clone(),
                    };
                    break (entry.spec.clone(), deadline);
                }
                let (guard, _) = inner
                    .cv
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        };

        let id = spec.id;
        let runner = Arc::clone(&inner.runner);
        let outcome = catch_unwind(AssertUnwindSafe(|| runner.run(&spec, &deadline)));

        let mut st = inner.lock();
        let abandoned = !matches!(
            st.jobs.get(&id).map(|e| &e.phase),
            Some(Phase::Running { .. })
        );
        if abandoned {
            // the watchdog poisoned this job and spawned our
            // replacement: drop the late result and retire
            return;
        }
        let terminal = completed(&mut st, outcome);
        finish_job(&mut st, id, terminal);
        inner.cv.notify_all();
    }
}

/// The terminal result of a job the runner returned from (or panicked
/// in), with its output interned.
fn completed(st: &mut State, outcome: std::thread::Result<RunOutcome>) -> Terminal {
    let (status, digest, error, verilog, modules_poisoned) = match outcome {
        Ok(RunOutcome::Done {
            digest,
            verilog,
            modules_poisoned,
        }) => (
            JobStatus::Done,
            digest,
            String::new(),
            verilog,
            modules_poisoned,
        ),
        Ok(RunOutcome::Failed { error }) => {
            (JobStatus::Failed, String::new(), error, String::new(), 0)
        }
        Err(panic) => {
            let error = format!("job panicked: {}", panic_message(&*panic));
            (JobStatus::Poisoned, String::new(), error, String::new(), 0)
        }
    };
    Terminal {
        status,
        digest: st.intern(&digest),
        error,
        verilog: st.intern(&verilog),
        modules_poisoned,
    }
}

/// A job poisoned from outside its runner (watchdog or drain): no output.
fn poisoned(st: &mut State, error: &str) -> Terminal {
    Terminal {
        status: JobStatus::Poisoned,
        digest: st.intern(""),
        error: error.to_string(),
        verilog: st.intern(""),
        modules_poisoned: 0,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Records a terminal phase, bumps counters, journals the completion.
/// A completion-side journal failure is absorbed (counted); the result
/// still serves from memory and a restart simply re-runs the job.
fn finish_job(st: &mut State, id: u64, terminal: Terminal) {
    match terminal.status {
        JobStatus::Done => st.counters.completed += 1,
        JobStatus::Failed => st.counters.failed += 1,
        JobStatus::Poisoned => st.counters.poisoned += 1,
    }
    let record = Record::Completed {
        id,
        status: terminal.status,
        digest: terminal.digest.to_string(),
        error: terminal.error.clone(),
        verilog: terminal.verilog.to_string(),
        modules_poisoned: terminal.modules_poisoned,
    };
    if let Some(journal) = &mut st.journal {
        if journal.append(&record).is_err() {
            st.counters.journal_append_failed += 1;
        }
    }
    if let Some(entry) = st.jobs.get_mut(&id) {
        entry.phase = Phase::Terminal(terminal);
        // Only a job that may still run needs its source (the journal
        // keeps a copy for replay); without this, a long-lived daemon
        // holds every source it ever served.
        entry.spec.source = String::new();
    }
}

// --------------------------------------------------------------- watchdog

fn watchdog_loop(inner: &Arc<Inner>) {
    while !inner.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(inner.config.watchdog_poll);
        let now = Instant::now();
        let mut st = inner.lock();
        let mut wedged = Vec::new();
        for (&id, entry) in &st.jobs {
            if let Phase::Running { started, deadline } = &entry.phase {
                if entry.spec.timeout_ms == 0 {
                    continue; // unbudgeted jobs are never watchdogged
                }
                let budget = Duration::from_millis(entry.spec.timeout_ms);
                if now.duration_since(*started) > budget + inner.config.watchdog_grace {
                    deadline.trip();
                    wedged.push(id);
                }
            }
        }
        for id in wedged {
            let terminal = poisoned(
                &mut st,
                "watchdog: job exceeded its budget plus grace; worker abandoned",
            );
            finish_job(&mut st, id, terminal);
            // the wedged worker is lost to us; keep the pool at size
            let replacement = Arc::clone(inner);
            std::thread::spawn(move || worker_loop(&replacement));
            inner.cv.notify_all();
        }
    }
}

// ------------------------------------------------------------------ drain

fn drain(inner: &Arc<Inner>) -> DrainReport {
    {
        let mut st = inner.lock();
        st.draining = true;
    }
    inner.cv.notify_all();

    let running = |st: &State| {
        st.jobs
            .values()
            .filter(|e| matches!(e.phase, Phase::Running { .. }))
            .count()
    };

    // rung 1: let running jobs finish naturally
    let mut clean = wait_drained(inner, running);

    // rung 2: trip their deadlines, wait again
    if !clean {
        let st = inner.lock();
        for entry in st.jobs.values() {
            if let Phase::Running { deadline, .. } = &entry.phase {
                deadline.trip();
            }
        }
        drop(st);
        clean = wait_drained(inner, running);
    }

    // rung 3: force-poison stragglers so run() can return
    let mut st = inner.lock();
    if !clean {
        let stuck: Vec<u64> = st
            .jobs
            .iter()
            .filter(|(_, e)| matches!(e.phase, Phase::Running { .. }))
            .map(|(&id, _)| id)
            .collect();
        for id in stuck {
            let terminal = poisoned(&mut st, "drain: job cancelled at shutdown");
            finish_job(&mut st, id, terminal);
        }
    }
    inner.cv.notify_all();
    DrainReport {
        completed: st.counters.completed,
        failed: st.counters.failed,
        poisoned: st.counters.poisoned,
        queued_for_restart: st.queue.len() as u64,
        clean,
    }
}

fn wait_drained(inner: &Arc<Inner>, running: impl Fn(&State) -> usize) -> bool {
    let deadline = Instant::now() + inner.config.drain_grace;
    loop {
        if running(&inner.lock()) == 0 {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ------------------------------------------------------------ connections

fn connection_loop(inner: &Arc<Inner>, stream: UnixStream) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client hung up
            Ok(_) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = dispatch(inner, &line);
                let mut out = response.render();
                out.push('\n');
                if writer.write_all(out.as_bytes()).is_err() || writer.flush().is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.stopping.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn dispatch(inner: &Arc<Inner>, line: &str) -> Value {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return error_response(&e),
    };
    match request {
        Request::Submit {
            source,
            level,
            timeout_ms,
            verify,
        } => submit(inner, source, level, timeout_ms, verify),
        Request::Status { id } => status(inner, id),
        Request::Result { id, wait, verilog } => result(inner, id, wait, verilog),
        Request::Health => health(inner),
        Request::Drain => {
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.cv.notify_all();
            let mut v = Value::object();
            v.set("ok", Value::Bool(true));
            v.set("draining", Value::Bool(true));
            v
        }
    }
}

fn submit(
    inner: &Arc<Inner>,
    source: String,
    level: String,
    timeout_ms: u64,
    verify: bool,
) -> Value {
    let mut st = inner.lock();
    if st.draining || inner.shutdown_requested() {
        st.counters.rejected_draining += 1;
        return rejected_response("draining");
    }
    if st.queue.len() >= inner.config.queue_capacity || fail::check(FP_ACCEPT) {
        st.counters.rejected_overloaded += 1;
        return rejected_response("overloaded");
    }
    let timeout_ms = if timeout_ms == 0 {
        inner.config.default_timeout_ms
    } else {
        timeout_ms
    };
    let id = st.next_id;
    st.next_id += 1;
    let spec = JobSpec {
        id,
        source,
        level,
        timeout_ms,
        verify,
    };

    // durability is part of the accept contract: if the journal cannot
    // record the job, the submitter is told "no", not "trust me"
    if let Some(journal) = &mut st.journal {
        let record = Record::Accepted {
            id,
            source: spec.source.clone(),
            level: spec.level.clone(),
            timeout_ms: spec.timeout_ms,
            verify: spec.verify,
        };
        if journal.append(&record).is_err() {
            st.counters.rejected_journal += 1;
            return rejected_response("journal");
        }
    }

    st.jobs.insert(
        id,
        JobEntry {
            spec,
            phase: Phase::Queued,
        },
    );
    st.queue.push_back(id);
    st.counters.accepted += 1;
    drop(st);
    inner.cv.notify_all();

    let mut v = Value::object();
    v.set("ok", Value::Bool(true));
    v.set("id", Value::UInt(id));
    v
}

fn phase_name(phase: &Phase) -> &'static str {
    match phase {
        Phase::Queued => "queued",
        Phase::Running { .. } => "running",
        Phase::Terminal(t) => t.status.name(),
    }
}

fn status(inner: &Arc<Inner>, id: u64) -> Value {
    let st = inner.lock();
    match st.jobs.get(&id) {
        None => error_response(&format!("unknown job {id}")),
        Some(entry) => {
            let mut v = Value::object();
            v.set("ok", Value::Bool(true));
            v.set("id", Value::UInt(id));
            v.set("status", Value::Str(phase_name(&entry.phase).to_string()));
            v
        }
    }
}

fn result(inner: &Arc<Inner>, id: u64, wait: bool, want_verilog: bool) -> Value {
    let mut st = inner.lock();
    loop {
        let Some(entry) = st.jobs.get(&id) else {
            return error_response(&format!("unknown job {id}"));
        };
        if let Phase::Terminal(t) = &entry.phase {
            let mut v = Value::object();
            v.set("ok", Value::Bool(true));
            v.set("id", Value::UInt(id));
            v.set("status", Value::Str(t.status.name().to_string()));
            v.set("digest", Value::Str(t.digest.to_string()));
            v.set("modules_poisoned", Value::UInt(t.modules_poisoned));
            if !t.error.is_empty() {
                v.set("error", Value::Str(t.error.clone()));
            }
            if want_verilog {
                v.set("verilog", Value::Str(t.verilog.to_string()));
            }
            return v;
        }
        if !wait {
            let mut v = Value::object();
            v.set("ok", Value::Bool(true));
            v.set("id", Value::UInt(id));
            v.set("status", Value::Str(phase_name(&entry.phase).to_string()));
            return v;
        }
        if inner.stopping.load(Ordering::SeqCst)
            || (inner.shutdown_requested() && matches!(entry.phase, Phase::Queued))
        {
            // a queued job will not run again this lifetime; its
            // journal record re-runs it on the next start
            return error_response("draining: job deferred to next start");
        }
        let (guard, _) = inner
            .cv
            .wait_timeout(st, Duration::from_millis(100))
            .unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
}

fn health(inner: &Arc<Inner>) -> Value {
    let st = inner.lock();
    let running = st
        .jobs
        .values()
        .filter(|e| matches!(e.phase, Phase::Running { .. }))
        .count() as u64;
    let c = &st.counters;
    let mut v = Value::object();
    v.set("ok", Value::Bool(true));
    v.set(
        "uptime_ms",
        Value::UInt(inner.started.elapsed().as_millis() as u64),
    );
    v.set("queue_depth", Value::UInt(st.queue.len() as u64));
    v.set("running", Value::UInt(running));
    v.set("draining", Value::Bool(st.draining));

    let mut jobs = Value::object();
    jobs.set("accepted", Value::UInt(c.accepted));
    jobs.set("completed", Value::UInt(c.completed));
    jobs.set("failed", Value::UInt(c.failed));
    jobs.set("poisoned", Value::UInt(c.poisoned));
    jobs.set("rejected_overloaded", Value::UInt(c.rejected_overloaded));
    jobs.set("rejected_draining", Value::UInt(c.rejected_draining));
    jobs.set("rejected_journal", Value::UInt(c.rejected_journal));
    jobs.set("replayed_completed", Value::UInt(c.replayed_completed));
    jobs.set("replayed_requeued", Value::UInt(c.replayed_requeued));
    v.set("jobs", jobs);

    let mut journal = Value::object();
    journal.set("corrupt_records", Value::UInt(c.journal_corrupt_records));
    journal.set("truncated_bytes", Value::UInt(c.journal_truncated_bytes));
    journal.set("append_failed", Value::UInt(c.journal_append_failed));
    v.set("journal", journal);

    let mut runner = Value::object();
    for (key, count) in inner.runner.health() {
        runner.set(&key, Value::UInt(count));
    }
    v.set("runner", runner);
    v
}

// ----------------------------------------------------------------- signal

/// SIGTERM/SIGINT → drain. The handler only flips an atomic (the one
/// async-signal-safe thing worth doing); the accept loop polls it.
#[allow(unsafe_code)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static DRAIN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }

    /// Installs the handlers (idempotent).
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the libc function of that name; the
        // handler is a plain extern "C" fn that only stores a relaxed
        // atomic flag, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// Whether a drain signal has arrived.
    pub fn drain_requested() -> bool {
        DRAIN.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_and_verilog(st: &State, id: u64) -> (Arc<str>, Arc<str>) {
        match &st.jobs[&id].phase {
            Phase::Terminal(t) => (Arc::clone(&t.digest), Arc::clone(&t.verilog)),
            phase => panic!("job {id} not terminal: {phase:?}"),
        }
    }

    fn queued(st: &mut State, id: u64) {
        let spec = JobSpec {
            id,
            source: format!("module m{id}; endmodule"),
            level: "full".to_string(),
            timeout_ms: 0,
            verify: false,
        };
        let phase = Phase::Queued;
        st.jobs.insert(id, JobEntry { spec, phase });
    }

    #[test]
    fn equal_completions_share_one_allocation() {
        let mut st = State::default();
        for id in 1..=3 {
            queued(&mut st, id);
            let outcome = RunOutcome::Done {
                // two jobs with equal output, one with its own
                digest: format!("digest-{}", id / 2),
                verilog: format!("module m; // {}\nendmodule\n", id / 2),
                modules_poisoned: 0,
            };
            let terminal = completed(&mut st, Ok(outcome));
            finish_job(&mut st, id, terminal);
        }
        let (d2, v2) = digest_and_verilog(&st, 2);
        let (d3, v3) = digest_and_verilog(&st, 3);
        let (d1, v1) = digest_and_verilog(&st, 1);
        assert!(Arc::ptr_eq(&d2, &d3) && Arc::ptr_eq(&v2, &v3));
        assert!(!Arc::ptr_eq(&d1, &d2) && &*d1 == "digest-0");
        assert!(!Arc::ptr_eq(&v1, &v2));
        assert_eq!(&*v3, "module m; // 1\nendmodule\n");
        assert_eq!(st.texts.len(), 4);
    }

    #[test]
    fn replayed_completions_are_interned() {
        let mut st = State::default();
        for id in 1..=2 {
            st.restore(Record::Accepted {
                id,
                source: "module m; endmodule".to_string(),
                level: "full".to_string(),
                timeout_ms: 0,
                verify: false,
            });
            st.restore(Record::Completed {
                id,
                status: JobStatus::Done,
                digest: "same digest".to_string(),
                error: String::new(),
                verilog: "same verilog".to_string(),
                modules_poisoned: 0,
            });
        }
        let (d1, v1) = digest_and_verilog(&st, 1);
        let (d2, v2) = digest_and_verilog(&st, 2);
        assert!(Arc::ptr_eq(&d1, &d2) && Arc::ptr_eq(&v1, &v2));

        // a live completion after replay joins the replayed copy
        queued(&mut st, 3);
        let outcome = RunOutcome::Done {
            digest: "same digest".to_string(),
            verilog: "same verilog".to_string(),
            modules_poisoned: 0,
        };
        let terminal = completed(&mut st, Ok(outcome));
        finish_job(&mut st, 3, terminal);
        let (d3, v3) = digest_and_verilog(&st, 3);
        assert!(Arc::ptr_eq(&d1, &d3) && Arc::ptr_eq(&v1, &v3));
    }
}
