//! End-to-end daemon tests over a real Unix socket with mock runners:
//! the full verb set, admission control, panic isolation, the
//! watchdog, and graceful drain — without paying for real
//! optimizations. Digest parity against the actual optimizer lives in
//! the workspace-root `serve_e2e` suite; this file pins the *service*
//! semantics.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smartly_failpoint as fail;
use smartly_sat::Deadline;
use smartly_server::{
    wire, DrainReport, JobRunner, JobSpec, RunOutcome, Server, ServerConfig, ServerHandle,
    FP_ACCEPT,
};

// the fail-point registry is process-global and every test boots its
// own daemon, so the whole file serializes on one lock
static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smartly_serve_{tag}_{}", std::process::id()))
}

/// Done instantly; digest is a deterministic function of the source.
struct InstantRunner;

impl JobRunner for InstantRunner {
    fn run(&self, spec: &JobSpec, _deadline: &Deadline) -> RunOutcome {
        RunOutcome::Done {
            digest: format!("digest:{:016x}", smartly_sat::fnv64(spec.source.as_bytes())),
            verilog: format!("// optimized\n{}", spec.source),
            modules_poisoned: 0,
        }
    }

    fn health(&self) -> Vec<(String, u64)> {
        vec![("mock_runner".to_string(), 1)]
    }
}

/// Blocks every job until the gate opens (pins "running" states).
struct GatedRunner {
    gate: Arc<AtomicBool>,
}

impl JobRunner for GatedRunner {
    fn run(&self, spec: &JobSpec, _deadline: &Deadline) -> RunOutcome {
        let opened_in_time =
            wait_until(Duration::from_secs(10), || self.gate.load(Ordering::SeqCst));
        assert!(opened_in_time, "test gate never opened");
        RunOutcome::Done {
            digest: format!("gated:{}", spec.id),
            verilog: String::new(),
            modules_poisoned: 0,
        }
    }
}

/// Panics on sources containing "boom", otherwise instant.
struct PanicRunner;

impl JobRunner for PanicRunner {
    fn run(&self, spec: &JobSpec, deadline: &Deadline) -> RunOutcome {
        if spec.source.contains("boom") {
            panic!("injected runner panic");
        }
        InstantRunner.run(spec, deadline)
    }
}

/// Ignores its deadline entirely — the non-cooperative worst case the
/// watchdog exists for. Bounded so the abandoned thread eventually
/// retires instead of outliving the test binary.
struct WedgeRunner;

impl JobRunner for WedgeRunner {
    fn run(&self, spec: &JobSpec, deadline: &Deadline) -> RunOutcome {
        if spec.source.contains("wedge") {
            std::thread::sleep(Duration::from_secs(3));
        }
        InstantRunner.run(spec, deadline)
    }
}

struct Daemon {
    handle: ServerHandle,
    socket: PathBuf,
    thread: JoinHandle<DrainReport>,
}

fn start(config: ServerConfig, runner: Arc<dyn JobRunner>) -> Daemon {
    let socket = config.socket.clone();
    let server = Server::bind(config, runner).expect("bind");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    assert!(
        wait_until(Duration::from_secs(5), || UnixStream::connect(&socket)
            .is_ok()),
        "daemon never came up on {}",
        socket.display()
    );
    Daemon {
        handle,
        socket,
        thread,
    }
}

fn stop(daemon: Daemon) -> DrainReport {
    daemon.handle.shutdown();
    let report = daemon.thread.join().expect("server thread");
    let _ = std::fs::remove_file(&daemon.socket);
    report
}

fn wait_until(budget: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// One request/response round trip on a fresh connection.
fn rpc(socket: &Path, line: &str) -> wire::Value {
    let stream = UnixStream::connect(socket).expect("connect");
    rpc_on(&stream, line)
}

/// One request/response round trip on an existing connection.
fn rpc_on(stream: &UnixStream, line: &str) -> wire::Value {
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    wire::parse(&response).expect("response parses")
}

fn str_of<'v>(v: &'v wire::Value, key: &str) -> &'v str {
    v.get(key).and_then(wire::Value::as_str).unwrap_or("")
}

fn u64_of(v: &wire::Value, key: &str) -> u64 {
    v.get(key).and_then(wire::Value::as_u64).unwrap_or(u64::MAX)
}

fn submit(socket: &Path, source: &str) -> wire::Value {
    let mut req = wire::Value::object();
    req.set("cmd", wire::Value::Str("submit".into()));
    req.set("source", wire::Value::Str(source.into()));
    rpc(socket, &req.render())
}

#[test]
fn full_verb_roundtrip_over_the_socket() {
    let _g = locked();
    let config = ServerConfig::new(tmp("roundtrip.sock"));
    let daemon = start(config, Arc::new(InstantRunner));

    let accepted = submit(&daemon.socket, "module a; endmodule");
    assert_eq!(accepted.get("ok"), Some(&wire::Value::Bool(true)));
    let id = u64_of(&accepted, "id");
    assert!(id >= 1);

    let result = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{id},\"verilog\":true}}"),
    );
    assert_eq!(str_of(&result, "status"), "done");
    assert!(str_of(&result, "digest").starts_with("digest:"));
    assert!(str_of(&result, "verilog").contains("optimized"));

    let status = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"status\",\"id\":{id}}}"),
    );
    assert_eq!(str_of(&status, "status"), "done");

    // digest is omitted from result only when verilog isn't requested?
    // no: digest is always present, verilog is the opt-in field
    let lean = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{id}}}"),
    );
    assert!(!str_of(&lean, "digest").is_empty());
    assert_eq!(lean.get("verilog"), None);

    let health = rpc(&daemon.socket, "{\"cmd\":\"health\"}");
    assert_eq!(health.get("ok"), Some(&wire::Value::Bool(true)));
    let jobs = health.get("jobs").expect("jobs block");
    assert_eq!(u64_of(jobs, "accepted"), 1);
    assert_eq!(u64_of(jobs, "completed"), 1);
    let runner = health.get("runner").expect("runner block");
    assert_eq!(
        u64_of(runner, "mock_runner"),
        1,
        "runner health is surfaced"
    );

    let unknown = rpc(&daemon.socket, "{\"cmd\":\"status\",\"id\":999}");
    assert_eq!(unknown.get("ok"), Some(&wire::Value::Bool(false)));
    let garbage = rpc(&daemon.socket, "not json at all");
    assert_eq!(garbage.get("ok"), Some(&wire::Value::Bool(false)));
    // 10,000 levels of nesting would overflow a connection thread's
    // stack without the codec's depth bound; the daemon must answer it
    // like any other malformed line and keep serving.
    let deep = rpc(&daemon.socket, &"[".repeat(10_000));
    assert_eq!(deep.get("ok"), Some(&wire::Value::Bool(false)));
    let alive = rpc(&daemon.socket, "{\"cmd\":\"health\"}");
    assert_eq!(alive.get("ok"), Some(&wire::Value::Bool(true)));

    let report = stop(daemon);
    assert_eq!(report.completed, 1);
    assert!(report.clean);
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let _g = locked();
    let gate = Arc::new(AtomicBool::new(false));
    let mut config = ServerConfig::new(tmp("overload.sock"));
    config.queue_capacity = 1;
    let daemon = start(config, Arc::new(GatedRunner { gate: gate.clone() }));

    // job 1 must be *running* (off the queue) before we measure depth
    let first = u64_of(&submit(&daemon.socket, "m1"), "id");
    assert!(wait_until(Duration::from_secs(5), || {
        let s = rpc(
            &daemon.socket,
            &format!("{{\"cmd\":\"status\",\"id\":{first}}}"),
        );
        str_of(&s, "status") == "running"
    }));

    let second = submit(&daemon.socket, "m2");
    assert_eq!(second.get("ok"), Some(&wire::Value::Bool(true)));
    let third = submit(&daemon.socket, "m3");
    assert_eq!(str_of(&third, "rejected"), "overloaded");

    gate.store(true, Ordering::SeqCst);
    let done = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{}}}", u64_of(&second, "id")),
    );
    assert_eq!(str_of(&done, "status"), "done");

    let health = rpc(&daemon.socket, "{\"cmd\":\"health\"}");
    let jobs = health.get("jobs").expect("jobs block");
    assert_eq!(u64_of(jobs, "rejected_overloaded"), 1);
    assert_eq!(u64_of(jobs, "accepted"), 2);

    let report = stop(daemon);
    assert_eq!(report.completed, 2);
}

#[test]
fn accept_failpoint_injects_rejections() {
    let _g = locked();
    fail::disarm_all();
    let config = ServerConfig::new(tmp("acceptfp.sock"));
    let daemon = start(config, Arc::new(InstantRunner));

    fail::arm(FP_ACCEPT, "hit:1").expect("arm");
    let first = submit(&daemon.socket, "m1");
    assert_eq!(str_of(&first, "rejected"), "overloaded");
    let second = submit(&daemon.socket, "m2");
    assert_eq!(second.get("ok"), Some(&wire::Value::Bool(true)));
    fail::disarm_all();

    let health = rpc(&daemon.socket, "{\"cmd\":\"health\"}");
    let jobs = health.get("jobs").expect("jobs");
    assert_eq!(u64_of(jobs, "rejected_overloaded"), 1);
    assert_eq!(u64_of(jobs, "accepted"), 1);
    stop(daemon);
}

#[test]
fn a_panicking_job_poisons_itself_not_the_daemon() {
    let _g = locked();
    let config = ServerConfig::new(tmp("panic.sock"));
    let daemon = start(config, Arc::new(PanicRunner));

    let bad = u64_of(&submit(&daemon.socket, "module boom; endmodule"), "id");
    let result = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{bad}}}"),
    );
    assert_eq!(str_of(&result, "status"), "poisoned");
    assert!(
        str_of(&result, "error").contains("injected runner panic"),
        "panic payload surfaces: {result:?}"
    );

    // the daemon survived and the worker still serves
    let good = u64_of(&submit(&daemon.socket, "module fine; endmodule"), "id");
    let result = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{good}}}"),
    );
    assert_eq!(str_of(&result, "status"), "done");

    let report = stop(daemon);
    assert_eq!(report.poisoned, 1);
    assert_eq!(report.completed, 1);
}

#[test]
fn watchdog_poisons_a_wedged_job_and_replaces_the_worker() {
    let _g = locked();
    let mut config = ServerConfig::new(tmp("wedge.sock"));
    config.watchdog_grace = Duration::from_millis(100);
    config.watchdog_poll = Duration::from_millis(10);
    let daemon = start(config, Arc::new(WedgeRunner));

    // timeout_ms arms the budget the watchdog judges against
    let req = "{\"cmd\":\"submit\",\"source\":\"wedge\",\"timeout_ms\":50}";
    let wedged = u64_of(&rpc(&daemon.socket, req), "id");
    let result = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{wedged}}}"),
    );
    assert_eq!(str_of(&result, "status"), "poisoned");
    assert!(str_of(&result, "error").contains("watchdog"));

    // the replacement worker keeps the queue moving while the wedged
    // thread is still asleep
    let next = u64_of(&submit(&daemon.socket, "module quick; endmodule"), "id");
    let result = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{next}}}"),
    );
    assert_eq!(str_of(&result, "status"), "done");

    let report = stop(daemon);
    assert_eq!(report.poisoned, 1);
    assert_eq!(report.completed, 1);
}

#[test]
fn drain_stops_admissions_and_defers_queued_jobs_to_restart() {
    let _g = locked();
    let gate = Arc::new(AtomicBool::new(false));
    let journal = tmp("drain.wal");
    let _ = std::fs::remove_file(&journal);
    let mut config = ServerConfig::new(tmp("drain.sock"));
    config.journal = Some(journal.clone());
    config.drain_grace = Duration::from_millis(500);
    let daemon = start(config, Arc::new(GatedRunner { gate: gate.clone() }));

    let running = u64_of(&submit(&daemon.socket, "held"), "id");
    assert!(wait_until(Duration::from_secs(5), || {
        let s = rpc(
            &daemon.socket,
            &format!("{{\"cmd\":\"status\",\"id\":{running}}}"),
        );
        str_of(&s, "status") == "running"
    }));
    let queued = u64_of(&submit(&daemon.socket, "queued"), "id");

    // drain over the wire: admissions stop immediately
    let stream = UnixStream::connect(&daemon.socket).expect("connect");
    let drained = rpc_on(&stream, "{\"cmd\":\"drain\"}");
    assert_eq!(drained.get("draining"), Some(&wire::Value::Bool(true)));
    let late = rpc_on(&stream, "{\"cmd\":\"submit\",\"source\":\"late\"}");
    assert_eq!(str_of(&late, "rejected"), "draining");

    // the held job ignores its tripped deadline, so drain eventually
    // force-poisons it; the queued job is left for the next start
    let report = daemon.thread.join().expect("server thread");
    assert!(!report.clean, "the gated job had to be force-poisoned");
    assert_eq!(report.poisoned, 1);
    assert_eq!(report.queued_for_restart, 1);
    gate.store(true, Ordering::SeqCst); // let the abandoned thread retire

    // restart on the same journal: the queued job re-runs to done
    let mut config = ServerConfig::new(tmp("drain2.sock"));
    config.journal = Some(journal.clone());
    let daemon = start(config, Arc::new(InstantRunner));
    assert_eq!(daemon.handle.counters().replayed_requeued, 1);
    let result = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{queued}}}"),
    );
    assert_eq!(str_of(&result, "status"), "done", "{result:?}");
    // the force-poisoned job's terminal state also survived the restart
    let held = rpc(
        &daemon.socket,
        &format!("{{\"cmd\":\"result\",\"id\":{running}}}"),
    );
    assert_eq!(str_of(&held, "status"), "poisoned");
    stop(daemon);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn stale_socket_files_are_reclaimed_live_ones_are_not() {
    let _g = locked();
    let socket = tmp("stale.sock");
    // a dead daemon's leftover socket file
    std::fs::remove_file(&socket).ok();
    drop(std::os::unix::net::UnixListener::bind(&socket).expect("first bind"));
    let daemon = start(ServerConfig::new(socket.clone()), Arc::new(InstantRunner));

    // but a *live* daemon must not be displaced
    let err = Server::bind(ServerConfig::new(socket.clone()), Arc::new(InstantRunner))
        .map(|_| ())
        .expect_err("second daemon refused");
    assert!(err.message.contains("already serving"), "{err}");
    stop(daemon);
}
