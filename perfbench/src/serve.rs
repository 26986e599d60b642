//! `serve_warm`: the release `smartly serve` daemon (2 workers,
//! `--jobs 1`, no journal) on a knowledge file written by a cold pass,
//! driven by a closed-loop client over 2 connections.

use crate::gate::cosim;
use crate::inputs::{serve_deck, serve_pool, ServePool, Size};
use crate::metrics::{put, replay_layers};
use crate::replay::{replay, Knowledge, Replay};
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::{Outcome, SETUP_REPS};
use smartly_core::{OptLevel, SharedCexBank, SharedVerdictStore};
use smartly_driver::{
    emit_design, load_state, optimize_design, optimize_source, save_state, DriverOptions,
    KnowledgeState, StoreKey,
};
use smartly_netlist::{Design, Module};
use smartly_server::wire::{parse, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client connections (and client threads) driving the daemon.
const CONNECTIONS: usize = 2;
/// Fewest decks per measured run: 7 × 16 jobs = 112.
const MIN_DECKS: usize = 7;
/// Upper bound on decks, whatever `--seconds` says.
const MAX_DECKS: usize = 200;

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `smartly serve` and waits until it answers a request on a
    /// fresh connection.
    fn start(bin: &Path, socket: &Path, kb: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(bin)
            .args([
                "serve",
                "--workers",
                "2",
                "--jobs",
                "1",
                "--no-knowledge-save",
            ])
            .arg("--socket")
            .arg(socket)
            .arg("--knowledge-file")
            .arg(kb)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Conn::open(&daemon.socket) {
                c.call(&request("health"))?;
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("daemon never accepted a connection".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or(String::new(), |c| c.id().to_string())
    }

    /// Graceful drain; kills the process if it has not exited in 20 s.
    fn stop(mut self) -> Result<(), String> {
        let drained = Conn::open(&self.socket).and_then(|mut c| c.call(&request("drain")));
        let mut child = self.child.take().expect("running daemon");
        let deadline = Instant::now() + Duration::from_secs(20);
        while drained.is_ok() && Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
        Err("daemon did not drain".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One persistent client connection speaking the line protocol.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, req: &Value) -> Result<Value, String> {
        let mut line = req.render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        parse(&resp)
    }
}

fn request(cmd: &str) -> Value {
    let mut v = Value::object();
    v.set("cmd", Value::Str(cmd.into()));
    v
}

/// One job's round trip as the client saw it.
struct JobResult {
    source: usize,
    latency: Duration,
    submit_rtt: Duration,
    /// `None` when the job was rejected or did not finish `done`.
    output: Option<(String, String)>,
    error: String,
}

/// Submits `source`, then waits for its result with the Verilog.
fn run_job(conn: &mut Conn, pool: &ServePool, source: usize) -> Result<JobResult, String> {
    let t = Instant::now();
    let mut submit = request("submit");
    submit.set("source", Value::Str(pool.sources[source].source.clone()));
    submit.set("level", Value::Str("full".into()));
    let resp = conn.call(&submit)?;
    let submit_rtt = t.elapsed();
    let mut job = JobResult {
        source,
        latency: Duration::ZERO,
        submit_rtt,
        output: None,
        error: String::new(),
    };
    let Some(id) = resp.get("id").and_then(Value::as_u64) else {
        job.error = format!("submit refused: {}", resp.render());
        job.latency = t.elapsed();
        return Ok(job);
    };
    let mut result = request("result");
    result.set("id", Value::UInt(id));
    result.set("wait", Value::Bool(true));
    result.set("verilog", Value::Bool(true));
    let resp = conn.call(&result)?;
    job.latency = t.elapsed();
    let field = |k: &str| {
        resp.get(k)
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    if field("status") == "done" {
        job.output = Some((field("digest"), field("verilog")));
    } else {
        job.error = format!("job {id}: {}", resp.render());
    }
    Ok(job)
}

struct Setup {
    pool: ServePool,
    originals: Vec<Design>,
    daemon: Daemon,
    kb: PathBuf,
    generate_s: Vec<f64>,
    compile_s: Vec<f64>,
    total_s: Vec<f64>,
}

fn job_options(knowledge: Arc<KnowledgeState>) -> DriverOptions {
    DriverOptions {
        level: OptLevel::Full,
        jobs: 1,
        knowledge_state: Some(knowledge),
        ..DriverOptions::default()
    }
}

fn store_key() -> StoreKey {
    StoreKey::current(DriverOptions::default().pipeline.sat.conflict_budget)
}

/// Set-up, [`SETUP_REPS`] times: generate and compile the pool, write
/// the knowledge file with a cold pass over the seen sources, start the
/// daemon up to its first accepted connection. The last daemon stays up.
fn setup(seed: u64, size: Size, bin: &Path, dir: &Path) -> Result<Setup, String> {
    let kb = dir.join(format!("serve-{}.kb", std::process::id()));
    let socket = dir.join(format!("serve-{}.sock", std::process::id()));
    let capacity = DriverOptions::default().knowledge_capacity;
    let store_bound = DriverOptions::default().pipeline.sat.cex_bank_capacity;
    let mut reps = Vec::new();
    let (mut generate_s, mut compile_s, mut total_s) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let pool = serve_pool(seed, size);
        let generated = t.elapsed();
        let originals = pool
            .sources
            .iter()
            .map(|c| smartly_verilog::compile(&c.source).map_err(|e| format!("{}: {e}", c.name)))
            .collect::<Result<Vec<_>, _>>()?;
        let compiled = t.elapsed();
        let state = Arc::new(KnowledgeState::cold(capacity));
        for (case, _) in pool
            .sources
            .iter()
            .zip(&pool.seen)
            .filter(|(_, seen)| **seen)
        {
            optimize_source(&case.source, &job_options(Arc::clone(&state)))
                .map_err(|e| format!("cold pass {}: {e}", case.name))?;
        }
        save_state(&kb, &state, &store_key(), store_bound)
            .map_err(|e| format!("knowledge save: {e}"))?;
        let daemon = Daemon::start(bin, &socket, &kb)?;
        total_s.push(t.elapsed().as_secs_f64());
        generate_s.push(generated.as_secs_f64());
        compile_s.push((compiled - generated).as_secs_f64());
        if rep + 1 < SETUP_REPS {
            daemon.stop()?;
        } else {
            reps.push((pool, originals, daemon));
        }
    }
    let (pool, originals, daemon) = reps.pop().expect("one set-up kept");
    Ok(Setup {
        pool,
        originals,
        daemon,
        kb,
        generate_s,
        compile_s,
        total_s,
    })
}

/// Hands out job slots deck by deck; once `seconds` have passed (and at
/// least [`MIN_DECKS`] decks ran) it stops at the next deck boundary, so
/// every measured deck is whole.
struct Schedule {
    next: usize,
    stopped: bool,
}

/// Drives decks through the daemon over `connections` closed-loop
/// clients; returns the jobs (in completion order) and the wall time of
/// the whole stream.
fn drive(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    connections: usize,
    max_decks: usize,
) -> Result<(Vec<JobResult>, Duration), String> {
    let n = setup.pool.sources.len();
    let decks: Vec<Vec<usize>> = (0..max_decks).map(|d| serve_deck(seed, d, n)).collect();
    let schedule = Mutex::new(Schedule {
        next: 0,
        stopped: false,
    });
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    let min_decks = MIN_DECKS.min(max_decks);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut conn = Conn::open(&setup.daemon.socket)?;
                    loop {
                        let slot = {
                            let mut s = schedule.lock().expect("schedule lock");
                            let boundary = s.next.is_multiple_of(n);
                            let deck = s.next / n;
                            if s.stopped
                                || deck >= max_decks
                                || (boundary
                                    && deck >= min_decks
                                    && start.elapsed().as_secs_f64() >= seconds)
                            {
                                s.stopped = true;
                                break;
                            }
                            s.next += 1;
                            s.next - 1
                        };
                        let job = run_job(&mut conn, &setup.pool, decks[slot / n][slot % n])?;
                        results.lock().expect("results lock").push(job);
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Result<Vec<()>, String>>()
    })?;
    Ok((results.into_inner().expect("results lock"), start.elapsed()))
}

/// Checks every job: each finished `done`, every repeat of a source
/// returned the first one's digest, and the first Verilog of each source
/// compiles and co-simulates against the original. Returns the compiled
/// outputs per source.
fn check_jobs(
    setup: &Setup,
    jobs: &[JobResult],
    seed: u64,
    out: &mut Outcome,
) -> HashMap<usize, Design> {
    let mut first: HashMap<usize, &str> = HashMap::new();
    let mut outputs = HashMap::new();
    for job in jobs {
        out.attempted += 1;
        let Some((digest, verilog)) = &job.output else {
            out.fail(job.error.clone());
            continue;
        };
        let name = &setup.pool.sources[job.source].name;
        match first.get(&job.source) {
            Some(d) if *d != digest => out.fail(format!("{name}: digest differs between jobs")),
            Some(_) => continue,
            None => {
                first.insert(job.source, digest);
            }
        }
        let design = match smartly_verilog::compile(verilog) {
            Ok(d) => d,
            Err(e) => {
                out.fail(format!("{name}: returned Verilog does not compile: {e}"));
                continue;
            }
        };
        for gold in setup.originals[job.source].modules() {
            match design.module(&gold.name) {
                Some(gate) => {
                    if let Err(e) = cosim(gold, gate, seed) {
                        out.fail(format!("{name}: co-simulation: {e}"));
                    }
                }
                None => out.fail(format!("{name}: module {} missing", gold.name)),
            }
        }
        outputs.insert(job.source, design);
    }
    outputs
}

fn rejected(socket: &Path) -> Result<f64, String> {
    let health = Conn::open(socket)?.call(&request("health"))?;
    let jobs = health.get("jobs").ok_or("health without jobs")?;
    Ok([
        "rejected_overloaded",
        "rejected_draining",
        "rejected_journal",
    ]
    .iter()
    .filter_map(|k| jobs.get(k).and_then(Value::as_u64))
    .sum::<u64>() as f64)
}

fn ms(d: Duration) -> f64 {
    1e3 * d.as_secs_f64()
}

/// The untraced run: end-to-end metrics.
pub fn run(
    seed: u64,
    seconds: f64,
    size: Size,
    bin: &Path,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let setup = setup(seed, size, bin, dir)?;
    let (jobs, wall) = drive(&setup, seed, seconds, CONNECTIONS, MAX_DECKS)?;
    let peak = peak_rss_mb(&setup.daemon.pid());
    let rejected = rejected(&setup.daemon.socket)?;
    let outputs = check_jobs(&setup, &jobs, seed, out);
    if rejected > 0.0 {
        out.fail(format!("{rejected} submits rejected"));
    }
    let decks = jobs.len() as f64 / setup.pool.sources.len() as f64;
    let done = jobs.iter().filter(|j| j.output.is_some()).count();
    let latency: Vec<f64> = jobs.iter().map(|j| ms(j.latency)).collect();
    let cells: usize = outputs
        .values()
        .flat_map(|d| d.modules())
        .map(Module::live_cell_count)
        .sum();
    let m = &mut out.metrics;
    put(m, "setup_s", median(&setup.total_s));
    put(m, "opt_wall_s", wall.as_secs_f64() / decks);
    put(m, "job_latency_p50_ms", quantile(&latency, 0.5));
    put(m, "job_latency_p90_ms", quantile(&latency, 0.9));
    put(m, "jobs_per_s", done as f64 / wall.as_secs_f64());
    put(m, "cells_after", cells as f64);
    put(m, "peak_rss_mb", peak);
    let _ = std::fs::remove_file(&setup.kb);
    setup.daemon.stop()
}

/// The traced run: one deck through the daemon on a single connection,
/// the same jobs in-process (the driver's share of each job's latency),
/// and a traced replay of every pool source on the warm knowledge file.
pub fn run_traced(
    seed: u64,
    size: Size,
    bin: &Path,
    dir: &Path,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let setup = setup(seed, size, bin, dir)?;
    let (jobs, _) = drive(&setup, seed, 0.0, 1, 1)?;
    let rejected = rejected(&setup.daemon.socket)?;
    if rejected > 0.0 {
        out.fail(format!("{rejected} submits rejected"));
    }
    check_jobs(&setup, &jobs, seed, out);
    let capacity = DriverOptions::default().knowledge_capacity;

    // the same jobs in-process: compile → optimize_design → emit, as
    // optimize_source does, on a freshly loaded knowledge file
    let t = Instant::now();
    let state = Arc::new(load_state(&setup.kb, &store_key(), capacity));
    let kb_load_s = t.elapsed().as_secs_f64();
    let opts = job_options(Arc::clone(&state));
    let (mut direct_ms, mut design_s, mut busy_s, mut emit_s) = (Vec::new(), 0.0, 0.0, 0.0);
    let mut reference: HashMap<String, (usize, usize)> = HashMap::new();
    for job in &jobs {
        let t = Instant::now();
        let case = &setup.pool.sources[job.source];
        let mut design = smartly_verilog::compile(&case.source).map_err(|e| e.to_string())?;
        let t_opt = Instant::now();
        let report = optimize_design(&mut design, &opts).map_err(|e| e.to_string())?;
        design_s += t_opt.elapsed().as_secs_f64();
        busy_s += report
            .modules
            .iter()
            .map(|m| m.wall.as_secs_f64())
            .sum::<f64>();
        let t_emit = Instant::now();
        std::hint::black_box(emit_design(&design));
        emit_s += t_emit.elapsed().as_secs_f64();
        let digest = report.digest();
        direct_ms.push(ms(t.elapsed()));
        if job.output.as_ref().is_some_and(|(d, _)| *d != digest) {
            out.fail(format!(
                "{}: served digest differs from in-process",
                case.name
            ));
        }
        for m in &report.modules {
            let area = m.report.as_ref().map_or(0, |p| p.area_after);
            reference.insert(format!("{}/{}", case.name, m.name), (area, m.cells_after));
        }
    }
    let disk_hits = state.kb_report().disk_hits;

    // traced replay of every pool module on another fresh load
    let warm = load_state(&setup.kb, &store_key(), capacity);
    let knowledge = Knowledge {
        bank: Some(warm.bank.clone() as Arc<dyn SharedCexBank>),
        verdicts: Some(warm.verdicts.clone() as Arc<dyn SharedVerdictStore>),
    };
    let mut names = Vec::new();
    let mut modules = Vec::new();
    for (case, design) in setup.pool.sources.iter().zip(&setup.originals) {
        for m in design.modules() {
            names.push(format!("{}/{}", case.name, m.name));
            modules.push(m.clone());
        }
    }
    let cells_in: usize = modules.iter().map(Module::live_cell_count).sum();
    let r =
        replay(modules, OptLevel::Full, false, &knowledge).map_err(|e| format!("replay: {e}"))?;
    for (name, got) in names.iter().zip(&r.results) {
        if reference.get(name) != Some(got) {
            out.fail(format!(
                "mirror guard: {name} replayed {got:?}, in-process {:?}",
                reference.get(name)
            ));
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let latency: Vec<f64> = jobs.iter().map(|j| ms(j.latency)).collect();
    let rtt: Vec<f64> = jobs.iter().map(|j| ms(j.submit_rtt)).collect();
    let m = &mut out.metrics;
    put(m, "workloads.generate_s", median(&setup.generate_s));
    put(m, "verilog.compile_s", median(&setup.compile_s));
    put(m, "verilog.emit_s", emit_s);
    put(m, "netlist.cells_in", cells_in as f64);
    put(m, "driver.design_s", design_s);
    put(
        m,
        "driver.pool_idle_pct",
        100.0 * (1.0 - ratio(busy_s, design_s)),
    );
    put(m, "driver.kb_load_s", kb_load_s);
    put(m, "driver.kb_disk_hits", disk_hits as f64);
    put(m, "driver.direct_job_ms", mean(&direct_ms));
    put(m, "server.overhead_ms", mean(&latency) - mean(&direct_ms));
    put(m, "server.submit_rtt_ms", mean(&rtt));
    put(m, "server.rejected", rejected);
    replay_layers(m, &r, busy_s);
    let _ = std::fs::remove_file(&setup.kb);
    setup.daemon.stop()?;
    Ok(r)
}
