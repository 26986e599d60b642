//! `smartly` — the end-to-end RTL optimization CLI.
//!
//! ```text
//! smartly opt <file.v> [--level yosys|sat|rebuild|full] [--jobs N]
//!             [--verify] [--json report.json] [-o out.v]
//!             [--max-cells N] [--timeout-ms N] [--no-memo]
//!             [--trace trace.json] [--digest digest.json] [--quiet|-v]
//! smartly stats <file.v>
//! smartly corpus [--scale tiny|small|paper|medium|large] [--jobs N]
//!                [--cases N] [--verify] [--json BENCH_driver.json]
//!                [--digest digest.json] [--trace-dir DIR] [--quiet]
//!                [--curve curve.json [--curve-scales a,b,c]]
//! smartly trace <trace.json>
//! smartly serve [--socket F] [--journal F] [--queue N] [--workers N]
//!               [--jobs N] [--timeout-ms N] [--drain-grace-ms N]
//!               [--knowledge-file F] [--no-knowledge-save]
//! ```

use smartly_driver::{
    chrome_trace_json, level_from_str, optimize_source, run_public_corpus, run_scaling_curve,
    CorpusOptions, CurveOptions, DriverOptions, KnowledgeState, StoreKey, TraceSummary, Verbosity,
};
use smartly_netlist::CellStats;
use smartly_workloads::Scale;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// `println!` that ignores a closed stdout (e.g. `smartly stats | head`)
/// instead of panicking on the broken pipe. The command keeps running so
/// `--json`/`-o` artifacts are still written and the exit code still
/// reflects verification, even when the reader hung up early.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// `print!` variant of [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}

const USAGE: &str = "smartly — SAT-based RTL optimization (smaRTLy reproduction)

USAGE:
  smartly opt <file.v> [OPTIONS]     parse, optimize all modules in
                                     parallel, and emit Verilog
  smartly stats <file.v>             per-module cell statistics
  smartly corpus [OPTIONS]           run the public workload suite and
                                     print a Table-III-style summary
  smartly trace <trace.json>         validate an exported span trace and
                                     print top self-time spans, per-track
                                     breakdown, and query-funnel
                                     attribution
  smartly serve [OPTIONS]            long-lived optimization daemon: a
                                     Unix socket speaking one JSON object
                                     per line (submit/status/result/
                                     health/drain), a crash-recoverable
                                     job journal, bounded admission, and
                                     graceful drain on SIGTERM

OPT OPTIONS:
  --level <yosys|sat|rebuild|full>   optimization level (default: full)
  --jobs <N>                         worker threads (default: all CPUs)
  --verify                           SAT-check each module against its
                                     original
  --json <path>                      write the machine-readable report
  -o, --output <path>                write optimized Verilog (default:
                                     stdout summary only)
  --max-cells <N>                    skip modules larger than N cells
  --timeout-ms <N>                   per-module budget: a cooperative
                                     deadline interrupts SAT search and
                                     the module reverts to its original
                                     netlist (reported as timed_out)
  --no-memo                          disable the structural memo cache
  --no-knowledge                     disable the design-level shared
                                     counterexample bank (ablation;
                                     verdicts and areas are identical)
  --knowledge-file <path>            load/save the persistent knowledge
                                     store (smartly.kb): repeated runs
                                     over evolving RTL start warm. A
                                     missing, stale, or corrupt file
                                     falls back to a cold start, never
                                     an error
  --no-knowledge-save                read the knowledge file but do not
                                     write it back
  --trace <path>                     record hierarchical spans (module,
                                     round, pass, query, SAT call) and
                                     write a Chrome trace-event JSON
                                     loadable in Perfetto. Observation
                                     only: the digest is byte-identical
                                     with or without it
  --digest <path>                    write the timing-free report digest
                                     (byte-identical across runs, --jobs
                                     settings, tracing on/off, and
                                     knowledge warm/cold state)
  --quiet, -q                        suppress per-module lines
  -v, --verbose                      add funnel/solver/knowledge counter
                                     lines to the summary

CORPUS OPTIONS:
  --scale <tiny|small|paper|medium|large>  corpus size (default: tiny);
                                     medium/large are the conflict-
                                     bearing scales
  --cases <N>                        run only the first N circuits (CI
                                     bound; stamped into the artifact)
  --curve <path>                     run the scaling-curve sweep instead:
                                     Full-level wall time + funnel
                                     attribution per (scale, jobs) point
                                     across a doubling jobs ladder, as a
                                     timing-only JSON artifact
  --curve-scales <a,b,c>             scales swept by --curve (default:
                                     tiny,small,paper,medium)
  --digest <path>                    write the timing-free artifact
                                     (byte-identical across runs,
                                     --jobs settings, and knowledge-file
                                     warm/cold state; CI diffs it)
  --trace-dir <dir>                  record spans and write one Chrome
                                     trace file per level run and bench
                                     into <dir>
  --quiet, -q                        suppress the per-circuit table
  --no-knowledge, --knowledge-file <path>, --no-knowledge-save  as above
  --jobs <N>, --verify, --json <path> as above

SERVE OPTIONS:
  --socket <path>                    Unix socket to listen on (default:
                                     smartly.sock)
  --journal <path>                   append-only job journal: accepted
                                     jobs are fsync'd before the client
                                     sees ok, so a SIGKILL loses no
                                     accepted work — restart replays the
                                     journal (completed jobs stay
                                     queryable, unfinished jobs re-run to
                                     the same digest). Omit to disable
                                     crash recovery
  --queue <N>                        bounded queue depth; beyond it
                                     submits get {\"rejected\":
                                     \"overloaded\"} (default: 64)
  --workers <N>                      concurrent jobs (default: 1; each
                                     job is internally parallel)
  --jobs <N>                         driver threads per job (default:
                                     all CPUs)
  --timeout-ms <N>                   default per-job budget applied when
                                     a submit carries none; the watchdog
                                     poisons jobs wedged past budget +
                                     grace instead of wedging a worker
  --drain-grace-ms <N>               how long drain waits for running
                                     jobs, twice: once to finish, once
                                     after tripping their deadlines
                                     (default: 2000)
  --knowledge-file <path>            resident persistent knowledge store
                                     shared by every job; written back
                                     crash-safely at drain
  --no-knowledge-save                read-only knowledge attach

FAULT INJECTION:
  SMARTLY_FAILPOINTS=\"site=action[@filter];...\"  arm deterministic
                                     fail points for chaos testing, e.g.
                                     persist.save.io=hit:1 or
                                     driver.module.panic=always@adder.
                                     Actions: always, hit:N, after:N,
                                     every:N, p:A/B:SEED. Server sites:
                                     server.accept, server.journal.*.
                                     Unset = zero overhead. See README
                                     \"Fault model\".
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("opt") => cmd_opt(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            out!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("smartly: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value of `--flag <value>` out of `args`, removing both.
fn take_value(args: &mut Vec<String>, names: &[&str]) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| names.contains(&a.as_str())) {
        if pos + 1 >= args.len() {
            return Err(format!("{} needs a value", args[pos]));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Removes `--flag` from `args`, reporting whether it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == name) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Pulls `--quiet`/`-q` and `-v`/`--verbose` out of `args`. When both
/// appear the louder one wins, matching what a user piling on flags
/// most plausibly wants.
fn take_verbosity(args: &mut Vec<String>) -> Verbosity {
    let quiet = take_flag(args, "--quiet") | take_flag(args, "-q");
    let verbose = take_flag(args, "-v") | take_flag(args, "--verbose");
    if verbose {
        Verbosity::Verbose
    } else if quiet {
        Verbosity::Quiet
    } else {
        Verbosity::Normal
    }
}

fn parse_number(value: &str, flag: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got '{value}'"))
}

fn positional(args: Vec<String>, what: &str) -> Result<String, String> {
    let mut it = args.into_iter();
    let first = it.next().ok_or_else(|| format!("missing {what}"))?;
    if first.starts_with('-') {
        return Err(format!("unexpected option '{first}'"));
    }
    if let Some(extra) = it.next() {
        return Err(format!("unexpected argument '{extra}'"));
    }
    Ok(first)
}

/// Loads the persistent knowledge store at `path`, printing a cold-start
/// warning when an existing file had to be rejected (stale header or
/// damage) — the run itself always proceeds.
fn load_knowledge(path: &str, budget: u64, bank_capacity: usize) -> Arc<KnowledgeState> {
    let key = StoreKey::current(budget);
    let state = smartly_driver::load_state(std::path::Path::new(path), &key, bank_capacity);
    if state.load.stale_rejected || state.load.load_failed {
        eprintln!(
            "smartly: warning: knowledge file {path} rejected ({}); starting cold",
            state.load.detail
        );
    }
    Arc::new(state)
}

/// What writing the knowledge store back accomplished: a failed save
/// degrades to a warning (`failed = true`) instead of failing the run —
/// the optimization results are already in hand and losing warm-start
/// state for the *next* run must not discard them.
struct KnowledgeSave {
    written: usize,
    retries: u64,
    failed: bool,
}

impl KnowledgeSave {
    /// Folds this save's outcome into the run report's kb counters.
    fn record(&self, kb: Option<&mut smartly_driver::KbReport>) {
        if let Some(kb) = kb {
            kb.entries_written = self.written;
            kb.save_retries = self.retries;
            kb.save_failed = self.failed;
        }
    }
}

/// Writes the (bounded) knowledge store back to `path`. Never errors:
/// persistence is an accelerator, so a save failure is reported on
/// stderr and in the kb counters while the run still exits 0.
fn save_knowledge(
    path: &str,
    state: &KnowledgeState,
    budget: u64,
    max_entries: usize,
) -> KnowledgeSave {
    let key = StoreKey::current(budget);
    match smartly_driver::save_state(std::path::Path::new(path), state, &key, max_entries) {
        Ok(report) => KnowledgeSave {
            written: report.entries_written(),
            retries: report.retries,
            failed: false,
        },
        Err(e) => {
            eprintln!(
                "smartly: warning: cannot write knowledge file {path}: {e}; \
                 this run's results are unaffected, the next run starts cold"
            );
            KnowledgeSave {
                written: 0,
                // a total failure exhausted every attempt
                retries: u64::from(smartly_driver::persist::SAVE_ATTEMPTS) - 1,
                failed: true,
            }
        }
    }
}

fn compile_file(path: &str) -> Result<smartly_netlist::Design, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    smartly_verilog::compile(&source).map_err(|e| format!("{path}: {e}"))
}

fn cmd_opt(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let mut opts = DriverOptions::default();
    if let Some(level) = take_value(&mut args, &["--level"])? {
        opts.level = level_from_str(&level)
            .ok_or_else(|| format!("unknown level '{level}' (yosys|sat|rebuild|full)"))?;
    }
    if let Some(jobs) = take_value(&mut args, &["--jobs", "-j"])? {
        opts.jobs = parse_number(&jobs, "--jobs")? as usize;
    }
    opts.verify = take_flag(&mut args, "--verify");
    opts.memoize = !take_flag(&mut args, "--no-memo");
    opts.share_knowledge = !take_flag(&mut args, "--no-knowledge");
    if let Some(n) = take_value(&mut args, &["--max-cells"])? {
        opts.max_cells = Some(parse_number(&n, "--max-cells")? as usize);
    }
    if let Some(ms) = take_value(&mut args, &["--timeout-ms"])? {
        opts.timeout = Some(Duration::from_millis(parse_number(&ms, "--timeout-ms")?));
    }
    let knowledge_file = take_value(&mut args, &["--knowledge-file"])?;
    let knowledge_save = !take_flag(&mut args, "--no-knowledge-save");
    let json_path = take_value(&mut args, &["--json"])?;
    let trace_path = take_value(&mut args, &["--trace"])?;
    opts.trace = trace_path.is_some();
    let digest_path = take_value(&mut args, &["--digest"])?;
    let verbosity = take_verbosity(&mut args);
    let out_path = take_value(&mut args, &["--output", "-o"])?;
    let input = positional(args, "input file")?;

    let budget = opts.pipeline.sat.conflict_budget;
    let store_bound = opts.pipeline.sat.cex_bank_capacity;
    if let Some(path) = &knowledge_file {
        if opts.share_knowledge {
            opts.knowledge_state = Some(load_knowledge(path, budget, opts.knowledge_capacity));
        } else {
            eprintln!("smartly: warning: --knowledge-file is ignored with --no-knowledge");
        }
    }

    // The same job seam `smartly serve` runs submissions through:
    // compile → optimize → emit → digest in one call, so the daemon and
    // the one-shot CLI cannot produce different artifacts for the same
    // input (the digest-parity gate both CI smoke steps `cmp`).
    let source =
        std::fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let job = optimize_source(&source, &opts).map_err(|e| format!("{input}: {e}"))?;
    let mut report = job.report;

    if let (Some(path), Some(state)) = (&knowledge_file, &opts.knowledge_state) {
        if knowledge_save {
            let save = save_knowledge(path, state, budget, store_bound);
            save.record(report.kb.as_mut());
            if !save.failed {
                outln!(
                    "knowledge store written to {path} ({} entries)",
                    save.written
                );
            }
        }
    }

    outln!("{}", report.render_human(verbosity));
    // Write the report before the verification verdict: on failure the
    // JSON is the artifact that says which module/output/bit differed.
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json().render_pretty(2))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("report written to {path}");
    }
    if let Some(path) = trace_path {
        let trace = report
            .trace
            .as_ref()
            .ok_or("internal error: tracing enabled but no trace collected")?;
        std::fs::write(&path, chrome_trace_json(trace).render_pretty(1))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!(
            "trace written to {path} ({} events; inspect with `smartly trace {path}`)",
            trace.event_count()
        );
    }
    if let Some(path) = digest_path {
        std::fs::write(&path, &job.digest).map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("digest written to {path}");
    }
    if opts.verify && report.all_equivalent() == Some(false) {
        return Err("verification FAILED for at least one module".to_string());
    }
    if let Some(path) = out_path {
        std::fs::write(&path, &job.verilog).map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("optimized Verilog written to {path}");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let input = positional(args.to_vec(), "input file")?;
    let design = compile_file(&input)?;
    for (i, is_top, module) in design.iter_with_top() {
        let marker = if is_top { " (top)" } else { "" };
        outln!("module {}{marker}:", module.name);
        out!("{}", CellStats::of(module));
        if i + 1 < design.len() {
            outln!();
        }
    }
    Ok(())
}

fn cmd_corpus(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let mut opts = CorpusOptions::default();
    if let Some(scale) = take_value(&mut args, &["--scale"])? {
        opts.scale = Scale::from_name(&scale)
            .ok_or_else(|| format!("unknown scale '{scale}' (tiny|small|paper|medium|large)"))?;
    }
    if let Some(jobs) = take_value(&mut args, &["--jobs", "-j"])? {
        opts.jobs = parse_number(&jobs, "--jobs")? as usize;
    }
    if let Some(cases) = take_value(&mut args, &["--cases"])? {
        opts.cases = Some(parse_number(&cases, "--cases")? as usize);
    }
    let curve_path = take_value(&mut args, &["--curve"])?;
    let curve_scales = take_value(&mut args, &["--curve-scales"])?;
    opts.verify = take_flag(&mut args, "--verify");
    opts.share_knowledge = !take_flag(&mut args, "--no-knowledge");
    let knowledge_file = take_value(&mut args, &["--knowledge-file"])?;
    let knowledge_save = !take_flag(&mut args, "--no-knowledge-save");
    let json_path = take_value(&mut args, &["--json"])?;
    let digest_path = take_value(&mut args, &["--digest"])?;
    let trace_dir = take_value(&mut args, &["--trace-dir"])?;
    opts.trace = trace_dir.is_some();
    let verbosity = take_verbosity(&mut args);
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument '{extra}'"));
    }

    // --curve switches to the scaling-curve sweep: wall time + funnel
    // attribution vs. design size at jobs 1→N. Timing-only by design,
    // so it cannot be combined with the digest gate.
    if let Some(path) = curve_path {
        if digest_path.is_some() {
            return Err("--curve is a timing-only artifact; drop --digest".into());
        }
        let mut curve_opts = CurveOptions {
            max_jobs: opts.jobs,
            cases: opts.cases,
            ..Default::default()
        };
        if let Some(list) = curve_scales {
            curve_opts.scales = list
                .split(',')
                .map(|s| {
                    Scale::from_name(s.trim()).ok_or_else(|| {
                        format!("unknown scale '{s}' (tiny|small|paper|medium|large)")
                    })
                })
                .collect::<Result<_, _>>()?;
        }
        let report = run_scaling_curve(&curve_opts).map_err(|e| e.to_string())?;
        outln!("{report}");
        std::fs::write(&path, report.to_json().render_pretty(2))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("curve artifact written to {path}");
        return Ok(());
    } else if curve_scales.is_some() {
        return Err("--curve-scales requires --curve <path>".into());
    }

    let driver_defaults = DriverOptions::default();
    let budget = driver_defaults.pipeline.sat.conflict_budget;
    let store_bound = driver_defaults.pipeline.sat.cex_bank_capacity;
    if let Some(path) = &knowledge_file {
        if opts.share_knowledge {
            opts.knowledge_state = Some(load_knowledge(
                path,
                budget,
                driver_defaults.knowledge_capacity,
            ));
        } else {
            eprintln!("smartly: warning: --knowledge-file is ignored with --no-knowledge");
        }
    }

    let mut report = run_public_corpus(&opts).map_err(|e| e.to_string())?;
    if let (Some(path), Some(state)) = (&knowledge_file, &opts.knowledge_state) {
        if knowledge_save {
            let save = save_knowledge(path, state, budget, store_bound);
            save.record(report.kb.as_mut());
            if !save.failed {
                outln!(
                    "knowledge store written to {path} ({} entries)",
                    save.written
                );
            }
        }
    }
    outln!("{}", report.render_human(verbosity));
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json().render_pretty(2))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("artifact written to {path}");
    }
    if let Some(path) = digest_path {
        std::fs::write(&path, report.digest_json().render_pretty(2))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("digest written to {path}");
    }
    if let Some(dir) = trace_dir {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for trace in &report.traces {
            let path = dir.join(format!("{}.json", trace.name));
            std::fs::write(&path, chrome_trace_json(trace).render_pretty(1))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        outln!(
            "{} trace files written to {}",
            report.traces.len(),
            dir.display()
        );
    }
    Ok(())
}

/// The daemon's execution seam: every submitted job runs through the
/// same [`optimize_source`] call as `smartly opt`, against one resident
/// [`KnowledgeState`] shared across jobs (warm starts for similar
/// designs; digest-safe by the PR 4 invariant that knowledge state
/// never perturbs digests).
struct DriverRunner {
    /// Driver threads per job (`DriverOptions::jobs`).
    jobs: usize,
    /// The resident knowledge state, saved crash-safely at drain.
    knowledge: Arc<KnowledgeState>,
}

impl smartly_server::JobRunner for DriverRunner {
    fn run(
        &self,
        spec: &smartly_server::JobSpec,
        deadline: &smartly_core::Deadline,
    ) -> smartly_server::RunOutcome {
        let Some(level) = level_from_str(&spec.level) else {
            return smartly_server::RunOutcome::Failed {
                error: format!("unknown level '{}' (yosys|sat|rebuild|full)", spec.level),
            };
        };
        let opts = DriverOptions {
            level,
            jobs: self.jobs,
            verify: spec.verify,
            knowledge_state: Some(Arc::clone(&self.knowledge)),
            // the server owns the job's budget (spec.timeout_ms is
            // already folded into this token) and trips it on drain
            external_deadline: Some(deadline.clone()),
            ..DriverOptions::default()
        };
        match optimize_source(&spec.source, &opts) {
            Ok(job) => smartly_server::RunOutcome::Done {
                modules_poisoned: job.report.poisoned() as u64,
                digest: job.digest,
                verilog: job.verilog,
            },
            Err(e) => smartly_server::RunOutcome::Failed {
                error: e.to_string(),
            },
        }
    }

    fn health(&self) -> Vec<(String, u64)> {
        let bank = self.knowledge.bank.stats();
        let verdicts = self.knowledge.verdicts.stats();
        [
            ("kb_shapes", bank.shapes as u64),
            ("kb_published", bank.published),
            ("kb_hits", bank.hits),
            ("kb_disk_hits", bank.disk_hits),
            ("kb_misses", bank.misses),
            ("kb_evictions", bank.evictions),
            ("verdict_disk_entries", verdicts.disk_entries as u64),
            ("verdict_disk_hits", verdicts.disk_hits),
            ("verdict_published", verdicts.published),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let socket =
        take_value(&mut args, &["--socket"])?.unwrap_or_else(|| "smartly.sock".to_string());
    let mut config = smartly_server::ServerConfig::new(&socket);
    config.handle_signals = true;
    config.journal = take_value(&mut args, &["--journal"])?.map(std::path::PathBuf::from);
    if let Some(n) = take_value(&mut args, &["--queue"])? {
        config.queue_capacity = (parse_number(&n, "--queue")? as usize).max(1);
    }
    if let Some(n) = take_value(&mut args, &["--workers"])? {
        config.workers = (parse_number(&n, "--workers")? as usize).max(1);
    }
    if let Some(ms) = take_value(&mut args, &["--timeout-ms"])? {
        config.default_timeout_ms = parse_number(&ms, "--timeout-ms")?;
    }
    if let Some(ms) = take_value(&mut args, &["--drain-grace-ms"])? {
        config.drain_grace = Duration::from_millis(parse_number(&ms, "--drain-grace-ms")?);
    }
    let jobs = match take_value(&mut args, &["--jobs", "-j"])? {
        Some(n) => parse_number(&n, "--jobs")? as usize,
        None => 0,
    };
    let knowledge_file = take_value(&mut args, &["--knowledge-file"])?;
    let knowledge_save = !take_flag(&mut args, "--no-knowledge-save");
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument '{extra}'"));
    }

    let defaults = DriverOptions::default();
    let budget = defaults.pipeline.sat.conflict_budget;
    let store_bound = defaults.pipeline.sat.cex_bank_capacity;
    let knowledge = match &knowledge_file {
        Some(path) => load_knowledge(path, budget, defaults.knowledge_capacity),
        None => Arc::new(KnowledgeState::cold(defaults.knowledge_capacity)),
    };

    let runner = Arc::new(DriverRunner {
        jobs,
        knowledge: Arc::clone(&knowledge),
    });
    let server = smartly_server::Server::bind(config, runner).map_err(|e| e.to_string())?;
    if !server.replayed_jobs().is_empty() {
        outln!(
            "smartly serve: journal replay re-queued {} unfinished job(s)",
            server.replayed_jobs().len()
        );
    }
    outln!("smartly serve: listening on {socket}");

    // run() returns only after the drain ladder: admissions stopped,
    // running jobs finished / deadline-tripped / force-poisoned
    let report = server.run();
    outln!(
        "smartly serve: drained — {} done, {} failed, {} poisoned, {} queued for next start{}",
        report.completed,
        report.failed,
        report.poisoned,
        report.queued_for_restart,
        if report.clean { "" } else { " (forced)" },
    );

    // final crash-safe knowledge save, after the last job finished
    if let (Some(path), true) = (&knowledge_file, knowledge_save) {
        let save = save_knowledge(path, &knowledge, budget, store_bound);
        if !save.failed {
            outln!(
                "knowledge store written to {path} ({} entries)",
                save.written
            );
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let input = positional(args.to_vec(), "trace file")?;
    let text = std::fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let summary = TraceSummary::from_text(&text).map_err(|e| format!("{input}: {e}"))?;
    out!("{summary}");
    Ok(())
}
