//! The smartly benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced replay, and an output
//! correctness gate on every run.
//!
//! ```text
//! smartly-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   --smartly-bin <path>
//! smartly-perfbench --self-test --smartly-bin <path>
//! ```
//!
//! Run from the repository root: outputs go to [`OUT_DIR`] and the
//! self-test reads `BENCHMARK.json`.
//!
//! `perfbench/run.py` builds this binary and the release `smartly`
//! binary, then runs it; see `perfbench/README.md`.

mod batch;
mod gate;
mod inputs;
mod metrics;
mod replay;
mod serve;
mod stats;

use inputs::{Size, Workload};
use metrics::{fill_absent_layers, put, END_TO_END, PER_LAYER};
use stats::{json_str, num, Metrics};
use std::path::{Path, PathBuf};

/// Spans, the serve daemon's socket and its knowledge file.
pub const OUT_DIR: &str = ".bench_out";

/// Fewest set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Whether to set up once more: at least [`SETUP_REPS`] times, and
/// until a second of set-up has been sampled (at most 200 times), so a
/// set-up of a few milliseconds still reports a steady median.
pub fn more_setup(reps: usize, spent_s: f64) -> bool {
    reps < SETUP_REPS || (spent_s < 1.0 && reps < 200)
}

/// What one run measured and how many of its outputs were wrong.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.attempted > 0
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    smartly_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
        smartly_bin: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => args.trace = number(&value)? != 0.0,
            "--smartly-bin" => args.smartly_bin = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !args.self_test && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    if !args.smartly_bin.is_file() {
        return Err(format!(
            "--smartly-bin {:?} is not a file (build the release `smartly` binary first)",
            args.smartly_bin
        ));
    }
    Ok(args)
}

/// One run of one workload: the untraced run gives the end-to-end
/// metrics, the traced run the per-layer ones (and writes its spans).
fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    bin: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    if !trace {
        match w {
            Workload::ServeWarm => serve::run(seed, seconds, size, bin, dir, &mut out)?,
            _ => batch::run(w, seed, seconds, size, &mut out)?,
        }
        return Ok(out);
    }
    let replay = match w {
        Workload::ServeWarm => serve::run_traced(seed, size, bin, dir, &mut out)?,
        _ => batch::run_traced(w, seed, size, &mut out)?,
    };
    let spans = dir.join(format!("spans-{}-seed{seed}.json", w.name()));
    std::fs::write(&spans, replay.rec.to_json(&replay.names).render())
        .map_err(|e| format!("cannot write {spans:?}: {e}"))?;
    put(
        &mut out.metrics,
        "bench.failed_frac",
        stats::ratio(out.failed as f64, out.attempted as f64),
    );
    fill_absent_layers(&mut out.metrics);
    Ok(out)
}

fn provenance(w: Workload, args: &Args) -> String {
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let bound = match w {
        Workload::ServeWarm => None,
        _ => inputs::batch_spec(w).cases_bound,
    };
    let cases = bound.map_or("all".to_string(), |n| n.to_string());
    format!(
        "# provenance {{\"commit\": {}, \"nproc\": {nproc}, \"jobs\": 1, \"seed\": {}, \
         \"workload\": {}, \"cases_bound\": {}, \"profile\": \"release\", \"trace\": {}, \
         \"seconds\": {}}}",
        json_str(&commit),
        args.seed,
        json_str(w.name()),
        json_str(&cases),
        args.trace,
        num(args.seconds),
    )
}

/// Checks that `metrics` carries exactly `expected`, each with its unit,
/// and, when `nonzero`, that every value is positive.
fn check_names(
    what: &str,
    metrics: &Metrics,
    expected: &[(&str, &str)],
    nonzero: bool,
) -> Vec<String> {
    let mut errors = Vec::new();
    let got: Vec<(&str, &str)> = metrics.iter().map(|(n, _, u)| (n, u)).collect();
    for want in expected {
        if !got.contains(want) {
            errors.push(format!("{what}: missing {} [{}]", want.0, want.1));
        }
    }
    for g in &got {
        if !expected.contains(g) {
            errors.push(format!("{what}: unexpected {} [{}]", g.0, g.1));
        }
    }
    if nonzero {
        for (n, v, _) in metrics.iter() {
            if v <= 0.0 {
                errors.push(format!("{what}: {n} = {v}, must be positive"));
            }
        }
    }
    errors
}

fn declared(json: &smartly_driver::json::Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Toy-size run of every workload, traced and untraced: every metric is
/// emitted with its unit, end-to-end values are positive, outputs are
/// correct, and a deliberately broken netlist trips the gate.
fn self_test(args: &Args) -> Vec<String> {
    let mut errors = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| smartly_driver::json::Json::parse(&t))
    {
        Ok(json) => {
            for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
                let want: Vec<(String, String)> = catalogue
                    .iter()
                    .map(|(n, u)| (n.to_string(), u.to_string()))
                    .collect();
                if declared(&json, key) != want {
                    errors.push(format!("BENCHMARK.json {key} differs from the catalogue"));
                }
            }
            let names: Vec<String> = declared(&json, "workloads")
                .into_iter()
                .map(|w| w.0)
                .collect();
            let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
            if names != ours {
                errors.push(format!(
                    "BENCHMARK.json workloads {names:?}, expected {ours:?}"
                ));
            }
        }
        Err(e) => errors.push(format!("BENCHMARK.json: {e}")),
    }
    for w in Workload::ALL {
        for trace in [false, true] {
            let what = format!("{}/trace={}", w.name(), u8::from(trace));
            eprintln!("self-test: {what}");
            match run(w, 7, 0.2, trace, Size::Toy, &args.smartly_bin) {
                Ok(out) => {
                    let expected = if trace { PER_LAYER } else { END_TO_END };
                    errors.extend(check_names(&what, &out.metrics, expected, !trace));
                    if !out.correct() {
                        errors.push(format!("{what}: incorrect: {:?}", out.errors));
                    }
                }
                Err(e) => errors.push(format!("{what}: {e}")),
            }
        }
    }
    // a deliberately broken netlist must trip the correctness gate
    let case = &smartly_workloads::public_corpus(smartly_workloads::Scale::Tiny)[0];
    match case.compile() {
        Ok(original) => match gate::mutant(&original, 7) {
            Some(broken) if gate::cosim(&original, &broken, 7).is_err() => {}
            _ => errors.push("a broken netlist passed the correctness gate".into()),
        },
        Err(e) => errors.push(format!("compile: {e}")),
    }
    errors
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smartly-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        let errors = self_test(&args);
        for e in &errors {
            eprintln!("self-test FAILED: {e}");
        }
        if errors.is_empty() {
            println!("self-test passed: {} workloads", Workload::ALL.len());
        }
        std::process::exit(i32::from(!errors.is_empty()));
    }
    let w = args.workload.expect("checked in parse_args");
    match run(
        w,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
        &args.smartly_bin,
    ) {
        Ok(out) => {
            for e in &out.errors {
                eprintln!("smartly-perfbench: WRONG OUTPUT: {e}");
            }
            println!("{}", provenance(w, &args));
            println!("{}", out.to_json());
            std::process::exit(i32::from(!out.correct()));
        }
        Err(e) => {
            eprintln!("smartly-perfbench: {e}");
            std::process::exit(2);
        }
    }
}
