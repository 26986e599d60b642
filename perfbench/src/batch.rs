//! The batch workloads (`medium_full`, `sat_miters`, `tiny_verify`):
//! one design optimized through `optimize_design` at `jobs = 1` with a
//! cold in-process knowledge state, as `smartly corpus` runs it.

use crate::gate::{cosim, mutant};
use crate::inputs::{batch_sources, batch_spec, compile_all, Size, Workload};
use crate::metrics::{put, replay_layers};
use crate::replay::{replay, Knowledge};
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::{more_setup, Outcome};
use smartly_aig::{check_equiv, EquivOptions, EquivResult};
use smartly_core::{SharedCexBank, SharedVerdictStore};
use smartly_driver::{
    emit_design, optimize_design, DesignReport, DesignVerdictStore, DriverOptions, KnowledgeBase,
    ModuleOutcome,
};
use smartly_netlist::{Design, Module};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest optimize passes per run, however long each takes.
const MIN_PASSES: usize = 2;

/// The fastest of a run's samples of identical work. Every pass does the
/// same work (same counters, same netlists), so on a shared machine the
/// fastest pass is the one least disturbed by other load: across runs it
/// moves far less than the median.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

struct Setup {
    modules: Vec<Module>,
    generate_s: Vec<f64>,
    compile_s: Vec<f64>,
    total_s: Vec<f64>,
}

/// Generates and compiles the inputs repeatedly (see [`more_setup`];
/// the last copy is kept), so set-up time is a median, not one sample.
fn setup(w: Workload, seed: u64, size: Size) -> Result<Setup, String> {
    let mut s = Setup {
        modules: Vec::new(),
        generate_s: Vec::new(),
        compile_s: Vec::new(),
        total_s: Vec::new(),
    };
    while more_setup(s.total_s.len(), s.total_s.iter().sum()) {
        let t = Instant::now();
        let cases = batch_sources(w, seed, size);
        let generated = t.elapsed();
        s.modules = compile_all(&cases).map_err(|e| format!("compile: {e}"))?;
        let total = t.elapsed();
        s.generate_s.push(generated.as_secs_f64());
        s.compile_s.push((total - generated).as_secs_f64());
        s.total_s.push(total.as_secs_f64());
    }
    Ok(s)
}

fn driver_options(w: Workload) -> DriverOptions {
    let spec = batch_spec(w);
    DriverOptions {
        level: spec.level,
        jobs: 1,
        verify: spec.verify,
        // the circuits are all distinct; like `smartly corpus`
        memoize: false,
        ..DriverOptions::default()
    }
}

/// One `optimize_design` call over fresh copies of the inputs.
fn pass(
    modules: &[Module],
    opts: &DriverOptions,
) -> Result<(Design, DesignReport, Duration), String> {
    let mut design = Design::from_modules(modules.to_vec());
    let t = Instant::now();
    let report = optimize_design(&mut design, opts).map_err(|e| format!("optimize: {e}"))?;
    Ok((design, report, t.elapsed()))
}

/// Counts every module that did not come back optimized.
fn check_outcomes(report: &DesignReport, out: &mut Outcome) {
    for m in &report.modules {
        out.attempted += 1;
        if !matches!(m.outcome, ModuleOutcome::Optimized) {
            out.fail(format!("{}: {}", m.name, m.outcome.tag()));
        }
    }
}

/// The correctness gate: co-simulates every optimized module against its
/// original; on `tiny_verify` also checks every verdict and one seeded
/// mutant per circuit. Returns `(correct verdicts, verdicts checked)`.
fn gate(
    originals: &[Module],
    optimized: &[Module],
    verdicts: &[Option<EquivResult>],
    seed: u64,
    verify: bool,
    out: &mut Outcome,
) -> (usize, usize) {
    for (gold, gate) in originals.iter().zip(optimized) {
        if let Err(e) = cosim(gold, gate, seed) {
            out.fail(format!("co-simulation: {e}"));
        }
    }
    if !verify {
        return (0, 0);
    }
    let mut right = check_verdicts(optimized, verdicts, out);
    let mut checked = optimized.len();
    for m in optimized {
        let Some(bad) = mutant(m, seed) else { continue };
        checked += 1;
        match check_equiv(m, &bad, &EquivOptions::default()) {
            Ok(EquivResult::NotEquivalent { .. }) => right += 1,
            other => out.fail(format!(
                "{}: mutant verdict {other:?}, expected NotEquivalent",
                m.name
            )),
        }
    }
    (right, checked)
}

/// Counts verdicts equal to the known answer (every optimized circuit
/// is equivalent to its original); each other verdict is a failure.
fn check_verdicts(
    optimized: &[Module],
    verdicts: &[Option<EquivResult>],
    out: &mut Outcome,
) -> usize {
    let mut right = 0;
    for (m, v) in optimized.iter().zip(verdicts) {
        if *v == Some(EquivResult::Equivalent) {
            right += 1;
        } else {
            out.fail(format!("{}: verdict {v:?}, expected Equivalent", m.name));
        }
    }
    right
}

fn verdicts_of(report: &DesignReport) -> Vec<Option<EquivResult>> {
    report
        .modules
        .iter()
        .map(|m| m.report.as_ref().and_then(|r| r.equivalence.clone()))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = setup(w, seed, size)?;
    let opts = driver_options(w);
    let mut walls = Vec::new();
    // per circuit, its fastest pass
    let mut latency_ms = vec![f64::INFINITY; s.modules.len()];
    let mut reference: Option<Vec<usize>> = None;
    let mut verdicts = Vec::new();
    let mut last = None;
    let mut peak_mb = 0.0;
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (design, report, wall) = pass(&s.modules, &opts)?;
        if walls.is_empty() {
            // later passes only add allocator high-water noise
            peak_mb = peak_rss_mb("self");
        }
        walls.push(wall.as_secs_f64());
        check_outcomes(&report, out);
        for (best, m) in latency_ms.iter_mut().zip(&report.modules) {
            *best = best.min(1e3 * m.wall.as_secs_f64());
        }
        let cells: Vec<usize> = report.modules.iter().map(|m| m.cells_after).collect();
        match &reference {
            Some(r) if *r != cells => out.fail("cells_after differs between passes".into()),
            Some(_) => {}
            None => reference = Some(cells),
        }
        verdicts.push(verdicts_of(&report));
        last = Some(design);
    }
    let design = last.expect("at least one pass");
    let optimized = design.modules();
    let spec = batch_spec(w);
    // every pass's verdicts must hold; co-simulation and mutants run once
    let (final_verdicts, earlier) = verdicts.split_last().expect("at least one pass");
    if spec.verify {
        for v in earlier {
            check_verdicts(optimized, v, out);
        }
    }
    gate(
        &s.modules,
        optimized,
        final_verdicts,
        seed,
        spec.verify,
        out,
    );

    let m = &mut out.metrics;
    put(m, "setup_s", median(&s.total_s));
    put(m, "opt_wall_s", fastest(&walls));
    put(m, "job_latency_p50_ms", quantile(&latency_ms, 0.5));
    put(m, "job_latency_p90_ms", quantile(&latency_ms, 0.9));
    put(
        m,
        "jobs_per_s",
        ratio(s.modules.len() as f64, fastest(&walls)),
    );
    put(
        m,
        "cells_after",
        optimized.iter().map(|m| m.live_cell_count() as f64).sum(),
    );
    put(m, "peak_rss_mb", peak_mb);
    Ok(())
}

/// The traced run: one untraced reference pass, then the traced replay
/// of the same circuits; per-layer metrics.
pub fn run_traced(
    w: Workload,
    seed: u64,
    size: Size,
    out: &mut Outcome,
) -> Result<crate::replay::Replay, String> {
    let s = setup(w, seed, size)?;
    let spec = batch_spec(w);
    let opts = driver_options(w);
    let (design, report, wall) = pass(&s.modules, &opts)?;
    check_outcomes(&report, out);
    let t = Instant::now();
    black_box(emit_design(&design));
    let emit_s = t.elapsed().as_secs_f64();

    let knowledge = Knowledge {
        bank: Some(Arc::new(KnowledgeBase::new(opts.knowledge_capacity)) as Arc<dyn SharedCexBank>),
        verdicts: Some(Arc::new(DesignVerdictStore::new()) as Arc<dyn SharedVerdictStore>),
    };
    let r = replay(s.modules.clone(), spec.level, spec.verify, &knowledge)
        .map_err(|e| format!("replay: {e}"))?;

    // mirror guard: the replay must reproduce the untraced results
    for (i, m) in report.modules.iter().enumerate() {
        let area = m.report.as_ref().map_or(0, |p| p.area_after);
        if r.results[i] != (area, m.cells_after) {
            out.fail(format!(
                "mirror guard: {} replayed (area, cells) {:?}, untraced ({area}, {})",
                m.name, r.results[i], m.cells_after
            ));
        }
    }
    let mut verdicts = verdicts_of(&report);
    if spec.verify {
        for (i, v) in r.verdicts.iter().enumerate() {
            if *v != verdicts[i] {
                out.fail(format!(
                    "mirror guard: {} verdict differs",
                    report.modules[i].name
                ));
                verdicts[i] = None;
            }
        }
    }
    let (right, checked) = gate(
        &s.modules,
        design.modules(),
        &verdicts,
        seed,
        spec.verify,
        out,
    );

    let m = &mut out.metrics;
    put(m, "workloads.generate_s", median(&s.generate_s));
    put(m, "verilog.compile_s", median(&s.compile_s));
    put(m, "verilog.emit_s", emit_s);
    put(
        m,
        "netlist.cells_in",
        s.modules.iter().map(|m| m.live_cell_count() as f64).sum(),
    );
    let busy: f64 = report.modules.iter().map(|m| m.wall.as_secs_f64()).sum();
    put(m, "driver.design_s", wall.as_secs_f64());
    put(
        m,
        "driver.pool_idle_pct",
        100.0 * (1.0 - ratio(busy, wall.as_secs_f64())),
    );
    put(
        m,
        "bench.verify_correct_frac",
        ratio(right as f64, checked as f64),
    );
    replay_layers(m, &r, busy);
    Ok(r)
}
