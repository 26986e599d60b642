//! Corpus runner: drives the public workload suite through the engine at
//! every optimization level and produces a Table-III-style summary plus a
//! machine-readable benchmark artifact.

use crate::engine::{optimize_design, DriverOptions};
use crate::json::Json;
use crate::persist::{KbReport, KnowledgeState};
use crate::report::{funnel_counters, funnel_hist_json, Verbosity};
use crate::DriverError;
use smartly_core::sat_pass::SatPassStats;
use smartly_core::OptLevel;
use smartly_netlist::Design;
use smartly_telemetry::Trace;
use smartly_workloads::{public_corpus, Scale};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`run_public_corpus`].
#[derive(Clone, Debug)]
pub struct CorpusOptions {
    /// Corpus size (`tiny` for CI, `paper` for full runs, `medium` /
    /// `large` for the conflict-bearing scales).
    pub scale: Scale,
    /// Run only the first `n` circuits of the corpus (`None` = all 10).
    /// CI's Medium smoke uses this to bound wall time; the bound is
    /// stamped into the artifact (digest included) so a bounded digest
    /// never compares equal to a full one by accident.
    pub cases: Option<usize>,
    /// Worker threads (0 = one per CPU); circuits are optimized in
    /// parallel within each level.
    pub jobs: usize,
    /// Verify every optimized circuit against its original.
    pub verify: bool,
    /// Attach the design-level shared knowledge base (the circuits run
    /// as modules of one design per level, so cross-circuit cone shapes
    /// seed each other). On by default; off is the ablation baseline.
    pub share_knowledge: bool,
    /// Warm-start knowledge loaded from a file: one state shared by
    /// every level run and the knowledge bench, so the whole suite
    /// starts warm and accumulates into one store. `None` keeps the
    /// previous behavior (fresh in-process state per level run).
    pub knowledge_state: Option<Arc<KnowledgeState>>,
    /// Record span traces for every level run and both benches into
    /// [`CorpusReport::traces`] (one merged trace per run, named after
    /// it). Purely observational; the digest artifact is unaffected.
    pub trace: bool,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            scale: Scale::Tiny,
            cases: None,
            jobs: 0,
            verify: false,
            share_knowledge: true,
            knowledge_state: None,
            trace: false,
        }
    }
}

/// One circuit × level measurement.
#[derive(Clone, Debug)]
pub struct LevelResult {
    /// Which level ran.
    pub level: OptLevel,
    /// AIG area after optimization.
    pub area_after: usize,
    /// Wall time for this circuit at this level.
    pub wall: Duration,
    /// Verification verdict when enabled.
    pub equivalent: Option<bool>,
    /// SAT-pass query telemetry (the query-engine funnel's per-layer hit
    /// counts), summed over pipeline rounds.
    pub sat: SatPassStats,
}

/// Per-circuit results across all levels.
#[derive(Clone, Debug)]
pub struct CorpusRow {
    /// Circuit name (Table II/III row).
    pub name: String,
    /// AIG area before any optimization.
    pub area_original: usize,
    /// One entry per level, in [`OptLevel::ALL`] order.
    pub levels: Vec<LevelResult>,
}

impl CorpusRow {
    fn level(&self, level: OptLevel) -> Option<&LevelResult> {
        self.levels.iter().find(|l| l.level == level)
    }

    /// Reduction of `level` relative to the Yosys baseline result (the
    /// paper's Table III metric), when both are present.
    pub fn reduction_vs_baseline(&self, level: OptLevel) -> Option<f64> {
        let base = self.level(OptLevel::Baseline)?.area_after;
        let ours = self.level(level)?.area_after;
        if base == 0 {
            None
        } else {
            Some(1.0 - ours as f64 / base as f64)
        }
    }
}

/// Results of the multi-module knowledge-bench design (near-miss
/// parameter variants exercising the design-level shared bank; see
/// [`smartly_workloads::knowledge_probes`]).
#[derive(Clone, Debug)]
pub struct KnowledgeBench {
    /// Modules in the probe design.
    pub modules: usize,
    /// Whether the shared bank was attached for this run.
    pub shared: bool,
    /// Decide queries across all modules.
    pub queries: usize,
    /// Queries refuted by replaying sibling modules' vectors.
    pub by_shared_cex: usize,
    /// Models published to the bank.
    pub published: u64,
    /// Bank lookups that returned vectors.
    pub hits: u64,
    /// Total AIG area after optimization (scheduling-independent).
    pub area_after: usize,
    /// Wall time for the whole probe design.
    pub wall: Duration,
}

/// Results of the CDCL stress design (adder-commutativity miter selects
/// forcing real conflict-driven search; see
/// [`smartly_workloads::solver_stress`]). Timing artifact only — every
/// counter is solver-work attribution, which cache warm-state shifts.
#[derive(Clone, Debug)]
pub struct SolverBench {
    /// Cones (= queries that must reach the solver when cold).
    pub cones: usize,
    /// Decide queries across the stress design.
    pub queries: usize,
    /// Aggregated SAT-pass telemetry (solver counters live here).
    pub sat: SatPassStats,
    /// Total AIG area after optimization (scheduling-independent).
    pub area_after: usize,
    /// Wall time for the stress design.
    pub wall: Duration,
}

/// The whole suite's results.
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// Scale the suite ran at.
    pub scale: Scale,
    /// Circuit bound the run was truncated to, when one was set.
    pub cases: Option<usize>,
    /// Per-circuit rows, in corpus order.
    pub rows: Vec<CorpusRow>,
    /// The multi-module shared-bank exercise (timing artifact only; its
    /// attribution counters depend on worker scheduling).
    pub knowledge_bench: Option<KnowledgeBench>,
    /// The CDCL stress exercise (timing artifact only; CI asserts its
    /// `reduces`/`lbd_core` counters are non-zero on a cold run).
    pub solver_bench: Option<SolverBench>,
    /// Persistent knowledge-file counters, when the suite ran against a
    /// [`KnowledgeState`] (timing artifact only: every field depends on
    /// warm-start state and warm digests must match cold ones).
    pub kb: Option<KbReport>,
    /// Modules whose optimization panicked and was isolated, summed over
    /// every level run and both benches (timing artifact only: non-zero
    /// exclusively when a fail-point or a genuinely buggy pass fired).
    pub modules_poisoned: usize,
    /// Span traces collected when [`CorpusOptions::trace`] was on: one
    /// per level run (`corpus-<level>`) plus the two benches. Written to
    /// separate files by `smartly corpus --trace-dir`, never embedded in
    /// the JSON artifact.
    pub traces: Vec<Trace>,
}

/// Runs the public corpus at every [`OptLevel`] with the engine's
/// parallel pool (circuits are modules of one design per level).
///
/// # Errors
///
/// Returns [`DriverError`] when a generated circuit fails to compile
/// (a workloads bug) or a pipeline hits a netlist error.
pub fn run_public_corpus(opts: &CorpusOptions) -> Result<CorpusReport, DriverError> {
    let mut cases = public_corpus(opts.scale);
    if let Some(n) = opts.cases {
        cases.truncate(n);
    }
    let mut rows: Vec<CorpusRow> = cases
        .iter()
        .map(|c| CorpusRow {
            name: c.name.clone(),
            area_original: 0,
            levels: Vec::new(),
        })
        .collect();

    // Compile each circuit once; every level starts from a clone of the
    // pristine module (4x cheaper than re-running the frontend per level).
    let pristine: Vec<smartly_netlist::Module> = cases
        .iter()
        .map(|c| c.compile())
        .collect::<Result<_, _>>()?;

    let mut traces: Vec<Trace> = Vec::new();
    let mut modules_poisoned = 0usize;
    for level in OptLevel::ALL {
        let mut design = Design::from_modules(pristine.clone());
        let driver_opts = DriverOptions {
            level,
            jobs: opts.jobs,
            verify: opts.verify,
            share_knowledge: opts.share_knowledge,
            knowledge_state: opts.knowledge_state.clone(),
            trace: opts.trace,
            // circuits are all distinct; skip the hashing pass
            memoize: false,
            ..Default::default()
        };
        let mut report = optimize_design(&mut design, &driver_opts)?;
        modules_poisoned += report.poisoned();
        if let Some(mut t) = report.trace.take() {
            t.name = format!("corpus-{}", level.name());
            traces.push(t);
        }
        for (row, module) in rows.iter_mut().zip(&report.modules) {
            if let Some(r) = &module.report {
                row.area_original = r.area_before;
                row.levels.push(LevelResult {
                    level,
                    area_after: r.area_after,
                    wall: module.wall,
                    equivalent: module.verified_equivalent(),
                    sat: r.sat_stats,
                });
            }
        }
    }
    let (knowledge_bench, kb_trace, kb_poisoned) = run_knowledge_bench(opts)?;
    traces.extend(kb_trace);
    modules_poisoned += kb_poisoned;
    let (solver_bench, sb_trace, sb_poisoned) = run_solver_bench(opts)?;
    traces.extend(sb_trace);
    modules_poisoned += sb_poisoned;
    Ok(CorpusReport {
        scale: opts.scale,
        cases: opts.cases,
        rows,
        knowledge_bench: Some(knowledge_bench),
        solver_bench: Some(solver_bench),
        // sampled after every level + the benches: cumulative disk hits
        kb: opts.knowledge_state.as_ref().map(|s| s.kb_report()),
        modules_poisoned,
        traces,
    })
}

/// Runs the multi-module near-miss probe design once at `Full`: the
/// workload where cross-module counterexample sharing pays (each cone's
/// rare polarity needs a SAT witness the prefilter cannot find — unless
/// a sibling module already published it).
fn run_knowledge_bench(
    opts: &CorpusOptions,
) -> Result<(KnowledgeBench, Option<Trace>, usize), DriverError> {
    let modules = smartly_workloads::knowledge_probes(8, 4, 12);
    let n = modules.len();
    let mut design = Design::from_modules(modules);
    let driver_opts = DriverOptions {
        level: OptLevel::Full,
        jobs: opts.jobs,
        verify: opts.verify,
        share_knowledge: opts.share_knowledge,
        knowledge_state: opts.knowledge_state.clone(),
        trace: opts.trace,
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let mut report = optimize_design(&mut design, &driver_opts)?;
    let wall = started.elapsed();
    let trace = report.trace.take().map(|mut t| {
        t.name = "corpus-knowledge_bench".to_string();
        t
    });
    let (mut queries, mut by_shared_cex) = (0usize, 0usize);
    for m in &report.modules {
        if let Some(r) = &m.report {
            queries += r.sat_stats.queries;
            by_shared_cex += r.sat_stats.by_shared_cex;
        }
    }
    let (published, hits) = report
        .knowledge
        .as_ref()
        .map_or((0, 0), |k| (k.published, k.hits));
    Ok((
        KnowledgeBench {
            modules: n,
            shared: opts.share_knowledge,
            queries,
            by_shared_cex,
            published,
            hits,
            area_after: report.area_after(),
            wall,
        },
        trace,
        report.poisoned(),
    ))
}

/// Runs the CDCL stress design once at `SatOnly`: every cone's mux
/// select is an adder-commutativity miter whose UNSAT side needs real
/// conflict-driven search, so the solver's tier/reduction/GC/restart
/// machinery demonstrably fires on a corpus run (cold state; a warm
/// knowledge file answers these queries from disk instead).
fn run_solver_bench(
    opts: &CorpusOptions,
) -> Result<(SolverBench, Option<Trace>, usize), DriverError> {
    let cones = 4;
    let modules = smartly_workloads::solver_stress(cones, 10);
    let mut design = Design::from_modules(modules);
    let driver_opts = DriverOptions {
        level: OptLevel::SatOnly,
        jobs: opts.jobs,
        verify: opts.verify,
        share_knowledge: opts.share_knowledge,
        knowledge_state: opts.knowledge_state.clone(),
        trace: opts.trace,
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let mut report = optimize_design(&mut design, &driver_opts)?;
    let wall = started.elapsed();
    let trace = report.trace.take().map(|mut t| {
        t.name = "corpus-solver_bench".to_string();
        t
    });
    let mut sat = SatPassStats::default();
    for m in &report.modules {
        if let Some(r) = &m.report {
            sat.absorb(&r.sat_stats);
        }
    }
    Ok((
        SolverBench {
            cones,
            queries: sat.queries,
            sat,
            area_after: report.area_after(),
            wall,
        },
        trace,
        report.poisoned(),
    ))
}

impl CorpusReport {
    /// Machine-readable artifact (the `BENCH_driver.json` schema): per
    /// circuit, area before/after, wall time, and query-funnel telemetry
    /// for every level.
    pub fn to_json(&self) -> Json {
        self.json_inner(true)
    }

    /// Timing-free rendering of the artifact: a pure function of the
    /// corpus and options, byte-identical across runs, machines and
    /// `--jobs` settings — the determinism contract the CI bench-smoke
    /// step diffs.
    pub fn digest_json(&self) -> Json {
        self.json_inner(false)
    }

    fn json_inner(&self, include_timing: bool) -> Json {
        let mut obj = Json::object();
        obj.set("bench", Json::Str("smartly corpus".into()));
        obj.set("scale", Json::Str(self.scale.name().into()));
        if let Some(n) = self.cases {
            // a bounded run is a different benchmark: stamp the bound
            // into the digest so it never diffs clean against a full run
            obj.set("cases", Json::UInt(n as u64));
        }
        let circuits = self
            .rows
            .iter()
            .map(|row| {
                let mut c = Json::object();
                c.set("name", Json::Str(row.name.clone()));
                c.set("area_original", Json::UInt(row.area_original as u64));
                for lr in &row.levels {
                    let mut l = Json::object();
                    l.set("area_after", Json::UInt(lr.area_after as u64));
                    if include_timing {
                        l.set("wall_us", Json::UInt(lr.wall.as_micros() as u64));
                    }
                    if let Some(red) = row.reduction_vs_baseline(lr.level) {
                        l.set("reduction_vs_yosys", Json::Float(red));
                    }
                    if let Some(eq) = lr.equivalent {
                        l.set("equivalent", Json::Bool(eq));
                    }
                    if matches!(lr.level, OptLevel::SatOnly | OptLevel::Full) {
                        // cache-invariant counters stay in the digest;
                        // layer attribution (scheduling-sensitive once
                        // the shared bank is on, warm-state-sensitive
                        // once a knowledge file is loaded) and solver
                        // telemetry ride with the timings only
                        let mut q = Json::object();
                        q.set("queries", Json::UInt(lr.sat.queries as u64));
                        q.set("by_inference", Json::UInt(lr.sat.by_inference as u64));
                        if include_timing {
                            // cache-invariant, but left out of the digest
                            // so that digests stay comparable with earlier
                            // runs' digests
                            q.set("unreachable", Json::UInt(lr.sat.unreachable as u64));
                            // same registry as the module report: one
                            // registration point defines key names/order
                            for (name, value) in funnel_counters(&lr.sat).iter() {
                                q.set(name, Json::UInt(value));
                            }
                            q.set("funnel_hist", funnel_hist_json(&lr.sat.profile));
                            q.set("solver", crate::report::solver_json(&lr.sat));
                        }
                        l.set("query_funnel", q);
                    }
                    c.set(lr.level.name(), l);
                }
                c
            })
            .collect();
        obj.set("circuits", Json::Array(circuits));
        if include_timing {
            obj.set("modules_poisoned", Json::UInt(self.modules_poisoned as u64));
            if let Some(kb) = &self.knowledge_bench {
                let mut k = Json::object();
                k.set("modules", Json::UInt(kb.modules as u64));
                k.set("shared_bank", Json::Bool(kb.shared));
                k.set("queries", Json::UInt(kb.queries as u64));
                k.set("by_shared_cex", Json::UInt(kb.by_shared_cex as u64));
                k.set("published", Json::UInt(kb.published));
                k.set("hits", Json::UInt(kb.hits));
                k.set("area_after", Json::UInt(kb.area_after as u64));
                k.set("wall_us", Json::UInt(kb.wall.as_micros() as u64));
                obj.set("knowledge_bench", k);
            }
            if let Some(sb) = &self.solver_bench {
                let mut k = Json::object();
                k.set("cones", Json::UInt(sb.cones as u64));
                k.set("queries", Json::UInt(sb.queries as u64));
                k.set("by_sat", Json::UInt(sb.sat.by_sat as u64));
                k.set("solver", crate::report::solver_json(&sb.sat));
                k.set("area_after", Json::UInt(sb.area_after as u64));
                k.set("wall_us", Json::UInt(sb.wall.as_micros() as u64));
                obj.set("solver_bench", k);
            }
            if let Some(kb) = &self.kb {
                obj.set("kb", crate::report::kb_json(kb));
            }
        }
        obj
    }

    /// Suite-wide query-funnel totals over the SAT-enabled levels.
    pub fn funnel_totals(&self) -> SatPassStats {
        let mut total = SatPassStats::default();
        for row in &self.rows {
            for lr in &row.levels {
                if matches!(lr.level, OptLevel::SatOnly | OptLevel::Full) {
                    total.absorb(&lr.sat);
                }
            }
        }
        total
    }
}

impl CorpusReport {
    /// Table-III-style summary at an explicit verbosity: `Quiet` drops
    /// the per-circuit rows (the totals and bench lines remain), which
    /// is what CI logs want. `Display` delegates here with `Normal`.
    pub fn render_human(&self, verbosity: Verbosity) -> String {
        let mut out = String::new();
        self.render_into(&mut out, verbosity).expect("write");
        out
    }

    fn render_into(&self, f: &mut impl fmt::Write, verbosity: Verbosity) -> fmt::Result {
        if verbosity != Verbosity::Quiet {
            writeln!(
                f,
                "{:<16} {:>10} {:>10} {:>8} {:>8} {:>8}",
                "circuit", "original", "yosys", "sat%", "rebuild%", "full%"
            )?;
            for row in &self.rows {
                let yosys = row.level(OptLevel::Baseline).map_or(0, |l| l.area_after);
                let pct = |level| {
                    row.reduction_vs_baseline(level)
                        .map_or("-".to_string(), |r| format!("{:.2}", 100.0 * r))
                };
                writeln!(
                    f,
                    "{:<16} {:>10} {:>10} {:>8} {:>8} {:>8}",
                    row.name,
                    row.area_original,
                    yosys,
                    pct(OptLevel::SatOnly),
                    pct(OptLevel::RebuildOnly),
                    pct(OptLevel::Full),
                )?;
            }
        }
        let wall: Duration = self
            .rows
            .iter()
            .flat_map(|r| r.levels.iter().map(|l| l.wall))
            .sum();
        writeln!(
            f,
            "{} circuits x {} levels, {:.1} s total optimize time",
            self.rows.len(),
            OptLevel::ALL.len(),
            wall.as_secs_f64(),
        )?;
        let t = self.funnel_totals();
        writeln!(
            f,
            "query funnel (sat+full): {} queries = inference {} + memo {} + disk-verdict {} + shared-cex {} + prefilter {} + sim {} + sat-const {} + unreachable {} + other {}",
            t.queries,
            t.by_inference,
            t.by_memo,
            t.by_disk_verdict,
            t.by_shared_cex,
            t.by_prefilter,
            t.by_sim,
            t.by_sat,
            t.unreachable,
            // `other` is what simulation or SAT left undecided or
            // skipped; an unreachable verdict replayed from the memo or
            // disk counts under both its layer and `unreachable`
            t.queries.saturating_sub(
                t.by_inference
                    + t.by_memo
                    + t.by_disk_verdict
                    + t.by_shared_cex
                    + t.by_prefilter
                    + t.by_sim
                    + t.by_sat
                    + t.unreachable
            ),
        )?;
        write!(
            f,
            "memo carryover {}, replay {}, solver: {} conflicts / {} propagations / {} learnts / {} resets",
            t.memo_carryover,
            t.by_replay,
            t.solver_conflicts,
            t.solver_propagations,
            t.solver_learnts,
            t.solver_resets,
        )?;
        if let Some(sb) = &self.solver_bench {
            write!(
                f,
                "\nsolver bench ({} miter cones): {} queries, {}, {:.1} ms",
                sb.cones,
                sb.queries,
                sb.sat.solver_summary(),
                sb.wall.as_secs_f64() * 1e3,
            )?;
        }
        if let Some(kb) = &self.knowledge_bench {
            write!(
                f,
                "\nknowledge bench ({} near-miss modules, bank {}): {} queries, shared-cex {}, published {}, hits {}, {:.1} ms",
                kb.modules,
                if kb.shared { "on" } else { "off" },
                kb.queries,
                kb.by_shared_cex,
                kb.published,
                kb.hits,
                kb.wall.as_secs_f64() * 1e3,
            )?;
        }
        if let Some(k) = &self.kb {
            write!(
                f,
                "\nknowledge file: loaded {} shapes + {} verdicts, {} disk hits{}",
                k.loaded_shapes,
                k.loaded_verdicts,
                k.disk_hits,
                if k.stale_rejected || k.load_failed {
                    " (cold start: store rejected)"
                } else {
                    ""
                },
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for CorpusReport {
    /// Table-III-style summary: per-method reduction vs the Yosys
    /// baseline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render_into(f, Verbosity::Normal)
    }
}
