//! Deterministic design-level reports aggregating per-module
//! [`PipelineReport`]s.
//!
//! Two renderings share one schema: the full JSON (timing included) and
//! the timing-free *digest*. The digest carries only fields that are a
//! pure function of the input design — areas, rewrites, verdicts, and
//! the query counters that no cache can shift (`queries`,
//! `by_inference`, `unreachable`, the pruning gate counts). Funnel-layer
//! *attribution* (which cache layer answered a query) and raw solver
//! telemetry are excluded, for two reasons:
//!
//! * with the design-level shared bank enabled, a query can be refuted
//!   by a sibling module's vectors in one scheduling and by its own
//!   SAT call in another — same verdict, different attribution — so
//!   attribution is not `--jobs`-deterministic;
//! * with a persistent knowledge file, a warm run answers from disk
//!   queries a cold run paid sim/SAT for — same verdict, different
//!   attribution again — and the CI warm-start gate pins warm digests
//!   *byte-identical to the cold digest*, so even scheduling-
//!   independent attribution (`by_memo`, `by_sim`, `by_sat`,
//!   `by_disk_verdict`) must ride with the wall times in the full JSON
//!   only.

use crate::json::Json;
use crate::knowledge::KnowledgeStats;
use crate::persist::KbReport;
use smartly_aig::EquivResult;
use smartly_core::sat_pass::SatPassStats;
use smartly_core::{FunnelProfile, Layer, OptLevel, PipelineReport};
use smartly_netlist::Module;
use smartly_telemetry::{Counters, Histogram, Trace};
use std::fmt;
use std::time::Duration;

/// How much of the per-module detail the human rendering prints.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Verbosity {
    /// Totals only — per-module lines suppressed (`--quiet`).
    Quiet,
    /// Header, one line per module, totals (the default `Display`).
    #[default]
    Normal,
    /// `Normal` plus funnel/solver/knowledge counter lines (`-v`).
    Verbose,
}

/// How the driver handled one module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModuleOutcome {
    /// The pipeline ran on this module.
    Optimized,
    /// Structurally identical to an earlier module; its optimized netlist
    /// and report were cloned instead of re-running the pipeline.
    MemoHit {
        /// Name of the representative module that was actually optimized.
        of: String,
    },
    /// Exceeded [`crate::DriverOptions::max_cells`]; passed through
    /// untouched.
    SkippedTooLarge {
        /// The configured cell limit.
        limit: usize,
    },
    /// Optimization finished but blew the
    /// [`crate::DriverOptions::timeout`] budget; the original netlist was
    /// restored.
    TimedOut {
        /// The configured budget.
        budget: Duration,
    },
    /// The pipeline panicked on this module. The panic was caught at the
    /// module boundary, the original netlist was restored, and the rest
    /// of the design kept optimizing — a bad pass costs one module, not
    /// the process.
    Poisoned {
        /// The panic payload message.
        message: String,
        /// Backtrace captured at the panic site (timing JSON only —
        /// never part of the digest).
        backtrace: String,
    },
    /// No report was produced (worker error); passed through untouched.
    Untouched,
}

impl ModuleOutcome {
    /// Stable lowercase tag for machine-readable output.
    pub fn tag(&self) -> &'static str {
        match self {
            ModuleOutcome::Optimized => "optimized",
            ModuleOutcome::MemoHit { .. } => "memo_hit",
            ModuleOutcome::SkippedTooLarge { .. } => "skipped_too_large",
            ModuleOutcome::TimedOut { .. } => "timed_out",
            ModuleOutcome::Poisoned { .. } => "poisoned",
            ModuleOutcome::Untouched => "untouched",
        }
    }
}

/// One module's slice of a [`DesignReport`].
#[derive(Clone, Debug)]
pub struct ModuleReport {
    /// Module name.
    pub name: String,
    /// Live cells before the driver touched the module.
    pub cells_before: usize,
    /// Live cells afterwards.
    pub cells_after: usize,
    /// What happened.
    pub outcome: ModuleOutcome,
    /// The pipeline's own report (present for `Optimized` and `MemoHit`).
    pub report: Option<PipelineReport>,
    /// Wall time spent on this module (zero for memo hits and skips).
    /// Excluded from [`DesignReport::digest`].
    pub wall: Duration,
}

impl ModuleReport {
    /// A passthrough entry for a module the driver did not change.
    pub fn untouched(module: &Module) -> Self {
        let cells = module.live_cell_count();
        ModuleReport {
            name: module.name.clone(),
            cells_before: cells,
            cells_after: cells,
            outcome: ModuleOutcome::Untouched,
            report: None,
            wall: Duration::ZERO,
        }
    }

    /// Clones this (representative) report for a structurally identical
    /// module named `name`. Only an actually *optimized* representative
    /// yields a `MemoHit`; a skipped, timed-out or untouched one
    /// replicates its own outcome so report consumers see the real
    /// reason nothing ran.
    pub fn as_memo_hit(&self, name: String, of: String) -> Self {
        let outcome = match &self.outcome {
            ModuleOutcome::Optimized | ModuleOutcome::MemoHit { .. } => {
                ModuleOutcome::MemoHit { of }
            }
            other => other.clone(),
        };
        ModuleReport {
            name,
            cells_before: self.cells_before,
            cells_after: self.cells_after,
            outcome,
            report: self.report.clone(),
            wall: Duration::ZERO,
        }
    }

    /// `Some(true)` when this module was verified equivalent, `Some(false)`
    /// when verification refuted or gave up, `None` when it never ran.
    pub fn verified_equivalent(&self) -> Option<bool> {
        self.report
            .as_ref()
            .and_then(|r| r.equivalence.as_ref())
            .map(|e| *e == EquivResult::Equivalent)
    }

    fn to_json(&self, include_timing: bool) -> Json {
        let mut obj = Json::object();
        obj.set("name", Json::Str(self.name.clone()));
        obj.set("outcome", Json::Str(self.outcome.tag().to_string()));
        match &self.outcome {
            ModuleOutcome::MemoHit { of } => {
                obj.set("memo_of", Json::Str(of.clone()));
            }
            ModuleOutcome::SkippedTooLarge { limit } => {
                obj.set("cell_limit", Json::UInt(*limit as u64));
            }
            ModuleOutcome::TimedOut { budget } => {
                obj.set("budget_ms", Json::UInt(budget.as_millis() as u64));
            }
            ModuleOutcome::Poisoned { message, backtrace } => {
                // The message is deterministic (it only ever appears when
                // a fail-point or a genuinely buggy pass fired) and rides
                // in the digest so chaos tests can pin it; the backtrace
                // carries addresses and stays timing-only.
                obj.set("panic", Json::Str(message.clone()));
                if include_timing {
                    obj.set("panic_backtrace", Json::Str(backtrace.clone()));
                }
            }
            _ => {}
        }
        obj.set("cells_before", Json::UInt(self.cells_before as u64));
        obj.set("cells_after", Json::UInt(self.cells_after as u64));
        if let Some(r) = &self.report {
            obj.set("area_before", Json::UInt(r.area_before as u64));
            obj.set("area_after", Json::UInt(r.area_after as u64));
            obj.set("reduction", Json::Float(r.reduction()));
            obj.set("baseline_rewrites", Json::UInt(r.baseline_rewrites as u64));
            obj.set("sat_rewrites", Json::UInt(r.sat_rewrites as u64));
            // cache-invariant counters: pure functions of the input no
            // matter which layer answers, safe for the digest the CI
            // warm-start gate pins against a cold run
            let mut sat = Json::object();
            sat.set("queries", Json::UInt(r.sat_stats.queries as u64));
            sat.set("by_inference", Json::UInt(r.sat_stats.by_inference as u64));
            sat.set("unreachable", Json::UInt(r.sat_stats.unreachable as u64));
            sat.set(
                "gates_before_prune",
                Json::UInt(r.sat_stats.gates_before_prune as u64),
            );
            sat.set(
                "gates_after_prune",
                Json::UInt(r.sat_stats.gates_after_prune as u64),
            );
            if include_timing {
                // layer attribution shifts with scheduling once the
                // shared bank is on, and with warm-start state once a
                // knowledge file is loaded; solver counters likewise
                sat.set("funnel", counters_json(&funnel_counters(&r.sat_stats)));
                sat.set("funnel_hist", funnel_hist_json(&r.sat_stats.profile));
                sat.set("solver", solver_json(&r.sat_stats));
            }
            obj.set("sat_stats", sat);
            let mut rb = Json::object();
            rb.set("candidates", Json::UInt(r.rebuild_stats.candidates as u64));
            rb.set("rebuilt", Json::UInt(r.rebuild_stats.rebuilt as u64));
            rb.set(
                "muxes_removed",
                Json::UInt(r.rebuild_stats.muxes_removed as u64),
            );
            rb.set(
                "muxes_added",
                Json::UInt(r.rebuild_stats.muxes_added as u64),
            );
            rb.set("eqs_freed", Json::UInt(r.rebuild_stats.eqs_freed as u64));
            obj.set("rebuild_stats", rb);
            obj.set("cells_cleaned", Json::UInt(r.cells_cleaned as u64));
            obj.set(
                "equivalence",
                match &r.equivalence {
                    None => Json::Null,
                    Some(EquivResult::Equivalent) => Json::Str("equivalent".into()),
                    Some(EquivResult::NotEquivalent { output, bit, .. }) => {
                        let mut o = Json::object();
                        o.set("verdict", Json::Str("not_equivalent".into()));
                        o.set("output", Json::Str(output.clone()));
                        o.set("bit", Json::UInt(*bit as u64));
                        o
                    }
                    Some(EquivResult::Unknown { output, bit }) => {
                        let mut o = Json::object();
                        o.set("verdict", Json::Str("unknown".into()));
                        o.set("output", Json::Str(output.clone()));
                        o.set("bit", Json::UInt(*bit as u64));
                        o
                    }
                },
            );
        }
        if include_timing {
            obj.set("wall_us", Json::UInt(self.wall.as_micros() as u64));
        }
        obj
    }
}

/// The driver's aggregate result over a whole [`smartly_netlist::Design`],
/// in stable module order.
#[derive(Clone, Debug)]
pub struct DesignReport {
    /// Level the run used.
    pub level: OptLevel,
    /// Worker threads the pool actually ran with.
    pub jobs: usize,
    /// Per-module entries, in the design's module order.
    pub modules: Vec<ModuleReport>,
    /// Total wall time for the whole design (excluded from
    /// [`DesignReport::digest`]).
    pub wall: Duration,
    /// Telemetry of the design-level shared knowledge base, when one was
    /// attached (excluded from [`DesignReport::digest`]: fill order and
    /// hit attribution depend on worker scheduling).
    pub knowledge: Option<KnowledgeStats>,
    /// Persistent knowledge-file counters, when the run was attached to
    /// a [`crate::persist::KnowledgeState`] (excluded from the digest:
    /// every field depends on warm-start state, and warm digests must
    /// match cold ones byte-for-byte). `entries_written` stays 0 until
    /// the caller saves the store and records the result.
    pub kb: Option<KbReport>,
    /// Merged span trace, present when the run enabled
    /// [`crate::DriverOptions::trace`]. A separate artifact: it is
    /// exported via [`crate::trace::chrome_trace_json`], never embedded
    /// in the report JSON, and never part of [`DesignReport::digest`].
    pub trace: Option<Trace>,
}

impl DesignReport {
    /// Builds the aggregate from per-module entries.
    pub fn aggregate(
        level: OptLevel,
        jobs: usize,
        modules: Vec<ModuleReport>,
        wall: Duration,
    ) -> Self {
        DesignReport {
            level,
            jobs,
            modules,
            wall,
            knowledge: None,
            kb: None,
            trace: None,
        }
    }

    /// Sum of AIG areas before optimization (modules with reports only).
    pub fn area_before(&self) -> usize {
        self.modules
            .iter()
            .filter_map(|m| m.report.as_ref())
            .map(|r| r.area_before)
            .sum()
    }

    /// Sum of AIG areas after optimization.
    pub fn area_after(&self) -> usize {
        self.modules
            .iter()
            .filter_map(|m| m.report.as_ref())
            .map(|r| r.area_after)
            .sum()
    }

    /// Fractional area reduction over the whole design.
    pub fn reduction(&self) -> f64 {
        let before = self.area_before();
        if before == 0 {
            0.0
        } else {
            1.0 - self.area_after() as f64 / before as f64
        }
    }

    /// Number of memo-cache hits.
    pub fn memo_hits(&self) -> usize {
        self.modules
            .iter()
            .filter(|m| matches!(m.outcome, ModuleOutcome::MemoHit { .. }))
            .count()
    }

    /// Number of modules whose optimization panicked and was isolated.
    pub fn poisoned(&self) -> usize {
        self.modules
            .iter()
            .filter(|m| matches!(m.outcome, ModuleOutcome::Poisoned { .. }))
            .count()
    }

    /// `Some(true)` when every verified module proved equivalent,
    /// `Some(false)` if any refuted/unknown, `None` when verification
    /// never ran.
    pub fn all_equivalent(&self) -> Option<bool> {
        let verdicts: Vec<bool> = self
            .modules
            .iter()
            .filter_map(ModuleReport::verified_equivalent)
            .collect();
        if verdicts.is_empty() {
            None
        } else {
            Some(verdicts.into_iter().all(|v| v))
        }
    }

    /// Sum of per-module SAT-pass stats over actually optimized modules
    /// (memo hits share their representative's report and would
    /// double-count).
    pub fn sat_totals(&self) -> SatPassStats {
        let mut total = SatPassStats::default();
        for m in &self.modules {
            if matches!(m.outcome, ModuleOutcome::Optimized) {
                if let Some(r) = &m.report {
                    total.absorb(&r.sat_stats);
                }
            }
        }
        total
    }

    /// Full machine-readable report, including wall times.
    pub fn to_json(&self) -> Json {
        self.json_inner(true)
    }

    /// A canonical, timing-free rendering: two runs over the same design
    /// at the same options produce byte-identical digests regardless of
    /// `jobs` (the determinism contract the integration tests pin down).
    pub fn digest(&self) -> String {
        self.json_inner(false).render()
    }

    fn json_inner(&self, include_timing: bool) -> Json {
        let mut obj = Json::object();
        obj.set("level", Json::Str(self.level.name().to_string()));
        obj.set(
            "modules",
            Json::Array(
                self.modules
                    .iter()
                    .map(|m| m.to_json(include_timing))
                    .collect(),
            ),
        );
        obj.set("area_before", Json::UInt(self.area_before() as u64));
        obj.set("area_after", Json::UInt(self.area_after() as u64));
        obj.set("reduction", Json::Float(self.reduction()));
        obj.set("memo_hits", Json::UInt(self.memo_hits() as u64));
        obj.set(
            "all_equivalent",
            match self.all_equivalent() {
                None => Json::Null,
                Some(v) => Json::Bool(v),
            },
        );
        if include_timing {
            obj.set("jobs", Json::UInt(self.jobs as u64));
            obj.set("wall_us", Json::UInt(self.wall.as_micros() as u64));
            obj.set("modules_poisoned", Json::UInt(self.poisoned() as u64));
            if let Some(k) = &self.knowledge {
                let mut kb = Json::object();
                kb.set("shapes", Json::UInt(k.shapes as u64));
                kb.set("published", Json::UInt(k.published));
                kb.set("hits", Json::UInt(k.hits));
                kb.set("disk_hits", Json::UInt(k.disk_hits));
                kb.set("misses", Json::UInt(k.misses));
                kb.set("evictions", Json::UInt(k.evictions));
                obj.set("knowledge", kb);
            }
            if let Some(k) = &self.kb {
                obj.set("kb", kb_json(k));
            }
        }
        obj
    }
}

/// The query-funnel attribution counters as one insertion-ordered
/// registry: a single registration point defines both the key names and
/// the key order, and every renderer (module timing JSON, corpus
/// `query_funnel` block, verbose human output) iterates the same
/// registry instead of hand-threading field lists.
pub(crate) fn funnel_counters(s: &SatPassStats) -> Counters {
    let mut c = Counters::new();
    c.add("by_memo", s.by_memo as u64)
        .add("memo_carryover", s.memo_carryover as u64)
        .add("by_replay", s.by_replay as u64)
        .add("by_disk_verdict", s.by_disk_verdict as u64)
        .add("verdicts_published", s.verdicts_published as u64)
        .add("by_shared_cex", s.by_shared_cex as u64)
        .add("by_prefilter", s.by_prefilter as u64)
        .add("prefilter_rounds", s.prefilter_rounds as u64)
        .add("by_sim", s.by_sim as u64)
        .add("by_sat", s.by_sat as u64);
    c
}

/// The CDCL solver's counters as a registry.
pub(crate) fn solver_counters(s: &SatPassStats) -> Counters {
    let mut c = Counters::new();
    c.add("conflicts", s.solver_conflicts)
        .add("propagations", s.solver_propagations)
        .add("learnts", s.solver_learnts)
        .add("lbd_core", s.solver_lbd_core)
        .add("reduces", s.solver_reduces)
        .add("arena_gcs", s.solver_arena_gcs)
        .add("restarts", s.solver_restarts)
        .add("deadline_checks", s.solver_deadline_checks);
    c
}

/// Renders a counter registry as a JSON object in registration order.
pub(crate) fn counters_json(c: &Counters) -> Json {
    let mut obj = Json::object();
    for (name, value) in c.iter() {
        obj.set(name, Json::UInt(value));
    }
    obj
}

/// Renders one log2-bucketed histogram: total count/sum plus the
/// non-empty buckets as `[bucket_floor, count]` pairs. Empty histograms
/// render with an empty bucket list so the key set stays stable.
pub(crate) fn hist_json(h: &Histogram) -> Json {
    let mut obj = Json::object();
    obj.set("count", Json::UInt(h.count()));
    obj.set("sum", Json::UInt(h.sum()));
    obj.set(
        "buckets",
        Json::Array(
            h.nonzero_buckets()
                .into_iter()
                .map(|(floor, count)| Json::Array(vec![Json::UInt(floor), Json::UInt(count)]))
                .collect(),
        ),
    );
    obj
}

/// Renders the always-on latency profile: one latency histogram per
/// funnel layer (every key present, empty or not, so the timing schema
/// is stable) plus the per-SAT-call work histograms.
pub(crate) fn funnel_hist_json(p: &FunnelProfile) -> Json {
    let mut layers = Json::object();
    for layer in Layer::ALL {
        layers.set(layer.name(), hist_json(&p.latency_by_layer[layer.index()]));
    }
    let mut sat_call = Json::object();
    sat_call.set("us", hist_json(&p.sat_call_us));
    sat_call.set("propagations", hist_json(&p.sat_call_propagations));
    sat_call.set("conflicts", hist_json(&p.sat_call_conflicts));
    let mut obj = Json::object();
    obj.set("latency_us", layers);
    obj.set("sat_call", sat_call);
    obj
}

/// Renders the CDCL solver counter block (timing JSON only: the solver's
/// work profile shifts with whatever the cache layers absorb, even
/// though its conclusive verdicts never do).
pub(crate) fn solver_json(s: &SatPassStats) -> Json {
    let mut solver = counters_json(&solver_counters(s));
    solver.set("resets", Json::UInt(s.solver_resets as u64));
    solver
}

/// Renders the persistent-knowledge counter block (timing JSON only).
pub(crate) fn kb_json(k: &KbReport) -> Json {
    let mut kb = Json::object();
    kb.set(
        "kb_loaded",
        Json::UInt((k.loaded_shapes + k.loaded_verdicts) as u64),
    );
    kb.set("kb_loaded_shapes", Json::UInt(k.loaded_shapes as u64));
    kb.set("kb_loaded_verdicts", Json::UInt(k.loaded_verdicts as u64));
    kb.set("kb_disk_hits", Json::UInt(k.disk_hits));
    kb.set("kb_stale_rejected", Json::Bool(k.stale_rejected));
    kb.set("kb_load_failed", Json::Bool(k.load_failed));
    kb.set("kb_load_detail", Json::Str(k.detail.clone()));
    kb.set("kb_entries_written", Json::UInt(k.entries_written as u64));
    kb.set("kb_save_failed", Json::Bool(k.save_failed));
    kb.set("kb_save_retries", Json::UInt(k.save_retries));
    kb
}

impl DesignReport {
    /// Human rendering at an explicit verbosity. `Display` delegates
    /// here with [`Verbosity::Normal`]; `--quiet` drops the per-module
    /// lines and `-v` appends funnel/solver/knowledge counter lines.
    pub fn render_human(&self, verbosity: Verbosity) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "design: {} modules, level {}, {} jobs, {:.1} ms",
            self.modules.len(),
            self.level.name(),
            self.jobs,
            self.wall.as_secs_f64() * 1e3,
        )
        .expect("write");
        if verbosity != Verbosity::Quiet {
            for m in &self.modules {
                let verdict = match m.verified_equivalent() {
                    Some(true) => " [equiv]",
                    Some(false) => " [NOT EQUIV]",
                    None => "",
                };
                match (&m.outcome, &m.report) {
                    (ModuleOutcome::Poisoned { message, .. }, _) => writeln!(
                        out,
                        "  {:<24} poisoned: {message} (netlist restored)",
                        m.name
                    ),
                    (ModuleOutcome::MemoHit { of }, Some(r)) => writeln!(
                        out,
                        "  {:<24} memo({of}): area {} -> {}{verdict}",
                        m.name, r.area_before, r.area_after
                    ),
                    (_, Some(r)) => writeln!(
                        out,
                        "  {:<24} area {} -> {} ({:.2}%){verdict} in {:.1} ms",
                        m.name,
                        r.area_before,
                        r.area_after,
                        100.0 * r.reduction(),
                        m.wall.as_secs_f64() * 1e3,
                    ),
                    (outcome, None) => writeln!(out, "  {:<24} {}", m.name, outcome.tag()),
                }
                .expect("write");
            }
        }
        if verbosity == Verbosity::Verbose {
            let totals = self.sat_totals();
            write!(out, "funnel:").expect("write");
            for (name, value) in funnel_counters(&totals).iter() {
                write!(out, " {name}={value}").expect("write");
            }
            writeln!(out).expect("write");
            write!(out, "solver:").expect("write");
            for (name, value) in solver_counters(&totals).iter() {
                write!(out, " {name}={value}").expect("write");
            }
            writeln!(out).expect("write");
            if let Some(k) = &self.knowledge {
                writeln!(
                    out,
                    "knowledge: shapes={} published={} hits={} disk_hits={} misses={} evictions={}",
                    k.shapes, k.published, k.hits, k.disk_hits, k.misses, k.evictions
                )
                .expect("write");
            }
            if let Some(k) = &self.kb {
                writeln!(out, "{}", kb_human_line(k)).expect("write");
            }
        }
        write!(
            out,
            "total AIG area {} -> {} ({:.2}% reduction), {} memo hits",
            self.area_before(),
            self.area_after(),
            100.0 * self.reduction(),
            self.memo_hits(),
        )
        .expect("write");
        // fault visibility in the default human output, not just the
        // timing JSON: a run that isolated panics must say so even
        // under --quiet, where the per-module "poisoned:" lines are
        // suppressed
        let poisoned = self.poisoned();
        if poisoned > 0 {
            write!(out, ", {poisoned} poisoned").expect("write");
        }
        out
    }
}

/// One-line human rendering of the persistent-knowledge counters, for
/// `smartly opt -v`.
pub(crate) fn kb_human_line(k: &KbReport) -> String {
    format!(
        "kb: loaded={}+{} disk_hits={} entries_written={} stale_rejected={} load_failed={} \
         save_failed={} save_retries={}{}",
        k.loaded_shapes,
        k.loaded_verdicts,
        k.disk_hits,
        k.entries_written,
        k.stale_rejected,
        k.load_failed,
        k.save_failed,
        k.save_retries,
        if k.detail.is_empty() {
            String::new()
        } else {
            format!(" ({})", k.detail)
        }
    )
}

impl fmt::Display for DesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_human(Verbosity::Normal))
    }
}
