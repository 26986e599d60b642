//! SAT-based redundancy elimination (paper §II).
//!
//! The sweep runs the Yosys baseline's own mux-tree walk
//! ([`smartly_opt::walk_muxtrees`]): the same tree membership, visit
//! order, path conditions and data-port rewrites. It differs only in the
//! resolver. When a select is *not* textually decided by an ancestor, it
//! asks the full machinery — sub-graph extraction, Theorem II.1 pruning,
//! Table I inference, then the [`QueryEngine`] funnel (or exhaustive
//! simulation or SAT per query) — whether the path condition forces its
//! value. Decided selects are pinned to constants;
//! [`smartly_opt::clean_pipeline`] then collapses the dead branches.

use crate::decide::{decide, DecideOptions, Decision, Engine};
use crate::inference::{propagate, InferOutcome};
use crate::query_engine::{
    FunnelProfile, Layer, QueryEngine, QueryEngineOptions, SharedCexBank, SharedVerdictStore,
    VerdictMemo,
};
use crate::subgraph::{extract_cached, ConeCache, SubgraphStats};
use smartly_netlist::{CellId, Module, NetIndex};
use smartly_opt::{apply_pins, walk_muxtrees};
use smartly_sat::Deadline;
use std::collections::HashMap;
use std::sync::Arc;

/// Sub-graph distance bound `k` (paper §II).
const K: usize = 6;

/// Hard cap on decide queries per sweep (safety valve).
const MAX_QUERIES: usize = 100_000;

/// Skip queries whose extracted sub-graph exceeds this many cells — the
/// paper's guard against the pass "becoming a bottleneck in the overall
/// circuit synthesis workflow".
const MAX_SUBGRAPH_CELLS: usize = 3_000;

/// Configuration for [`sat_redundancy`].
#[derive(Copy, Clone, Debug)]
pub struct SatRedundancyOptions {
    /// Free-leaf count at or below which exhaustive simulation decides.
    pub sim_threshold: usize,
    /// SAT conflict budget per query.
    pub conflict_budget: u64,
    /// Apply Theorem II.1 sub-graph pruning (ablation switch).
    pub prune: bool,
    /// Apply Table I inference rules before sim/SAT (ablation switch).
    pub inference: bool,
    /// Measure the raw distance-`k` gather for the pruning statistics
    /// (paper's ~80% claim); costs extra graph walks, off by default.
    pub measure_gather: bool,
    /// Route queries through the stateful [`QueryEngine`] funnel
    /// (verdict memo, random prefilter, shared incremental solver)
    /// instead of a fresh solver per query.
    /// Verdicts are identical for every query the conflict budget does
    /// not cut short; a budget-limited `Unknown` can land on either
    /// side of the limit depending on the solver's accumulated state,
    /// and only ever degrades to a missed rewrite, never a wrong one.
    /// `false` is the ablation baseline.
    pub incremental: bool,
    /// Random-simulation prefilter passes per query (engine mode only;
    /// 0 disables the prefilter).
    pub prefilter_rounds: usize,
    /// Entries per section a knowledge-file save keeps (hottest shapes
    /// and freshest verdicts first). The sweep itself never reads it.
    pub cex_bank_capacity: usize,
}

impl Default for SatRedundancyOptions {
    fn default() -> Self {
        let decide = DecideOptions::default();
        SatRedundancyOptions {
            sim_threshold: decide.sim_threshold,
            conflict_budget: decide.conflict_budget,
            prune: true,
            inference: true,
            measure_gather: false,
            incremental: true,
            prefilter_rounds: QueryEngineOptions::default().prefilter_rounds,
            cex_bank_capacity: 4_096,
        }
    }
}

/// State a [`sat_redundancy_with`] sweep inherits from earlier sweeps of
/// the *same module*: the verdict memo (cross-round carryover) plus the
/// optional design-level shared counterexample bank and verdict store.
///
/// [`crate::Pipeline`] keeps one context per module across its rounds and
/// calls [`SweepContext::begin_round`] before each sweep, so carryover
/// accounting starts a new round. The memo needs no invalidation between
/// rounds: its keys are canonical, so a cone that a rebuild, clean or
/// pinning pass changed keys differently and simply misses.
#[derive(Clone, Debug, Default)]
pub struct SweepContext {
    /// The persistent cone-verdict memo.
    pub memo: VerdictMemo,
    /// The design-level shared bank, if the caller participates in one.
    pub shared: Option<Arc<dyn SharedCexBank>>,
    /// The design-level verdict store, if the caller participates in one
    /// (serves disk-loaded entries, accumulates this run's conclusive
    /// verdicts for saving).
    pub verdicts: Option<Arc<dyn SharedVerdictStore>>,
    /// Span recorder handed to each sweep's query engine (disabled by
    /// default). `Rc`-based, so a context carrying a live recorder is
    /// deliberately not `Send` — one worker owns one module's sweeps.
    pub trace: smartly_telemetry::TraceHandle,
    /// Cooperative cancellation token handed to each sweep's query
    /// engine (and through it the CDCL solver). [`Deadline::none`] — the
    /// default — costs nothing.
    pub deadline: Deadline,
}

impl SweepContext {
    /// A context with no carried state, sharing the given design-level
    /// counterexample bank and verdict store (either may be `None`).
    pub fn new(
        shared: Option<Arc<dyn SharedCexBank>>,
        verdicts: Option<Arc<dyn SharedVerdictStore>>,
    ) -> Self {
        SweepContext {
            memo: VerdictMemo::new(),
            shared,
            verdicts,
            trace: smartly_telemetry::TraceHandle::disabled(),
            deadline: Deadline::none(),
        }
    }

    /// Prepares the context for the next sweep: advances the memo's
    /// round counter, so hits on entries decided before this call count
    /// as [`SatPassStats::memo_carryover`]. The module is not read; the
    /// parameter stays for existing callers.
    pub fn begin_round(&mut self, _module: &Module) {
        self.memo.next_round();
    }
}

/// Telemetry from one [`sat_redundancy`] sweep.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SatPassStats {
    /// Select/data bits pinned to constants.
    pub rewrites: usize,
    /// Decide queries issued.
    pub queries: usize,
    /// Queries answered by the Table I inference rules alone.
    pub by_inference: usize,
    /// Queries answered by exhaustive simulation.
    pub by_sim: usize,
    /// Queries answered by SAT.
    pub by_sat: usize,
    /// Queries answered by the engine's cone-verdict memo (isomorphic
    /// structure seen before; any verdict).
    pub by_memo: usize,
    /// Memo answers from entries carried over from an earlier pipeline
    /// round (a subset of `by_memo`).
    pub memo_carryover: usize,
    /// Queries answered by a disk-loaded entry of the design-level
    /// verdict store (engine mode with a warm-started store attached).
    pub by_disk_verdict: usize,
    /// Conclusive verdicts this sweep published to the design-level
    /// verdict store.
    pub verdicts_published: usize,
    /// Queries refuted by replaying the design-level shared bank's
    /// vectors (engine mode with a shared bank attached).
    pub by_shared_cex: usize,
    /// Queries refuted by the random-simulation prefilter (engine mode
    /// only).
    pub by_prefilter: usize,
    /// Random-simulation rounds the prefilter ran.
    pub prefilter_rounds: usize,
    /// Branches proven unreachable.
    pub unreachable: usize,
    /// Gates gathered into sub-graphs before pruning (paper ~80% claim).
    pub gates_before_prune: usize,
    /// Gates kept after pruning.
    pub gates_after_prune: usize,
    /// Incremental-solver resets triggered by the variable-count
    /// backstop.
    pub solver_resets: usize,
    /// CDCL conflicts across the sweep's solver(s).
    pub solver_conflicts: u64,
    /// CDCL propagations across the sweep's solver(s).
    pub solver_propagations: u64,
    /// Learnt clauses retained (summed across resets — a growth
    /// indicator, not a live gauge).
    pub solver_learnts: u64,
    /// Learnt clauses that entered the solver's core tier (LBD ≤ 2 or
    /// binary — kept forever).
    pub solver_lbd_core: u64,
    /// Learnt-database reductions the solver performed.
    pub solver_reduces: u64,
    /// Compacting clause-arena garbage collections.
    pub solver_arena_gcs: u64,
    /// Restarts forced by the solver's EMA controller.
    pub solver_restarts: u64,
    /// Cooperative-deadline polls inside the solver's search loop
    /// (`checks × interval` bounds the conflicts a solve ran past its
    /// deadline — the interruption latency).
    pub solver_deadline_checks: u64,
    /// Per-layer latency and per-SAT-call work distributions (timing
    /// JSON only — never digest material).
    pub profile: FunnelProfile,
}

impl SatPassStats {
    /// One-line human-readable summary of the CDCL solver counters — the
    /// single source for the pipeline report and the corpus solver bench,
    /// so a new counter is threaded through one format string instead of
    /// two.
    pub fn solver_summary(&self) -> String {
        format!(
            "{} conflicts, {} propagations, {} learnts ({} core), {} reduces, {} arena-gcs, {} restarts, {} resets",
            self.solver_conflicts,
            self.solver_propagations,
            self.solver_learnts,
            self.solver_lbd_core,
            self.solver_reduces,
            self.solver_arena_gcs,
            self.solver_restarts,
            self.solver_resets,
        )
    }

    fn absorb_subgraph(&mut self, s: SubgraphStats) {
        self.gates_before_prune += s.gates_before_prune;
        self.gates_after_prune += s.gates_after_prune;
    }

    /// Adds another sweep's counters onto this one.
    pub fn absorb(&mut self, o: &SatPassStats) {
        self.rewrites += o.rewrites;
        self.queries += o.queries;
        self.by_inference += o.by_inference;
        self.by_sim += o.by_sim;
        self.by_sat += o.by_sat;
        self.by_memo += o.by_memo;
        self.memo_carryover += o.memo_carryover;
        self.by_disk_verdict += o.by_disk_verdict;
        self.verdicts_published += o.verdicts_published;
        self.by_shared_cex += o.by_shared_cex;
        self.by_prefilter += o.by_prefilter;
        self.prefilter_rounds += o.prefilter_rounds;
        self.unreachable += o.unreachable;
        self.gates_before_prune += o.gates_before_prune;
        self.gates_after_prune += o.gates_after_prune;
        self.solver_resets += o.solver_resets;
        self.solver_conflicts += o.solver_conflicts;
        self.solver_propagations += o.solver_propagations;
        self.solver_learnts += o.solver_learnts;
        self.solver_lbd_core += o.solver_lbd_core;
        self.solver_reduces += o.solver_reduces;
        self.solver_arena_gcs += o.solver_arena_gcs;
        self.solver_restarts += o.solver_restarts;
        self.solver_deadline_checks += o.solver_deadline_checks;
        self.profile.absorb(&o.profile);
    }
}

/// One sweep of SAT-based redundancy elimination; returns telemetry.
///
/// Run [`smartly_opt::clean_pipeline`] afterwards (or use
/// [`crate::Pipeline`]) to realize the collapses, and iterate until
/// `rewrites` is 0. The sweep runs on throwaway state; use
/// [`sat_redundancy_with`] to carry verdict memos across sweeps or
/// participate in a design-level shared bank.
pub fn sat_redundancy(module: &mut Module, options: &SatRedundancyOptions) -> SatPassStats {
    let mut ctx = SweepContext::new(None, None);
    sat_redundancy_with(module, options, &mut ctx)
}

/// [`sat_redundancy`] with a persistent [`SweepContext`]: the engine is
/// seeded with the context's verdict memo and shared bank, and the memo
/// (grown by this sweep) is handed back through the context.
///
/// Call [`SweepContext::begin_round`] between sweeps so that
/// `memo_carryover` counts the hits on entries from earlier sweeps.
pub fn sat_redundancy_with(
    module: &mut Module,
    options: &SatRedundancyOptions,
    ctx: &mut SweepContext,
) -> SatPassStats {
    let index = NetIndex::build(module);
    let topo = match module.topo_order_with(&index) {
        Ok(t) => t,
        Err(_) => return SatPassStats::default(),
    };
    let ranks: HashMap<CellId, usize> = topo.into_iter().enumerate().map(|(i, c)| (c, i)).collect();

    let mut stats = SatPassStats::default();
    let mut cone_cache = ConeCache::new();
    let decide_opts = DecideOptions {
        sim_threshold: options.sim_threshold,
        conflict_budget: options.conflict_budget,
        ..DecideOptions::default()
    };
    // the stateful query funnel (one per sweep; the netlist is immutable
    // until the pins are applied at the end), seeded from the context's
    // carried memo and shared bank
    let mut engine = options.incremental.then(|| {
        let mut eng = QueryEngine::with_state(
            module,
            &index,
            QueryEngineOptions {
                decide: decide_opts,
                prefilter_rounds: options.prefilter_rounds,
            },
            std::mem::take(&mut ctx.memo),
            ctx.shared.clone(),
            ctx.verdicts.clone(),
        );
        eng.set_trace(ctx.trace.clone());
        eng.set_deadline(ctx.deadline.clone());
        eng
    });

    // decide a select bit the path condition leaves open: extraction,
    // Table I inference, then the funnel (or a fresh decide per query)
    let pins = walk_muxtrees(module, &index, |sel, known| {
        if stats.queries >= MAX_QUERIES {
            return None;
        }
        stats.queries += 1;
        let (sub, sg_stats) = extract_cached(
            module,
            &index,
            &ranks,
            sel,
            known,
            K,
            options.prune,
            options.measure_gather,
            &mut cone_cache,
        );
        stats.absorb_subgraph(sg_stats);
        if sub.cells.len() > MAX_SUBGRAPH_CELLS {
            return None; // too large: forgo the query (paper threshold)
        }
        let mut assign = known.clone();
        if options.inference {
            match propagate(module, &index, &sub, &mut assign) {
                InferOutcome::Contradiction => {
                    stats.unreachable += 1;
                    return Some(false); // unreachable path: any value is sound
                }
                InferOutcome::Fixpoint { .. } => {}
            }
            if let Some(&v) = assign.get(&sel) {
                stats.by_inference += 1;
                return Some(v);
            }
        }
        let (d, engine_used) = match &mut engine {
            Some(e) => {
                let (d, layer) = e.decide(&sub, &assign);
                let used = match layer {
                    Layer::Simulation => Engine::Simulation,
                    Layer::Sat => Engine::Sat,
                    _ => Engine::None,
                };
                (d, used)
            }
            None => decide(module, &index, &sub, &assign, &decide_opts),
        };
        match d {
            Decision::Const(v) => {
                match engine_used {
                    Engine::Simulation => stats.by_sim += 1,
                    Engine::Sat => stats.by_sat += 1,
                    Engine::None => {}
                }
                Some(v)
            }
            Decision::Unreachable => {
                stats.unreachable += 1;
                Some(false)
            }
            Decision::Unknown | Decision::Skipped => None,
        }
    });
    stats.rewrites = pins.len();

    // fold the engine's telemetry into the sweep stats (each funnel layer
    // is counted once, by the engine) and hand the memo back to the
    // context, releasing the netlist borrow before mutation
    if let Some(eng) = engine {
        let es = eng.stats();
        stats.by_memo = es.by_memo;
        stats.memo_carryover = es.memo_carryover;
        stats.by_disk_verdict = es.by_disk_verdict;
        stats.by_shared_cex = es.by_shared_cex;
        stats.by_prefilter = es.by_prefilter;
        stats.verdicts_published = es.verdicts_published;
        stats.prefilter_rounds = es.prefilter_rounds;
        stats.solver_resets = es.solver_resets;
        stats.solver_conflicts = es.solver.conflicts;
        stats.solver_propagations = es.solver.propagations;
        stats.solver_learnts = es.solver.learnt_clauses;
        stats.solver_lbd_core = es.solver.lbd_core;
        stats.solver_reduces = es.solver.reduces;
        stats.solver_arena_gcs = es.solver.arena_gcs;
        stats.solver_restarts = es.solver.restarts;
        stats.solver_deadline_checks = es.solver.deadline_checks;
        stats.profile = es.profile;
        ctx.memo = eng.into_memo();
    }
    apply_pins(module, &pins);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::SigSpec;
    use smartly_opt::clean_pipeline;

    fn fig3() -> Module {
        let mut m = Module::new("fig3");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        let inner = m.mux(&b, &a, &sr); // (s|r) ? a : b
        let outer = m.mux(&c, &inner, &s); // s ? inner : c
        m.add_output("y", &outer);
        m
    }

    /// Paper Fig. 3: Y = S ? ((S|R) ? A : B) : C ⇒ Y = S ? A : C.
    #[test]
    fn fig3_or_dependent_collapses() {
        let mut m = fig3();
        let stats = sat_redundancy(&mut m, &SatRedundancyOptions::default());
        assert!(stats.rewrites >= 1);
        assert_eq!(stats.by_inference, 1, "Table I should decide this one");
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("mux"), 1);
        assert_eq!(m.stats().count("or"), 0, "the OR gate is dead too");
        m.validate().unwrap();
    }

    /// Same circuit with inference disabled: sim/SAT must still decide.
    #[test]
    fn fig3_without_inference_uses_sim_or_sat() {
        for sim_threshold in [10, 0] {
            let mut m = fig3();
            let opts = SatRedundancyOptions {
                inference: false,
                sim_threshold,
                ..Default::default()
            };
            let stats = sat_redundancy(&mut m, &opts);
            assert!(stats.by_sim + stats.by_sat >= 1);
            clean_pipeline(&mut m);
            assert_eq!(m.stats().count("mux"), 1);
        }
    }

    /// AND-dependent control: S ? (S&T ? A : B) : C — S&T is NOT decided
    /// by S alone (T free), so nothing may collapse.
    #[test]
    fn independent_control_is_kept() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        let t = m.add_input("t", 1);
        let st = m.and(&s, &t);
        let inner = m.mux(&b, &a, &st);
        let outer = m.mux(&c, &inner, &s);
        m.add_output("y", &outer);
        let stats = sat_redundancy(&mut m, &SatRedundancyOptions::default());
        let _ = stats;
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("mux"), 2, "no unsound collapse");
    }

    /// The NOT-dependent case: S ? (!S ? A : B) : C ⇒ S ? B : C.
    #[test]
    fn negated_control_collapses() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        let ns = m.not(&s);
        let inner = m.mux(&b, &a, &ns); // !s ? a : b
        let outer = m.mux(&c, &inner, &s); // s ? inner : c
        m.add_output("y", &outer);
        let stats = sat_redundancy(&mut m, &SatRedundancyOptions::default());
        assert!(stats.rewrites >= 1);
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("mux"), 1);
    }

    /// Deeper dependency through two gates: S ? (((S|R)&T ... kept; and
    /// ((S|R)|T) ? A : B collapses.
    #[test]
    fn two_level_dependency() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 2);
        let b = m.add_input("b", 2);
        let c = m.add_input("c", 2);
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let t = m.add_input("t", 1);
        let sr = m.or(&s, &r);
        let srt = m.or(&sr, &t);
        let inner = m.mux(&b, &a, &srt);
        let outer = m.mux(&c, &inner, &s);
        m.add_output("y", &outer);
        let stats = sat_redundancy(&mut m, &SatRedundancyOptions::default());
        assert!(stats.rewrites >= 1);
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("mux"), 1);
    }

    /// Identical-signal case (Fig. 1) is also caught (subsumes baseline).
    #[test]
    fn subsumes_baseline_identical_signal() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        let inner = m.mux(&b, &a, &s);
        let outer = m.mux(&c, &inner, &s);
        m.add_output("y", &outer);
        let stats = sat_redundancy(&mut m, &SatRedundancyOptions::default());
        assert!(stats.rewrites >= 1);
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("mux"), 1);
    }

    /// Pruning statistics are recorded.
    #[test]
    fn prune_stats_accumulate() {
        let mut m = fig3();
        let stats = sat_redundancy(&mut m, &SatRedundancyOptions::default());
        assert!(stats.gates_after_prune <= stats.gates_before_prune);
        assert!(stats.queries >= 1);
    }

    /// eq-driven selects: casez-style chain where an earlier arm's
    /// condition makes a later arm's condition impossible.
    #[test]
    fn eq_conditions_over_same_bus() {
        let mut m = Module::new("t");
        let sel = m.add_input("sel", 2);
        let p: Vec<SigSpec> = (0..3).map(|i| m.add_input(&format!("p{i}"), 4)).collect();
        let e0 = m.eq(&sel, &SigSpec::const_u64(0, 2));
        // e1 duplicates e0; y = e0 ? p0 : (e1 ? p1 : p2), so under e0=0
        // the e1 branch is dead — the pass must see through it.
        let e1 = m.eq(&sel, &SigSpec::const_u64(0, 2));
        let inner = m.mux(&p[2], &p[1], &e1);
        let outer = m.mux(&inner, &p[0], &e0);
        m.add_output("y", &outer);
        let stats = sat_redundancy(&mut m, &SatRedundancyOptions::default());
        assert!(stats.rewrites >= 1, "duplicate eq must be seen through");
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("mux"), 1);
        m.validate().unwrap();
    }
}
