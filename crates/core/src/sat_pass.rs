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
//!
//! # Query replay
//!
//! Later rounds ask most queries again: a round's pins and rebuilds
//! touch a few cones, and every other select comes back with the same
//! cone and the same path. Each sweep first hashes every bit's
//! combinational fan-in, over the topological order it takes anyway: a
//! cell's hash covers its cell id, kind, port order, input hashes and
//! output width, and an undriven bit or flip-flop output hashes its bit
//! id. A query's key is its select's hash plus the sorted (hash, value)
//! pairs of its path condition. Equal keys mean the same cells wired the
//! same way around the select and every path bit, so extraction, Table I
//! inference and the canonical memo key would all come out as before.
//!
//! [`SweepContext::replays`] keeps, across the module's rounds, every
//! query that ended with no pin and no budget-limited verdict (a
//! budget-limited SAT call, or a memo hit on one). A later query with an
//! equal key replays it: it adds the recorded `queries` and pruning gate
//! counts, and, if the query reached the funnel, counts and records the
//! memo hit that asking again would have been. It skips extraction,
//! inference, keying and the funnel, and it never pins. Its sub-graph's
//! cells must still be in topological order, because the memo key lists
//! them in that order, and a change elsewhere in the module can reorder
//! them. A collision of the 64-bit keys could only forgo a rewrite.
//! Under the ablation-only `measure_gather`, gate counts read cell
//! readers the key does not cover, so every query is re-derived; so is
//! every SAT verdict of the legacy `incremental: false` path.

use crate::decide::{decide, DecideOptions, Decision, Engine};
use crate::inference::{propagate, InferOutcome};
use crate::query_engine::{
    FunnelProfile, Layer, MemoEntry, QueryEngine, QueryEngineOptions, SharedCexBank,
    SharedVerdictStore, VerdictMemo,
};
use crate::subgraph::{extract_cached, topo_ranks, ConeCache, SubgraphStats};
use smartly_netlist::{CellId, Module, NetIndex, ReaderCounts, SigBit};
use smartly_opt::{apply_pins, walk_muxtrees, PathCondition};
use smartly_sat::Deadline;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

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
/// the *same module*: the verdict memo (cross-round carryover), the
/// replay table, plus the optional design-level shared counterexample
/// bank and verdict store.
///
/// [`crate::Pipeline`] keeps one context per module across its rounds and
/// calls [`SweepContext::begin_round`] before each sweep, so carryover
/// accounting starts a new round. Neither table needs invalidation
/// between rounds: memo keys are canonical and replay keys hash the
/// fan-in, so a cone that a rebuild, clean or pinning pass changed keys
/// differently and simply misses.
#[derive(Clone, Debug, Default)]
pub struct SweepContext {
    /// The persistent cone-verdict memo.
    pub memo: VerdictMemo,
    /// Queries a later sweep replays instead of asking (see the
    /// [module docs](self)). A replay stands for a hit on `memo` under
    /// the options that recorded it, so a caller that replaces `memo`
    /// or changes the sweep options clears this too.
    pub replays: QueryReplays,
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
            replays: QueryReplays::default(),
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
    /// Queries replayed from [`SweepContext::replays`] without being
    /// asked (timing-only attribution). A replay that stands for a memo
    /// hit also counts under `by_memo`.
    pub by_replay: usize,
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
        self.by_replay += o.by_replay;
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
/// (grown by this sweep) is handed back through the context. Queries the
/// context's replay table holds are replayed, and the sweep's own
/// replayable queries join it (see the [module docs](self)).
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
    let ranks = topo_ranks(&topo);
    // `measure_gather` counts cell readers, which no key covers
    let replayable = !options.measure_gather;
    let hashes = if replayable {
        let _span = ctx.trace.scope("fanin_hash");
        fanin_hashes(module, &index, &topo)
    } else {
        Vec::new()
    };

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

    let replays = &mut ctx.replays.entries;
    let mut pairs = Vec::new();
    let readers = ReaderCounts::build(module, &index);
    // decide a select bit the path condition leaves open: replay, or
    // extraction, Table I inference, then the funnel (or a fresh decide
    // per query)
    let pins = walk_muxtrees(module, &index, &readers, |sel, known| {
        if stats.queries >= MAX_QUERIES {
            return None;
        }
        let started = Instant::now();
        stats.queries += 1;
        let key = replayable.then(|| query_key(&index, &hashes, sel, known, &mut pairs));
        if let Some(replay) = key
            .and_then(|k| replays.get(&k))
            .filter(|r| r.still_ordered(&ranks))
        {
            stats.by_replay += 1;
            stats.absorb_subgraph(replay.gates);
            if let (Some(e), Some((entry, cells))) = (&mut engine, &replay.funnel) {
                e.replay_memo_hit(*entry, cells.len(), started);
            }
            return None;
        }
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
        // what a later ask replays, when this one ends with no pin
        let mut keep = |funnel| {
            if let Some(k) = key {
                replays.insert(
                    k,
                    Replay {
                        gates: sg_stats,
                        funnel,
                    },
                );
            }
        };
        if sub.cells.len() > MAX_SUBGRAPH_CELLS {
            keep(None);
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
                let (layer, entry) = e.decide_entry(&sub, &assign);
                if !entry.budget_limited && no_pin(entry.decision) {
                    keep(Some((entry, sub.cells.into_boxed_slice())));
                }
                let used = match layer {
                    Layer::Simulation => Engine::Simulation,
                    Layer::Sat => Engine::Sat,
                    _ => Engine::None,
                };
                (entry.decision, used)
            }
            None => {
                let (d, used) = decide(module, &index, &sub, &assign, &decide_opts);
                // a legacy SAT verdict carries no budget flag
                if used != Engine::Sat && no_pin(d) {
                    keep(None);
                }
                (d, used)
            }
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

fn no_pin(d: Decision) -> bool {
    matches!(d, Decision::Unknown | Decision::Skipped)
}

/// The queries a module's later sweeps replay, by query key (see the
/// [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct QueryReplays {
    entries: HashMap<u64, Replay>,
}

impl QueryReplays {
    /// Forgets every recorded query.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// What one query added to the sweep's counters.
#[derive(Clone, Debug)]
struct Replay {
    gates: SubgraphStats,
    /// For a query that reached the engine: the memo entry it hit or
    /// made, and its sub-graph's cells in topological order.
    funnel: Option<(MemoEntry, Box<[CellId]>)>,
}

impl Replay {
    /// Whether this sweep's order lists the sub-graph's cells as the
    /// recording sweep's did, so the memo key would be the same.
    fn still_ordered(&self, ranks: &[u32]) -> bool {
        self.funnel.as_ref().is_none_or(|(_, cells)| {
            cells
                .windows(2)
                .all(|w| ranks[w[0].index()] < ranks[w[1].index()])
        })
    }
}

/// One step of the fan-in and query hashes (a SplitMix64 finalizer over
/// the rotated state and the next word).
fn mix(h: u64, word: u64) -> u64 {
    let mut z = (h.rotate_left(23) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each canonical bit's fan-in hash, by [`NetIndex::bit_id`]. A bit with
/// no combinational driver hashes its bit id; a combinational cell's
/// output bit hashes the cell (id, kind, each input port and the hashes
/// of its bits, output width) and its offset. `topo` lists drivers
/// before readers, so one pass suffices.
fn fanin_hashes(module: &Module, index: &NetIndex, topo: &[CellId]) -> Vec<u64> {
    let mut hashes: Vec<u64> = (0..index.bit_count() as u64).map(|i| mix(0, i)).collect();
    for &id in topo {
        let cell = module.cell(id).expect("live cell");
        if cell.kind.is_sequential() {
            continue;
        }
        let mut h = mix(mix(1, id.index() as u64), cell.kind as u64);
        for (port, spec) in cell.inputs() {
            h = mix(h, u64::MAX - port as u64);
            for bit in spec.iter() {
                h = mix(h, index.bit_id(index.canon(*bit)).map_or(0, |i| hashes[i]));
            }
        }
        h = mix(h, cell.output().width() as u64);
        for (offset, bit) in cell.output().iter().enumerate() {
            let bit = index.canon(*bit);
            let driven_here = index
                .driver(bit)
                .is_some_and(|d| d.cell == id && d.offset as usize == offset);
            if let (true, Some(i)) = (driven_here, index.bit_id(bit)) {
                hashes[i] = mix(h, offset as u64);
            }
        }
    }
    hashes
}

/// A query's replay key: the select's fan-in hash, then the path
/// condition's (hash, value) pairs in sorted order. `pairs` is scratch.
fn query_key(
    index: &NetIndex,
    hashes: &[u64],
    sel: SigBit,
    path: &PathCondition,
    pairs: &mut Vec<(u64, bool)>,
) -> u64 {
    let hash = |bit: SigBit| index.bit_id(bit).map_or(0, |i| hashes[i]);
    pairs.clear();
    pairs.extend(path.iter().map(|(&bit, &value)| (hash(bit), value)));
    pairs.sort_unstable();
    pairs.iter().fold(mix(2, hash(sel)), |h, &(bit, value)| {
        mix(mix(h, bit), u64::from(value))
    })
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

    /// A second sweep over a module the first one left unchanged replays
    /// every query, and repeats the first sweep's counters as the memo
    /// hits asking again would have been.
    #[test]
    fn an_unchanged_module_replays_every_query() {
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
        let opts = SatRedundancyOptions::default();
        let mut ctx = SweepContext::new(None, None);
        let first = sat_redundancy_with(&mut m, &opts, &mut ctx);
        assert_eq!((first.queries, first.rewrites, first.by_replay), (2, 0, 0));
        ctx.begin_round(&m);
        let second = sat_redundancy_with(&mut m, &opts, &mut ctx);
        assert_eq!(second.queries, 2);
        assert_eq!(second.by_replay, 2);
        assert_eq!((second.by_memo, second.memo_carryover), (2, 2));
        assert_eq!(
            second.profile.latency_by_layer[Layer::Memo.index()].count(),
            2
        );
        assert_eq!(
            (second.gates_before_prune, second.gates_after_prune),
            (first.gates_before_prune, first.gates_after_prune)
        );
    }

    /// The same select under the same path bits with other values is
    /// another query: `t = s & r` is free where `s = 1` and 0 where
    /// `s = 0`, so the second ask, in the same sweep, must not replay the
    /// first.
    #[test]
    fn path_values_are_part_of_the_key() {
        let mut m = Module::new("t");
        let p: Vec<SigSpec> = (0..4).map(|i| m.add_input(&format!("p{i}"), 4)).collect();
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let t = m.and(&s, &r);
        let low = m.mux(&p[1], &p[0], &t); // reached when s = 0
        let high = m.mux(&p[3], &p[2], &t); // reached when s = 1
        let y = m.mux(&low, &high, &s);
        m.add_output("y", &y);
        let stats = sat_redundancy(&mut m, &SatRedundancyOptions::default());
        assert_eq!((stats.queries, stats.by_replay), (3, 0));
        assert_eq!(stats.rewrites, 1, "t = 0 where s = 0");
    }

    /// A memo key lists the sub-graph's cells in topological order, and
    /// removing a cell outside the cone can reorder them: the query is
    /// then re-derived, as the memo key changed. `w` reads `y` and has
    /// the lowest id, so the order starts at `y` until `w` is removed.
    #[test]
    fn a_reordered_cone_is_re_derived() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let c = m.add_input("c", 1);
        let d = m.add_input("d", 4);
        let e = m.add_input("e", 4);
        let y_wire = SigSpec::from_wire(m.auto_wire(1), 1);
        let w = m.not(&y_wire);
        m.add_output("w", &w);
        let x = m.and(&a, &b);
        let y = m.or(&a, &c);
        m.connect(y_wire, y.clone());
        let t = m.xor(&x, &y);
        let out = m.mux(&d, &e, &t);
        m.add_output("out", &out);
        let opts = SatRedundancyOptions::default();
        let mut ctx = SweepContext::new(None, None);
        let first = sat_redundancy_with(&mut m, &opts, &mut ctx);
        assert_eq!((first.queries, first.by_memo, first.rewrites), (1, 0, 0));
        let w_cell = m.cells().next().map(|(id, _)| id).expect("w");
        m.remove_cell(w_cell);
        ctx.begin_round(&m);
        let second = sat_redundancy_with(&mut m, &opts, &mut ctx);
        assert_eq!(second.queries, 1);
        assert_eq!((second.by_replay, second.by_memo), (0, 0));
    }

    /// A budget-limited `Unknown` depends on the solver's state, so the
    /// next sweep asks it again: it reaches the funnel (a memo hit) and is
    /// never replayed.
    #[test]
    fn budget_limited_unknowns_reach_the_funnel_again() {
        let mut m = smartly_workloads::solver_stress(3, 8).remove(0);
        let opts = SatRedundancyOptions {
            conflict_budget: 1,
            ..Default::default()
        };
        let mut ctx = SweepContext::new(None, None);
        let first = sat_redundancy_with(&mut m, &opts, &mut ctx);
        let sat_layer = first.profile.latency_by_layer[Layer::Sat.index()].count();
        assert_eq!((first.queries, sat_layer, first.rewrites), (3, 3, 0));
        ctx.begin_round(&m);
        let second = sat_redundancy_with(&mut m, &opts, &mut ctx);
        assert_eq!(second.queries, 3);
        assert_eq!(
            second.by_replay, 0,
            "budget-limited verdicts are not replayed"
        );
        assert_eq!((second.by_memo, second.memo_carryover), (3, 3));
    }

    /// A query whose cone changes only because `opt_merge` folded a
    /// duplicate cell is re-derived. Before the fold, the inner select
    /// reads a second copy of the outer select's product: a free leaf.
    /// After it, the inner select is the negated outer select, which the
    /// path decides.
    #[test]
    fn a_merged_duplicate_is_re_derived() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 2);
        let b = m.add_input("b", 2);
        let c = m.add_input("c", 4);
        let d = m.add_input("d", 4);
        let e = m.add_input("e", 4);
        let p = m.mul(&a, &b);
        let dup = m.mul(&a, &b);
        let q = m.not(&dup.slice(0, 1));
        let inner = m.mux(&d, &c, &q); // q ? c : d
        let outer = m.mux(&e, &inner, &p.slice(0, 1)); // p0 ? inner : e
        m.add_output("y", &outer);
        let opts = SatRedundancyOptions::default();
        let mut ctx = SweepContext::new(None, None);
        let first = sat_redundancy_with(&mut m, &opts, &mut ctx);
        assert_eq!((first.queries, first.rewrites), (2, 0));
        assert_eq!(smartly_opt::opt_merge(&mut m), 1, "the copies merge");
        ctx.begin_round(&m);
        let second = sat_redundancy_with(&mut m, &opts, &mut ctx);
        assert_eq!(second.by_inference, 1, "p0 = 1 forces q = 0");
        assert_eq!(second.rewrites, 1);
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
