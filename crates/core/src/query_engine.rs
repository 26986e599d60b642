//! The incremental SAT query engine: the funnel that answers "is this
//! bit constant under the path condition?" queries for the redundancy
//! pass (paper §II) without paying a fresh solver per query.
//!
//! [`decide()`](crate::decide::decide) — the legacy path — Tseitin-encodes
//! every sub-graph into a brand-new solver and runs two full CDCL
//! searches. Profiling the public corpus shows that most queries either
//! repeat an isomorphic cone or are *refutations* (the target genuinely
//! takes both values), and neither needs a solver. [`QueryEngine`]
//! layers the cheap answers in front, in the order a query falls
//! through them:
//!
//! 1. **Cone-verdict memo** — queries are keyed by the canonical
//!    structural hash of ([`subgraph::query_key`]), so a mux tree
//!    replicated across a 32-bit bus pays for one decision, not 32.
//! 2. **Design-level verdict store** — conclusive verdicts recorded by
//!    an earlier run ([`SharedVerdictStore`], warmed from a knowledge
//!    file) answer isomorphic queries in any module.
//! 3. **Random-simulation prefilter** — `prefilter_rounds` deterministic
//!    pseudo-random 64-vector passes through the compiled cone
//!    ([`smartly_sim::ConeSim`]). A lane that satisfies the path
//!    condition and drives the target to each polarity is a complete
//!    proof of `Unknown`.
//! 4. **Shared counterexample replay** — SAT models that sibling modules
//!    published to the design-level [`SharedCexBank`] under the same
//!    cone shape complete a refutation the prefilter started.
//! 5. **Exhaustive simulation or incremental SAT**, routed by the
//!    paper's hybrid rule (`choose_engine` in [`crate::decide`]). Small
//!    cones enumerate their free leaves 64 vectors per pass through the
//!    same compiled cone. The rest go to one shared [`TseitinEncoder`]
//!    per module.
//!    Each cell's gate CNF is encoded exactly *once*; the clauses tying a
//!    cell's function to its output net are guarded by a per-cell
//!    *activation literal*, so a query is posed as
//!    `solve_with(activations ∪ path-condition ∪ target)` and retracted
//!    for free when the call returns. Learnt clauses survive the whole
//!    sweep, and a polarity the prefilter already witnessed is not asked.
//!
//! Layers 1–2 replay verdicts decided earlier, and layers 3–4 only ever
//! *refute* (conclude `Unknown`) or miss; every conclusive
//! `Const`/`Unreachable` verdict still comes from exhaustive simulation
//! or SAT, so the funnel returns exactly the verdicts the legacy path
//! would for every query the conflict budget does not cut short (see the
//! differential tests). A budget-limited query can resolve on either
//! side of the limit depending on the shared solver's accumulated learnt
//! clauses — a sound divergence either way, since both modes then report
//! `Unknown` or a correctly proven constant. Guarding only the output-tie
//! clauses keeps out-of-cone cells invisible to a query — a leaf stays as
//! free as it was in a fresh solver.
//!
//! [`subgraph::query_key`]: crate::subgraph::query_key

use crate::decide::{
    choose_engine, encode_cell, free_leaves, simulate, DecideOptions, Decision, EngineChoice,
};
use crate::subgraph::{query_key_and_shape, ConeShape, SubGraph};
use smartly_netlist::{CellId, Module, NetIndex, Port, SigBit, TriVal};
use smartly_sat::{Deadline, Lit, SolveResult, SolverStats, TseitinEncoder};
use smartly_sim::{compile_cone, ConeProgram, ConeSim};
use smartly_telemetry::{ArgValue, Histogram, TraceHandle};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Which funnel layer terminated a query.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The cone-verdict memo replayed an earlier decision.
    Memo,
    /// The design-level verdict store replayed a verdict recorded by an
    /// earlier run (disk-loaded entries only; see [`SharedVerdictStore`]).
    DesignVerdict,
    /// Replay of the design-level shared bank's vectors refuted
    /// constancy.
    SharedCex,
    /// Random-simulation prefilter refuted constancy.
    Prefilter,
    /// Exhaustive simulation decided.
    Simulation,
    /// The incremental SAT solver decided.
    Sat,
    /// No layer ran (query skipped as too large).
    None,
}

impl Layer {
    /// Every layer, in funnel order — the index into
    /// [`FunnelProfile::latency_by_layer`] and the canonical order for
    /// rendering per-layer telemetry.
    pub const ALL: [Layer; 7] = [
        Layer::Memo,
        Layer::DesignVerdict,
        Layer::SharedCex,
        Layer::Prefilter,
        Layer::Simulation,
        Layer::Sat,
        Layer::None,
    ];

    /// Stable snake_case name (JSON keys, trace span args).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Memo => "memo",
            Layer::DesignVerdict => "disk_verdict",
            Layer::SharedCex => "shared_cex",
            Layer::Prefilter => "prefilter",
            Layer::Simulation => "simulation",
            Layer::Sat => "sat",
            Layer::None => "skipped",
        }
    }

    /// Index of this layer in [`Layer::ALL`].
    pub fn index(self) -> usize {
        match self {
            Layer::Memo => 0,
            Layer::DesignVerdict => 1,
            Layer::SharedCex => 2,
            Layer::Prefilter => 3,
            Layer::Simulation => 4,
            Layer::Sat => 5,
            Layer::None => 6,
        }
    }
}

/// Always-on latency/work distributions for the query funnel.
///
/// Recording costs two `Instant::now` calls per query (plus two per SAT
/// solve), so the profile rides inside the regular stats structs rather
/// than behind the `--trace` flag — but like every histogram it may only
/// ever surface in timing JSON and traces, never in a digest.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FunnelProfile {
    /// Query wall latency (µs), bucketed by the layer that terminated
    /// the query (indexed per [`Layer::index`]).
    pub latency_by_layer: [Histogram; 7],
    /// Wall time (µs) per individual incremental `solve_with` call.
    pub sat_call_us: Histogram,
    /// CDCL propagations per individual solve call.
    pub sat_call_propagations: Histogram,
    /// CDCL conflicts per individual solve call.
    pub sat_call_conflicts: Histogram,
}

impl FunnelProfile {
    /// Component-wise histogram merge.
    pub fn absorb(&mut self, o: &FunnelProfile) {
        for (a, b) in self
            .latency_by_layer
            .iter_mut()
            .zip(o.latency_by_layer.iter())
        {
            a.absorb(b);
        }
        self.sat_call_us.absorb(&o.sat_call_us);
        self.sat_call_propagations.absorb(&o.sat_call_propagations);
        self.sat_call_conflicts.absorb(&o.sat_call_conflicts);
    }

    /// Total queries profiled (sum over all layer histograms).
    pub fn queries(&self) -> u64 {
        self.latency_by_layer.iter().map(|h| h.count()).sum()
    }
}

/// A design-lifetime counterexample bank shared between the query
/// engines of *different modules* (and sweeps), keyed by
/// [`ConeShape::sig`].
///
/// Implementations must be thread-safe: under the driver's worker pool,
/// many module sweeps publish and look up concurrently. The contract
/// that keeps verdicts scheduling-independent is one-sided: a vector a
/// `lookup` returns is only ever *replayed and re-verified* by the
/// querying engine (every lane is checked against that cone's own path
/// condition before it may witness anything), and a refutation
/// concludes `Unknown` — exactly the verdict SAT would return for a
/// genuinely two-valued target. Partial witnesses from shared vectors
/// are never fed into SAT polarity skipping, so shared state cannot
/// directly steer the local solver.
///
/// The precise guarantee is the same one the engine already gives
/// versus the legacy fresh-solver path: every verdict the conflict
/// budget does not cut short is scheduling-independent. A shared-bank
/// hit does skip a SAT call (that is the point), so the local solver
/// accumulates different learnt clauses than it would have — and a
/// *budget-limited* query later in the same sweep can then land on
/// either side of the limit. Both outcomes are sound (`Unknown` or a
/// correctly proven constant), and in practice budgets do not bind on
/// the corpus: CI pins byte-identical digests across `--jobs` settings
/// and bank on/off empirically.
pub trait SharedCexBank: Send + Sync + std::fmt::Debug {
    /// Packed replay vectors for a cone shape: `planes[i]` holds one
    /// 64-lane word for intern index `i` (lane *k* of every index = one
    /// model). `width` is the querying cone's intern-table length;
    /// implementations must return `None` on a width mismatch (a hash
    /// collision between different shapes).
    fn lookup(&self, sig: u64, width: usize) -> Option<SharedVectors>;

    /// Records one model against a cone shape: `values[i]` is the model
    /// value of intern index `i`.
    fn publish(&self, sig: u64, values: &[bool]);
}

/// One shape's packed replay vectors, as returned by
/// [`SharedCexBank::lookup`].
#[derive(Clone, Debug)]
pub struct SharedVectors {
    /// Per-intern-index 64-lane value words.
    pub planes: Vec<u64>,
    /// How many lanes hold a model (≤ 64).
    pub lanes: u32,
}

/// A design-level verdict store shared between the query engines of
/// different modules — the module-agnostic sibling of the per-module
/// [`VerdictMemo`], and the layer a persistent knowledge file warms.
///
/// Keys are canonical [`query_key`](crate::subgraph::query_key)s, so a
/// *conclusive* verdict — one the conflict budget did not cut short —
/// is a pure function of its key and can be replayed by any module of
/// any run whose encoding and budget match. The engine enforces the
/// conclusiveness half of that contract: it only ever publishes
/// verdicts whose every SAT call terminated inside the budget (or that
/// came from exhaustive simulation / verified replay, which have no
/// budget at all). Implementations enforce the matching half by
/// recording the budget and encoding fingerprint next to persisted
/// entries and refusing to serve entries recorded under different ones.
///
/// Determinism: [`SharedVerdictStore::lookup`] must answer from state
/// that is **immutable for the whole design run** (in practice: the
/// entries loaded from disk at startup). Entries published *during* the
/// run are accumulated for saving but never served back — a lookup
/// whose answer depended on what sibling modules happened to publish
/// first would make layer attribution scheduling-dependent inside a
/// counter (`by_disk_verdict`) that is otherwise a pure function of the
/// loaded file and the input design.
pub trait SharedVerdictStore: Send + Sync + std::fmt::Debug {
    /// The recorded verdict for a canonical query key, if one was loaded
    /// from persistent state. Never answers from entries published
    /// during the current run.
    fn lookup(&self, key: &[u64]) -> Option<Decision>;

    /// Records a conclusive verdict for saving. Implementations may
    /// drop duplicates (the verdict for a key is unique) and bound
    /// their size.
    fn publish(&self, key: &[u64], decision: Decision);
}

/// Drop and re-create the shared solver once it holds this many
/// variables — a backstop against superlinear growth on huge modules
/// (the memo survives a reset).
const RESET_VARS: usize = 200_000;

/// Tuning for a [`QueryEngine`].
#[derive(Copy, Clone, Debug)]
pub struct QueryEngineOptions {
    /// The hybrid sim/SAT thresholds shared with the legacy path.
    pub decide: DecideOptions,
    /// Number of 64-vector random passes before simulation or SAT (0
    /// disables the prefilter layer entirely).
    pub prefilter_rounds: usize,
}

impl Default for QueryEngineOptions {
    fn default() -> Self {
        QueryEngineOptions {
            decide: DecideOptions::default(),
            prefilter_rounds: 2,
        }
    }
}

/// Cumulative per-layer telemetry.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryEngineStats {
    /// Queries posed to the engine.
    pub queries: usize,
    /// Answered by the cone-verdict memo.
    pub by_memo: usize,
    /// Memo answers whose entry was created in an *earlier* pipeline
    /// round (cross-round carryover; a subset of `by_memo`).
    pub memo_carryover: usize,
    /// Answered by a disk-loaded entry of the design-level verdict
    /// store (scheduling-independent: the store's served generation is
    /// immutable during a run).
    pub by_disk_verdict: usize,
    /// Conclusive verdicts published to the design-level verdict store.
    pub verdicts_published: usize,
    /// Refuted by replaying the design-level shared bank's vectors.
    pub by_shared_cex: usize,
    /// Refuted by the random-simulation prefilter.
    pub by_prefilter: usize,
    /// Random-simulation rounds executed (the prefilter's work metric:
    /// at most `prefilter_rounds` per query with free leaves that
    /// reaches the layer, fewer when an early round refutes).
    pub prefilter_rounds: usize,
    /// Reached exhaustive simulation.
    pub by_sim: usize,
    /// Reached the incremental SAT solver.
    pub by_sat: usize,
    /// Individual `solve_with` calls issued (≤ 2 per SAT query; a
    /// polarity the prefilter witnessed is skipped).
    pub sat_solves: usize,
    /// Shared-solver resets triggered by the variable-count backstop.
    pub solver_resets: usize,
    /// CDCL search statistics, accumulated across solver resets.
    pub solver: SolverStats,
    /// Always-on latency/work distributions (timing JSON only — never
    /// digest material).
    pub profile: FunnelProfile,
}

/// A cone-verdict memo that outlives a single sweep: the cross-round
/// (and potentially cross-sweep) layer of the cache hierarchy.
///
/// Keys are the canonical structural [`query_key`](crate::subgraph::query_key)s,
/// so a verdict is a pure function of its key: replaying one in a later
/// round is sound however the netlist changed in between, for the same
/// reason that replaying it for a bus replica in the same sweep is. Each
/// entry records the round that decided it, for carryover accounting.
#[derive(Clone, Debug, Default)]
pub struct VerdictMemo {
    /// canonical key → (verdict, round that decided it)
    entries: HashMap<Vec<u64>, (Decision, u32)>,
    round: u32,
}

impl VerdictMemo {
    /// An empty memo at round 0.
    pub fn new() -> Self {
        VerdictMemo::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Advances the round counter; entries inserted before this call are
    /// *carried* entries, and hits on them count as
    /// [`QueryEngineStats::memo_carryover`].
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    fn lookup(&self, key: &[u64]) -> Option<(Decision, bool)> {
        self.entries
            .get(key)
            .map(|&(decision, round)| (decision, round < self.round))
    }

    fn insert(&mut self, key: Vec<u64>, decision: Decision) {
        self.entries.insert(key, (decision, self.round));
    }
}

/// Per-module stateful query pipeline; see the [module docs](self).
///
/// One engine serves one sweep over one (immutable) module: it borrows
/// the netlist, so drop it before applying rewrites.
pub struct QueryEngine<'m> {
    module: &'m Module,
    index: &'m NetIndex,
    options: QueryEngineOptions,
    enc: TseitinEncoder,
    /// canonical net bit → its solver variable
    lits: HashMap<SigBit, Lit>,
    /// encoded cell → its activation literal
    acts: HashMap<CellId, Lit>,
    memo: VerdictMemo,
    /// design-level shared counterexample bank, when attached
    shared: Option<Arc<dyn SharedCexBank>>,
    /// design-level verdict store, when attached
    verdicts: Option<Arc<dyn SharedVerdictStore>>,
    /// solver stats accumulated from solvers dropped at resets
    solver_base: SolverStats,
    stats: QueryEngineStats,
    /// span recorder (disabled by default; see [`QueryEngine::set_trace`])
    trace: TraceHandle,
    /// cooperative cancellation token (never expires by default; see
    /// [`QueryEngine::set_deadline`])
    deadline: Deadline,
}

fn mask(v: bool) -> u64 {
    if v {
        u64::MAX
    } else {
        0
    }
}

fn lanes_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// SplitMix64: the deterministic plane generator for the prefilter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<'m> QueryEngine<'m> {
    /// Creates an engine over one module for one sweep, with fresh state
    /// and no shared bank.
    pub fn new(module: &'m Module, index: &'m NetIndex, options: QueryEngineOptions) -> Self {
        QueryEngine::with_state(module, index, options, VerdictMemo::new(), None, None)
    }

    /// Creates an engine seeded with a persistent [`VerdictMemo`] (cross-
    /// round carryover), an optional design-level [`SharedCexBank`], and
    /// an optional design-level [`SharedVerdictStore`]. Reclaim the memo
    /// with [`QueryEngine::into_memo`] when the sweep ends.
    pub fn with_state(
        module: &'m Module,
        index: &'m NetIndex,
        options: QueryEngineOptions,
        memo: VerdictMemo,
        shared: Option<Arc<dyn SharedCexBank>>,
        verdicts: Option<Arc<dyn SharedVerdictStore>>,
    ) -> Self {
        QueryEngine {
            module,
            index,
            options,
            enc: TseitinEncoder::new(),
            lits: HashMap::new(),
            acts: HashMap::new(),
            memo,
            shared,
            verdicts,
            solver_base: SolverStats::default(),
            stats: QueryEngineStats::default(),
            trace: TraceHandle::disabled(),
            deadline: Deadline::none(),
        }
    }

    /// Attaches a span recorder: subsequent queries emit `query` spans
    /// (with layer attribution) and nested `sat_call` spans into it.
    /// Telemetry only — verdicts are identical with or without a
    /// recorder attached.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Attaches a cooperative [`Deadline`], threaded into the CDCL
    /// solver (polled every few conflicts mid-search) and checked before
    /// each SAT layer entry. Once expired, SAT-bound queries return
    /// budget-limited `Unknown` verdicts — memoized for the sweep but
    /// never published to a design-level store, exactly like conflict-
    /// budget exhaustion, so deadlines can never corrupt a digest or a
    /// knowledge file.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Consumes the engine, handing the verdict memo back for the next
    /// round (the per-sweep solver and its learnt clauses are dropped).
    pub fn into_memo(self) -> VerdictMemo {
        self.memo
    }

    /// Telemetry so far (solver counters include solvers already dropped
    /// at resets).
    pub fn stats(&self) -> QueryEngineStats {
        let mut s = self.stats;
        s.solver = self.solver_base;
        s.solver.absorb(&self.enc.solver().stats());
        s
    }

    /// Decides the sub-graph's target bit under `assign` (canonical keys),
    /// returning the verdict and the layer that produced it.
    ///
    /// Layer order: memo → design-level verdict store → random
    /// prefilter → shared-bank replay (completing partial prefilter
    /// witnesses) → exhaustive simulation or incremental SAT, with the
    /// same sim/SAT/skip routing as [`crate::decide::decide`].
    pub fn decide(&mut self, sub: &SubGraph, assign: &HashMap<SigBit, bool>) -> (Decision, Layer) {
        let started = Instant::now();
        self.trace
            .begin_with("query", &[("cells", ArgValue::U64(sub.cells.len() as u64))]);
        let (d, layer) = self.decide_inner(sub, assign);
        self.stats.profile.latency_by_layer[layer.index()]
            .record(started.elapsed().as_micros() as u64);
        self.trace
            .end_with(&[("layer", ArgValue::Str(layer.name()))]);
        (d, layer)
    }

    fn decide_inner(
        &mut self,
        sub: &SubGraph,
        assign: &HashMap<SigBit, bool>,
    ) -> (Decision, Layer) {
        self.stats.queries += 1;
        // one cone traversal builds the memo key and, on the same pass,
        // the cone shape the shared bank is keyed by
        let (key, shape) = query_key_and_shape(self.module, self.index, sub, assign);
        if let Some((d, carried)) = self.memo.lookup(&key) {
            self.stats.by_memo += 1;
            if carried {
                self.stats.memo_carryover += 1;
            }
            return (d, Layer::Memo);
        }
        let free = free_leaves(sub, assign);
        let choice = choose_engine(free.len(), sub.cells.len(), &self.options.decide);
        if choice == EngineChoice::Skip {
            self.memo.insert(key, Decision::Skipped);
            return (Decision::Skipped, Layer::None);
        }
        // layer 2: the design-level verdict store — conclusive verdicts
        // recorded by a previous run (disk generation only, so the hit
        // pattern is a pure function of the loaded file and the input)
        // answer isomorphic queries across modules before any per-cone
        // work happens. Deliberately *after* the Skip routing: the store
        // header pins the conflict budget but not the sim/skip
        // thresholds, so a store written under laxer thresholds could
        // otherwise answer a query this configuration skips — and a warm
        // run must decide exactly the query set the cold run decides.
        if let Some(store) = self.verdicts.as_ref() {
            if let Some(d) = store.lookup(&key) {
                self.stats.by_disk_verdict += 1;
                self.memo.insert(key, d);
                return (d, Layer::DesignVerdict);
            }
        }

        let prog = compile_cone(self.module, self.index, &sub.cells);
        let target = self.index.canon(sub.target);
        let mut seen_true = false;
        let mut seen_false = false;
        if let Some(tslot) = prog.slot(target) {
            // layer 3: random-simulation prefilter, a fixed number of
            // 64-lane passes
            if !free.is_empty() {
                for round in 0..self.options.prefilter_rounds {
                    self.stats.prefilter_rounds += 1;
                    let (t, f) = self.replay_random(&prog, assign, tslot, round as u64);
                    seen_true |= t;
                    seen_false |= f;
                    if seen_true && seen_false {
                        self.stats.by_prefilter += 1;
                        self.conclude(key, Decision::Unknown);
                        return (Decision::Unknown, Layer::Prefilter);
                    }
                }
            }
            // layer 4: design-level shared bank — the *completion*
            // layer. By now the prefilter has usually witnessed the
            // target's common polarity; what is missing is the rare one,
            // which is exactly what sibling modules' published SAT
            // models carry. Shared witnesses may combine with the
            // prefilter's to finish a refutation (every witness is a
            // verified cone evaluation, so both polarities witnessed
            // proves the verdict SAT would return: `Unknown`), but they
            // are never folded into `seen_true`/`seen_false` — feeding
            // them into the SAT polarity skip below would make this
            // module's solver stream depend on what sibling modules
            // happened to publish first, breaking the jobs-determinism
            // of budget-limited verdicts.
            if let Some(bank) = self.shared.clone() {
                if let Some(vectors) = bank.lookup(shape.sig, shape.bits.len()) {
                    let (t, f) = self.replay_shared(&prog, assign, tslot, &shape, &vectors);
                    if (seen_true || t) && (seen_false || f) {
                        self.stats.by_shared_cex += 1;
                        self.conclude(key, Decision::Unknown);
                        return (Decision::Unknown, Layer::SharedCex);
                    }
                }
            }
        }

        let (d, layer, conclusive) = match choice {
            EngineChoice::Sim => {
                self.stats.by_sim += 1;
                let _span = self.trace.scope("layer:simulation");
                let d = if prog.has_x() || prog.slot(target).is_none() {
                    // constant-x cones need exact three-valued semantics;
                    // empty cones have nothing to replay
                    simulate(self.module, self.index, sub, assign, &free)
                } else {
                    self.exhaustive(&prog, assign, target, &free)
                };
                // exhaustive simulation has no budget: always conclusive
                (d, Layer::Simulation, true)
            }
            EngineChoice::Sat => {
                self.stats.by_sat += 1;
                let _span = self.trace.scope("layer:sat");
                let (d, budget_limited) =
                    self.sat_layer(sub, assign, target, &shape, seen_true, seen_false);
                (d, Layer::Sat, !budget_limited)
            }
            EngineChoice::Skip => unreachable!("handled above"),
        };
        if conclusive {
            self.conclude(key, d);
        } else {
            // a budget-limited verdict is state-dependent: sound to memo
            // within this run, never published to the design-level store
            self.memo.insert(key, d);
        }
        (d, layer)
    }

    /// Records a conclusive verdict — a pure function of its canonical
    /// key — in the local memo and, when a design-level store is
    /// attached, publishes it for cross-run persistence.
    fn conclude(&mut self, key: Vec<u64>, d: Decision) {
        if let Some(store) = &self.verdicts {
            self.stats.verdicts_published += 1;
            store.publish(&key, d);
        }
        self.memo.insert(key, d);
    }

    /// Loads leaf planes (path-condition bits pinned, free bits from
    /// `source`), evaluates the cone, and reports which target polarities
    /// are witnessed by lanes consistent with the path condition.
    fn witnesses(
        &self,
        prog: &ConeProgram,
        assign: &HashMap<SigBit, bool>,
        tslot: u32,
        active: u64,
        source: impl Fn(SigBit, u32) -> u64,
    ) -> (bool, bool) {
        let mut sim = ConeSim::new(prog);
        for &(bit, slot) in prog.leaves() {
            let plane = match assign.get(&bit) {
                Some(&v) => mask(v),
                None => source(bit, slot),
            };
            sim.set_plane(slot, plane);
        }
        sim.eval();
        // a lane is consistent when every in-cone path-condition bit
        // evaluates to its asserted value
        let mut ok = active;
        for (bit, &v) in assign {
            if let Some(slot) = prog.slot(self.index.canon(*bit)) {
                ok &= !(sim.plane(slot) ^ mask(v));
            }
        }
        let t = sim.plane(tslot);
        ((ok & t) != 0, (ok & !t) != 0)
    }

    /// Replays the shared bank's per-intern-index planes through this
    /// cone: each leaf maps back to its intern index via the shape's bit
    /// table, and every lane is re-verified against the local path
    /// condition before it may witness a polarity.
    fn replay_shared(
        &self,
        prog: &ConeProgram,
        assign: &HashMap<SigBit, bool>,
        tslot: u32,
        shape: &ConeShape,
        vectors: &SharedVectors,
    ) -> (bool, bool) {
        let idx_of: HashMap<SigBit, usize> = shape
            .bits
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, i))
            .collect();
        self.witnesses(prog, assign, tslot, lanes_mask(vectors.lanes), |bit, _| {
            idx_of
                .get(&bit)
                .and_then(|&i| vectors.planes.get(i).copied())
                .unwrap_or(0)
        })
    }

    fn replay_random(
        &self,
        prog: &ConeProgram,
        assign: &HashMap<SigBit, bool>,
        tslot: u32,
        round: u64,
    ) -> (bool, bool) {
        // planes keyed by slot (stable: first-use order in the cone) and
        // round — deterministic across runs, jobs and platforms
        self.witnesses(prog, assign, tslot, u64::MAX, |_, slot| {
            splitmix64(0x5EED_0000_0000_0000 ^ (u64::from(slot) << 8) ^ round)
        })
    }

    /// Exhaustive 64-lane enumeration of the free leaves — the same
    /// verdict [`simulate`] computes, 64 vectors per pass.
    fn exhaustive(
        &self,
        prog: &ConeProgram,
        assign: &HashMap<SigBit, bool>,
        target: SigBit,
        free: &[SigBit],
    ) -> Decision {
        let tslot = prog.slot(target).expect("checked by caller");
        let free_slots: Vec<u32> = free
            .iter()
            .map(|b| prog.slot(*b).expect("free leaf is referenced by the cone"))
            .collect();
        let total: u64 = 1 << free.len();
        let mut seen_true = false;
        let mut seen_false = false;
        let mut any_consistent = false;
        let mut chunk = 0u64;
        while chunk < total {
            let lanes = (total - chunk).min(64) as u32;
            let (t, f) = self.witnesses(prog, assign, tslot, lanes_mask(lanes), |bit, slot| {
                let j = free_slots
                    .iter()
                    .position(|&s| s == slot)
                    .unwrap_or_else(|| panic!("unassigned non-free leaf {bit:?}"));
                let mut plane = 0u64;
                for l in 0..u64::from(lanes) {
                    if ((chunk + l) >> j) & 1 == 1 {
                        plane |= 1 << l;
                    }
                }
                plane
            });
            seen_true |= t;
            seen_false |= f;
            any_consistent |= t || f;
            if seen_true && seen_false {
                return Decision::Unknown;
            }
            chunk += 64;
        }
        if !any_consistent {
            Decision::Unreachable
        } else if seen_true {
            Decision::Const(true)
        } else {
            Decision::Const(false)
        }
    }

    /// The net-bit literal (allocating on first use; constants fold).
    fn lit(&mut self, canonical_bit: SigBit) -> Lit {
        match canonical_bit {
            SigBit::Const(TriVal::One) => self.enc.true_lit(),
            SigBit::Const(_) => self.enc.false_lit(),
            c => {
                if let Some(&l) = self.lits.get(&c) {
                    return l;
                }
                let l = self.enc.fresh();
                self.lits.insert(c, l);
                l
            }
        }
    }

    /// Encodes one cell exactly once: unguarded Tseitin definitions for
    /// the gate function (fresh variables, globally sound), plus
    /// activation-guarded clauses tying the function to the output net —
    /// with the activation literal unasserted, the net stays as free as
    /// it was in a fresh solver.
    fn encode(&mut self, id: CellId) {
        if self.acts.contains_key(&id) {
            return;
        }
        let act = self.enc.fresh();
        let cell = self.module.cell(id).expect("live cell");
        let port_lits = |port: Port, this: &mut Self| -> Vec<Lit> {
            cell.port(port)
                .map(|s| s.iter().map(|b| this.lit(this.index.canon(*b))).collect())
                .unwrap_or_default()
        };
        let a = port_lits(Port::A, self);
        let b = port_lits(Port::B, self);
        let s = port_lits(Port::S, self);
        let w = cell.output().width();
        let out = encode_cell(&mut self.enc, cell.kind, &a, &b, &s, w);
        for (bit, lit) in cell.output().iter().zip(out) {
            let net = self.lit(self.index.canon(*bit));
            self.enc.add_clause([!act, !net, lit]);
            self.enc.add_clause([!act, net, !lit]);
        }
        self.acts.insert(id, act);
    }

    /// Incremental SAT: assume the cone's activation literals, the path
    /// condition and the target polarity; models are published to the
    /// shared bank under the cone's shape signature. Polarities the
    /// prefilter already witnessed are skipped.
    ///
    /// The second return is `true` when any executed solve exhausted the
    /// conflict budget — the verdict is then state-dependent and must
    /// not be persisted.
    fn sat_layer(
        &mut self,
        sub: &SubGraph,
        assign: &HashMap<SigBit, bool>,
        target: SigBit,
        shape: &ConeShape,
        seen_true: bool,
        seen_false: bool,
    ) -> (Decision, bool) {
        // An expired deadline makes every further SAT-bound query a
        // budget-limited Unknown without touching the solver: the sweep
        // finishes its walk on cached layers only, and nothing
        // state-dependent is persisted.
        if self.deadline.expired() {
            return (Decision::Unknown, true);
        }
        if self.enc.num_vars() > RESET_VARS {
            self.solver_base.absorb(&self.enc.solver().stats());
            self.enc = TseitinEncoder::new();
            self.lits.clear();
            self.acts.clear();
            self.stats.solver_resets += 1;
        }
        for &id in &sub.cells {
            self.encode(id);
        }
        let mut assumptions: Vec<Lit> = sub.cells.iter().map(|id| self.acts[id]).collect();
        let mut path: Vec<(SigBit, bool)> = assign
            .iter()
            .map(|(b, &v)| (self.index.canon(*b), v))
            .collect();
        path.sort_unstable();
        for (bit, v) in path {
            let l = self.lit(bit);
            assumptions.push(if v { l } else { !l });
        }
        let tlit = self.lit(target);
        self.enc
            .solver_mut()
            .set_conflict_budget(Some(self.options.decide.conflict_budget));
        self.enc.solver_mut().set_deadline(self.deadline.clone());
        let query = |polarity: Lit, this: &mut Self| -> SolveResult {
            this.stats.sat_solves += 1;
            let mut a = assumptions.clone();
            a.push(polarity);
            let base = this.enc.solver().stats();
            let started = Instant::now();
            this.trace.begin("sat_call");
            let r = this.enc.solve_with(&a);
            let delta = this.enc.solver().stats().since(&base);
            this.stats
                .profile
                .sat_call_us
                .record(started.elapsed().as_micros() as u64);
            this.stats
                .profile
                .sat_call_propagations
                .record(delta.propagations);
            this.stats
                .profile
                .sat_call_conflicts
                .record(delta.conflicts);
            this.trace.end_with(&[
                (
                    "result",
                    ArgValue::Str(match r {
                        SolveResult::Sat => "sat",
                        SolveResult::Unsat => "unsat",
                        SolveResult::Unknown => "unknown",
                    }),
                ),
                ("conflicts", ArgValue::U64(delta.conflicts)),
                ("propagations", ArgValue::U64(delta.propagations)),
            ]);
            if r == SolveResult::Sat {
                this.publish_model(shape);
            }
            r
        };
        let can_be_true = if seen_true {
            SolveResult::Sat
        } else {
            query(tlit, self)
        };
        let can_be_false = if seen_false {
            SolveResult::Sat
        } else {
            query(!tlit, self)
        };
        let budget_limited =
            can_be_true == SolveResult::Unknown || can_be_false == SolveResult::Unknown;
        let d = match (can_be_true, can_be_false) {
            (SolveResult::Unsat, SolveResult::Unsat) => Decision::Unreachable,
            (SolveResult::Sat, SolveResult::Unsat) => Decision::Const(true),
            (SolveResult::Unsat, SolveResult::Sat) => Decision::Const(false),
            _ => Decision::Unknown,
        };
        (d, budget_limited)
    }

    /// Publishes the last model to the shared bank under the cone's
    /// shape signature (a no-op without a bank).
    fn publish_model(&self, shape: &ConeShape) {
        if let Some(bank) = &self.shared {
            let values: Vec<bool> = shape
                .bits
                .iter()
                .map(|b| {
                    self.lits
                        .get(b)
                        .and_then(|&l| self.enc.solver().model_value(l))
                        .unwrap_or(false)
                })
                .collect();
            bank.publish(shape.sig, &values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::decide;
    use crate::subgraph;
    use smartly_netlist::Module;

    fn ranks(m: &Module) -> HashMap<CellId, usize> {
        m.topo_order()
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, c)| (c, i))
            .collect()
    }

    fn extract_for(
        m: &Module,
        index: &NetIndex,
        target: SigBit,
        known: &[(SigBit, bool)],
    ) -> (SubGraph, HashMap<SigBit, bool>) {
        let r = ranks(m);
        let mut assign = HashMap::new();
        for (b, v) in known {
            assign.insert(index.canon(*b), *v);
        }
        let (sub, _) = subgraph::extract(m, index, &r, target, &assign, 16, true);
        (sub, assign)
    }

    fn sat_only() -> QueryEngineOptions {
        QueryEngineOptions {
            decide: DecideOptions {
                sim_threshold: 0,
                ..Default::default()
            },
            prefilter_rounds: 0,
        }
    }

    /// Random replay must never refute a genuinely constant bit: every
    /// prefilter lane holds the path condition.
    #[test]
    fn replay_never_misrefutes_a_constant_bit() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        m.add_output("o", &sr);
        let index = NetIndex::build(&m);
        let mut eng = QueryEngine::new(&m, &index, QueryEngineOptions::default());

        // s|r under s=1 is constant true: the prefilter's lanes pin s=1
        // and must only ever witness `true`
        let (sub, assign) = extract_for(&m, &index, index.canon(sr.bit(0)), &[(s.bit(0), true)]);
        let (d, layer) = eng.decide(&sub, &assign);
        assert_eq!(d, Decision::Const(true));
        assert_eq!(layer, Layer::Simulation);
        let stats = eng.stats();
        assert_eq!(stats.by_prefilter, 0, "the prefilter must not fire");
        assert!(stats.prefilter_rounds > 0, "the prefilter must run");
    }

    /// A polarity the prefilter witnessed is not asked of the solver: a
    /// 16-input AND is almost always false on random lanes and almost
    /// never true, so SAT only has to find the all-ones model.
    #[test]
    fn prefilter_witness_skips_one_sat_polarity() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 16);
        let y = m.reduce_and(&a);
        m.add_output("y", &y);
        let index = NetIndex::build(&m);
        let opts = QueryEngineOptions {
            decide: DecideOptions {
                sim_threshold: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut eng = QueryEngine::new(&m, &index, opts);
        let (sub, assign) = extract_for(&m, &index, index.canon(y.bit(0)), &[]);
        let (d, layer) = eng.decide(&sub, &assign);
        assert_eq!(d, Decision::Unknown);
        assert_eq!(layer, Layer::Sat);
        assert_eq!(eng.stats().sat_solves, 1, "one polarity is skipped");
    }

    /// Bus-replicated structure: the second isomorphic cone is answered
    /// by the verdict memo without touching sim or SAT.
    #[test]
    fn isomorphic_cones_share_a_verdict() {
        let mut m = Module::new("t");
        let a0 = m.add_input("a0", 1);
        let b0 = m.add_input("b0", 1);
        let a1 = m.add_input("a1", 1);
        let b1 = m.add_input("b1", 1);
        let y0 = m.or(&a0, &b0);
        let y1 = m.or(&a1, &b1);
        m.add_output("o0", &y0);
        m.add_output("o1", &y1);
        let index = NetIndex::build(&m);
        let mut eng = QueryEngine::new(&m, &index, QueryEngineOptions::default());

        let (sub, assign) = extract_for(&m, &index, index.canon(y0.bit(0)), &[(a0.bit(0), true)]);
        let (d0, l0) = eng.decide(&sub, &assign);
        assert_eq!(d0, Decision::Const(true));
        assert_ne!(l0, Layer::Memo);

        let (sub, assign) = extract_for(&m, &index, index.canon(y1.bit(0)), &[(a1.bit(0), true)]);
        let (d1, l1) = eng.decide(&sub, &assign);
        assert_eq!(d1, Decision::Const(true));
        assert_eq!(l1, Layer::Memo);
        assert_eq!(eng.stats().by_memo, 1);
    }

    /// A genuinely free cone is refuted by the random prefilter before
    /// any solver or enumeration runs.
    #[test]
    fn prefilter_refutes_free_cones() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let y = m.or(&a, &b);
        m.add_output("o", &y);
        let index = NetIndex::build(&m);
        let mut eng = QueryEngine::new(&m, &index, QueryEngineOptions::default());
        let (sub, assign) = extract_for(&m, &index, index.canon(y.bit(0)), &[]);
        let (d, layer) = eng.decide(&sub, &assign);
        assert_eq!(d, Decision::Unknown);
        assert_eq!(layer, Layer::Prefilter);
        assert_eq!(eng.stats().by_prefilter, 1);
    }

    /// A minimal thread-safe shared bank for tests: the same ring
    /// semantics as the driver's `KnowledgeBase`, without bounds.
    type TestShapes = HashMap<u64, (usize, Vec<Vec<bool>>)>;

    #[derive(Debug, Default)]
    struct TestBank {
        shapes: std::sync::Mutex<TestShapes>,
    }

    impl SharedCexBank for TestBank {
        fn lookup(&self, sig: u64, width: usize) -> Option<SharedVectors> {
            let shapes = self.shapes.lock().unwrap();
            let (w, models) = shapes.get(&sig)?;
            if *w != width || models.is_empty() {
                return None;
            }
            let mut planes = vec![0u64; width];
            for (lane, model) in models.iter().take(64).enumerate() {
                for (i, &v) in model.iter().enumerate() {
                    if v {
                        planes[i] |= 1 << lane;
                    }
                }
            }
            Some(SharedVectors {
                planes,
                lanes: models.len().min(64) as u32,
            })
        }

        fn publish(&self, sig: u64, values: &[bool]) {
            let mut shapes = self.shapes.lock().unwrap();
            let entry = shapes.entry(sig).or_insert_with(|| (values.len(), vec![]));
            if entry.0 == values.len() {
                entry.1.push(values.to_vec());
            }
        }
    }

    fn xor_module(name: &str) -> (Module, SigBit) {
        let mut m = Module::new(name);
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let x = m.xor(&a, &b);
        m.add_output("o", &x);
        let t = x.bit(0);
        (m, t)
    }

    /// Module A's SAT models seed the shared bank; module B's cold
    /// engine refutes the isomorphic query by shared replay alone.
    #[test]
    fn shared_bank_seeds_a_sibling_module() {
        let bank: Arc<TestBank> = Arc::new(TestBank::default());
        let (ma, ta) = xor_module("a");
        let index_a = NetIndex::build(&ma);
        let mut eng_a = QueryEngine::with_state(
            &ma,
            &index_a,
            sat_only(),
            VerdictMemo::new(),
            Some(bank.clone()),
            None,
        );
        let (sub, assign) = extract_for(&ma, &index_a, index_a.canon(ta), &[]);
        let (d, layer) = eng_a.decide(&sub, &assign);
        assert_eq!(d, Decision::Unknown);
        assert_eq!(layer, Layer::Sat);
        assert_eq!(eng_a.stats().sat_solves, 2);

        let (mb, tb) = xor_module("b");
        let index_b = NetIndex::build(&mb);
        let mut eng_b = QueryEngine::with_state(
            &mb,
            &index_b,
            sat_only(),
            VerdictMemo::new(),
            Some(bank),
            None,
        );
        let (sub, assign) = extract_for(&mb, &index_b, index_b.canon(tb), &[]);
        let (d, layer) = eng_b.decide(&sub, &assign);
        assert_eq!(d, Decision::Unknown);
        assert_eq!(layer, Layer::SharedCex, "cold module must hit the bank");
        assert_eq!(eng_b.stats().by_shared_cex, 1);
        assert_eq!(eng_b.stats().by_sat, 0);
    }

    /// Shared vectors must never mis-refute a genuinely constant bit:
    /// replay re-verifies every lane against the local path condition.
    #[test]
    fn shared_replay_never_misrefutes_a_constant_bit() {
        let bank: Arc<TestBank> = Arc::new(TestBank::default());
        // module A: free or-cone, publishes models witnessing both
        // polarities of the same shape B will query
        let mut ma = Module::new("a");
        let s = ma.add_input("s", 1);
        let r = ma.add_input("r", 1);
        let sr = ma.or(&s, &r);
        ma.add_output("o", &sr);
        let index_a = NetIndex::build(&ma);
        let mut eng_a = QueryEngine::with_state(
            &ma,
            &index_a,
            sat_only(),
            VerdictMemo::new(),
            Some(bank.clone()),
            None,
        );
        let (sub, assign) = extract_for(&ma, &index_a, index_a.canon(sr.bit(0)), &[]);
        let (d, _) = eng_a.decide(&sub, &assign);
        assert_eq!(d, Decision::Unknown);
        assert!(eng_a.stats().sat_solves > 0);

        // module B: the same or-cone but queried under s=1 — constant
        // true; the shared lanes with s=0 must be filtered out
        let mut mb = Module::new("b");
        let s2 = mb.add_input("s", 1);
        let r2 = mb.add_input("r", 1);
        let sr2 = mb.or(&s2, &r2);
        mb.add_output("o", &sr2);
        let index_b = NetIndex::build(&mb);
        let mut eng_b = QueryEngine::with_state(
            &mb,
            &index_b,
            sat_only(),
            VerdictMemo::new(),
            Some(bank),
            None,
        );
        let (sub, assign) = extract_for(
            &mb,
            &index_b,
            index_b.canon(sr2.bit(0)),
            &[(s2.bit(0), true)],
        );
        let (d, layer) = eng_b.decide(&sub, &assign);
        assert_eq!(d, Decision::Const(true));
        assert_eq!(layer, Layer::Sat);
        assert_eq!(
            eng_b.stats().by_shared_cex,
            0,
            "shared replay must not fire"
        );
    }

    /// Minimal design-level verdict store for tests: a fixed disk
    /// generation plus a publish log, mirroring the driver store's
    /// lookup-serves-disk-only contract.
    #[derive(Debug, Default)]
    struct TestVerdicts {
        disk: HashMap<Vec<u64>, Decision>,
        published: std::sync::Mutex<Vec<(Vec<u64>, Decision)>>,
    }

    impl SharedVerdictStore for TestVerdicts {
        fn lookup(&self, key: &[u64]) -> Option<Decision> {
            self.disk.get(key).copied()
        }

        fn publish(&self, key: &[u64], decision: Decision) {
            self.published
                .lock()
                .unwrap()
                .push((key.to_vec(), decision));
        }
    }

    /// Conclusive verdicts are published to the design-level store, and
    /// a second engine (different module, isomorphic cone) warm-started
    /// from those entries answers from the store without touching the
    /// prefilter, sim or SAT.
    #[test]
    fn design_verdict_store_replays_across_engines() {
        let store = Arc::new(TestVerdicts::default());
        let (ma, ta) = xor_module("a");
        let index_a = NetIndex::build(&ma);
        let mut eng_a = QueryEngine::with_state(
            &ma,
            &index_a,
            sat_only(),
            VerdictMemo::new(),
            None,
            Some(store.clone()),
        );
        let (sub, assign) = extract_for(&ma, &index_a, index_a.canon(ta), &[]);
        let (d, layer) = eng_a.decide(&sub, &assign);
        assert_eq!(d, Decision::Unknown);
        assert_eq!(layer, Layer::Sat);
        assert_eq!(eng_a.stats().verdicts_published, 1);
        let published = store.published.lock().unwrap().clone();
        assert_eq!(published.len(), 1);
        assert_eq!(published[0].1, Decision::Unknown);

        // promote the published entries to a fresh store's disk
        // generation — the load path in miniature
        let warm = Arc::new(TestVerdicts {
            disk: published.into_iter().collect(),
            published: std::sync::Mutex::new(Vec::new()),
        });
        let (mb, tb) = xor_module("b");
        let index_b = NetIndex::build(&mb);
        let mut eng_b = QueryEngine::with_state(
            &mb,
            &index_b,
            sat_only(),
            VerdictMemo::new(),
            None,
            Some(warm),
        );
        let (sub, assign) = extract_for(&mb, &index_b, index_b.canon(tb), &[]);
        let (d, layer) = eng_b.decide(&sub, &assign);
        assert_eq!(d, Decision::Unknown);
        assert_eq!(layer, Layer::DesignVerdict, "disk entry must answer");
        let s = eng_b.stats();
        assert_eq!(s.by_disk_verdict, 1);
        assert_eq!(s.by_sat, 0);
        assert_eq!(s.sat_solves, 0);
    }

    /// A budget-limited verdict is state-dependent and must never reach
    /// the persistent store; the same query under a generous budget is
    /// conclusive and published.
    #[test]
    fn budget_limited_verdicts_are_never_published() {
        // add(a,b) == add(b,a): constant true, but the UNSAT proof of
        // "can be false" needs real CDCL search — a 1-conflict budget
        // cuts it short
        let build = || {
            let mut m = Module::new("t");
            let a = m.add_input("a", 8);
            let b = m.add_input("b", 8);
            let s1 = m.add(&a, &b);
            let s2 = m.add(&b, &a);
            let y = m.eq(&s1, &s2);
            m.add_output("y", &y);
            (m, y.bit(0))
        };
        let run = |budget: u64| {
            let (m, t) = build();
            let index = NetIndex::build(&m);
            let store = Arc::new(TestVerdicts::default());
            let opts = QueryEngineOptions {
                decide: DecideOptions {
                    sim_threshold: 0,
                    conflict_budget: budget,
                    ..Default::default()
                },
                prefilter_rounds: 0,
            };
            let mut eng = QueryEngine::with_state(
                &m,
                &index,
                opts,
                VerdictMemo::new(),
                None,
                Some(store.clone()),
            );
            let (sub, assign) = extract_for(&m, &index, index.canon(t), &[]);
            let (d, _) = eng.decide(&sub, &assign);
            let published = store.published.lock().unwrap().len();
            (d, published)
        };
        let (d, published) = run(1);
        assert_eq!(d, Decision::Unknown, "budget 1 must cut the proof short");
        assert_eq!(published, 0, "budget-limited verdicts stay unpublished");
        let (d, published) = run(1_000_000);
        assert_eq!(d, Decision::Const(true));
        assert_eq!(published, 1, "conclusive verdicts are published");
    }

    /// Verdict memos persist across engine instances (rounds): a carried
    /// entry answers the repeat query, and a cone rewired in between
    /// misses, because its canonical key changes with it. Nothing but the
    /// key tells the two rounds apart: the cell ids are the same.
    #[test]
    fn memo_carries_across_rounds_and_invalidates_on_dirty_cells() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let x = m.and(&a, &b);
        m.add_output("o", &x);
        let t = x.bit(0);
        let known = [(a.bit(0), true)];
        let opts = QueryEngineOptions::default();
        let mut memo = {
            let index = NetIndex::build(&m);
            let (sub, assign) = extract_for(&m, &index, index.canon(t), &known);
            // round 1: a & b under a = 1 follows the free b
            let mut eng = QueryEngine::new(&m, &index, opts);
            assert_eq!(eng.decide(&sub, &assign).0, Decision::Unknown);
            let mut memo = eng.into_memo();
            assert_eq!(memo.len(), 1);

            // round 2: the same query is answered by a carried entry
            memo.next_round();
            let mut eng2 = QueryEngine::with_state(&m, &index, opts, memo, None, None);
            let (d, layer) = eng2.decide(&sub, &assign);
            assert_eq!(d, Decision::Unknown);
            assert_eq!(layer, Layer::Memo);
            assert_eq!(eng2.stats().memo_carryover, 1);
            eng2.into_memo()
        };

        // round 3: the same cell with its B pin tied to 1 is constant
        // under a = 1; the carried Unknown must not answer it
        let and_id = m
            .cells()
            .find(|(_, c)| c.kind == smartly_netlist::CellKind::And)
            .map(|(id, _)| id)
            .unwrap();
        m.cell_mut(and_id)
            .unwrap()
            .set_port(Port::B, smartly_netlist::SigSpec::const_u64(1, 1));
        memo.next_round();
        let index = NetIndex::build(&m);
        let (sub, assign) = extract_for(&m, &index, index.canon(t), &known);
        let mut eng3 = QueryEngine::with_state(&m, &index, opts, memo, None, None);
        let (d, layer) = eng3.decide(&sub, &assign);
        assert_eq!(d, Decision::Const(true));
        assert_ne!(layer, Layer::Memo);
        assert_eq!(eng3.stats().memo_carryover, 0);
    }

    /// The engine and the legacy fresh-solver path agree verdict-for-
    /// verdict on seeded random cones, through both the sim and the SAT
    /// routes, with and without a shared engine accumulating state.
    #[test]
    fn engine_matches_legacy_decide_on_random_cones() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for round in 0..20 {
            let mut m = Module::new("t");
            let inputs: Vec<_> = (0..5).map(|i| m.add_input(&format!("i{i}"), 1)).collect();
            let mut pool: Vec<smartly_netlist::SigSpec> = inputs.clone();
            for _ in 0..10 {
                let x = pool[rng.gen_range(0..pool.len())].clone();
                let y = pool[rng.gen_range(0..pool.len())].clone();
                let z = match rng.gen_range(0..5) {
                    0 => m.and(&x, &y),
                    1 => m.or(&x, &y),
                    2 => m.xor(&x, &y),
                    3 => m.mux(
                        &x,
                        &y,
                        &pool[rng.gen_range(0..pool.len())].clone().slice(0, 1),
                    ),
                    _ => m.not(&x),
                };
                pool.push(z);
            }
            for (i, s) in pool.iter().enumerate().skip(5) {
                m.add_output(&format!("o{i}"), s);
            }
            let index = NetIndex::build(&m);
            for (sim_threshold, prefilter_rounds) in [(16, 2), (0, 2), (0, 0)] {
                let opts = QueryEngineOptions {
                    decide: DecideOptions {
                        sim_threshold,
                        ..Default::default()
                    },
                    prefilter_rounds,
                };
                // one engine across the whole query stream, like a sweep
                let mut eng = QueryEngine::new(&m, &index, opts);
                for (t, sig) in pool.iter().enumerate().skip(5) {
                    let target = index.canon(sig.bit(0));
                    let known = [(inputs[round % 5].bit(0), round % 2 == 0)];
                    let (sub, assign) = extract_for(&m, &index, target, &known);
                    let (d_eng, _) = eng.decide(&sub, &assign);
                    let (d_leg, _) = decide(&m, &index, &sub, &assign, &opts.decide);
                    assert_eq!(
                        d_eng, d_leg,
                        "round {round} target {t} sim_threshold {sim_threshold}"
                    );
                }
            }
        }
    }
}
