//! The CDCL search engine.
//!
//! # Data layout
//!
//! Clauses live in a single flat `u32` arena ([`Solver::arena`]): two
//! header words (size/learnt/tier/LBD packed into one, the activity as
//! `f32` bits in the other) followed by the literal codes, so unit
//! propagation walks contiguous memory instead of chasing one heap
//! allocation per clause. A clause reference is the word offset of its
//! header. Deleting a clause only flips a header bit and counts the
//! freed words; a compacting GC ([`Solver::garbage_collect`]) rebuilds
//! the arena once a quarter of it is garbage, forwarding watcher and
//! reason references through the old activity slots.
//!
//! # Learnt-clause management
//!
//! Learnt clauses are tiered by their literal-block distance (LBD,
//! Audemard & Simon's glucose metric) computed at learn time: **core**
//! (LBD ≤ 2 or binary — kept forever), **tier2** (LBD ≤ 6), and
//! **local**. A clause keeps its tier for life. When the live non-core
//! learnt count passes an adaptive limit, [`Solver::reduce_db`] deletes
//! the worst half of the non-core tiers (local before tier2, high LBD
//! before low, low activity before high), never touching reason
//! ("locked") clauses.
//!
//! # Restarts and phases
//!
//! Restarts are Glucose-style adaptive: fast and slow exponential
//! moving averages of learnt-clause LBD force a restart when recent
//! conflicts are much worse than the long-run average (`restarts`).
//! Branching reuses each variable's last assigned value (plain phase
//! saving), and a restart keeps those saved phases.
//!
//! # Temporary domains
//!
//! [`Solver::set_domain`] confines the next solves to a set of variables,
//! gipsat's `temporary_domain`: the search decides only domain variables,
//! from a second activity heap, and propagation never assigns a variable
//! outside the domain. A query over one small cone of a large incremental
//! formula then costs propagations in that cone alone. Without a domain,
//! every code path is the unrestricted one.

use crate::deadline::Deadline;
use crate::heap::ActivityHeap;
use crate::{Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (see [`Solver::model_value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before an answer was found.
    Unknown,
}

/// Cumulative search statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Learnt clauses that entered the core tier (LBD ≤ 2 or binary).
    pub lbd_core: u64,
    /// Learnt-database reductions performed.
    pub reduces: u64,
    /// Compacting arena garbage collections performed.
    pub arena_gcs: u64,
    /// Cooperative-deadline polls performed inside `search` (one per
    /// [`DEADLINE_CHECK_INTERVAL`] conflicts while a deadline is set);
    /// `checks × interval` bounds how many conflicts a stuck solve ran
    /// past its deadline — the interruption latency.
    pub deadline_checks: u64,
}

/// Adds the other stats' monotone counters onto this one (used to carry
/// telemetry across solver resets; `learnt_clauses` is a gauge and is
/// summed like the rest — callers accumulating across resets want the
/// total clauses ever learnt and retained at each reset point).
impl SolverStats {
    /// Component-wise sum.
    pub fn absorb(&mut self, o: &SolverStats) {
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
        self.learnt_clauses += o.learnt_clauses;
        self.lbd_core += o.lbd_core;
        self.reduces += o.reduces;
        self.arena_gcs += o.arena_gcs;
        self.deadline_checks += o.deadline_checks;
    }

    /// Work done since `base` was snapshotted: the per-call delta the
    /// telemetry histograms feed on. Saturating on every field so a
    /// solver reset between the snapshots (which can shrink the
    /// `learnt_clauses` gauge) never underflows.
    pub fn since(&self, base: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts.saturating_sub(base.conflicts),
            decisions: self.decisions.saturating_sub(base.decisions),
            propagations: self.propagations.saturating_sub(base.propagations),
            restarts: self.restarts.saturating_sub(base.restarts),
            learnt_clauses: self.learnt_clauses.saturating_sub(base.learnt_clauses),
            lbd_core: self.lbd_core.saturating_sub(base.lbd_core),
            reduces: self.reduces.saturating_sub(base.reduces),
            arena_gcs: self.arena_gcs.saturating_sub(base.arena_gcs),
            deadline_checks: self.deadline_checks.saturating_sub(base.deadline_checks),
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

#[derive(Copy, Clone, Debug)]
struct Watcher {
    cref: u32,
    /// A literal of the clause other than the watched one; when it is
    /// already true the clause is satisfied and propagation never
    /// touches the arena (MiniSAT 2.2's "blocker").
    blocker: Lit,
}

// ---------------------------------------------------------------------
// Clause arena: header word 0 packs size | LBD | tier | learnt | deleted,
// header word 1 holds the activity as f32 bits (or the forwarding
// reference during GC), then `size` literal codes follow contiguously.
// ---------------------------------------------------------------------

/// Words before the literals of a clause.
const HEADER_WORDS: usize = 2;
/// Bits 0..20 of the header: clause size (≤ ~1M literals).
const SIZE_BITS: u32 = 20;
const SIZE_MASK: u32 = (1 << SIZE_BITS) - 1;
/// Bits 20..28: LBD, saturated at 255.
const LBD_SHIFT: u32 = 20;
const LBD_MAX: u32 = 0xFF;
/// Bits 28..30: tier.
const TIER_SHIFT: u32 = 28;
const TIER_MASK: u32 = 0b11;
/// Bit 30: learnt flag.
const LEARNT_BIT: u32 = 1 << 30;
/// Bit 31: deleted (awaiting GC).
const DELETED_BIT: u32 = 1 << 31;

/// Learnt tiers, stored in the header. Originals carry `TIER_CORE`.
const TIER_CORE: u32 = 0;
const TIER_TIER2: u32 = 1;
const TIER_LOCAL: u32 = 2;

/// LBD at or below which a learnt clause is core (kept forever).
const CORE_LBD: u32 = 2;
/// LBD at or below which a learnt clause is tier2 (reduced reluctantly).
const TIER2_LBD: u32 = 6;

fn pack_header(size: usize, learnt: bool, tier: u32, lbd: u32) -> u32 {
    debug_assert!(size as u32 <= SIZE_MASK);
    let mut h = size as u32;
    h |= lbd.min(LBD_MAX) << LBD_SHIFT;
    h |= (tier & TIER_MASK) << TIER_SHIFT;
    if learnt {
        h |= LEARNT_BIT;
    }
    h
}

/// A CDCL SAT solver; see the [crate docs](crate) for an example.
///
/// The solver is incremental: clauses may be added between `solve` calls,
/// and [`Solver::solve_with`] checks satisfiability under assumptions
/// without permanently asserting them.
#[derive(Clone, Debug)]
pub struct Solver {
    /// The flat clause store; see the module docs for the layout.
    arena: Vec<u32>,
    /// Words occupied by deleted clauses, pending compaction.
    garbage: usize,
    watches: Vec<Vec<Watcher>>,
    /// The value of each literal, indexed by [`Lit::code`]: assigning or
    /// unassigning a variable writes both of its literals.
    vals: Vec<LBool>,
    level: Vec<u32>,
    /// Each variable's reason clause, or [`NO_REASON`].
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    /// Deferred VSIDS rescale flags: bumps only set these; the walk over
    /// every activity happens once per conflict at a safe point instead
    /// of inside the bump loop (relative order is scale-invariant, so
    /// deferral never perturbs the heap).
    var_rescale_pending: bool,
    cla_rescale_pending: bool,
    order: ActivityHeap,
    /// Saved phases: each variable's value when it was last unassigned.
    polarity: Vec<bool>,
    seen: Vec<bool>,
    /// Level-stamp scratch for LBD computation (indexed by level).
    lbd_seen: Vec<u32>,
    lbd_stamp: u32,
    ok: bool,
    /// `vals` as the last satisfying call left it.
    model: Vec<LBool>,
    stats: SolverStats,
    conflict_budget: Option<u64>,
    deadline: Deadline,
    /// Live original (problem) clauses in the arena.
    num_originals: usize,
    /// Live non-core learnt clauses (the reducible population).
    num_learnts: usize,
    /// Live core-tier learnt clauses (kept forever, not reducible).
    num_core: usize,
    max_learnts: f64,
    /// Fast (recent-window) EMA of learnt-clause LBD.
    ema_lbd_fast: f64,
    /// Slow (long-run) EMA of learnt-clause LBD.
    ema_lbd_slow: f64,
    /// LBD samples absorbed so far: the EMAs run bias-corrected (plain
    /// running mean until a window's worth of samples arrived), so the
    /// slow average behaves like Glucose's global mean early on instead
    /// of anchoring at whatever the first conflict's LBD happened to be.
    ema_samples: u64,
    /// Conflict-analysis scratch, kept across conflicts: the learnt
    /// clause, the variables marked `seen`, and the minimization stack.
    learnt: Vec<Lit>,
    to_clear: Vec<Var>,
    redundant_stack: Vec<Lit>,
    domain: Domain,
}

/// The reason of a decision, an assumption or an unassigned variable.
const NO_REASON: u32 = u32::MAX;

/// The temporary domain of [`Solver::set_domain`].
#[derive(Clone, Debug, Default)]
struct Domain {
    /// Whether a domain is set.
    active: bool,
    /// The variables `v` with `mark[v] == epoch` form the domain.
    mark: Vec<u32>,
    epoch: u32,
    /// The unassigned domain variables, by activity: a search inside the
    /// domain decides from here instead of `Solver::order`.
    order: ActivityHeap,
    /// Level-0 trail position where the domain began: the literals from
    /// here on were propagated under it, so lifting it propagates them
    /// again.
    qhead: usize,
    /// Assignments made to variables outside the domain while it was set.
    escapes: u64,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLA_DECAY: f64 = 1.0 / 0.999;
/// Conflicts between cooperative [`Deadline`] polls inside `search`.
/// Small enough that interruption latency is a handful of conflicts,
/// large enough that an `Instant::now()` every interval is noise next to
/// the propagations those conflicts cost.
pub const DEADLINE_CHECK_INTERVAL: u64 = 16;
/// Smoothing factor of the fast (recent-window) learnt-LBD average.
const EMA_FAST_ALPHA: f64 = 1.0 / 32.0;
/// Smoothing factor of the slow (long-run) learnt-LBD average.
const EMA_SLOW_ALPHA: f64 = 1.0 / 8192.0;
/// Force a restart once the fast LBD average exceeds the slow one by
/// this factor: recent learnt clauses are much worse than the long-run
/// average, so the current basin is probably barren.
const EMA_FORCE_RATIO: f64 = 1.10;
/// Conflicts a restart epoch must last before the EMA controller may
/// force the next restart (the fast average needs a few samples).
const EMA_MIN_CONFLICTS: u64 = 32;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            garbage: 0,
            watches: Vec::new(),
            vals: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            var_rescale_pending: false,
            cla_rescale_pending: false,
            order: ActivityHeap::new(),
            polarity: Vec::new(),
            seen: Vec::new(),
            lbd_seen: vec![0],
            lbd_stamp: 0,
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            conflict_budget: None,
            deadline: Deadline::none(),
            num_originals: 0,
            num_learnts: 0,
            num_core: 0,
            max_learnts: 0.0,
            ema_lbd_fast: 0.0,
            ema_lbd_slow: 0.0,
            ema_samples: 0,
            learnt: Vec::new(),
            to_clear: Vec::new(),
            redundant_stack: Vec::new(),
            domain: Domain::default(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.vals.extend([LBool::Undef, LBool::Undef]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.lbd_seen.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.domain.mark.push(0);
        self.order.insert(v.0, &self.activity);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = (self.num_learnts + self.num_core) as u64;
        s
    }

    /// Limits the number of conflicts per `solve` call; `None` removes the
    /// limit. When the budget runs out, `solve` returns
    /// [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Installs a cooperative [`Deadline`], polled every
    /// [`DEADLINE_CHECK_INTERVAL`] conflicts inside `search` alongside
    /// the conflict budget. Expiry makes `solve` return
    /// [`SolveResult::Unknown`] — the same degradation path as budget
    /// exhaustion. [`Deadline::none`] removes the deadline.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Confines the next solves to `vars`: the search decides only domain
    /// variables, and propagation assigns nothing outside the domain. The
    /// domain holds over any number of [`Solver::solve_with`] calls until
    /// [`Solver::clear_domain`] (or the next `set_domain`) lifts it.
    ///
    /// **Contract.** For every assignment of the domain that satisfies
    /// the clauses inside it, the clauses that mention an outside
    /// variable must be satisfiable by the outside variables. A domain
    /// closed under Tseitin definitions satisfies it: a fan-in-closed
    /// cone plus the assumption variables. Under the contract,
    ///
    /// * an UNSAT answer is UNSAT of a subset of the clauses, so it holds
    ///   for the whole formula;
    /// * a SAT answer assigns the domain and extends to a model of the
    ///   whole formula, by evaluating every outside node from its
    ///   fan-ins; [`Solver::model_value`] of a variable the call left
    ///   unassigned is `None`;
    /// * every learnt clause is implied by the formula, so it stays valid
    ///   after the domain is lifted.
    ///
    /// Variables assigned at level 0 keep their values. Clauses may not be
    /// added while a domain is set.
    ///
    /// # Panics
    ///
    /// Panics on a variable that was never allocated.
    pub fn set_domain(&mut self, vars: &[Var]) {
        debug_assert_eq!(self.decision_level(), 0);
        self.clear_domain();
        let d = &mut self.domain;
        d.epoch = d.epoch.wrapping_add(1);
        if d.epoch == 0 {
            // wrapped: clear the stamps so stale marks are impossible
            d.mark.iter_mut().for_each(|m| *m = 0);
            d.epoch = 1;
        }
        d.active = true;
        d.qhead = self.qhead;
        for &v in vars {
            d.mark[v.index()] = d.epoch;
            if self.vals[Lit::pos(v).code()] == LBool::Undef {
                d.order.insert(v.0, &self.activity);
            }
        }
    }

    /// Lifts the domain of [`Solver::set_domain`], if any, and propagates
    /// again the level-0 literals enqueued under it, so that no level-0
    /// implication it skipped is lost to the unrestricted search.
    pub fn clear_domain(&mut self) {
        if !self.domain.active {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        self.domain.active = false;
        self.domain.order.clear();
        if self.ok {
            self.qhead = self.qhead.min(self.domain.qhead);
            if self.propagate().is_some() {
                self.ok = false;
            }
        }
    }

    /// How many assignments went to variables outside a domain while it
    /// was set, over the solver's life. Propagation and branching never
    /// make one; only an assumption outside the domain would, and that
    /// breaks the [`Solver::set_domain`] contract.
    pub fn domain_escapes(&self) -> u64 {
        self.domain.escapes
    }

    /// Whether `v` lies in the domain (meaningful only while one is set).
    fn in_domain(&self, v: Var) -> bool {
        self.domain.mark[v.index()] == self.domain.epoch
    }

    fn value_var(&self, v: Var) -> LBool {
        self.vals[Lit::pos(v).code()]
    }

    fn value_lit(&self, l: Lit) -> LBool {
        self.vals[l.code()]
    }

    // -- arena accessors ------------------------------------------------

    fn clause_size(&self, cref: u32) -> usize {
        (self.arena[cref as usize] & SIZE_MASK) as usize
    }

    fn clause_lit(&self, cref: u32, i: usize) -> Lit {
        Lit(self.arena[cref as usize + HEADER_WORDS + i])
    }

    fn clause_is_learnt(&self, cref: u32) -> bool {
        self.arena[cref as usize] & LEARNT_BIT != 0
    }

    fn clause_is_deleted(&self, cref: u32) -> bool {
        self.arena[cref as usize] & DELETED_BIT != 0
    }

    fn clause_activity(&self, cref: u32) -> f32 {
        f32::from_bits(self.arena[cref as usize + 1])
    }

    fn set_clause_activity(&mut self, cref: u32, a: f32) {
        self.arena[cref as usize + 1] = a.to_bits();
    }

    /// Allocates a clause in the arena and returns its reference.
    fn alloc_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> u32 {
        assert!(
            lits.len() as u32 <= SIZE_MASK,
            "clause exceeds the arena size field"
        );
        let tier = if !learnt || lbd <= CORE_LBD || lits.len() == 2 {
            // originals carry the core tag too; the learnt bit keeps
            // them out of every learnt-only path
            TIER_CORE
        } else if lbd <= TIER2_LBD {
            TIER_TIER2
        } else {
            TIER_LOCAL
        };
        let cref = self.arena.len() as u32;
        self.arena.push(pack_header(lits.len(), learnt, tier, lbd));
        self.arena.push(0f32.to_bits());
        for l in lits {
            self.arena.push(l.0);
        }
        if learnt {
            if tier == TIER_CORE {
                self.num_core += 1;
                self.stats.lbd_core += 1;
            } else {
                self.num_learnts += 1;
            }
        } else {
            self.num_originals += 1;
        }
        cref
    }

    /// Adds a clause; returns `false` if the solver became trivially
    /// unsatisfiable (empty clause at level 0).
    ///
    /// Duplicate literals are removed and tautologies are dropped.
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level 0
    /// (cannot happen through the public API) or if a literal references an
    /// unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        debug_assert!(!self.domain.active, "clauses are added outside a domain");
        if !self.ok {
            return false;
        }
        let mut ps: Vec<Lit> = lits.into_iter().collect();
        for l in &ps {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
        }
        ps.sort();
        ps.dedup();
        // tautology / false-literal elimination at level 0
        let mut out: Vec<Lit> = Vec::with_capacity(ps.len());
        let mut i = 0;
        while i < ps.len() {
            let l = ps[i];
            if i + 1 < ps.len() && ps[i + 1] == !l {
                return true; // tautology: l and !l adjacent after sort
            }
            match self.value_lit(l) {
                LBool::True => return true, // already satisfied
                LBool::False => {}          // drop falsified literal
                LBool::Undef => out.push(l),
            }
            i += 1;
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&out, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.alloc_clause(lits, learnt, lbd);
        self.watches[lits[0].code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        cref
    }

    fn detach_clause(&mut self, cref: u32) {
        let (l0, l1) = (self.clause_lit(cref, 0), self.clause_lit(cref, 1));
        // Position lookup + swap_remove: O(1) removal once found, instead
        // of `retain`'s full compaction of the watch list. Clause-DB
        // reduction detaches half the learnts at once, so this runs hot.
        for code in [l0.code(), l1.code()] {
            let ws = &mut self.watches[code];
            if let Some(pos) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(pos);
            }
        }
    }

    /// Marks a (detached) clause deleted; the words are reclaimed by the
    /// next [`Solver::garbage_collect`].
    fn free_clause(&mut self, cref: u32) {
        debug_assert!(!self.clause_is_deleted(cref));
        let size = self.clause_size(cref);
        self.arena[cref as usize] |= DELETED_BIT;
        self.garbage += HEADER_WORDS + size;
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: u32) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        if self.domain.active && !self.in_domain(l.var()) {
            self.domain.escapes += 1;
        }
        self.vals[l.code()] = LBool::True;
        self.vals[(!l).code()] = LBool::False;
        let v = l.var().index();
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    ///
    /// Each watch list is taken out of `watches` while it is scanned and
    /// compacted in place with a read/write cursor pair: watchers that stay
    /// (satisfied blocker, updated blocker, unit or conflict) are moved
    /// down at most once and the list is truncated at the end. No watcher
    /// moves into the list being scanned, since a new watch is never
    /// false, and the arena is not touched when the blocking literal is
    /// already true.
    ///
    /// Inside a domain, a watcher whose blocker is an unassigned outside
    /// literal is kept without reading its clause, and a clause that
    /// becomes unit on an outside literal is left alone: the outside
    /// literal stays unassigned for the whole call, so neither clause can
    /// propagate or conflict in it.
    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        let domain = self.domain.active;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let fcode = false_lit.code();
            let mut ws = std::mem::take(&mut self.watches[fcode]);
            let n = ws.len();
            let mut i = 0usize; // read cursor
            let mut j = 0usize; // write cursor
            'watchers: while i < n {
                let w = ws[i];
                i += 1;
                // fast path: blocker already true — clause satisfied,
                // watcher kept, arena untouched
                let blocker = self.vals[w.blocker.code()];
                if blocker == LBool::True
                    || (domain && blocker == LBool::Undef && !self.in_domain(w.blocker.var()))
                {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                let base = cref as usize + HEADER_WORDS;
                // make sure the false literal is at position 1
                if self.arena[base] == false_lit.0 {
                    self.arena.swap(base, base + 1);
                }
                debug_assert_eq!(self.arena[base + 1], false_lit.0);
                let first = Lit(self.arena[base]);
                if first != w.blocker && self.vals[first.code()] == LBool::True {
                    ws[j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // look for a new literal to watch
                let size = (self.arena[cref as usize] & SIZE_MASK) as usize;
                for k in 2..size {
                    let lk = Lit(self.arena[base + k]);
                    if self.vals[lk.code()] != LBool::False {
                        self.arena.swap(base + 1, base + k);
                        // `lk` is not false while `false_lit` is, so this
                        // push never targets the list being scanned
                        self.watches[lk.code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers; // watcher moved away
                    }
                }
                // no new watch: clause is unit or conflicting
                ws[j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.vals[first.code()] == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // keep the unvisited suffix: slide it down
                    ws.copy_within(i..n, j);
                    j += n - i;
                    break;
                }
                if domain && !self.in_domain(first.var()) {
                    continue; // unit on an outside literal: left alone
                }
                self.unchecked_enqueue(first, cref);
            }
            ws.truncate(j);
            self.watches[fcode] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            // rescaling preserves relative order, so it is deferred to
            // one pass per conflict instead of running inside the
            // bump-per-literal loop of conflict analysis
            self.var_rescale_pending = true;
        }
        self.order.bump(v.0, &self.activity);
        if self.domain.active {
            self.domain.order.bump(v.0, &self.activity);
        }
    }

    fn cla_bump(&mut self, cref: u32) {
        if !self.clause_is_learnt(cref) {
            return; // original clauses are never reduced: activity unused
        }
        let a = self.clause_activity(cref) + self.cla_inc as f32;
        self.set_clause_activity(cref, a);
        if a > 1e20 {
            self.cla_rescale_pending = true;
        }
    }

    /// Applies any rescale requested by `var_bump`/`cla_bump` since the
    /// last conflict: one pass each, hoisted out of the bump hot paths.
    fn apply_pending_rescales(&mut self) {
        if self.var_rescale_pending {
            self.var_rescale_pending = false;
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.cla_rescale_pending {
            self.cla_rescale_pending = false;
            let mut off = 0usize;
            while off < self.arena.len() {
                let h = self.arena[off];
                let size = (h & SIZE_MASK) as usize;
                if h & LEARNT_BIT != 0 && h & DELETED_BIT == 0 {
                    let a = f32::from_bits(self.arena[off + 1]) * 1e-20;
                    self.arena[off + 1] = a.to_bits();
                }
                off += HEADER_WORDS + size;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v.index()] & 31)
    }

    /// Literal-block distance: the number of distinct decision levels
    /// among the clause's literals (glucose's quality metric; smaller is
    /// better, ≤ 2 is "glue").
    fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp = self.lbd_stamp.wrapping_add(1);
        if self.lbd_stamp == 0 {
            // wrapped: clear the stamps so stale matches are impossible
            self.lbd_seen.iter_mut().for_each(|s| *s = 0);
            self.lbd_stamp = 1;
        }
        let mut lbd = 0u32;
        for l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if lvl >= self.lbd_seen.len() {
                // duplicated assumptions open dummy decision levels, so
                // the level count can exceed the per-var table size
                self.lbd_seen.resize(lvl + 1, 0);
            }
            if self.lbd_seen[lvl] != self.lbd_stamp {
                self.lbd_seen[lvl] = self.lbd_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// 1-UIP conflict analysis with deep clause minimization. Leaves the
    /// learnt clause, asserting literal first, in `self.learnt`, and
    /// returns (backtrack level, LBD of the learnt clause).
    fn analyze(&mut self, mut confl: u32) -> (usize, u32) {
        let mut learnt = std::mem::take(&mut self.learnt);
        let mut to_clear = std::mem::take(&mut self.to_clear);
        learnt.clear();
        learnt.push(Lit(0)); // slot for asserting literal
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.cla_bump(confl);
            let start = if p.is_none() { 0 } else { 1 };
            let size = self.clause_size(confl);
            for k in start..size {
                let q = self.clause_lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.var_bump(v);
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    if self.level[v.index()] as usize >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // next marked literal on the trail
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, NO_REASON, "non-decision must have a reason");
        }
        learnt[0] = !p.expect("asserting literal");

        // deep minimization, in place: drop literals implied by the rest
        let abstract_levels = learnt[1..]
            .iter()
            .fold(0u32, |acc, l| acc | self.abstract_level(l.var()));
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()] == NO_REASON
                || !self.lit_redundant(l, abstract_levels, &mut to_clear)
            {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);

        for v in to_clear.drain(..) {
            self.seen[v.index()] = false;
        }
        self.to_clear = to_clear;

        // LBD at learn time (before unwinding destroys the levels)
        let lbd = self.lbd_of(&learnt);

        // compute backtrack level; move the max-level literal to slot 1
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        self.learnt = learnt;
        (bt_level, lbd)
    }

    /// Checks whether `p` is redundant w.r.t. the currently-seen literals
    /// (MiniSAT `litRedundant`, iterative).
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32, to_clear: &mut Vec<Var>) -> bool {
        let mut stack = std::mem::take(&mut self.redundant_stack);
        stack.clear();
        stack.push(p);
        let top = to_clear.len();
        let mut redundant = true;
        'search: while let Some(q) = stack.pop() {
            let cref = self.reason[q.var().index()];
            debug_assert_ne!(cref, NO_REASON, "reason checked by caller");
            let size = self.clause_size(cref);
            for k in 1..size {
                let l = self.clause_lit(cref, k);
                let v = l.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    if self.reason[v.index()] != NO_REASON
                        && (self.abstract_level(v) & abstract_levels) != 0
                    {
                        self.seen[v.index()] = true;
                        to_clear.push(v);
                        stack.push(l);
                    } else {
                        // cannot remove: undo the marks made in this call
                        for v2 in to_clear.drain(top..) {
                            self.seen[v2.index()] = false;
                        }
                        redundant = false;
                        break 'search;
                    }
                }
            }
        }
        self.redundant_stack = stack;
        redundant
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.polarity[v.index()] = !l.is_neg();
            self.vals[l.code()] = LBool::Undef;
            self.vals[(!l).code()] = LBool::Undef;
            self.reason[v.index()] = NO_REASON;
            self.order.insert(v.0, &self.activity);
            if self.domain.active && self.in_domain(v) {
                self.domain.order.insert(v.0, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    /// The unassigned variable of highest activity: a domain variable
    /// while a domain is set.
    fn pick_branch_var(&mut self) -> Option<Var> {
        let order = if self.domain.active {
            &mut self.domain.order
        } else {
            &mut self.order
        };
        while let Some(v) = order.pop_max(&self.activity) {
            if self.vals[Lit::pos(Var(v)).code()] == LBool::Undef {
                return Some(Var(v));
            }
        }
        None
    }

    /// Halves the non-core learnt population: local-tier clauses go
    /// before tier2, higher LBD before lower, lower activity before
    /// higher. Core-tier clauses, binary clauses and reason ("locked")
    /// clauses are never deleted. Compacts the arena afterwards when a
    /// quarter of it is garbage.
    fn reduce_db(&mut self) {
        self.stats.reduces += 1;
        // (cref, tier, lbd, activity) of every reducible learnt
        let mut refs: Vec<(u32, u32, u32, f32)> = Vec::with_capacity(self.num_learnts);
        let mut off = 0usize;
        while off < self.arena.len() {
            let h = self.arena[off];
            let size = (h & SIZE_MASK) as usize;
            let cref = off as u32;
            if h & LEARNT_BIT != 0
                && h & DELETED_BIT == 0
                && (h >> TIER_SHIFT) & TIER_MASK != TIER_CORE
                && size > 2
                && !self.is_locked(cref)
            {
                refs.push((
                    cref,
                    (h >> TIER_SHIFT) & TIER_MASK,
                    (h >> LBD_SHIFT) & LBD_MAX,
                    self.clause_activity(cref),
                ));
            }
            off += HEADER_WORDS + size;
        }
        // victims first; cref as the deterministic tiebreaker
        refs.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(b.2.cmp(&a.2))
                .then(a.3.partial_cmp(&b.3).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.0.cmp(&b.0))
        });
        let target = refs.len() / 2;
        for &(cref, ..) in refs.iter().take(target) {
            self.detach_clause(cref);
            self.free_clause(cref);
            self.num_learnts -= 1;
        }
        if self.garbage * 4 > self.arena.len() {
            self.garbage_collect();
        }
    }

    /// Compacts the arena: live clauses move down contiguously, watcher
    /// and reason references are forwarded through the old activity
    /// slots, and the freed words are reclaimed.
    fn garbage_collect(&mut self) {
        self.stats.arena_gcs += 1;
        let mut new_arena: Vec<u32> = Vec::with_capacity(self.arena.len() - self.garbage);
        let mut off = 0usize;
        while off < self.arena.len() {
            let h = self.arena[off];
            let total = HEADER_WORDS + (h & SIZE_MASK) as usize;
            if h & DELETED_BIT == 0 {
                let new_cref = new_arena.len() as u32;
                new_arena.extend_from_slice(&self.arena[off..off + total]);
                // forward pointer for the remap passes below
                self.arena[off + 1] = new_cref;
            }
            off += total;
        }
        let old = &self.arena;
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                debug_assert!(old[w.cref as usize] & DELETED_BIT == 0);
                w.cref = old[w.cref as usize + 1];
            }
        }
        for r in self.reason.iter_mut().filter(|r| **r != NO_REASON) {
            debug_assert!(old[*r as usize] & DELETED_BIT == 0);
            *r = old[*r as usize + 1];
        }
        self.arena = new_arena;
        self.garbage = 0;
    }

    fn is_locked(&self, cref: u32) -> bool {
        let first = self.clause_lit(cref, 0);
        self.reason[first.var().index()] == cref && self.value_lit(first) == LBool::True
    }

    /// Solves the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under `assumptions` (literals forced true for this call only).
    ///
    /// After the call the solver is back at decision level 0 and can be
    /// reused; learnt clauses are kept.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        for l in assumptions {
            assert!(
                l.var().index() < self.num_vars(),
                "assumption on unallocated variable"
            );
            debug_assert!(
                !self.domain.active || self.in_domain(l.var()),
                "assumption outside the domain"
            );
        }
        self.max_learnts = (self.num_originals as f64 / 3.0).max(100.0);
        let budget_start = self.stats.conflicts;
        let result = loop {
            match self.search(assumptions, budget_start) {
                SearchOutcome::Sat => break SolveResult::Sat,
                SearchOutcome::Unsat => break SolveResult::Unsat,
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    self.max_learnts *= 1.05;
                    // a restart ends the fast EMA's epoch: re-anchor it
                    // to the long-run average so the next window
                    // measures only fresh conflicts
                    self.ema_lbd_fast = self.ema_lbd_slow;
                }
                SearchOutcome::BudgetExhausted => break SolveResult::Unknown,
            }
        };
        if result == SolveResult::Sat {
            self.model.clone_from(&self.vals);
        }
        self.cancel_until(0);
        result
    }

    fn search(&mut self, assumptions: &[Lit], budget_start: u64) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                // conflict below/at the assumption prefix ⇒ UNSAT under assumptions
                if self.decision_level() <= assumptions.len() {
                    // analyze to be sure the conflict does not depend on
                    // assumption-free levels; a simple sound answer:
                    let (bt, lbd) = self.analyze(confl);
                    if bt < assumptions.len() {
                        // learnt clause asserts at a level inside the
                        // assumption prefix: record it and retry there
                        self.cancel_until(bt);
                        self.record_learnt(lbd);
                        if self.decision_level() == 0 && self.propagate().is_some() {
                            self.ok = false;
                            return SearchOutcome::Unsat;
                        }
                        continue;
                    }
                    self.cancel_until(bt);
                    self.record_learnt(lbd);
                    continue;
                }
                let (bt, lbd) = self.analyze(confl);
                // EMA restart control: every conflict feeds the
                // fast/slow LBD averages, and a run of bad (high-LBD)
                // conflicts forces a restart.
                let lbd_f = lbd as f64;
                self.ema_samples += 1;
                let inv_n = 1.0 / self.ema_samples as f64;
                self.ema_lbd_fast += EMA_FAST_ALPHA.max(inv_n) * (lbd_f - self.ema_lbd_fast);
                self.ema_lbd_slow += EMA_SLOW_ALPHA.max(inv_n) * (lbd_f - self.ema_lbd_slow);
                let force_restart = conflicts_here >= EMA_MIN_CONFLICTS
                    && self.ema_lbd_fast > self.ema_lbd_slow * EMA_FORCE_RATIO;
                self.cancel_until(bt);
                self.record_learnt(lbd);
                self.var_inc *= VAR_DECAY;
                self.cla_inc *= CLA_DECAY;
                if let Some(b) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= b {
                        self.cancel_until(0);
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                // Cooperative deadline: polled every few conflicts so a
                // wall-clock budget interrupts a stuck solve mid-flight
                // instead of waiting for the pass boundary. Expiry rides
                // the budget-exhaustion path (`SolveResult::Unknown`).
                if !self.deadline.is_none()
                    && conflicts_here.is_multiple_of(DEADLINE_CHECK_INTERVAL)
                {
                    self.stats.deadline_checks += 1;
                    if self.deadline.expired() {
                        self.cancel_until(0);
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                if force_restart {
                    self.cancel_until(0);
                    return SearchOutcome::Restart;
                }
                if self.num_learnts as f64 >= self.max_learnts {
                    self.reduce_db();
                }
            } else {
                // establish assumptions in order
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value_lit(p) {
                        LBool::True => {
                            // already implied: open a dummy level
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            return SearchOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.unchecked_enqueue(Lit::new(v, phase), NO_REASON);
                    }
                }
            }
        }
    }

    /// Records the clause `analyze` left in `self.learnt`.
    fn record_learnt(&mut self, lbd: u32) {
        // one pass per conflict, hoisted out of the per-bump branches
        self.apply_pending_rescales();
        let learnt = std::mem::take(&mut self.learnt);
        if learnt.len() == 1 {
            self.cancel_until(0);
            if self.value_lit(learnt[0]) == LBool::Undef {
                self.unchecked_enqueue(learnt[0], NO_REASON);
            } else if self.value_lit(learnt[0]) == LBool::False {
                self.ok = false;
            }
        } else {
            let first = learnt[0];
            let cref = self.attach_clause(&learnt, true, lbd);
            self.cla_bump(cref);
            self.unchecked_enqueue(first, cref);
        }
        self.learnt = learnt;
    }

    /// The value of `l` in the last satisfying model.
    ///
    /// Returns `None` before any successful `solve`, for variables
    /// allocated afterwards, and for variables that a solve inside a
    /// domain left unassigned (see [`Solver::set_domain`]).
    pub fn model_value(&self, l: Lit) -> Option<bool> {
        match self.model.get(l.code())? {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Whether the clause set is already known unsatisfiable.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Value of a variable fixed at decision level 0 (by propagation),
    /// independent of any model.
    pub fn fixed_value(&self, v: Var) -> Option<bool> {
        if self.level[v.index()] == 0 {
            match self.value_var(v) {
                LBool::True => Some(true),
                LBool::False => Some(false),
                LBool::Undef => None,
            }
        } else {
            None
        }
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32, s: &mut Solver) -> Lit {
        while s.num_vars() <= i.unsigned_abs() as usize {
            s.new_var();
        }
        let v = Var(i.unsigned_abs() - 1);
        if i < 0 {
            Lit::neg(v)
        } else {
            Lit::pos(v)
        }
    }

    fn cnf(s: &mut Solver, clauses: &[&[i32]]) {
        for c in clauses {
            let ls: Vec<Lit> = c.iter().map(|&i| lit(i, s)).collect();
            s.add_clause(ls);
        }
    }

    fn pigeonhole(s: &mut Solver, n: usize, m: usize) {
        let var = |i: usize, j: usize| (i * m + j + 1) as i32;
        for i in 0..n {
            let c: Vec<i32> = (0..m).map(|j| var(i, j)).collect();
            cnf(s, &[&c]);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    cnf(s, &[&[-var(i1, j), -var(i2, j)]]);
                }
            }
        }
    }

    #[test]
    fn header_packs_and_unpacks() {
        let h = pack_header(17, true, TIER_TIER2, 5);
        assert_eq!(h & SIZE_MASK, 17);
        assert_eq!((h >> LBD_SHIFT) & LBD_MAX, 5);
        assert_eq!((h >> TIER_SHIFT) & TIER_MASK, TIER_TIER2);
        assert_ne!(h & LEARNT_BIT, 0);
        assert_eq!(h & DELETED_BIT, 0);
        // LBD saturates instead of overflowing into the tier bits
        let h = pack_header(3, true, TIER_LOCAL, 1_000);
        assert_eq!((h >> LBD_SHIFT) & LBD_MAX, LBD_MAX);
        assert_eq!((h >> TIER_SHIFT) & TIER_MASK, TIER_LOCAL);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        cnf(&mut s, &[&[1, 2], &[-1, 2]]);
        let l2 = lit(2, &mut s);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(l2), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        cnf(&mut s, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_chain_propagates() {
        let mut s = Solver::new();
        cnf(&mut s, &[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        let ls: Vec<Lit> = (1..=4).map(|i| lit(i, &mut s)).collect();
        assert_eq!(s.solve(), SolveResult::Sat);
        for l in ls {
            assert_eq!(s.model_value(l), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 3, 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn xor_chain_sat_with_parity() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 0 : satisfiable
        let mut s = Solver::new();
        cnf(
            &mut s,
            &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1, -3], &[-1, 3]],
        );
        let (l1, l2, l3) = (lit(1, &mut s), lit(2, &mut s), lit(3, &mut s));
        assert_eq!(s.solve(), SolveResult::Sat);
        let x1 = s.model_value(l1).unwrap();
        let x2 = s.model_value(l2).unwrap();
        let x3 = s.model_value(l3).unwrap();
        assert!(x1 ^ x2);
        assert!(x2 ^ x3);
        assert!(!(x1 ^ x3));
    }

    #[test]
    fn assumptions_flip_outcome() {
        let mut s = Solver::new();
        cnf(&mut s, &[&[1, 2]]);
        let a = lit(-1, &mut s);
        let b = lit(-2, &mut s);
        assert_eq!(s.solve_with(&[a, b]), SolveResult::Unsat);
        let l2 = lit(2, &mut s);
        assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
        assert_eq!(s.model_value(l2), Some(true));
        // solver still reusable without assumptions
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        cnf(&mut s, &[&[1, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        cnf(&mut s, &[&[-1], &[-2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn budget_returns_unknown() {
        // php(7,6) is hard enough to exceed a 5-conflict budget
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn learnt_tiers_and_reduction_preserve_verdicts() {
        // php(7,6) generates thousands of conflicts: the learnt database
        // must pass its limit, reduce (and usually GC) at least once, and
        // still prove UNSAT
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.conflicts > 500, "expected a hard instance: {st:?}");
        assert!(st.reduces > 0, "learnt DB must reduce: {st:?}");
        assert!(st.lbd_core > 0, "glue clauses must be found: {st:?}");
    }

    #[test]
    fn solver_stats_absorb_sums_counters() {
        let mut a = SolverStats {
            conflicts: 1,
            decisions: 2,
            propagations: 3,
            restarts: 4,
            learnt_clauses: 5,
            lbd_core: 7,
            reduces: 8,
            arena_gcs: 9,
            deadline_checks: 10,
        };
        a.absorb(&a.clone());
        assert_eq!(a.conflicts, 2);
        assert_eq!(a.propagations, 6);
        assert_eq!(a.restarts, 8);
        assert_eq!(a.lbd_core, 14);
        assert_eq!(a.reduces, 16);
        assert_eq!(a.arena_gcs, 18);
        assert_eq!(a.deadline_checks, 20);
        // `since` is the exact inverse of one absorb
        let half = SolverStats {
            conflicts: 1,
            decisions: 2,
            propagations: 3,
            restarts: 4,
            learnt_clauses: 5,
            lbd_core: 7,
            reduces: 8,
            arena_gcs: 9,
            deadline_checks: 10,
        };
        assert_eq!(a.since(&half), half);
    }

    #[test]
    fn ema_and_promotion_fire_on_hard_instance_and_preserve_unsat() {
        // php(7,6) runs thousands of conflicts: the EMA controller must
        // force restarts, glue learnts must enter the core tier (tiers
        // are fixed at learn time; there is no later promotion), and the
        // proof must still close.
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.restarts > 0, "EMA restarts never forced: {st:?}");
        assert!(st.lbd_core > 0, "no learnt entered the core tier: {st:?}");
    }

    #[test]
    fn deadline_interrupts_search_mid_flight() {
        // php(7,6) costs thousands of conflicts; a deterministic
        // one-check deadline must interrupt the search long before the
        // proof completes, surfacing exactly like budget exhaustion.
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        s.set_deadline(Deadline::after_checks(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        let st = s.stats();
        assert!(st.deadline_checks > 0, "deadline was never polled: {st:?}");
        assert!(st.conflicts < 500, "interruption latency too high: {st:?}");
        // clearing the deadline restores the full search
        s.set_deadline(Deadline::none());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn elapsed_wall_deadline_interrupts_search() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        s.set_deadline(Deadline::after(std::time::Duration::ZERO));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(s.stats().deadline_checks > 0);
    }

    #[test]
    fn duplicate_and_tautology_handling() {
        let mut s = Solver::new();
        let a = lit(1, &mut s);
        // tautology is dropped silently
        assert!(s.add_clause([a, !a]));
        // duplicates collapse
        assert!(s.add_clause([a, a, a]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
    }

    #[test]
    fn duplicate_assumptions_with_conflict() {
        // 3 vars: a=1, x=2, y=3; UNSAT core over x,y so any decision on x
        // conflicts. Duplicated assumptions open dummy decision levels, so
        // the conflicting decision lands at level 4 > nvars.
        let mut s = Solver::new();
        cnf(&mut s, &[&[2, 3], &[-2, 3], &[2, -3], &[-2, -3]]);
        let a = lit(1, &mut s);
        let r = s.solve_with(&[a, a, a]);
        assert_eq!(r, SolveResult::Unsat);
    }

    #[test]
    fn fixed_value_at_level0() {
        let mut s = Solver::new();
        cnf(&mut s, &[&[1], &[-1, 2]]);
        // adding the clauses already propagates at level 0
        assert_eq!(s.fixed_value(Var(0)), Some(true));
        assert_eq!(s.fixed_value(Var(1)), Some(true));
    }

    /// Brute-force model count comparison on random small CNFs.
    #[test]
    fn agrees_with_brute_force() {
        let mut seed = 0x243F6A8885A308D3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..60 {
            let nvars = 4 + (next() % 6) as usize; // 4..=9
            let nclauses = 6 + (next() % 24) as usize;
            let mut clauses: Vec<Vec<i32>> = Vec::new();
            for _ in 0..nclauses {
                let len = 1 + (next() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = (next() % nvars as u64) as i32 + 1;
                    let sign = if next() % 2 == 0 { 1 } else { -1 };
                    c.push(v * sign);
                }
                clauses.push(c);
            }
            // brute force
            let mut any = false;
            'assign: for m in 0..(1u32 << nvars) {
                for c in &clauses {
                    let sat = c.iter().any(|&l| {
                        let v = l.unsigned_abs() as usize - 1;
                        let val = (m >> v) & 1 == 1;
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    });
                    if !sat {
                        continue 'assign;
                    }
                }
                any = true;
                break;
            }
            let mut s = Solver::new();
            let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
            cnf(&mut s, &refs);
            let expected = if any {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(s.solve(), expected, "round {round}: {clauses:?}");
            if expected == SolveResult::Sat {
                // verify the model actually satisfies the clauses
                for c in &clauses {
                    let sat = c.iter().any(|&l| {
                        let v = Var(l.unsigned_abs() - 1);
                        let want = l > 0;
                        s.model_value(Lit::pos(v)) == Some(want)
                    });
                    assert!(sat, "model violates {c:?}");
                }
            }
        }
    }
}
