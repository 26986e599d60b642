//! The design-level optimization engine: a work-stealing pool of scoped
//! threads running the per-module [`Pipeline`] over every module of a
//! [`Design`], with structural memoization and per-module guards.

use crate::knowledge::{DesignVerdictStore, KnowledgeBase};
use crate::persist::KnowledgeState;
use crate::report::{DesignReport, ModuleOutcome, ModuleReport};
use smartly_core::{Deadline, OptLevel, Pipeline, SharedCexBank, SharedVerdictStore};
use smartly_failpoint as fail;
use smartly_netlist::{Design, Module, NetlistError};
use smartly_telemetry::{ArgValue, SpanEvent, Trace, TraceClock, TraceHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker-thread stack reservation. Netlist traversals (elaboration,
/// AIG folds, emission) recurse with cone depth, and the Medium/Large
/// corpus scales produce chains deep enough to blow the 2 MiB platform
/// default under debug frame sizes. Virtual reservation only — pages
/// commit as touched.
const WORKER_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Configuration for [`optimize_design`].
#[derive(Clone, Debug)]
pub struct DriverOptions {
    /// Optimization level (paper Table III column).
    pub level: OptLevel,
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Verify every optimized module against its original with the AIG
    /// miter (memo-cache hits inherit their representative's verdict).
    pub verify: bool,
    /// Optimize structurally identical modules once and clone the result
    /// (common in generated/industrial RTL).
    pub memoize: bool,
    /// Size guard: modules with more live cells than this are passed
    /// through untouched and reported as skipped.
    pub max_cells: Option<usize>,
    /// Per-module wall-clock budget, enforced **cooperatively**: the
    /// worker threads a [`smartly_sat::Deadline`] through the pipeline
    /// into the query engine and the CDCL search loop (polled every few
    /// conflicts — the `deadline_checks` counter in the timing JSON
    /// shows the poll count, bounding interruption latency), so an
    /// expired budget interrupts a stuck SAT call mid-flight instead of
    /// only being observed at pass boundaries. A module that hit its
    /// deadline — or whose pipeline returned past the budget — is
    /// reverted to its original netlist and reported as timed out.
    ///
    /// Because expiry depends on wall time, enabling the budget can make
    /// reports differ between otherwise identical runs. Interrupted
    /// queries surface as budget-limited `Unknown` verdicts and are
    /// never published to design-level knowledge stores, so other
    /// modules' results and warm-start files stay sound.
    pub timeout: Option<Duration>,
    /// An externally owned cancellation token threaded into every
    /// module's pipeline instead of a per-module [`Deadline`] derived
    /// from [`timeout`](DriverOptions::timeout). This is the `smartly
    /// serve` seam: the daemon arms one trip-able deadline per *job* so
    /// its watchdog and drain ladder can interrupt a running
    /// optimization cooperatively (modules interrupted mid-flight
    /// revert and report as timed out, exactly as with `timeout`).
    /// Takes precedence over `timeout` when both are set. `None` (the
    /// default) keeps the CLI behaviour.
    pub external_deadline: Option<Deadline>,
    /// Attach one design-level [`KnowledgeBase`] to every module's
    /// pipeline so structurally similar modules seed each other's
    /// counterexample-replay vectors (see [`crate::knowledge`]). Off is
    /// the ablation baseline; verdicts and areas are identical either
    /// way.
    pub share_knowledge: bool,
    /// Shape bound for the shared knowledge base.
    pub knowledge_capacity: usize,
    /// Warm-start state loaded from a knowledge file
    /// ([`crate::persist::load_state`]): the run then uses this state's
    /// bank and verdict store instead of creating fresh ones, and
    /// [`DesignReport::kb`] reports the load/hit counters. `None` (the
    /// default) runs cold with in-process state only. Ignored when
    /// `share_knowledge` is off.
    pub knowledge_state: Option<Arc<KnowledgeState>>,
    /// Record hierarchical spans (module → round → pass → query → SAT
    /// call) into per-module trace buffers and attach the merged
    /// [`Trace`] to [`DesignReport::trace`]. Purely observational:
    /// counters, areas, and `--digest` output are byte-identical with
    /// tracing on or off (latency histograms are always collected either
    /// way — only span recording is gated here).
    pub trace: bool,
    /// Base pipeline configuration; `verify` above overrides its flag,
    /// and `share_knowledge` above overrides its `shared_bank` and
    /// `shared_verdicts`.
    pub pipeline: Pipeline,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            level: OptLevel::Full,
            jobs: 0,
            verify: false,
            memoize: true,
            max_cells: None,
            timeout: None,
            external_deadline: None,
            share_knowledge: true,
            knowledge_capacity: crate::knowledge::DEFAULT_KNOWLEDGE_CAPACITY,
            knowledge_state: None,
            trace: false,
            pipeline: Pipeline::default(),
        }
    }
}

impl DriverOptions {
    fn effective_jobs(&self, work_items: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let jobs = if self.jobs == 0 { hw } else { self.jobs };
        jobs.clamp(1, work_items.max(1))
    }
}

/// Parses a CLI-style level name (`yosys`, `sat`, `rebuild`, `full`).
pub fn level_from_str(s: &str) -> Option<OptLevel> {
    OptLevel::ALL.into_iter().find(|l| l.name() == s)
}

/// The module's canonical text: its Verilog emission with the name
/// blanked, so two modules elaborated from identical bodies compare
/// equal. The memo cache keys on this full text — not a hash of it — so
/// a hash collision can never substitute the wrong module's result.
fn canonical_text(module: &mut Module) -> String {
    let saved = std::mem::replace(&mut module.name, "__memo__".to_string());
    let text = smartly_verilog::emit_verilog(module);
    module.name = saved;
    text
}

/// A stable 64-bit structural fingerprint of a module, independent of the
/// module's *name*: two modules elaborated from identical bodies hash
/// equal. FNV-1a over the canonical emission, deterministic across
/// processes and builds. (A fingerprint for logging/diffing; the memo
/// cache itself compares full canonical texts.)
pub fn structural_key(module: &Module) -> u64 {
    let mut canon = module.clone();
    smartly_sat::codec::fnv64(canonical_text(&mut canon).as_bytes())
}

/// Per-module work cell shared with the worker pool.
struct Slot {
    module: Module,
    done: Option<ModuleReport>,
    error: Option<NetlistError>,
    /// Finished span events for this module's optimization. The
    /// recording handle is `Rc`-based and never leaves the worker; only
    /// this plain (and `Send`) event vector crosses back.
    trace: Option<Vec<SpanEvent>>,
}

/// Optimizes every module of `design` in place and returns the aggregate
/// report.
///
/// Modules are distributed over a pool of scoped worker threads through a
/// shared atomic cursor (idle workers steal the next heaviest pending
/// module), so wall time tracks the slowest module rather than the sum.
/// The report lists modules in the design's original order regardless of
/// completion order, and every field except wall times is a pure function
/// of the input — `--jobs 1` and `--jobs N` produce identical
/// [`DesignReport::digest`]s.
///
/// # Errors
///
/// Returns the first netlist error in module order. `design` keeps its
/// original netlist for every module that errored or never ran (an
/// erroring worker restores the pristine module before recording the
/// failure), so a recovering caller never sees half-optimized state.
pub fn optimize_design(
    design: &mut Design,
    opts: &DriverOptions,
) -> Result<DesignReport, NetlistError> {
    let started = Instant::now();
    let mut modules = design.take_modules();
    let n = modules.len();

    // Memoization: representative = first module (in design order) with
    // the same canonical text. Duplicates are filled in after the pool
    // runs. Keying on the full text (not a hash) makes a false memo hit
    // impossible.
    let rep_of: Vec<usize> = if opts.memoize {
        let mut first: HashMap<String, usize> = HashMap::new();
        modules
            .iter_mut()
            .enumerate()
            .map(|(i, m)| *first.entry(canonical_text(m)).or_insert(i))
            .collect()
    } else {
        (0..n).collect()
    };

    // Heaviest-first work order: start the biggest modules early so a
    // giant module never lands last on an otherwise drained queue.
    let mut work: Vec<usize> = (0..n).filter(|&i| rep_of[i] == i).collect();
    let weight: Vec<usize> = modules.iter().map(Module::live_cell_count).collect();
    work.sort_by_key(|&i| (std::cmp::Reverse(weight[i]), i));

    let slots: Vec<Mutex<Slot>> = modules
        .into_iter()
        .map(|m| {
            Mutex::new(Slot {
                module: m,
                done: None,
                error: None,
                trace: None,
            })
        })
        .collect();

    let mut pipeline = opts.pipeline.clone();
    pipeline.verify = opts.verify;
    // one knowledge base + verdict store per design run: every worker's
    // pipeline holds the same Arcs, so module sweeps publish and import
    // concurrently. A warm-start state (loaded from a knowledge file)
    // supplies pre-seeded instances instead.
    let (knowledge, verdicts): (Option<Arc<KnowledgeBase>>, Option<Arc<DesignVerdictStore>>) =
        if opts.share_knowledge {
            match &opts.knowledge_state {
                Some(state) => (Some(state.bank.clone()), Some(state.verdicts.clone())),
                None => (
                    Some(Arc::new(KnowledgeBase::new(opts.knowledge_capacity))),
                    Some(Arc::new(DesignVerdictStore::new())),
                ),
            }
        } else {
            (None, None)
        };
    pipeline.shared_bank = knowledge.clone().map(|k| k as Arc<dyn SharedCexBank>);
    pipeline.shared_verdicts = verdicts.map(|v| v as Arc<dyn SharedVerdictStore>);

    let jobs = opts.effective_jobs(work.len());
    // One clock for the whole design run so per-module tracks share a
    // time base when merged. `TraceClock` is `Copy`, so each worker gets
    // its own copy and builds a thread-confined recording handle from it.
    let clock = opts.trace.then(TraceClock::start);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..jobs {
            // explicit stack: netlist traversals recurse with cone depth,
            // and Medium/Large circuits exceed the 2 MiB platform default
            // in debug builds (the reservation is virtual; pages commit
            // only as touched)
            std::thread::Builder::new()
                .name(format!("smartly-worker-{i}"))
                .stack_size(WORKER_STACK_BYTES)
                .spawn_scoped(scope, || loop {
                    let w = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&idx) = work.get(w) else { break };
                    let mut slot = slots[idx].lock().expect("slot poisoned");
                    run_one(&mut slot, &pipeline, opts, clock);
                })
                .expect("spawn worker");
        }
    });

    // Reassemble in original order; duplicates clone their representative.
    let mut reports: Vec<ModuleReport> = Vec::with_capacity(n);
    let mut out_modules: Vec<Option<Module>> = (0..n).map(|_| None).collect();
    let mut first_error: Option<NetlistError> = None;
    // Per-module trace tracks, collected in design order so the merged
    // trace is structurally deterministic regardless of worker schedule.
    let mut tracks: Vec<(String, Vec<SpanEvent>)> = Vec::new();

    let mut finished: Vec<Slot> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned"))
        .collect();

    for i in 0..n {
        let rep = rep_of[i];
        if rep == i {
            let slot = &mut finished[i];
            if let Some(err) = slot.error.take() {
                first_error.get_or_insert(err);
            }
            // A missing report means the worker errored (or panicked)
            // on this slot; keep alignment with a passthrough entry.
            let report = slot
                .done
                .take()
                .unwrap_or_else(|| ModuleReport::untouched(&slot.module));
            if let Some(events) = slot.trace.take() {
                tracks.push((report.name.clone(), events));
            }
            reports.push(report);
            out_modules[i] = Some(std::mem::replace(&mut slot.module, Module::new("")));
        } else {
            // rep < i always (first occurrence), so its slot is done.
            let mut cloned = out_modules[rep].as_ref().expect("rep filled").clone();
            let name = std::mem::take(&mut finished[i].module.name);
            cloned.name = name.clone();
            let rep_name = reports[rep].name.clone();
            reports.push(reports[rep].as_memo_hit(name, rep_name));
            out_modules[i] = Some(cloned);
        }
    }

    design.replace_modules(
        out_modules
            .into_iter()
            .map(|m| m.expect("filled"))
            .collect(),
    );

    if let Some(err) = first_error {
        return Err(err);
    }

    let mut report = DesignReport::aggregate(opts.level, jobs, reports, started.elapsed());
    report.knowledge = knowledge.map(|k| k.stats());
    if opts.share_knowledge {
        report.kb = opts.knowledge_state.as_ref().map(|s| s.kb_report());
    }
    if opts.trace {
        let mut trace = Trace::new(format!("smartly-{}", opts.level.name()));
        for (label, events) in tracks {
            trace.push_track(label, events);
        }
        report.trace = Some(trace);
    }
    Ok(report)
}

/// Fail-point site: panics inside the guarded per-module region (arg:
/// the module name, so an `@filter` can target one module).
pub const FP_MODULE_PANIC: &str = "driver.module.panic";
/// Fail-point site: forces a deterministic, already-counting-down
/// deadline onto a module (arg: the module name), exercising the
/// cooperative-interruption ladder without real wall-clock pressure.
pub const FP_MODULE_DEADLINE: &str = "driver.module.deadline";

/// Polls a fail-point-forced deadline survives before expiring: one
/// round boundary and one SAT-layer entry pass, so the third poll trips
/// inside whatever the module is doing next — mid-SAT search when the
/// module has solver work.
const FORCED_DEADLINE_CHECKS: u64 = 3;

fn run_one(slot: &mut Slot, pipeline: &Pipeline, opts: &DriverOptions, clock: Option<TraceClock>) {
    let cells_before = slot.module.live_cell_count();
    if let Some(limit) = opts.max_cells {
        if cells_before > limit {
            slot.done = Some(ModuleReport {
                name: slot.module.name.clone(),
                cells_before,
                cells_after: cells_before,
                outcome: ModuleOutcome::SkippedTooLarge { limit },
                report: None,
                wall: Duration::ZERO,
            });
            return;
        }
    }

    // Keep the pristine module: restored on pipeline error, on a blown
    // or tripped deadline, and on a caught panic (so the design never
    // silently holds half-optimized netlists). Lives only while this
    // worker runs this module, so peak overhead is one module per
    // worker, not per design.
    let original = slot.module.clone();
    let deadline = if fail::check_arg(FP_MODULE_DEADLINE, &slot.module.name) {
        Deadline::after_checks(FORCED_DEADLINE_CHECKS)
    } else {
        match (&opts.external_deadline, opts.timeout) {
            // the job-level token (smartly serve) outranks the
            // per-module budget: one deadline spans the whole design
            (Some(job), _) => job.clone(),
            (None, Some(budget)) => Deadline::after(budget),
            (None, None) => Deadline::none(),
        }
    };
    let t0 = Instant::now();
    // Panic isolation: everything that can execute pass code runs under
    // the guard. On panic the slot module is restored from `original`
    // and the trace buffer is discarded, so no state the unwound pass
    // touched survives (which is what justifies the guard's
    // AssertUnwindSafe — see `panic_guard`).
    let guarded = crate::panic_guard::catch(|| {
        let module = &mut slot.module;
        if fail::check_arg(FP_MODULE_PANIC, &module.name) {
            panic!("failpoint: injected panic in module '{}'", module.name);
        }
        let trace = match clock {
            Some(clock) => TraceHandle::recording(clock),
            None => TraceHandle::disabled(),
        };
        trace.begin_with("module", &[("cells", ArgValue::U64(cells_before as u64))]);
        let result = pipeline.run_with_deadline(module, opts.level, &trace, &deadline);
        trace.end_with(&[(
            "cells_after",
            ArgValue::U64(module.live_cell_count() as u64),
        )]);
        // By here every pipeline-internal clone of the handle has been
        // dropped, so `finish` yields the events (or `None` when
        // disabled).
        (result, trace.finish())
    });
    let wall = t0.elapsed();
    let (result, trace_events) = match guarded {
        Ok(r) => r,
        Err(panic) => {
            slot.module = original;
            slot.trace = None;
            slot.done = Some(ModuleReport {
                name: slot.module.name.clone(),
                cells_before,
                cells_after: cells_before,
                outcome: ModuleOutcome::Poisoned {
                    message: panic.message,
                    backtrace: panic.backtrace,
                },
                report: None,
                wall,
            });
            return;
        }
    };
    slot.trace = trace_events;
    match result {
        Ok(report) => {
            // Revert when the cooperative deadline fired mid-pipeline
            // *or* the pipeline returned past the wall budget without
            // ever polling (a module whose time went to non-SAT work).
            let budget_blown = opts.timeout.is_some_and(|budget| wall > budget);
            if deadline.was_tripped() || budget_blown {
                slot.module = original;
                slot.done = Some(ModuleReport {
                    name: slot.module.name.clone(),
                    cells_before,
                    cells_after: cells_before,
                    outcome: ModuleOutcome::TimedOut {
                        budget: opts.timeout.unwrap_or(Duration::ZERO),
                    },
                    report: None,
                    wall,
                });
                return;
            }
            slot.done = Some(ModuleReport {
                name: slot.module.name.clone(),
                cells_before,
                cells_after: slot.module.live_cell_count(),
                outcome: ModuleOutcome::Optimized,
                report: Some(report),
                wall,
            });
        }
        Err(err) => {
            slot.module = original;
            slot.error = Some(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mux_module(name: &str) -> Module {
        let mut m = Module::new(name);
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        let inner = m.mux(&b, &a, &sr);
        let outer = m.mux(&a, &inner, &s);
        m.add_output("y", &outer);
        m
    }

    #[test]
    fn structural_key_ignores_module_name_only() {
        let a = mux_module("alpha");
        let b = mux_module("beta");
        assert_eq!(structural_key(&a), structural_key(&b));

        let mut c = mux_module("gamma");
        let extra = c.add_input("z", 1);
        c.add_output("zz", &extra);
        assert_ne!(structural_key(&a), structural_key(&c));
    }

    #[test]
    fn level_names_round_trip() {
        for level in OptLevel::ALL {
            assert_eq!(level_from_str(level.name()), Some(level));
        }
        assert_eq!(level_from_str("bogus"), None);
    }

    #[test]
    fn size_guard_skips_large_modules() {
        let mut d = Design::new();
        d.add_module(mux_module("big"));
        let opts = DriverOptions {
            max_cells: Some(1),
            ..Default::default()
        };
        let report = optimize_design(&mut d, &opts).expect("driver");
        assert!(matches!(
            report.modules[0].outcome,
            ModuleOutcome::SkippedTooLarge { .. }
        ));
        // untouched: same cell count as input
        assert_eq!(
            report.modules[0].cells_after,
            report.modules[0].cells_before
        );
    }
}
