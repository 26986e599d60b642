//! The optimization pipeline: the four configurations the paper measures.

use crate::query_engine::{SharedCexBank, SharedVerdictStore};
use crate::restructure::{restructure_with, AddCache, RestructureOptions, RestructureStats};
use crate::sat_pass::{sat_redundancy_with, SatPassStats, SatRedundancyOptions, SweepContext};
use smartly_aig::{aig_area, check_equiv, EquivOptions, EquivResult};
use smartly_netlist::{Module, NetlistError};
use smartly_opt::{baseline_optimize, clean_pipeline, Settled};
use smartly_sat::Deadline;
use smartly_telemetry::{ArgValue, TraceHandle};
use std::sync::Arc;

/// Which optimizations run (paper Table III columns).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Yosys-equivalent: `opt_muxtree` + cleanup only.
    Baseline,
    /// Baseline plus SAT-based redundancy elimination ("SAT").
    SatOnly,
    /// Baseline plus muxtree restructuring ("Rebuild").
    RebuildOnly,
    /// Everything ("Full").
    Full,
}

impl OptLevel {
    /// All four levels in paper order.
    pub const ALL: [OptLevel; 4] = [
        OptLevel::Baseline,
        OptLevel::SatOnly,
        OptLevel::RebuildOnly,
        OptLevel::Full,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Baseline => "yosys",
            OptLevel::SatOnly => "sat",
            OptLevel::RebuildOnly => "rebuild",
            OptLevel::Full => "full",
        }
    }
}

/// A configured pass sequence.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// SAT-pass configuration.
    pub sat: SatRedundancyOptions,
    /// Restructuring configuration.
    pub rebuild: RestructureOptions,
    /// Maximum optimize rounds (each round: rebuild → sat → clean).
    pub rounds: usize,
    /// Check the result against the input with the AIG miter; the outcome
    /// lands in [`PipelineReport::equivalence`].
    pub verify: bool,
    /// Design-level shared counterexample bank this module's sweeps
    /// participate in (see [`SharedCexBank`]); `None` keeps all query
    /// state module-local. The driver attaches one bank per design so
    /// structurally similar modules seed each other's replay vectors.
    pub shared_bank: Option<Arc<dyn SharedCexBank>>,
    /// Design-level verdict store this module's sweeps consult and feed
    /// (see [`SharedVerdictStore`]); `None` keeps verdict reuse
    /// module-local. The driver attaches one store per design so
    /// warm-started runs replay a previous run's conclusive verdicts.
    pub shared_verdicts: Option<Arc<dyn SharedVerdictStore>>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            sat: SatRedundancyOptions::default(),
            rebuild: RestructureOptions::default(),
            rounds: 3,
            verify: false,
            shared_bank: None,
            shared_verdicts: None,
        }
    }
}

/// What a [`Pipeline::run`] did.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// AIG area before any optimization.
    pub area_before: usize,
    /// AIG area afterwards.
    pub area_after: usize,
    /// Rewrites applied by the Yosys-style baseline.
    pub baseline_rewrites: usize,
    /// Select/data pins applied by the SAT pass (summed over rounds).
    pub sat_rewrites: usize,
    /// Aggregated SAT-pass telemetry.
    pub sat_stats: SatPassStats,
    /// Aggregated restructuring telemetry.
    pub rebuild_stats: RestructureStats,
    /// Cells removed by cleanup.
    pub cells_cleaned: usize,
    /// Miter verdict when [`Pipeline::verify`] was set.
    pub equivalence: Option<EquivResult>,
}

impl PipelineReport {
    /// Fractional area reduction relative to the input (0.0–1.0).
    pub fn reduction(&self) -> f64 {
        if self.area_before == 0 {
            0.0
        } else {
            1.0 - self.area_after as f64 / self.area_before as f64
        }
    }
}

impl std::fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "AIG area {} -> {} ({:.2}% reduction)",
            self.area_before,
            self.area_after,
            100.0 * self.reduction()
        )?;
        writeln!(
            f,
            "baseline rewrites: {}, SAT rewrites: {} (inference {}, sim {}, sat {}, unreachable {})",
            self.baseline_rewrites,
            self.sat_rewrites,
            self.sat_stats.by_inference,
            self.sat_stats.by_sim,
            self.sat_stats.by_sat,
            self.sat_stats.unreachable,
        )?;
        writeln!(
            f,
            "query funnel: {} queries (memo {} [carryover {}, replay {}], disk-verdict {}, shared-cex {}, prefilter {} in {} rounds)",
            self.sat_stats.queries,
            self.sat_stats.by_memo,
            self.sat_stats.memo_carryover,
            self.sat_stats.by_replay,
            self.sat_stats.by_disk_verdict,
            self.sat_stats.by_shared_cex,
            self.sat_stats.by_prefilter,
            self.sat_stats.prefilter_rounds,
        )?;
        writeln!(f, "solver: {}", self.sat_stats.solver_summary())?;
        writeln!(
            f,
            "restructuring: {}/{} candidates rebuilt, muxes {} -> {}, eq freed {}",
            self.rebuild_stats.rebuilt,
            self.rebuild_stats.candidates,
            self.rebuild_stats.muxes_removed,
            self.rebuild_stats.muxes_added,
            self.rebuild_stats.eqs_freed,
        )?;
        write!(f, "cells cleaned: {}", self.cells_cleaned)?;
        if let Some(eq) = &self.equivalence {
            write!(f, "\nequivalence: {eq:?}")?;
        }
        Ok(())
    }
}

impl Pipeline {
    /// Creates a pipeline with default options.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Optimizes `module` in place at the requested level.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors from area computation or (when `verify`
    /// is set) the equivalence check; an inequivalent result is *not* an
    /// error — it is reported in [`PipelineReport::equivalence`].
    pub fn run(
        &self,
        module: &mut Module,
        level: OptLevel,
    ) -> Result<PipelineReport, NetlistError> {
        self.run_traced(module, level, &TraceHandle::disabled())
    }

    /// [`Pipeline::run`] with a span recorder: rounds and passes emit
    /// `round` / `pass:*` spans, and the SAT sweeps' query engines emit
    /// nested `query` / `sat_call` spans into the same handle.
    ///
    /// Telemetry only: the optimization performed — and every counter in
    /// the returned report — is identical with a disabled handle.
    pub fn run_traced(
        &self,
        module: &mut Module,
        level: OptLevel,
        trace: &TraceHandle,
    ) -> Result<PipelineReport, NetlistError> {
        self.run_with_deadline(module, level, trace, &Deadline::none())
    }

    /// [`Pipeline::run_traced`] under a cooperative [`Deadline`]: the
    /// token is checked at every round boundary and threaded through the
    /// sweep context into the query engine and the CDCL search loop
    /// (polled every few conflicts), so an expired wall-clock budget
    /// stops a stuck SAT call mid-flight instead of waiting for the
    /// pass to finish. Interrupted queries degrade to budget-limited
    /// `Unknown` verdicts — missed rewrites, never wrong ones — and are
    /// never published to a design-level verdict store; the driver
    /// reverts deadline-hit modules to their input netlist, so partial
    /// optimization under an expired deadline is never observable.
    pub fn run_with_deadline(
        &self,
        module: &mut Module,
        level: OptLevel,
        trace: &TraceHandle,
        deadline: &Deadline,
    ) -> Result<PipelineReport, NetlistError> {
        let original = if self.verify {
            Some(module.clone())
        } else {
            None
        };
        let mut report = PipelineReport {
            area_before: aig_area(module)?,
            ..Default::default()
        };

        // every pass below that reports a change is followed by the
        // cleanup fixpoint, and one that reports none mutated nothing, so
        // `settled` skips each cleanup and baseline run that would return 0
        let mut settled = Settled::Unknown;
        {
            let _span = trace.scope("pass:baseline");
            report.baseline_rewrites += baseline_optimize(module, &mut settled);
        }

        // cross-round state: the verdict memo and the query replay table
        // persist over the rounds below, so later rounds replay every
        // query whose fan-in and path come back instead of asking it
        // again, and the verdict of every cone whose canonical key comes
        // back; each distinct rebuild table builds its ADD once
        let mut sweep_ctx =
            SweepContext::new(self.shared_bank.clone(), self.shared_verdicts.clone());
        sweep_ctx.trace = trace.clone();
        sweep_ctx.deadline = deadline.clone();
        let mut adds = AddCache::new();

        for round in 0..self.rounds {
            if deadline.was_tripped() || deadline.expired() {
                break;
            }
            let _round_span = trace.scope_with("round", &[("index", ArgValue::U64(round as u64))]);
            let mut changed = false;
            if matches!(level, OptLevel::RebuildOnly | OptLevel::Full) {
                let _span = trace.scope("pass:rebuild");
                let st = restructure_with(module, &self.rebuild, &mut adds);
                changed |= st.rebuilt > 0;
                report.rebuild_stats.candidates += st.candidates;
                report.rebuild_stats.rebuilt += st.rebuilt;
                report.rebuild_stats.muxes_removed += st.muxes_removed;
                report.rebuild_stats.muxes_added += st.muxes_added;
                report.rebuild_stats.eqs_freed += st.eqs_freed;
                if st.rebuilt > 0 {
                    let _span = trace.scope("clean");
                    report.cells_cleaned += clean_pipeline(module);
                    settled = Settled::Clean;
                }
            }
            if matches!(level, OptLevel::SatOnly | OptLevel::Full) {
                let _span = trace.scope("pass:sat");
                sweep_ctx.begin_round(module);
                let st = sat_redundancy_with(module, &self.sat, &mut sweep_ctx);
                changed |= st.rewrites > 0;
                report.sat_rewrites += st.rewrites;
                report.sat_stats.absorb(&st);
                if st.rewrites > 0 {
                    let _span = trace.scope("clean");
                    report.cells_cleaned += clean_pipeline(module);
                    settled = Settled::Clean;
                }
                // pinned selects may expose new baseline opportunities
                let _span = trace.scope("baseline");
                report.baseline_rewrites += baseline_optimize(module, &mut settled);
            }
            if !changed {
                break;
            }
        }
        {
            // every path above already ends at the cleanup fixpoint; the
            // span stays so that each run's trace has the same passes
            let _span = trace.scope("pass:clean");
            if settled == Settled::Unknown {
                report.cells_cleaned += clean_pipeline(module);
            }
        }

        report.area_after = aig_area(module)?;
        if let Some(orig) = original {
            let _span = trace.scope("pass:verify");
            let r = check_equiv(&orig, module, &EquivOptions::default())?;
            report.equivalence = Some(r);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::SigSpec;

    fn fig3() -> Module {
        let mut m = Module::new("fig3");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        let inner = m.mux(&b, &a, &sr);
        let outer = m.mux(&c, &inner, &s);
        m.add_output("y", &outer);
        m
    }

    fn listing1() -> Module {
        let mut m = Module::new("listing1");
        let s = m.add_input("s", 2);
        let p: Vec<SigSpec> = (0..4).map(|i| m.add_input(&format!("p{i}"), 8)).collect();
        let e0 = m.eq(&s, &SigSpec::const_u64(0, 2));
        let e1 = m.eq(&s, &SigSpec::const_u64(1, 2));
        let e2 = m.eq(&s, &SigSpec::const_u64(2, 2));
        let m2 = m.mux(&p[3], &p[2], &e2);
        let m1 = m.mux(&m2, &p[1], &e1);
        let m0 = m.mux(&m1, &p[0], &e0);
        m.add_output("y", &m0);
        m
    }

    #[test]
    fn full_beats_baseline_on_fig3() {
        let mut base = fig3();
        let mut full = fig3();
        let pipe = Pipeline {
            verify: true,
            ..Default::default()
        };
        let rb = pipe.run(&mut base, OptLevel::Baseline).unwrap();
        let rf = pipe.run(&mut full, OptLevel::Full).unwrap();
        assert!(rf.area_after < rb.area_after);
        assert_eq!(rf.equivalence, Some(EquivResult::Equivalent));
        assert_eq!(rb.equivalence, Some(EquivResult::Equivalent));
    }

    #[test]
    fn rebuild_beats_baseline_on_listing1() {
        let mut base = listing1();
        let mut reb = listing1();
        let pipe = Pipeline {
            verify: true,
            ..Default::default()
        };
        let rb = pipe.run(&mut base, OptLevel::Baseline).unwrap();
        let rr = pipe.run(&mut reb, OptLevel::RebuildOnly).unwrap();
        assert!(
            rr.area_after < rb.area_after,
            "rebuild {} must beat baseline {}",
            rr.area_after,
            rb.area_after
        );
        assert_eq!(rr.equivalence, Some(EquivResult::Equivalent));
        assert_eq!(rr.rebuild_stats.rebuilt, 1);
    }

    #[test]
    fn all_levels_preserve_function() {
        for level in OptLevel::ALL {
            for builder in [fig3 as fn() -> Module, listing1 as fn() -> Module] {
                let mut m = builder();
                let pipe = Pipeline {
                    verify: true,
                    ..Default::default()
                };
                let rep = pipe.run(&mut m, level).unwrap();
                assert_eq!(
                    rep.equivalence,
                    Some(EquivResult::Equivalent),
                    "level {level:?}"
                );
            }
        }
    }

    #[test]
    fn reduction_is_monotone_in_level() {
        // Full ≤ min(Sat, Rebuild) on a circuit with both opportunities
        let build = || {
            let mut m = Module::new("both");
            let s = m.add_input("s", 2);
            let p: Vec<SigSpec> = (0..4).map(|i| m.add_input(&format!("p{i}"), 8)).collect();
            let e0 = m.eq(&s, &SigSpec::const_u64(0, 2));
            let e1 = m.eq(&s, &SigSpec::const_u64(1, 2));
            let e2 = m.eq(&s, &SigSpec::const_u64(2, 2));
            let m2 = m.mux(&p[3], &p[2], &e2);
            let m1 = m.mux(&m2, &p[1], &e1);
            let m0 = m.mux(&m1, &p[0], &e0);
            m.add_output("y1", &m0);
            // plus a Fig. 3 cone
            let q = m.add_input("q", 1);
            let r = m.add_input("r", 1);
            let qr = m.or(&q, &r);
            let inner = m.mux(&p[1], &p[0], &qr);
            let outer = m.mux(&p[2], &inner, &q);
            m.add_output("y2", &outer);
            m
        };
        let mut areas = std::collections::HashMap::new();
        for level in OptLevel::ALL {
            let mut m = build();
            let rep = Pipeline::default().run(&mut m, level).unwrap();
            areas.insert(level, rep.area_after);
        }
        assert!(areas[&OptLevel::SatOnly] <= areas[&OptLevel::Baseline]);
        assert!(areas[&OptLevel::RebuildOnly] <= areas[&OptLevel::Baseline]);
        assert!(areas[&OptLevel::Full] <= areas[&OptLevel::SatOnly]);
        assert!(areas[&OptLevel::Full] <= areas[&OptLevel::RebuildOnly]);
        assert!(areas[&OptLevel::Full] < areas[&OptLevel::Baseline]);
    }
}
