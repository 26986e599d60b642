//! The pipeline skips every cleanup and baseline call that provably
//! returns 0. This test pins that the skips change nothing: a reference
//! that runs the unskipped sequence from the public passes (each cleanup
//! loops until a sweep changes nothing, and every cleanup and baseline
//! tail runs unconditionally) must emit the same Verilog and report the
//! same counters as [`Pipeline::run`] at every level.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartly_aig::aig_area;
use smartly_core::restructure::restructure;
use smartly_core::sat_pass::{sat_redundancy_with, SatPassStats, SweepContext};
use smartly_core::{OptLevel, Pipeline, PipelineReport};
use smartly_netlist::Module;
use smartly_opt::{opt_clean, opt_const, opt_merge, opt_muxtree, CleanOptions};
use smartly_verilog::emit_verilog;
use smartly_workloads::{knowledge_probes, paper_figures, public_corpus, Scale};

/// `opt_const` + `opt_clean` until a sweep in which neither changes
/// anything.
fn reference_clean(module: &mut Module) -> usize {
    let mut total = 0;
    loop {
        let changes = opt_const(module) + opt_clean(module, &CleanOptions::default());
        total += changes;
        if changes == 0 {
            return total;
        }
    }
}

/// Muxtree, merge and a cleanup, until a round in which muxtree and
/// merge change nothing.
fn reference_baseline(module: &mut Module) -> usize {
    let mut total = 0;
    loop {
        let rewrites = opt_muxtree(module);
        let merged = opt_merge(module);
        reference_clean(module);
        total += rewrites;
        if rewrites == 0 && merged == 0 {
            return total;
        }
    }
}

/// The pipeline's pass sequence with no call skipped.
fn reference_run(pipe: &Pipeline, module: &mut Module, level: OptLevel) -> PipelineReport {
    let mut report = PipelineReport {
        area_before: aig_area(module).expect("area"),
        ..Default::default()
    };
    report.baseline_rewrites += reference_baseline(module);
    let mut ctx = SweepContext::new(None, None);
    for _ in 0..pipe.rounds {
        let mut changed = false;
        if matches!(level, OptLevel::RebuildOnly | OptLevel::Full) {
            let st = restructure(module, &pipe.rebuild);
            changed |= st.rebuilt > 0;
            report.rebuild_stats.candidates += st.candidates;
            report.rebuild_stats.rebuilt += st.rebuilt;
            report.rebuild_stats.muxes_removed += st.muxes_removed;
            report.rebuild_stats.muxes_added += st.muxes_added;
            report.rebuild_stats.eqs_freed += st.eqs_freed;
            report.cells_cleaned += reference_clean(module);
        }
        if matches!(level, OptLevel::SatOnly | OptLevel::Full) {
            ctx.begin_round(module);
            let st = sat_redundancy_with(module, &pipe.sat, &mut ctx);
            changed |= st.rewrites > 0;
            report.sat_rewrites += st.rewrites;
            report.sat_stats.absorb(&st);
            report.cells_cleaned += reference_clean(module);
            report.baseline_rewrites += reference_baseline(module);
        }
        if !changed {
            break;
        }
    }
    report.cells_cleaned += reference_clean(module);
    report.area_after = aig_area(module).expect("area");
    report
}

/// Every report field except the latency histograms, which are timing.
fn untimed(report: &PipelineReport) -> String {
    let sat = SatPassStats {
        profile: Default::default(),
        ..report.sat_stats
    };
    format!(
        "area {} -> {}, baseline {}, sat {}, cleaned {}, rebuild {:?}, sat stats {:?}",
        report.area_before,
        report.area_after,
        report.baseline_rewrites,
        report.sat_rewrites,
        report.cells_cleaned,
        report.rebuild_stats,
        sat,
    )
}

fn assert_matches_reference(name: &str, original: &Module) {
    let pipe = Pipeline::default();
    for level in OptLevel::ALL {
        let mut reference = original.clone();
        let want = reference_run(&pipe, &mut reference, level);
        let mut module = original.clone();
        let got = pipe.run(&mut module, level).expect("pipeline");
        assert_eq!(untimed(&got), untimed(&want), "{name} at {level:?}");
        assert_eq!(
            emit_verilog(&module),
            emit_verilog(&reference),
            "{name} at {level:?}: emitted Verilog differs"
        );
    }
}

#[test]
fn tiny_corpus_matches_the_unskipped_sequence() {
    for case in public_corpus(Scale::Tiny) {
        assert_matches_reference(&case.name, &case.compile().expect("compiles"));
    }
}

#[test]
fn paper_figures_match_the_unskipped_sequence() {
    for case in paper_figures() {
        assert_matches_reference(&case.name, &case.compile().expect("compiles"));
    }
}

#[test]
fn knowledge_probes_match_the_unskipped_sequence() {
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..3 {
        let variants = rng.gen_range(1..4);
        let cones = rng.gen_range(1..5);
        let width = rng.gen_range(2..10);
        for m in knowledge_probes(variants, cones, width) {
            assert_matches_reference(&format!("{} ({cones} cones, width {width})", m.name), &m);
        }
    }
}
