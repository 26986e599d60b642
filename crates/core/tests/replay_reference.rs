//! Later SAT sweeps replay every query whose fan-in and path come back
//! unchanged, and later rebuilds reuse the ADD of every function table
//! they saw before. This test pins that neither changes anything: the
//! pipeline's own pass sequence, run with the replay table emptied
//! before every sweep and a fresh ADD per tree (the full re-walk), must
//! emit the same Verilog and report the same counters as
//! [`Pipeline::run`] at every level. Only `by_replay`, which counts the
//! replays themselves, may differ.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartly_aig::aig_area;
use smartly_core::restructure::restructure;
use smartly_core::sat_pass::{sat_redundancy_with, SatPassStats, SweepContext};
use smartly_core::{OptLevel, Pipeline, PipelineReport};
use smartly_netlist::Module;
use smartly_opt::{baseline_optimize, clean_pipeline, Settled};
use smartly_verilog::emit_verilog;
use smartly_workloads::{knowledge_probes, paper_figures, public_corpus, Scale};

/// `Pipeline::run`'s sequence, re-walking every query and rebuilding
/// every ADD.
fn rewalk_run(pipe: &Pipeline, module: &mut Module, level: OptLevel) -> PipelineReport {
    let mut report = PipelineReport {
        area_before: aig_area(module).expect("area"),
        ..Default::default()
    };
    let mut settled = Settled::Unknown;
    report.baseline_rewrites += baseline_optimize(module, &mut settled);
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
            if st.rebuilt > 0 {
                report.cells_cleaned += clean_pipeline(module);
                settled = Settled::Clean;
            }
        }
        if matches!(level, OptLevel::SatOnly | OptLevel::Full) {
            ctx.begin_round(module);
            ctx.replays.clear();
            let st = sat_redundancy_with(module, &pipe.sat, &mut ctx);
            changed |= st.rewrites > 0;
            report.sat_rewrites += st.rewrites;
            report.sat_stats.absorb(&st);
            if st.rewrites > 0 {
                report.cells_cleaned += clean_pipeline(module);
                settled = Settled::Clean;
            }
            report.baseline_rewrites += baseline_optimize(module, &mut settled);
        }
        if !changed {
            break;
        }
    }
    if settled == Settled::Unknown {
        report.cells_cleaned += clean_pipeline(module);
    }
    report.area_after = aig_area(module).expect("area");
    report
}

/// Every report field except the latency histograms, which are timing,
/// and `by_replay`.
fn untimed(report: &PipelineReport) -> String {
    let sat = SatPassStats {
        profile: Default::default(),
        by_replay: 0,
        ..report.sat_stats
    };
    // how many queries each funnel layer answered: a replayed memo hit
    // counts under the memo layer too
    let layer_counts: Vec<u64> = report
        .sat_stats
        .profile
        .latency_by_layer
        .iter()
        .map(|h| h.count())
        .collect();
    format!(
        "area {} -> {}, baseline {}, sat {}, cleaned {}, rebuild {:?}, sat stats {:?}, layer counts {:?}",
        report.area_before,
        report.area_after,
        report.baseline_rewrites,
        report.sat_rewrites,
        report.cells_cleaned,
        report.rebuild_stats,
        sat,
        layer_counts,
    )
}

/// Checks every level of `original`; returns the pipeline's replays.
fn assert_matches_rewalk(name: &str, original: &Module) -> usize {
    let pipe = Pipeline::default();
    let mut replays = 0;
    for level in OptLevel::ALL {
        let mut reference = original.clone();
        let want = rewalk_run(&pipe, &mut reference, level);
        let mut module = original.clone();
        let got = pipe.run(&mut module, level).expect("pipeline");
        assert_eq!(untimed(&got), untimed(&want), "{name} at {level:?}");
        assert_eq!(
            emit_verilog(&module),
            emit_verilog(&reference),
            "{name} at {level:?}: emitted Verilog differs"
        );
        replays += got.sat_stats.by_replay;
    }
    replays
}

#[test]
fn tiny_corpus_matches_the_rewalk() {
    let replays: usize = public_corpus(Scale::Tiny)
        .iter()
        .map(|case| assert_matches_rewalk(&case.name, &case.compile().expect("compiles")))
        .sum();
    assert!(replays > 0, "no query was replayed");
}

#[test]
fn paper_figures_match_the_rewalk() {
    for case in paper_figures() {
        assert_matches_rewalk(&case.name, &case.compile().expect("compiles"));
    }
}

#[test]
fn knowledge_probes_match_the_rewalk() {
    let mut rng = StdRng::seed_from_u64(26);
    for _ in 0..3 {
        let variants = rng.gen_range(1..4);
        let cones = rng.gen_range(1..5);
        let width = rng.gen_range(2..10);
        for m in knowledge_probes(variants, cones, width) {
            assert_matches_rewalk(&format!("{} ({cones} cones, width {width})", m.name), &m);
        }
    }
}

/// The Medium corpus, where most queries come back in later rounds.
/// Ignored in the debug `cargo test`, where it would take minutes; CI
/// runs it in release with `--include-ignored`.
#[test]
#[ignore = "release only: cargo test --release -p smartly-core --test replay_reference -- --include-ignored"]
fn medium_corpus_matches_the_rewalk() {
    let replays: usize = public_corpus(Scale::Medium)
        .iter()
        .map(|case| assert_matches_rewalk(&case.name, &case.compile().expect("compiles")))
        .sum();
    assert!(replays > 0, "no query was replayed");
}
