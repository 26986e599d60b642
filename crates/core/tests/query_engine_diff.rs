//! Differential tests: the incremental [`smartly_core::QueryEngine`]
//! funnel must produce exactly the verdicts — and therefore exactly the
//! rewrites — of the legacy fresh-solver path, on seeded random
//! workloads from `smartly-workloads`, while every funnel layer earns
//! its keep at least once across the suite.

use smartly_core::sat_pass::{sat_redundancy, SatPassStats, SatRedundancyOptions};
use smartly_netlist::Module;
use smartly_workloads::{DesignSpec, Scale};

/// A small seeded workload tilted toward dependent-control cones (the
/// redundancy pass's food) with enough replicated structure to exercise
/// the verdict memo.
fn spec(seed: u64, dep_cones: usize, case_blocks: usize) -> DesignSpec {
    DesignSpec {
        name: format!("diff_{seed:x}"),
        description: "query-engine differential workload".into(),
        seed,
        data_width: 8,
        case_blocks,
        case_sel_width: (2, 4),
        case_arm_fill: 0.7,
        case_leaf_sharing: 0.4,
        casez_fraction: 0.25,
        dep_cones,
        dep_implied_fraction: 0.6,
        same_sig_cones: 8,
        same_sig_depth: (2, 5),
        case_structure: 0.3,
        redundancy_ops: 6,
        datapath_ops: 4,
        register_banks: 2,
        arith_cones: 0,
    }
}

fn compile(seed: u64, dep_cones: usize, case_blocks: usize) -> Module {
    spec(seed, dep_cones, case_blocks)
        .generate(Scale::Tiny)
        .compile()
        .expect("workload compiles")
}

/// Runs one sweep in both modes and checks the rewritten netlists and
/// the shared counters match cell-for-cell.
fn differential(module: &Module, opts_base: &SatRedundancyOptions) -> (SatPassStats, SatPassStats) {
    let mut inc = module.clone();
    let mut leg = module.clone();
    let inc_stats = sat_redundancy(
        &mut inc,
        &SatRedundancyOptions {
            incremental: true,
            ..*opts_base
        },
    );
    let leg_stats = sat_redundancy(
        &mut leg,
        &SatRedundancyOptions {
            incremental: false,
            ..*opts_base
        },
    );
    assert_eq!(inc_stats.rewrites, leg_stats.rewrites, "rewrite counts");
    assert_eq!(inc_stats.queries, leg_stats.queries, "query counts");
    assert_eq!(
        inc_stats.by_inference, leg_stats.by_inference,
        "inference counts"
    );
    assert_eq!(
        inc_stats.unreachable, leg_stats.unreachable,
        "unreachable counts"
    );
    // the decisive check: every pinned constant is identical
    let inc_cells: Vec<_> = inc.cells().collect();
    let leg_cells: Vec<_> = leg.cells().collect();
    assert_eq!(inc_cells.len(), leg_cells.len());
    for ((ia, ca), (ib, cb)) in inc_cells.iter().zip(&leg_cells) {
        assert_eq!(ia, ib);
        assert_eq!(ca, cb, "cell {ia:?} diverged");
    }
    (inc_stats, leg_stats)
}

#[test]
fn engine_matches_legacy_on_seeded_workloads() {
    // a generous conflict budget makes verdict identity exact: every
    // verdict is then logically determined, never an artifact of where
    // the budget fell relative to accumulated solver state
    let base = SatRedundancyOptions {
        conflict_budget: 1_000_000,
        ..Default::default()
    };
    let mut total = SatPassStats::default();
    for (seed, dep, cases) in [(11, 10, 2), (23, 6, 4), (47, 12, 1), (91, 8, 3)] {
        let module = compile(seed, dep, cases);
        let (inc_stats, _) = differential(&module, &base);
        total.absorb(&inc_stats);
    }
    assert!(total.queries > 0, "workloads must generate queries");
    // layer hit counters: memo and prefilter must fire on these shapes
    assert!(total.by_memo > 0, "verdict memo never hit: {total:?}");
    assert!(total.by_prefilter > 0, "sim prefilter never hit: {total:?}");
    assert!(
        total.by_inference + total.by_sim + total.by_sat > 0,
        "no conclusive layer fired: {total:?}"
    );
}

#[test]
fn engine_matches_legacy_with_sat_forced() {
    // sim_threshold 0 pushes every decidable query through the shared
    // incremental solver; prefilter off so every polarity is asked
    let opts = SatRedundancyOptions {
        sim_threshold: 0,
        prefilter_rounds: 0,
        conflict_budget: 1_000_000,
        ..Default::default()
    };
    let mut total = SatPassStats::default();
    for (seed, dep, cases) in [(23, 16, 0), (3, 16, 0), (29, 16, 0), (11, 16, 0)] {
        let module = compile(seed, dep, cases);
        let (inc_stats, _) = differential(&module, &opts);
        total.absorb(&inc_stats);
    }
    assert!(total.by_sat > 0, "SAT layer never decided: {total:?}");
}

/// Cross-round memo persistence through the full pipeline: round 1
/// proves and pins a dependent-control cone (which `clean` then
/// mutates), round 2 re-queries a *stable* undecidable cone whose
/// carried verdict answers by memo — and every carried entry is keyed
/// canonically, so the pipeline's result is bit-identical to the legacy
/// fresh-solver path.
#[test]
fn cross_round_memo_carries_and_invalidates_through_the_pipeline() {
    use smartly_core::{OptLevel, Pipeline};
    use smartly_netlist::SigSpec;

    let build = || {
        let mut m = Module::new("rounds");
        // a fig3 cone: rewritten in round 1, its select cone cleaned away
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        let inner = m.mux(&b, &a, &sr);
        let outer = m.mux(&c, &inner, &s);
        m.add_output("y1", &outer);
        // an independent-control cone: s2&t is undecidable under s2=1
        // (t free), survives every round unchanged, and is re-queried —
        // round 2's query must be answered by the carried memo entry
        let p = m.add_input("p", 4);
        let q = m.add_input("q", 4);
        let u = m.add_input("u", 4);
        let s2 = m.add_input("s2", 1);
        let t = m.add_input("t", 1);
        let st = m.and(&s2, &t);
        let inner2 = m.mux(&q, &p, &st);
        let outer2 = m.mux(&u, &inner2, &s2);
        m.add_output("y2", &outer2);
        // a case chain so restructure has work too
        let sel = m.add_input("sel", 2);
        let w: Vec<SigSpec> = (0..3).map(|i| m.add_input(&format!("w{i}"), 4)).collect();
        let e0 = m.eq(&sel, &SigSpec::const_u64(0, 2));
        let e1 = m.eq(&sel, &SigSpec::const_u64(1, 2));
        let m1 = m.mux(&w[2], &w[1], &e1);
        let m0 = m.mux(&m1, &w[0], &e0);
        m.add_output("y3", &m0);
        m
    };

    // inference off so the dependent cones actually reach the engine
    let sat_base = SatRedundancyOptions {
        inference: false,
        conflict_budget: 1_000_000,
        ..Default::default()
    };
    let run = |incremental: bool| {
        let mut m = build();
        let pipe = Pipeline {
            sat: SatRedundancyOptions {
                incremental,
                ..sat_base
            },
            verify: true,
            ..Default::default()
        };
        let report = pipe.run(&mut m, OptLevel::Full).expect("pipeline");
        (m, report)
    };
    let (m_inc, rep_inc) = run(true);
    let (m_leg, rep_leg) = run(false);

    assert_eq!(rep_inc.area_after, rep_leg.area_after, "areas must match");
    assert_eq!(
        rep_inc.equivalence,
        Some(smartly_aig::EquivResult::Equivalent)
    );
    assert_eq!(
        rep_leg.equivalence,
        Some(smartly_aig::EquivResult::Equivalent)
    );
    assert_eq!(
        smartly_verilog::emit_verilog(&m_inc),
        smartly_verilog::emit_verilog(&m_leg),
        "netlists must be identical"
    );

    // three-round pipeline: the stable cone's round-2 query replays the
    // carried entry
    assert!(
        rep_inc.sat_stats.memo_carryover > 0,
        "no cross-round memo hit: {:?}",
        rep_inc.sat_stats
    );
}
