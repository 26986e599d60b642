//! Ablations of smaRTLy's design choices:
//!
//! * **A1 — Theorem II.1 sub-graph pruning**: gates gathered vs. kept
//!   (the paper claims ~80% of gates are dismissed) and its effect on
//!   runtime.
//! * **A2 — hybrid decision thresholds**: all-simulation vs. hybrid vs.
//!   all-SAT.
//! * **A3 — ADD bit ordering**: the greedy heuristic vs. fixed orders on
//!   priority-decode tables (paper Listing 2: 3 vs. 7 muxes).
//! * **A5 — design-level shared knowledge base**: the whole corpus as
//!   one multi-module design, optimized with and without the shared
//!   counterexample bank; areas must match exactly.
//!
//! `cargo run --release -p smartly-bench --bin ablation -- [tiny|small|paper]`

use smartly_add::{Add, FunctionTable};
use smartly_bench::scale_from_args;
use smartly_core::{sat_redundancy, SatRedundancyOptions};
use smartly_driver::{optimize_design, DriverOptions};
use smartly_netlist::Design;
use smartly_opt::{baseline_optimize, clean_pipeline};
use smartly_workloads::public_corpus;

fn main() {
    let scale = scale_from_args();

    // ---------------------------------------------------- A1: pruning
    println!("A1 — Theorem II.1 sub-graph pruning (scale: {scale:?})");
    println!(
        "{:14} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "case", "gathered", "kept", "dismissed", "rewrites", "t_on(ms)", "t_off(ms)"
    );
    for case in public_corpus(scale).into_iter().take(5) {
        let mut with = case.compile().expect("compiles");
        baseline_optimize(&mut with);
        let mut without = with.clone();

        let t0 = std::time::Instant::now();
        let on = sat_redundancy(
            &mut with,
            &SatRedundancyOptions {
                prune: true,
                measure_gather: true,
                ..Default::default()
            },
        );
        let t_on = t0.elapsed().as_millis();
        clean_pipeline(&mut with, 8);

        let t1 = std::time::Instant::now();
        let off = sat_redundancy(
            &mut without,
            &SatRedundancyOptions {
                prune: false,
                measure_gather: true,
                ..Default::default()
            },
        );
        let t_off = t1.elapsed().as_millis();
        clean_pipeline(&mut without, 8);

        let dismissed = if on.gates_before_prune > 0 {
            100.0 * (1.0 - on.gates_after_prune as f64 / on.gates_before_prune as f64)
        } else {
            0.0
        };
        assert_eq!(on.rewrites, off.rewrites, "pruning must not change results");
        println!(
            "{:14} {:>10} {:>10} {:>9.1}% {:>10} {:>9} {:>9}",
            case.name,
            on.gates_before_prune,
            on.gates_after_prune,
            dismissed,
            on.rewrites,
            t_on,
            t_off
        );
    }

    // ------------------------------------------- A2: hybrid thresholds
    println!("\nA2 — hybrid decision procedure (wb_conmax)");
    println!(
        "{:24} {:>9} {:>7} {:>7} {:>9} {:>8}",
        "configuration", "rewrites", "by_sim", "by_sat", "by_infer", "t(ms)"
    );
    let case = public_corpus(scale)
        .into_iter()
        .find(|c| c.name == "wb_conmax")
        .expect("wb_conmax exists");
    for (name, sim_threshold, inference) in [
        ("hybrid (default)", 10usize, true),
        ("simulation only", 64, true),
        ("SAT only", 0, true),
        ("no Table I inference", 10, false),
    ] {
        let mut m = case.compile().expect("compiles");
        baseline_optimize(&mut m);
        let t = std::time::Instant::now();
        let stats = sat_redundancy(
            &mut m,
            &SatRedundancyOptions {
                sim_threshold,
                inference,
                ..Default::default()
            },
        );
        println!(
            "{:24} {:>9} {:>7} {:>7} {:>9} {:>8}",
            name,
            stats.rewrites,
            stats.by_sim,
            stats.by_sat,
            stats.by_inference,
            t.elapsed().as_millis()
        );
    }

    // ---------------------------------------- A4: query-engine funnel
    println!("\nA4 — incremental query engine vs fresh solver per query");
    println!(
        "{:14} {:>8} {:>6} {:>9} {:>8} {:>8}",
        "case", "queries", "memo", "prefilter", "t_inc", "t_fresh"
    );
    for case in public_corpus(scale).into_iter().take(5) {
        let mut inc = case.compile().expect("compiles");
        baseline_optimize(&mut inc);
        let mut fresh = inc.clone();

        // a generous budget keeps the verdict-identity assert exact: a
        // budget-limited Unknown can land on either side of the limit
        // depending on accumulated solver state
        let a4 = SatRedundancyOptions {
            conflict_budget: 1_000_000,
            ..Default::default()
        };
        let t0 = std::time::Instant::now();
        let on = sat_redundancy(
            &mut inc,
            &SatRedundancyOptions {
                incremental: true,
                ..a4
            },
        );
        let t_inc = t0.elapsed().as_millis();

        let t1 = std::time::Instant::now();
        let off = sat_redundancy(
            &mut fresh,
            &SatRedundancyOptions {
                incremental: false,
                ..a4
            },
        );
        let t_fresh = t1.elapsed().as_millis();
        assert_eq!(on.rewrites, off.rewrites, "funnel must not change results");
        println!(
            "{:14} {:>8} {:>6} {:>9} {:>7}ms {:>7}ms",
            case.name, on.queries, on.by_memo, on.by_prefilter, t_inc, t_fresh
        );
    }

    // ------------------------------ A5: design-level shared knowledge
    println!("\nA5 — design-level shared counterexample bank (whole corpus as one design)");
    println!(
        "{:10} {:>9} {:>11} {:>9} {:>7} {:>7} {:>8}",
        "bank", "queries", "shared-cex", "published", "hits", "t(ms)", "area"
    );
    let pristine: Vec<_> = public_corpus(scale)
        .into_iter()
        .map(|c| c.compile().expect("compiles"))
        .collect();
    let mut areas = Vec::new();
    for share in [true, false] {
        let mut design = Design::from_modules(pristine.clone());
        let opts = DriverOptions {
            share_knowledge: share,
            memoize: false,
            ..Default::default()
        };
        let t = std::time::Instant::now();
        let report = optimize_design(&mut design, &opts).expect("driver");
        let wall = t.elapsed().as_millis();
        let (mut queries, mut shared_cex) = (0usize, 0usize);
        for m in &report.modules {
            if let Some(r) = &m.report {
                queries += r.sat_stats.queries;
                shared_cex += r.sat_stats.by_shared_cex;
            }
        }
        let (published, hits) = report.knowledge.map_or((0, 0), |k| (k.published, k.hits));
        areas.push(report.area_after());
        println!(
            "{:10} {:>9} {:>11} {:>9} {:>7} {:>7} {:>8}",
            if share { "on" } else { "off" },
            queries,
            shared_cex,
            published,
            hits,
            wall,
            report.area_after(),
        );
    }
    assert_eq!(
        areas[0], areas[1],
        "the shared bank must not change emitted areas"
    );

    // the near-miss probe design is where sharing pays: every module
    // needs the same rare-polarity SAT witness, and with the bank on,
    // one module's model answers everyone else's query
    println!("\nA5b — near-miss probe design (8 parameter variants, 4 cones each)");
    println!(
        "{:10} {:>9} {:>11} {:>10} {:>13} {:>7}",
        "bank", "queries", "shared-cex", "published", "propagations", "t(ms)"
    );
    let mut probe_areas = Vec::new();
    for share in [true, false] {
        let mut design = Design::from_modules(smartly_workloads::knowledge_probes(8, 4, 12));
        let opts = DriverOptions {
            share_knowledge: share,
            ..Default::default()
        };
        let t = std::time::Instant::now();
        let report = optimize_design(&mut design, &opts).expect("driver");
        let wall = t.elapsed().as_millis();
        let (mut queries, mut shared_cex, mut props) = (0usize, 0usize, 0u64);
        for m in &report.modules {
            if let Some(r) = &m.report {
                queries += r.sat_stats.queries;
                shared_cex += r.sat_stats.by_shared_cex;
                props += r.sat_stats.solver_propagations;
            }
        }
        let published = report.knowledge.map_or(0, |k| k.published);
        probe_areas.push(report.area_after());
        println!(
            "{:10} {:>9} {:>11} {:>10} {:>13} {:>7}",
            if share { "on" } else { "off" },
            queries,
            shared_cex,
            published,
            props,
            wall,
        );
    }
    assert_eq!(probe_areas[0], probe_areas[1], "probe areas must match");

    // ------------------------------------------------ A3: ADD ordering
    println!("\nA3 — ADD bit ordering on priority decodes (paper Listing 2)");
    println!(
        "{:>6} {:>10} {:>12} {:>12}",
        "width", "greedy", "worst-fixed", "best-fixed"
    );
    for width in 3u32..=8 {
        // one-hot priority decode: bit k set (checked high to low) → leaf k
        let mut cubes = Vec::new();
        for k in (0..width).rev() {
            let mut cube = vec![None; width as usize];
            for j in (k + 1)..width {
                cube[j as usize] = Some(false);
            }
            cube[k as usize] = Some(true);
            cubes.push((cube, width - 1 - k));
        }
        let table = FunctionTable::from_priority_cubes(width, width, &cubes);
        let greedy = Add::build_greedy(&table).node_count();
        let descending: Vec<u32> = (0..width).rev().collect();
        let ascending: Vec<u32> = (0..width).collect();
        let best = Add::build_with_order(&table, &descending).node_count();
        let worst = Add::build_with_order(&table, &ascending).node_count();
        println!("{width:>6} {greedy:>10} {worst:>12} {best:>12}");
    }
}
