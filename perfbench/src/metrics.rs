//! The metric catalogue (names and units, which `BENCHMARK.json`
//! mirrors) and the per-layer numbers derived from a traced replay.

use crate::replay::Replay;
use crate::stats::{ratio, Metrics};
use smartly_core::Layer;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("opt_wall_s", "s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("cells_after", "cells"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("verilog.compile_s", "s"),
    ("verilog.emit_s", "s"),
    ("netlist.index_build_ms", "ms"),
    ("netlist.topo_order_ms", "ms"),
    ("netlist.cells_in", "cells"),
    ("opt.muxtree_s", "s"),
    ("opt.merge_s", "s"),
    ("opt.const_s", "s"),
    ("opt.clean_s", "s"),
    ("opt.clean_iters", "count"),
    ("opt.muxtree_rewrites", "count"),
    ("core.restructure_s", "s"),
    ("core.rebuilt", "count"),
    ("core.rebuild_candidates", "count"),
    ("core.begin_round_s", "s"),
    ("core.sat_sweep_s", "s"),
    ("core.queries", "count"),
    ("core.by_inference", "count"),
    ("core.by_memo", "count"),
    ("core.by_disk_verdict", "count"),
    ("core.by_prefilter", "count"),
    ("core.by_sim", "count"),
    ("core.by_sat", "count"),
    ("core.rewrites", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.rewrite_ratio", "ratio"),
    ("core.funnel_ms.memo", "ms"),
    ("core.funnel_ms.disk_verdict", "ms"),
    ("core.funnel_ms.cex_replay", "ms"),
    ("core.funnel_ms.shared_cex", "ms"),
    ("core.funnel_ms.prefilter", "ms"),
    ("core.funnel_ms.simulation", "ms"),
    ("core.funnel_ms.sat", "ms"),
    ("core.funnel_ms.skipped", "ms"),
    ("sat.call_s", "s"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.decided_ratio", "ratio"),
    ("aig.area_s", "s"),
    ("aig.cec_s", "s"),
    ("aig.area", "and_nodes"),
    ("driver.design_s", "s"),
    ("driver.pool_idle_pct", "%"),
    ("driver.kb_load_s", "s"),
    ("driver.kb_disk_hits", "count"),
    ("driver.direct_job_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.submit_rtt_ms", "ms"),
    ("server.rejected", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.failed_frac", "ratio"),
    ("bench.verify_correct_frac", "ratio"),
    ("bench.share_pct.opt", "%"),
    ("bench.share_pct.core", "%"),
    ("bench.share_pct.sat", "%"),
    ("bench.share_pct.aig", "%"),
];

/// The unit a catalogued metric is declared with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("metric {name} is not catalogued"), |(_, u)| u)
}

/// Sets a catalogued metric with its declared unit.
pub fn put(m: &mut Metrics, name: &str, value: f64) {
    m.set(name, value, unit_of(name));
}

/// Fills every per-layer metric the workload did not set with 0 (a
/// layer it never enters).
pub fn fill_absent_layers(m: &mut Metrics) {
    for (name, unit) in PER_LAYER {
        if m.get(name).is_none() {
            m.set(*name, 0.0, unit);
        }
    }
}

/// Per-layer numbers from a traced replay: self times of the spans
/// around each public call, the pipeline's own counters, and the query
/// funnel's always-on histograms. `reference_wall` is the untraced
/// per-module pipeline time of the same circuits (the driver's module
/// walls, which exclude its memo keying and pool), for the tracing
/// overhead.
pub fn replay_layers(m: &mut Metrics, r: &Replay, reference_wall: f64) {
    let st = r.rec.self_times();
    let self_s = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let sat = &r.counters.sat;
    let sat_call_s = sat.profile.sat_call_us.sum() as f64 / 1e6;
    let probe_s = r.rec.total("netlist.index_build") + r.rec.total("netlist.topo_order");
    let pipeline_s = r.wall.as_secs_f64() - probe_s;

    put(
        m,
        "netlist.index_build_ms",
        1e3 * self_s("netlist.index_build"),
    );
    put(
        m,
        "netlist.topo_order_ms",
        1e3 * self_s("netlist.topo_order"),
    );

    let opt = [
        ("opt.muxtree_s", "opt.muxtree"),
        ("opt.merge_s", "opt.merge"),
        ("opt.const_s", "opt.const"),
        ("opt.clean_s", "opt.clean"),
    ];
    for (metric, span) in opt {
        put(m, metric, self_s(span));
    }
    put(m, "opt.clean_iters", r.counters.clean_iters as f64);
    put(
        m,
        "opt.muxtree_rewrites",
        r.counters.muxtree_rewrites as f64,
    );

    // SAT calls run inside the sweep: the sweep's own time excludes them
    let sweep_s = (self_s("core.sat_sweep") - sat_call_s).max(0.0);
    put(m, "core.restructure_s", self_s("core.restructure"));
    put(m, "core.rebuilt", r.counters.rebuild.rebuilt as f64);
    put(
        m,
        "core.rebuild_candidates",
        r.counters.rebuild.candidates as f64,
    );
    put(m, "core.begin_round_s", self_s("core.begin_round"));
    put(m, "core.sat_sweep_s", sweep_s);
    let queries = sat.queries as f64;
    put(m, "core.queries", queries);
    put(m, "core.by_inference", sat.by_inference as f64);
    put(m, "core.by_memo", sat.by_memo as f64);
    put(m, "core.by_disk_verdict", sat.by_disk_verdict as f64);
    put(m, "core.by_prefilter", sat.by_prefilter as f64);
    put(m, "core.by_sim", sat.by_sim as f64);
    put(m, "core.by_sat", sat.by_sat as f64);
    put(m, "core.rewrites", sat.rewrites as f64);
    put(m, "core.memo_hit_ratio", ratio(sat.by_memo as f64, queries));
    put(m, "core.rewrite_ratio", ratio(sat.rewrites as f64, queries));
    for layer in Layer::ALL {
        let us = sat.profile.latency_by_layer[layer.index()].sum() as f64;
        put(m, &format!("core.funnel_ms.{}", layer.name()), us / 1e3);
    }

    let sat_layer_queries = sat.profile.latency_by_layer[Layer::Sat.index()].count() as f64;
    put(m, "sat.call_s", sat_call_s);
    put(m, "sat.calls", sat.profile.sat_call_us.count() as f64);
    put(m, "sat.conflicts", sat.solver_conflicts as f64);
    put(m, "sat.propagations", sat.solver_propagations as f64);
    put(
        m,
        "sat.props_per_s",
        ratio(sat.solver_propagations as f64, sat_call_s),
    );
    put(
        m,
        "sat.decided_ratio",
        ratio(sat.by_sat as f64, sat_layer_queries),
    );

    put(m, "aig.area_s", self_s("aig.area"));
    put(m, "aig.cec_s", self_s("aig.cec"));
    put(
        m,
        "aig.area",
        r.results.iter().map(|(a, _)| *a as f64).sum(),
    );

    let opt_s: f64 = opt.iter().map(|(_, span)| self_s(span)).sum();
    let core_s = self_s("core.restructure") + self_s("core.begin_round") + sweep_s;
    let aig_s = self_s("aig.area") + self_s("aig.cec");
    put(m, "bench.share_pct.opt", 100.0 * ratio(opt_s, pipeline_s));
    put(m, "bench.share_pct.core", 100.0 * ratio(core_s, pipeline_s));
    put(
        m,
        "bench.share_pct.sat",
        100.0 * ratio(sat_call_s, pipeline_s),
    );
    put(m, "bench.share_pct.aig", 100.0 * ratio(aig_s, pipeline_s));
    put(
        m,
        "bench.trace_overhead_pct",
        100.0 * ratio(pipeline_s - reference_wall, reference_wall),
    );
}
