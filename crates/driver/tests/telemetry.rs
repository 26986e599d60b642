//! Integration tests for the observability layer: span traces are
//! structurally sound and cover every hierarchy level, tracing never
//! perturbs the digest, and the timing-JSON schema is pinned so
//! downstream consumers (CI validators, dashboards) break loudly here
//! rather than silently there.

use smartly_driver::json::Json;
use smartly_driver::{
    chrome_trace_json, optimize_design, CorpusReport, CorpusRow, DriverOptions, KnowledgeBench,
    LevelResult, SolverBench, TraceSummary,
};
use smartly_netlist::Design;
use std::time::Duration;

/// Two modules with SAT opportunities (redundant nested muxes), so the
/// trace reaches the query funnel and the solver.
const SRC: &str = r#"
module cone_a (input wire s, input wire r, input wire [7:0] a,
               input wire [7:0] b, input wire [7:0] c, output reg [7:0] y);
  always @(*) begin
    if (s) begin
      if (s | r) y = a; else y = b;
    end else y = c;
  end
endmodule

module cone_b (input wire t, input wire [3:0] p, input wire [3:0] q,
               output reg [3:0] z);
  always @(*) begin
    if (t) begin if (t) z = p; else z = q; end else z = q;
  end
endmodule
"#;

fn compile(src: &str) -> Design {
    smartly_verilog::compile(src).expect("compile")
}

fn run(trace: bool, jobs: usize) -> smartly_driver::DesignReport {
    let mut design = compile(SRC);
    let opts = DriverOptions {
        trace,
        jobs,
        ..Default::default()
    };
    optimize_design(&mut design, &opts).expect("optimize")
}

#[test]
fn digest_is_identical_with_tracing_on_and_off_across_jobs() {
    let baseline = run(false, 1).digest();
    for (trace, jobs) in [(true, 1), (false, 4), (true, 4)] {
        assert_eq!(
            run(trace, jobs).digest(),
            baseline,
            "digest diverged at trace={trace} jobs={jobs}"
        );
    }
}

#[test]
fn trace_covers_every_hierarchy_level_and_is_balanced() {
    let report = run(true, 2);
    let trace = report.trace.as_ref().expect("trace collected");
    assert_eq!(trace.tracks.len(), 2, "one track per module");
    assert_eq!(trace.tracks[0].label, "cone_a");
    assert_eq!(trace.tracks[1].label, "cone_b");

    // Export, re-parse, and validate — the same path CI's smoke test
    // exercises through the CLI.
    let text = chrome_trace_json(trace).render_pretty(1);
    let summary = TraceSummary::from_text(&text).expect("structurally valid trace");
    let span_names: Vec<&str> = summary.spans.iter().map(|s| s.name.as_str()).collect();
    for required in [
        "module",
        "round",
        "pass:baseline",
        "pass:sat",
        "pass:clean",
        "query",
    ] {
        assert!(
            span_names.contains(&required),
            "missing span '{required}' in {span_names:?}"
        );
    }
    // Both redundant-mux cones force at least one decide query, and the
    // funnel attribution derived from span args must account for every
    // query span.
    let queries: u64 = summary.funnel.iter().map(|l| l.count).sum();
    let query_spans = summary
        .spans
        .iter()
        .find(|s| s.name == "query")
        .expect("query spans present");
    assert_eq!(queries, query_spans.count);
    assert!(queries > 0);
    // Wall >= self on aggregates with children.
    for agg in &summary.spans {
        assert!(agg.wall_us >= agg.self_us, "span {}", agg.name);
    }
}

#[test]
fn disabled_tracing_attaches_no_trace() {
    let report = run(false, 1);
    assert!(report.trace.is_none());
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

/// Pins the timing-JSON schema of the per-module report: the `funnel`
/// counter registry, the `funnel_hist` layer set, and the `solver`
/// block. A failure here means a consumer-visible schema change — bump
/// deliberately, with the README table.
#[test]
fn module_timing_json_schema_snapshot() {
    let report = run(false, 1);
    let doc = Json::parse(&report.to_json().render()).expect("self-parse");
    let module = &doc.get("modules").unwrap().as_array().unwrap()[0];
    let sat = module.get("sat_stats").expect("sat_stats block");
    assert_eq!(
        keys(sat),
        [
            "queries",
            "by_inference",
            "unreachable",
            "gates_before_prune",
            "gates_after_prune",
            "funnel",
            "funnel_hist",
            "solver",
        ]
    );
    assert_eq!(
        keys(sat.get("funnel").unwrap()),
        [
            "by_memo",
            "memo_carryover",
            "by_disk_verdict",
            "verdicts_published",
            "by_shared_cex",
            "by_prefilter",
            "prefilter_rounds",
            "by_sim",
            "by_sat",
        ]
    );
    let hist = sat.get("funnel_hist").unwrap();
    assert_eq!(keys(hist), ["latency_us", "sat_call"]);
    assert_eq!(
        keys(hist.get("latency_us").unwrap()),
        [
            "memo",
            "disk_verdict",
            "shared_cex",
            "prefilter",
            "simulation",
            "sat",
            "skipped",
        ]
    );
    assert_eq!(
        keys(hist.get("sat_call").unwrap()),
        ["us", "propagations", "conflicts"]
    );
    for (_, h) in ["us", "propagations", "conflicts"]
        .iter()
        .map(|k| (k, hist.get("sat_call").unwrap().get(k).unwrap()))
    {
        assert_eq!(keys(h), ["count", "sum", "buckets"]);
    }
    assert_eq!(
        keys(sat.get("solver").unwrap()),
        [
            "conflicts",
            "propagations",
            "learnts",
            "lbd_core",
            "reduces",
            "arena_gcs",
            "restarts",
            "deadline_checks",
            "resets",
        ]
    );
    // The digest must carry none of the timing-side blocks.
    let digest = Json::parse(&report.digest()).expect("digest parses");
    let dsat = digest.get("modules").unwrap().as_array().unwrap()[0]
        .get("sat_stats")
        .unwrap();
    assert_eq!(
        keys(dsat),
        [
            "queries",
            "by_inference",
            "unreachable",
            "gates_before_prune",
            "gates_after_prune",
        ]
    );
}

/// Pins the corpus artifact's `knowledge_bench` and `solver_bench`
/// timing blocks without paying for a corpus run: the report struct's
/// fields are public, so a hand-built report exercises the renderer.
#[test]
fn corpus_bench_json_schema_snapshot() {
    let report = CorpusReport {
        scale: smartly_workloads::Scale::Tiny,
        cases: None,
        rows: vec![CorpusRow {
            name: "c0".into(),
            area_original: 10,
            levels: vec![LevelResult {
                level: smartly_core::OptLevel::Full,
                area_after: 8,
                wall: Duration::from_micros(5),
                equivalent: None,
                sat: Default::default(),
            }],
        }],
        knowledge_bench: Some(KnowledgeBench {
            modules: 2,
            shared: true,
            queries: 3,
            by_shared_cex: 1,
            published: 2,
            hits: 1,
            area_after: 7,
            wall: Duration::from_micros(9),
        }),
        solver_bench: Some(SolverBench {
            cones: 4,
            queries: 4,
            sat: Default::default(),
            area_after: 6,
            wall: Duration::from_micros(11),
        }),
        kb: None,
        modules_poisoned: 0,
        traces: Vec::new(),
    };
    let doc = Json::parse(&report.to_json().render()).expect("self-parse");
    assert_eq!(
        keys(doc.get("knowledge_bench").unwrap()),
        [
            "modules",
            "shared_bank",
            "queries",
            "by_shared_cex",
            "published",
            "hits",
            "area_after",
            "wall_us",
        ]
    );
    assert_eq!(
        keys(doc.get("solver_bench").unwrap()),
        [
            "cones",
            "queries",
            "by_sat",
            "solver",
            "area_after",
            "wall_us"
        ]
    );
    let funnel = doc.get("circuits").unwrap().as_array().unwrap()[0]
        .get("full")
        .unwrap()
        .get("query_funnel")
        .unwrap();
    assert_eq!(
        keys(funnel),
        [
            "queries",
            "by_inference",
            "unreachable",
            "by_memo",
            "memo_carryover",
            "by_disk_verdict",
            "verdicts_published",
            "by_shared_cex",
            "by_prefilter",
            "prefilter_rounds",
            "by_sim",
            "by_sat",
            "funnel_hist",
            "solver",
        ]
    );
    // The digest keeps only the cache-invariant pair.
    let digest = report.digest_json();
    let digest = Json::parse(&digest.render()).expect("digest parses");
    let dfunnel = digest.get("circuits").unwrap().as_array().unwrap()[0]
        .get("full")
        .unwrap()
        .get("query_funnel")
        .unwrap();
    assert_eq!(keys(dfunnel), ["queries", "by_inference"]);
    // No trace material in either rendering.
    assert!(doc.get("traces").is_none());
    assert!(digest.get("traces").is_none());
}

/// Latency histograms are always on (they live in stats, not the span
/// recorder), so an untraced run still reports per-layer counts that
/// sum to the queries entering the funnel (inference rules decide
/// before the funnel and are attributed separately).
#[test]
fn funnel_histograms_populated_without_tracing() {
    let report = run(false, 1);
    let mut hist_queries = 0u64;
    let mut funnel_queries = 0u64;
    for m in &report.modules {
        if let Some(r) = &m.report {
            funnel_queries += (r.sat_stats.queries - r.sat_stats.by_inference) as u64;
            hist_queries += r.sat_stats.profile.queries();
        }
    }
    assert!(funnel_queries > 0, "workload produced no funnel queries");
    assert_eq!(hist_queries, funnel_queries);
}
