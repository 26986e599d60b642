//! Cross-crate flows over the benchmark corpus: every optimization level
//! on every public case, verified with the AIG miter.

use smartly_aig::EquivResult;
use smartly_core::{OptLevel, Pipeline};
use smartly_workloads::{industrial_corpus, public_corpus, IndustrialSpec, Scale};
use std::collections::HashMap;

#[test]
fn public_corpus_all_levels_verified() {
    for case in public_corpus(Scale::Tiny) {
        let mut areas: HashMap<OptLevel, usize> = HashMap::new();
        for level in OptLevel::ALL {
            let mut m = case.compile().expect("corpus compiles");
            let pipeline = Pipeline {
                verify: true,
                ..Default::default()
            };
            let report = pipeline
                .run(&mut m, level)
                .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", case.name));
            assert_eq!(
                report.equivalence,
                Some(EquivResult::Equivalent),
                "{} must stay equivalent at {level:?}",
                case.name
            );
            m.validate()
                .unwrap_or_else(|e| panic!("{} invalid after {level:?}: {e}", case.name));
            areas.insert(level, report.area_after);
        }
        // smaRTLy never loses to the baseline
        assert!(
            areas[&OptLevel::Full] <= areas[&OptLevel::Baseline],
            "{}: full {} vs baseline {}",
            case.name,
            areas[&OptLevel::Full],
            areas[&OptLevel::Baseline]
        );
        assert!(areas[&OptLevel::SatOnly] <= areas[&OptLevel::Baseline]);
        assert!(areas[&OptLevel::RebuildOnly] <= areas[&OptLevel::Baseline]);
    }
}

#[test]
fn industrial_gap_is_large() {
    // the paper's §IV-B shape: Yosys finds almost nothing on
    // selection-dominated designs, smaRTLy removes a large fraction
    let spec = IndustrialSpec {
        points: 3,
        scale: Scale::Small,
        ..Default::default()
    };
    let mut total_extra = 0.0;
    for case in industrial_corpus(&spec) {
        let mut base = case.compile().expect("compiles");
        let mut full = base.clone();
        let pipeline = Pipeline::default();
        let rb = pipeline
            .run(&mut base, OptLevel::Baseline)
            .expect("baseline");
        let rf = pipeline.run(&mut full, OptLevel::Full).expect("full");
        let extra = 1.0 - rf.area_after as f64 / rb.area_after as f64;
        total_extra += extra;
    }
    let avg = total_extra / 3.0;
    assert!(
        avg > 0.25,
        "industrial extra reduction should be large, got {:.1}%",
        100.0 * avg
    );
}

#[test]
fn pipeline_is_idempotent() {
    // running the full pipeline twice must not change the result again
    for case in public_corpus(Scale::Tiny).into_iter().take(3) {
        let mut m = case.compile().expect("compiles");
        let pipeline = Pipeline::default();
        let first = pipeline.run(&mut m, OptLevel::Full).expect("first run");
        let second = pipeline.run(&mut m, OptLevel::Full).expect("second run");
        assert_eq!(
            first.area_after, second.area_after,
            "{}: second run changed the area",
            case.name
        );
        assert_eq!(second.sat_rewrites, 0, "{}: no rewrites left", case.name);
        assert_eq!(second.rebuild_stats.rebuilt, 0);
    }
}

#[test]
fn chain_and_pmux_lowering_are_equivalent() {
    use smartly_aig::{check_equiv, EquivOptions};
    use smartly_verilog::{compile_with, CaseLowering, ElaborateOptions};
    for case in public_corpus(Scale::Tiny) {
        let chain = compile_with(
            &case.source,
            &ElaborateOptions {
                case_lowering: CaseLowering::Chain,
            },
        )
        .expect("chain lowering")
        .into_top()
        .expect("module");
        let pmux = compile_with(
            &case.source,
            &ElaborateOptions {
                case_lowering: CaseLowering::Pmux,
            },
        )
        .expect("pmux lowering")
        .into_top()
        .expect("module");
        let r = check_equiv(&chain, &pmux, &EquivOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(
            r,
            EquivResult::Equivalent,
            "{}: the two case lowerings must agree",
            case.name
        );
    }
}

/// Two `case` arms read the same mux `t`, whose select `s == 2'b01` is 1
/// on the first arm's path and 0 on the second's. Elaborated as one
/// `pmux`, `t` belongs to neither arm, so no pass may pin its select.
#[test]
fn pmux_arms_sharing_a_mux_stay_equivalent() {
    use smartly_verilog::{compile_with, CaseLowering, ElaborateOptions};
    const SRC: &str = "
module dup_arm (input wire [1:0] s, input wire [3:0] a, input wire [3:0] b,
                input wire [3:0] c, output reg [3:0] y);
  wire [3:0] t = (s == 2'b01) ? a : b;
  always @(*) begin
    case (s)
      2'b01: y = t;
      2'b10: y = t;
      default: y = c;
    endcase
  end
endmodule
";
    let options = ElaborateOptions {
        case_lowering: CaseLowering::Pmux,
    };
    for level in OptLevel::ALL {
        let mut m = compile_with(SRC, &options)
            .expect("dup-arm case compiles")
            .into_top()
            .expect("module");
        let pipeline = Pipeline {
            verify: true,
            ..Default::default()
        };
        let report = pipeline
            .run(&mut m, level)
            .unwrap_or_else(|e| panic!("{level:?}: {e}"));
        assert_eq!(
            report.equivalence,
            Some(EquivResult::Equivalent),
            "dup-arm case must stay equivalent at {level:?}"
        );
    }
}
