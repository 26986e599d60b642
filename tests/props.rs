//! Randomized tests over generated designs: optimization must never
//! change observable behavior, across lowering styles, optimization
//! levels and random structural mixes.
//!
//! Formerly written with `proptest`; the offline build environment cannot
//! fetch it, so each property now runs as a seeded loop over the vendored
//! deterministic RNG — same laws, reproducible cases.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use smartly_aig::{aigmap, check_equiv, EquivOptions, EquivResult};
use smartly_core::{OptLevel, Pipeline};
use smartly_netlist::{CellKind, Module, Port};
use smartly_sim::{compile as sim_compile, BitSim};
use smartly_workloads::{public_corpus, DesignSpec, Scale};

const CASES: usize = 12;

fn random_spec(
    seed: u64,
    cases: usize,
    deps: usize,
    same: usize,
    datapath: usize,
    structure: u32,
) -> DesignSpec {
    DesignSpec {
        name: format!("prop_{seed}"),
        description: "property-test design".to_string(),
        seed,
        data_width: 8,
        case_blocks: cases,
        case_sel_width: (2, 4),
        case_arm_fill: 0.7,
        case_leaf_sharing: 0.5,
        casez_fraction: 0.3,
        case_structure: structure as f64 / 100.0,
        dep_cones: deps,
        dep_implied_fraction: 0.7,
        same_sig_cones: same,
        same_sig_depth: (1, 4),
        redundancy_ops: 3,
        datapath_ops: datapath,
        register_banks: 2,
        arith_cones: 0,
    }
}

/// Any generated design stays functionally equivalent through the full
/// pipeline (the paper: "All the results generated by our program passed
/// equivalence checking").
#[test]
fn full_pipeline_preserves_function() {
    let mut rng = StdRng::seed_from_u64(0x7375_6974_6501);
    for _ in 0..CASES {
        let seed = rng.gen_range(0u64..10_000);
        let cases = rng.gen_range(1usize..4);
        let deps = rng.gen_range(1usize..5);
        let same = rng.gen_range(0usize..3);
        let structure = rng.gen_range(0u32..100);
        let spec = random_spec(seed, cases, deps, same, 2, structure);
        let case = spec.generate(Scale::Tiny);
        let mut m = case.compile().expect("generated source compiles");
        let pipeline = Pipeline {
            verify: true,
            ..Default::default()
        };
        let report = pipeline.run(&mut m, OptLevel::Full).expect("pipeline");
        assert_eq!(
            report.equivalence,
            Some(EquivResult::Equivalent),
            "seed {seed}"
        );
        assert!(report.area_after <= report.area_before);
        m.validate().expect("netlist stays well-formed");
    }
}

/// The optimized netlist simulates identically to the original on random
/// input vectors (independent of the SAT-based checker).
#[test]
fn optimized_netlist_simulates_identically() {
    let mut rng = StdRng::seed_from_u64(0x7375_6974_6502);
    for _ in 0..CASES {
        let seed = rng.gen_range(0u64..10_000);
        let cases = rng.gen_range(1usize..3);
        let deps = rng.gen_range(1usize..4);
        let spec = random_spec(seed, cases, deps, 1, 2, 50);
        let case = spec.generate(Scale::Tiny);
        let original = case.compile().expect("compiles");
        let mut optimized = original.clone();
        Pipeline::default()
            .run(&mut optimized, OptLevel::Full)
            .expect("pipeline");

        let p1 = sim_compile(&original).expect("sim original");
        let p2 = sim_compile(&optimized).expect("sim optimized");
        let mut s1 = BitSim::new(&p1);
        let mut s2 = BitSim::new(&p2);
        // drive identical pseudo-random vectors
        let mut x = seed | 1;
        let mut vecs = |n: usize, w: u32| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & ((1u64 << w.min(63)) - 1)
                })
                .collect()
        };
        for i in 0..8 {
            let v = vecs(32, 8);
            s1.set_input(&format!("in{i}"), &v);
            s2.set_input(&format!("in{i}"), &v);
        }
        let sel = vecs(32, 16);
        let ctl = vecs(32, 8);
        s1.set_input("sel", &sel);
        s2.set_input("sel", &sel);
        s1.set_input("ctl", &ctl);
        s2.set_input("ctl", &ctl);
        s1.set_input("clk", &vec![0; 32]);
        s2.set_input("clk", &vec![0; 32]);
        // a few clocked steps exercise the registers too
        for _ in 0..4 {
            s1.tick();
            s2.tick();
            assert_eq!(s1.output("out_comb"), s2.output("out_comb"), "seed {seed}");
            assert_eq!(s1.output("out_regs"), s2.output("out_regs"), "seed {seed}");
        }
    }
}

/// Chain and pmux `case` lowering produce equivalent netlists.
#[test]
fn lowering_styles_agree() {
    use smartly_verilog::{compile_with, CaseLowering, ElaborateOptions};
    let mut rng = StdRng::seed_from_u64(0x7375_6974_6503);
    for _ in 0..CASES {
        let seed = rng.gen_range(0u64..10_000);
        let cases = rng.gen_range(1usize..4);
        let spec = random_spec(seed, cases, 1, 1, 1, 40);
        let case = spec.generate(Scale::Tiny);
        let chain = compile_with(
            &case.source,
            &ElaborateOptions {
                case_lowering: CaseLowering::Chain,
            },
        )
        .expect("chain")
        .into_top()
        .expect("module");
        let pmux = compile_with(
            &case.source,
            &ElaborateOptions {
                case_lowering: CaseLowering::Pmux,
            },
        )
        .expect("pmux")
        .into_top()
        .expect("module");
        let r = check_equiv(&chain, &pmux, &EquivOptions::default()).expect("cec");
        assert_eq!(r, EquivResult::Equivalent, "seed {seed}");
    }
}

/// Optimizing the pmux-lowered form is also sound.
#[test]
fn pmux_lowering_optimizes_soundly() {
    use smartly_verilog::{compile_with, CaseLowering, ElaborateOptions};
    let mut rng = StdRng::seed_from_u64(0x7375_6974_6504);
    for _ in 0..CASES {
        let seed = rng.gen_range(0u64..10_000);
        let spec = random_spec(seed, 3, 2, 1, 1, 60);
        let case = spec.generate(Scale::Tiny);
        let mut m = compile_with(
            &case.source,
            &ElaborateOptions {
                case_lowering: CaseLowering::Pmux,
            },
        )
        .expect("pmux")
        .into_top()
        .expect("module");
        let pipeline = Pipeline {
            verify: true,
            ..Default::default()
        };
        let report = pipeline.run(&mut m, OptLevel::Full).expect("pipeline");
        assert_eq!(
            report.equivalence,
            Some(EquivResult::Equivalent),
            "seed {seed}"
        );
    }
}

/// Whether seeded `BitSim` co-simulation tells `gold` and `gate` apart:
/// 64 random vectors per cycle, 8 cycles from reset, every output bit.
fn cosim_differs(gold: &Module, gate: &Module, rng: &mut StdRng) -> bool {
    let pg = sim_compile(gold).expect("sim gold");
    let pt = sim_compile(gate).expect("sim gate");
    let mut g = BitSim::new(&pg);
    let mut t = BitSim::new(&pt);
    g.set_lanes(64);
    t.set_lanes(64);
    for _ in 0..8 {
        for (name, width) in pg.inputs() {
            for bit in 0..width {
                let plane = rng.next_u64();
                g.set_input_plane(name, bit, plane);
                t.set_input_plane(name, bit, plane);
            }
        }
        g.eval_comb();
        t.eval_comb();
        let differs = pg.outputs().any(|(name, width)| {
            (0..width).any(|bit| g.output_plane(name, bit) != t.output_plane(name, bit))
        });
        if differs {
            return true;
        }
        g.tick();
        t.tick();
    }
    false
}

/// A single-cell mutant: one seeded AND↔OR, XOR↔XNOR or mux data swap.
fn mutant(module: &Module, rng: &mut StdRng) -> Option<Module> {
    let candidates: Vec<_> = module
        .cells()
        .filter(|(_, c)| {
            matches!(
                c.kind,
                CellKind::And | CellKind::Or | CellKind::Xor | CellKind::Xnor | CellKind::Mux
            )
        })
        .map(|(id, _)| id)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let mut m = module.clone();
    let cell = m
        .cell_mut(candidates[rng.gen_range(0..candidates.len())])
        .expect("candidate is live");
    match cell.kind {
        CellKind::And => cell.kind = CellKind::Or,
        CellKind::Or => cell.kind = CellKind::And,
        CellKind::Xor => cell.kind = CellKind::Xnor,
        CellKind::Xnor => cell.kind = CellKind::Xor,
        _ => {
            let a = cell.port(Port::A).cloned().unwrap_or_default();
            let b = cell.port(Port::B).cloned().unwrap_or_default();
            cell.set_port(Port::A, b);
            cell.set_port(Port::B, a);
        }
    }
    Some(m)
}

/// Soundness with counterexample replay: every mutant of an optimized
/// Tiny circuit that co-simulation tells apart is `NotEquivalent`, and
/// its counterexample, replayed on both mapped modules, differs on the
/// reported output bit.
#[test]
fn mutants_are_refuted_with_replayable_counterexamples() {
    let mut rng = StdRng::seed_from_u64(0x7375_6974_6505);
    let mut refuted = 0;
    for case in public_corpus(Scale::Tiny) {
        let mut optimized = case.compile().expect("corpus compiles");
        Pipeline::default()
            .run(&mut optimized, OptLevel::Full)
            .expect("pipeline");
        let gold = aigmap(&optimized).expect("map optimized");
        for _ in 0..4 {
            let Some(bad) = mutant(&optimized, &mut rng) else {
                continue;
            };
            if !cosim_differs(&optimized, &bad, &mut rng) {
                continue;
            }
            let (output, bit, cex) =
                match check_equiv(&optimized, &bad, &EquivOptions::default()).expect("cec") {
                    EquivResult::NotEquivalent {
                        output,
                        bit,
                        counterexample,
                    } => (output, bit, counterexample),
                    other => panic!("{}: mutant verdict {other:?}", case.name),
                };
            let gate = aigmap(&bad).expect("map mutant");
            let (want, got) = (gold.eval_u64(&cex), gate.eval_u64(&cex));
            assert_ne!(
                (want[&output] >> bit) & 1,
                (got[&output] >> bit) & 1,
                "{}: counterexample does not separate {output}[{bit}]",
                case.name
            );
            refuted += 1;
        }
    }
    assert!(refuted >= 20, "only {refuted} mutants were told apart");
}
