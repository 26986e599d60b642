//! The hybrid decision procedure (paper §II, last part).
//!
//! "For a smaller number of inputs, simulation is more efficient, while
//! the SAT solver is better suited for handling larger sets of inputs" —
//! [`decide`] enumerates all assignments of the free leaves when there
//! are few, and otherwise Tseitin-encodes the sub-graph and asks
//! `SAT(target = 0)` / `SAT(target = 1)`. One `UNSAT` answer fixes the
//! signal; both `UNSAT` means the path condition itself is unsatisfiable
//! (the branch is unreachable and may take either value).

use crate::subgraph::SubGraph;
use smartly_netlist::{eval_cell, CellInputs, CellKind, Module, NetIndex, Port, SigBit, TriVal};
use smartly_sat::{Lit, SolveResult, TseitinEncoder};
use std::collections::HashMap;

/// Thresholds for the hybrid procedure.
#[derive(Copy, Clone, Debug)]
pub struct DecideOptions {
    /// Free-leaf count at or below which exhaustive simulation is used.
    pub sim_threshold: usize,
    /// Free-leaf count at or below which SAT is attempted; beyond it the
    /// query is skipped entirely (the paper's input-count threshold that
    /// keeps the pass from becoming a bottleneck).
    pub sat_threshold: usize,
    /// Conflict budget per SAT query.
    pub conflict_budget: u64,
}

impl Default for DecideOptions {
    fn default() -> Self {
        DecideOptions {
            sim_threshold: 10,
            sat_threshold: 64,
            conflict_budget: 2_000,
        }
    }
}

/// The verdict for a target bit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The bit always takes this value under the path condition.
    Const(bool),
    /// Could not be decided (genuinely free, or budget exhausted).
    Unknown,
    /// The path condition is unsatisfiable: the branch never executes.
    Unreachable,
    /// Decision method telemetry is reported separately; this variant is
    /// returned when the sub-graph was too large to attempt at all.
    Skipped,
}

/// Which engine produced a decision (for the ablation statistics).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Exhaustive simulation of the free leaves.
    Simulation,
    /// CDCL SAT on the Tseitin-encoded sub-graph.
    Sat,
    /// No engine ran.
    None,
}

/// Which decision engine [`decide`] (and the incremental
/// [`crate::QueryEngine`]) routes a query to — a pure function of the
/// free-leaf count and cone size, so both paths stay in lockstep.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum EngineChoice {
    /// Exhaustive simulation of the free leaves.
    Sim,
    /// CDCL SAT on the encoded sub-graph.
    Sat,
    /// Too large to attempt at all.
    Skip,
}

/// The hybrid engine-selection rule (paper §II): exhaustive simulation
/// costs `2^free × |cells|` — cheap for the small cones the pruned gather
/// produces, ruinous for big ones — so fall back to SAT when the product
/// is large ("the SAT solver is better suited for handling larger sets of
/// inputs"), and skip entirely past the input-count threshold.
pub(crate) fn choose_engine(
    free_count: usize,
    cone_cells: usize,
    options: &DecideOptions,
) -> EngineChoice {
    const SIM_COST_LIMIT: u64 = 2_000_000;
    let sim_cost = 1u64
        .checked_shl(free_count as u32)
        .unwrap_or(u64::MAX)
        .saturating_mul(cone_cells as u64);
    if free_count <= options.sim_threshold && sim_cost <= SIM_COST_LIMIT {
        EngineChoice::Sim
    } else if free_count <= options.sat_threshold {
        EngineChoice::Sat
    } else {
        EngineChoice::Skip
    }
}

/// The free (unassigned, non-constant) leaves of a sub-graph.
pub(crate) fn free_leaves(sub: &SubGraph, assign: &HashMap<SigBit, bool>) -> Vec<SigBit> {
    sub.leaves
        .iter()
        .copied()
        .filter(|b| !assign.contains_key(b) && !b.is_const())
        .collect()
}

/// Decides the sub-graph's target bit under `assign`.
pub fn decide(
    module: &Module,
    index: &NetIndex,
    sub: &SubGraph,
    assign: &HashMap<SigBit, bool>,
    options: &DecideOptions,
) -> (Decision, Engine) {
    let free = free_leaves(sub, assign);
    match choose_engine(free.len(), sub.cells.len(), options) {
        EngineChoice::Sim => (
            simulate(module, index, sub, assign, &free),
            Engine::Simulation,
        ),
        EngineChoice::Sat => (sat_decide(module, index, sub, assign, options), Engine::Sat),
        EngineChoice::Skip => (Decision::Skipped, Engine::None),
    }
}

/// Exhaustive simulation: enumerate free-leaf assignments, evaluate the
/// sub-graph, keep assignments consistent with the known internal bits.
pub(crate) fn simulate(
    module: &Module,
    index: &NetIndex,
    sub: &SubGraph,
    assign: &HashMap<SigBit, bool>,
    free: &[SigBit],
) -> Decision {
    let mut seen_true = false;
    let mut seen_false = false;
    let mut any_consistent = false;

    for m in 0u64..(1u64 << free.len()) {
        let mut values: HashMap<SigBit, TriVal> = HashMap::new();
        for (b, v) in assign {
            values.insert(*b, TriVal::from_bool(*v));
        }
        for (k, b) in free.iter().enumerate() {
            values.insert(*b, TriVal::from_bool((m >> k) & 1 == 1));
        }
        let mut consistent = true;
        for &id in &sub.cells {
            let cell = module.cell(id).expect("live cell");
            let fetch = |spec: Option<&smartly_netlist::SigSpec>| -> Vec<TriVal> {
                spec.map(|s| {
                    s.iter()
                        .map(|b| {
                            let c = index.canon(*b);
                            match c {
                                SigBit::Const(v) => v,
                                _ => values.get(&c).copied().unwrap_or(TriVal::X),
                            }
                        })
                        .collect()
                })
                .unwrap_or_default()
            };
            let inputs = CellInputs {
                a: fetch(cell.port(Port::A)),
                b: fetch(cell.port(Port::B)),
                s: fetch(cell.port(Port::S)),
            };
            let out = eval_cell(cell.kind, &inputs, cell.output().width());
            for (bit, v) in cell.output().iter().zip(out) {
                let c = index.canon(*bit);
                if let Some(prev) = values.get(&c) {
                    // a known (path-condition) bit: check consistency
                    if prev.is_known() && v.is_known() && *prev != v {
                        consistent = false;
                        break;
                    }
                }
                values.insert(c, v);
            }
            if !consistent {
                break;
            }
        }
        if !consistent {
            continue;
        }
        match values.get(&sub.target).copied() {
            Some(TriVal::One) => seen_true = true,
            Some(TriVal::Zero) => seen_false = true,
            _ => {
                // X on the target: can't conclude anything for this vector
                seen_true = true;
                seen_false = true;
            }
        }
        any_consistent = true;
        if seen_true && seen_false {
            return Decision::Unknown;
        }
    }
    if !any_consistent {
        Decision::Unreachable
    } else if seen_true {
        Decision::Const(true)
    } else {
        Decision::Const(false)
    }
}

/// SAT: encode the sub-graph, assert the path condition, query both
/// polarities of the target.
fn sat_decide(
    module: &Module,
    index: &NetIndex,
    sub: &SubGraph,
    assign: &HashMap<SigBit, bool>,
    options: &DecideOptions,
) -> Decision {
    let mut enc = TseitinEncoder::new();
    enc.solver_mut()
        .set_conflict_budget(Some(options.conflict_budget));
    let mut lits: HashMap<SigBit, Lit> = HashMap::new();

    let lit_of = |bit: SigBit, enc: &mut TseitinEncoder, lits: &mut HashMap<SigBit, Lit>| -> Lit {
        let c = index.canon(bit);
        match c {
            SigBit::Const(TriVal::One) => enc.true_lit(),
            SigBit::Const(_) => enc.false_lit(),
            _ => *lits.entry(c).or_insert_with(|| enc.fresh()),
        }
    };

    for &id in &sub.cells {
        let cell = module.cell(id).expect("live cell");
        let a: Vec<Lit> = cell
            .port(Port::A)
            .map(|s| s.iter().map(|b| lit_of(*b, &mut enc, &mut lits)).collect())
            .unwrap_or_default();
        let b: Vec<Lit> = cell
            .port(Port::B)
            .map(|s| s.iter().map(|b| lit_of(*b, &mut enc, &mut lits)).collect())
            .unwrap_or_default();
        let s: Vec<Lit> = cell
            .port(Port::S)
            .map(|sp| sp.iter().map(|b| lit_of(*b, &mut enc, &mut lits)).collect())
            .unwrap_or_default();
        let w = cell.output().width();
        let out = encode_cell(&mut enc, cell.kind, &a, &b, &s, w);
        for (bit, lit) in cell.output().iter().zip(out) {
            let c = index.canon(*bit);
            match lits.get(&c) {
                Some(&existing) => {
                    // bit referenced before its driver was encoded: tie them
                    let eqv = enc.xnor(existing, lit);
                    enc.assert_lit(eqv);
                }
                None => {
                    lits.insert(c, lit);
                }
            }
        }
    }

    // assert the path condition / inferred knowledge
    for (bit, v) in assign {
        let l = lit_of(*bit, &mut enc, &mut lits);
        enc.assert_lit(if *v { l } else { !l });
    }

    let target = lit_of(sub.target, &mut enc, &mut lits);
    let can_be_true = enc.solve_with(&[target]);
    let can_be_false = enc.solve_with(&[!target]);
    match (can_be_true, can_be_false) {
        (SolveResult::Unsat, SolveResult::Unsat) => Decision::Unreachable,
        (SolveResult::Sat, SolveResult::Unsat) => Decision::Const(true),
        (SolveResult::Unsat, SolveResult::Sat) => Decision::Const(false),
        _ => Decision::Unknown,
    }
}

/// Gate-consistency encoding for one cell (bitwise, like the AIG mapper).
pub(crate) fn encode_cell(
    enc: &mut TseitinEncoder,
    kind: CellKind,
    a: &[Lit],
    b: &[Lit],
    s: &[Lit],
    w: usize,
) -> Vec<Lit> {
    use CellKind::*;
    let big_or = |enc: &mut TseitinEncoder, xs: &[Lit]| enc.big_or(xs);
    match kind {
        Not => a.iter().map(|&x| !x).collect(),
        And => a.iter().zip(b).map(|(&x, &y)| enc.and(x, y)).collect(),
        Or => a.iter().zip(b).map(|(&x, &y)| enc.or(x, y)).collect(),
        Xor => a.iter().zip(b).map(|(&x, &y)| enc.xor(x, y)).collect(),
        Xnor => a.iter().zip(b).map(|(&x, &y)| enc.xnor(x, y)).collect(),
        ReduceAnd => vec![{
            let negs: Vec<Lit> = a.iter().map(|&l| !l).collect();
            !enc.big_or(&negs)
        }],
        ReduceOr | ReduceBool => vec![big_or(enc, a)],
        ReduceXor => {
            let mut acc = enc.false_lit();
            for &x in a {
                acc = enc.xor(acc, x);
            }
            vec![acc]
        }
        LogicNot => vec![!big_or(enc, a)],
        LogicAnd => {
            let ra = big_or(enc, a);
            let rb = big_or(enc, b);
            vec![enc.and(ra, rb)]
        }
        LogicOr => {
            let ra = big_or(enc, a);
            let rb = big_or(enc, b);
            vec![enc.or(ra, rb)]
        }
        Eq | Ne => {
            let xnors: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| enc.xnor(x, y)).collect();
            let negs: Vec<Lit> = xnors.iter().map(|&l| !l).collect();
            let eq = !enc.big_or(&negs);
            vec![if kind == Eq { eq } else { !eq }]
        }
        Lt | Le | Gt | Ge => {
            let mut lt = enc.false_lit();
            let mut gt = enc.false_lit();
            for (&x, &y) in a.iter().zip(b) {
                let xe = enc.xnor(x, y);
                let l_here = enc.and(!x, y);
                let g_here = enc.and(x, !y);
                let lk = enc.and(xe, lt);
                let gk = enc.and(xe, gt);
                lt = enc.or(l_here, lk);
                gt = enc.or(g_here, gk);
            }
            vec![match kind {
                Lt => lt,
                Le => !gt,
                Gt => gt,
                Ge => !lt,
                _ => unreachable!(),
            }]
        }
        Add | Sub => {
            let bb: Vec<Lit> = if kind == Sub {
                b.iter().map(|&x| !x).collect()
            } else {
                b.to_vec()
            };
            let mut carry = if kind == Sub {
                enc.true_lit()
            } else {
                enc.false_lit()
            };
            let mut out = Vec::with_capacity(w);
            for (&x, &y) in a.iter().zip(&bb) {
                let xy = enc.xor(x, y);
                out.push(enc.xor(xy, carry));
                let t1 = enc.and(x, y);
                let t2 = enc.and(xy, carry);
                carry = enc.or(t1, t2);
            }
            out
        }
        Mux => {
            let sel = s[0];
            a.iter().zip(b).map(|(&x, &y)| enc.mux(sel, x, y)).collect()
        }
        Pmux => {
            let mut acc = a.to_vec();
            for i in (0..s.len()).rev() {
                let word = &b[i * w..(i + 1) * w];
                acc = acc
                    .iter()
                    .zip(word)
                    .map(|(&e, &t)| enc.mux(s[i], e, t))
                    .collect();
            }
            acc
        }
        Mul | Shl | Shr | Dff => unreachable!("unsupported kinds are cut from sub-graphs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph;
    use smartly_netlist::Module;

    fn run(
        m: &Module,
        target: SigBit,
        known: &[(SigBit, bool)],
        opts: &DecideOptions,
    ) -> (Decision, Engine) {
        let index = NetIndex::build(m);
        let ranks = subgraph::topo_ranks(&m.topo_order_with(&index).unwrap());
        let mut assign = HashMap::new();
        for (b, v) in known {
            assign.insert(index.canon(*b), *v);
        }
        let (sub, _) = subgraph::extract(m, &index, &ranks, target, &assign, 16, true);
        decide(m, &index, &sub, &assign, opts)
    }

    fn fig3_module() -> (Module, SigBit, SigBit) {
        let mut m = Module::new("fig3");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        m.add_output("y", &sr);
        (m, sr.bit(0), s.bit(0))
    }

    #[test]
    fn fig3_decided_by_simulation() {
        let (m, sr, s) = fig3_module();
        let opts = DecideOptions::default();
        let (d, e) = run(&m, sr, &[(s, true)], &opts);
        assert_eq!(d, Decision::Const(true));
        assert_eq!(e, Engine::Simulation);
    }

    #[test]
    fn fig3_decided_by_sat() {
        let (m, sr, s) = fig3_module();
        let opts = DecideOptions {
            sim_threshold: 0, // force SAT
            ..Default::default()
        };
        let (d, e) = run(&m, sr, &[(s, true)], &opts);
        assert_eq!(d, Decision::Const(true));
        assert_eq!(e, Engine::Sat);
    }

    #[test]
    fn genuinely_free_signal_is_unknown() {
        let (m, sr, _) = fig3_module();
        for sim_threshold in [0, 10] {
            let opts = DecideOptions {
                sim_threshold,
                ..Default::default()
            };
            let (d, _) = run(&m, sr, &[], &opts);
            assert_eq!(d, Decision::Unknown);
        }
    }

    #[test]
    fn unreachable_path_detected() {
        // known: s=1 and (s|r)=0 — contradictory
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        let t = m.add_input("t", 1);
        let y = m.and(&sr, &t);
        m.add_output("y", &y);
        for sim_threshold in [0, 10] {
            let opts = DecideOptions {
                sim_threshold,
                ..Default::default()
            };
            let (d, _) = run(&m, y.bit(0), &[(s.bit(0), true), (sr.bit(0), false)], &opts);
            assert_eq!(d, Decision::Unreachable, "sim_threshold {sim_threshold}");
        }
    }

    #[test]
    fn oversized_subgraph_is_skipped() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 80);
        let y = m.reduce_or(&a);
        m.add_output("y", &y);
        let opts = DecideOptions {
            sim_threshold: 4,
            sat_threshold: 8,
            conflict_budget: 100,
        };
        let (d, e) = run(&m, y.bit(0), &[], &opts);
        assert_eq!(d, Decision::Skipped);
        assert_eq!(e, Engine::None);
    }

    #[test]
    fn arithmetic_decided_through_sat() {
        // y = (a + 1 == 0) is true only for a = 0xff; with a's bits free
        // the answer is Unknown; with a pinned it's decided
        let mut m = Module::new("t");
        let a = m.add_input("a", 8);
        let one = smartly_netlist::SigSpec::const_u64(1, 8);
        let sum = m.add(&a, &one);
        let zero = smartly_netlist::SigSpec::zeros(8);
        let y = m.eq(&sum, &zero);
        m.add_output("y", &y);
        let opts = DecideOptions {
            sim_threshold: 0,
            ..Default::default()
        };
        let (d, _) = run(&m, y.bit(0), &[], &opts);
        assert_eq!(d, Decision::Unknown);
        // pin a bit so a can never be 0xff ⇒ y is constant false
        let (d, _) = run(&m, y.bit(0), &[(a.bit(3), false)], &opts);
        assert_eq!(d, Decision::Const(false));
    }

    #[test]
    fn sim_and_sat_agree_on_random_cones() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..15 {
            let mut m = Module::new("t");
            let inputs: Vec<_> = (0..4).map(|i| m.add_input(&format!("i{i}"), 1)).collect();
            let mut pool: Vec<smartly_netlist::SigSpec> = inputs.clone();
            for _ in 0..8 {
                let x = pool[rng.gen_range(0..pool.len())].clone();
                let y = pool[rng.gen_range(0..pool.len())].clone();
                let z = match rng.gen_range(0..4) {
                    0 => m.and(&x, &y),
                    1 => m.or(&x, &y),
                    2 => m.xor(&x, &y),
                    _ => m.not(&x),
                };
                pool.push(z);
            }
            let target = pool.last().unwrap().clone();
            m.add_output("y", &target);
            let known = vec![(inputs[0].bit(0), true)];
            let sim_opts = DecideOptions {
                sim_threshold: 16,
                ..Default::default()
            };
            let sat_opts = DecideOptions {
                sim_threshold: 0,
                ..Default::default()
            };
            let (d1, _) = run(&m, target.bit(0), &known, &sim_opts);
            let (d2, _) = run(&m, target.bit(0), &known, &sat_opts);
            assert_eq!(d1, d2, "round {round}");
        }
    }
}
