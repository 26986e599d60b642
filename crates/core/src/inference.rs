//! Cheap inference rules (paper Table I, extended to the full cell
//! library).
//!
//! The paper lists the `or`-cell rules; the same bidirectional reasoning
//! applies to every supported kind, so this module implements the natural
//! extension (the `and` dual, `not`/`xor`/`xnor` completion, mux branch
//! propagation, `eq` projection, reductions and the `logic_*` gates).
//! Propagation runs a worklist to a fixpoint over a sub-graph; a
//! contradiction means the current path condition is unsatisfiable, i.e.
//! the branch being analyzed is unreachable.

use crate::subgraph::SubGraph;
use smartly_netlist::{CellKind, Module, NetIndex, Port, SigBit, TriVal};
use std::collections::HashMap;

/// Outcome of a propagation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InferOutcome {
    /// Fixpoint reached; `newly_assigned` bits were added.
    Fixpoint {
        /// Number of bits assigned by the run.
        newly_assigned: usize,
    },
    /// The assignment is self-contradictory (unreachable path).
    Contradiction,
}

/// The value of a bit under the current partial assignment.
fn value(index: &NetIndex, assign: &HashMap<SigBit, bool>, bit: SigBit) -> Option<bool> {
    let c = index.canon(bit);
    match c {
        SigBit::Const(TriVal::One) => Some(true),
        SigBit::Const(TriVal::Zero) => Some(false),
        SigBit::Const(TriVal::X) => None,
        _ => assign.get(&c).copied(),
    }
}

enum SetResult {
    Progress,
    NoChange,
    Clash,
}

fn set(index: &NetIndex, assign: &mut HashMap<SigBit, bool>, bit: SigBit, v: bool) -> SetResult {
    let c = index.canon(bit);
    match c {
        SigBit::Const(TriVal::One) => {
            if v {
                SetResult::NoChange
            } else {
                SetResult::Clash
            }
        }
        SigBit::Const(TriVal::Zero) => {
            if v {
                SetResult::Clash
            } else {
                SetResult::NoChange
            }
        }
        SigBit::Const(TriVal::X) => SetResult::NoChange,
        _ => match assign.get(&c) {
            Some(&old) if old == v => SetResult::NoChange,
            Some(_) => SetResult::Clash,
            None => {
                assign.insert(c, v);
                SetResult::Progress
            }
        },
    }
}

/// Runs the inference rules over `sub` until fixpoint, extending `assign`
/// in place with every newly deduced bit.
pub fn propagate(
    module: &Module,
    index: &NetIndex,
    sub: &SubGraph,
    assign: &mut HashMap<SigBit, bool>,
) -> InferOutcome {
    let mut total = 0usize;
    loop {
        let mut progress = 0usize;
        for &id in &sub.cells {
            let cell = match module.cell(id) {
                Some(c) => c,
                None => continue,
            };
            match infer_cell(module, index, cell, assign) {
                Ok(n) => progress += n,
                Err(()) => return InferOutcome::Contradiction,
            }
        }
        total += progress;
        if progress == 0 {
            return InferOutcome::Fixpoint {
                newly_assigned: total,
            };
        }
    }
}

/// Applies every applicable rule to one cell; returns assigned-bit count
/// or `Err(())` on contradiction.
#[allow(clippy::too_many_lines)]
fn infer_cell(
    _module: &Module,
    index: &NetIndex,
    cell: &smartly_netlist::Cell,
    assign: &mut HashMap<SigBit, bool>,
) -> Result<usize, ()> {
    use CellKind::*;
    let mut n = 0usize;
    macro_rules! put {
        ($bit:expr, $v:expr) => {
            match set(index, assign, $bit, $v) {
                SetResult::Progress => n += 1,
                SetResult::NoChange => {}
                SetResult::Clash => return Err(()),
            }
        };
    }
    let val = |bit: SigBit, assign: &HashMap<SigBit, bool>| value(index, assign, bit);
    let bits = |port: Port| cell.port(port).map_or(&[][..], |spec| spec.bits());
    let (a, b, s) = (bits(Port::A), bits(Port::B), bits(Port::S));
    let y = cell.output().bits();

    match cell.kind {
        Not => {
            for i in 0..y.len() {
                if let Some(v) = val(a[i], assign) {
                    put!(y[i], !v);
                }
                if let Some(v) = val(y[i], assign) {
                    put!(a[i], !v);
                }
            }
        }
        And | Or => {
            let is_and = cell.kind == And;
            // controlling / identity values, forward and backward
            for i in 0..y.len() {
                let (va, vb, vy) = (val(a[i], assign), val(b[i], assign), val(y[i], assign));
                // forward
                match (is_and, va, vb) {
                    (true, Some(false), _) | (true, _, Some(false)) => put!(y[i], false),
                    (true, Some(true), Some(true)) => put!(y[i], true),
                    (false, Some(true), _) | (false, _, Some(true)) => put!(y[i], true),
                    (false, Some(false), Some(false)) => put!(y[i], false),
                    _ => {}
                }
                // backward (Table I for `or`, dual for `and`)
                match (is_and, vy) {
                    (true, Some(true)) => {
                        put!(a[i], true);
                        put!(b[i], true);
                    }
                    (false, Some(false)) => {
                        put!(a[i], false);
                        put!(b[i], false);
                    }
                    (true, Some(false)) => {
                        if va == Some(true) {
                            put!(b[i], false);
                        }
                        if vb == Some(true) {
                            put!(a[i], false);
                        }
                    }
                    (false, Some(true)) => {
                        if va == Some(false) {
                            put!(b[i], true);
                        }
                        if vb == Some(false) {
                            put!(a[i], true);
                        }
                    }
                    _ => {}
                }
            }
        }
        Xor | Xnor => {
            let invert = cell.kind == Xnor;
            for i in 0..y.len() {
                let (va, vb, vy) = (val(a[i], assign), val(b[i], assign), val(y[i], assign));
                // any two known pin the third
                if let (Some(x), Some(z)) = (va, vb) {
                    put!(y[i], (x ^ z) != invert);
                }
                if let (Some(x), Some(w)) = (va, vy) {
                    put!(b[i], (x ^ w) != invert);
                }
                if let (Some(z), Some(w)) = (vb, vy) {
                    put!(a[i], (z ^ w) != invert);
                }
            }
        }
        Mux => {
            let vs = val(s[0], assign);
            for i in 0..y.len() {
                let (va, vb, vy) = (val(a[i], assign), val(b[i], assign), val(y[i], assign));
                match vs {
                    Some(true) => {
                        if let Some(v) = vb {
                            put!(y[i], v);
                        }
                        if let Some(v) = vy {
                            put!(b[i], v);
                        }
                    }
                    Some(false) => {
                        if let Some(v) = va {
                            put!(y[i], v);
                        }
                        if let Some(v) = vy {
                            put!(a[i], v);
                        }
                    }
                    None => {
                        // both branches agree ⇒ output known
                        if let (Some(x), Some(z)) = (va, vb) {
                            if x == z {
                                put!(y[i], x);
                            }
                        }
                        // output differs from one branch ⇒ select known
                        if let (Some(w), Some(x)) = (vy, va) {
                            if w != x {
                                put!(s[0], true);
                            }
                        }
                        if let (Some(w), Some(z)) = (vy, vb) {
                            if w != z {
                                put!(s[0], false);
                            }
                        }
                    }
                }
            }
        }
        Eq | Ne => {
            let neg = cell.kind == Ne;
            let vy = val(y[0], assign).map(|v| v != neg); // as "equal?"
            let pairs: Vec<(Option<bool>, Option<bool>)> = (0..a.len())
                .map(|i| (val(a[i], assign), val(b[i], assign)))
                .collect();
            // forward: all pairs known ⇒ y; any known mismatch ⇒ y = 0
            if pairs
                .iter()
                .any(|(x, z)| matches!((x, z), (Some(p), Some(q)) if p != q))
            {
                put!(y[0], neg);
            } else if pairs.iter().all(|(x, z)| x.is_some() && z.is_some()) {
                put!(y[0], !neg);
            }
            match vy {
                Some(true) => {
                    // equal: one known side projects onto the other
                    for i in 0..a.len() {
                        if let Some(v) = pairs[i].0 {
                            put!(b[i], v);
                        }
                        if let Some(v) = pairs[i].1 {
                            put!(a[i], v);
                        }
                    }
                }
                Some(false) => {
                    if a.len() == 1 {
                        if let Some(v) = pairs[0].0 {
                            put!(b[0], !v);
                        }
                        if let Some(v) = pairs[0].1 {
                            put!(a[0], !v);
                        }
                    } else {
                        // if all but one pair are known-equal, the last differs
                        let unknown: Vec<usize> = (0..a.len())
                            .filter(|&i| !matches!(pairs[i], (Some(p), Some(q)) if p == q))
                            .collect();
                        if unknown.len() == 1 {
                            let i = unknown[0];
                            if let Some(v) = pairs[i].0 {
                                put!(b[i], !v);
                            }
                            if let Some(v) = pairs[i].1 {
                                put!(a[i], !v);
                            }
                        }
                    }
                }
                None => {}
            }
        }
        ReduceOr | ReduceBool | ReduceAnd | LogicNot => {
            // y related to OR/AND over a's bits (LogicNot = NOR)
            let is_and = cell.kind == ReduceAnd;
            let out_invert = cell.kind == LogicNot;
            let vals: Vec<Option<bool>> = (0..a.len()).map(|i| val(a[i], assign)).collect();
            // vy: y as or/and value
            let vy = val(y[0], assign).map(|v| v != out_invert);
            // forward
            if is_and {
                if vals.contains(&Some(false)) {
                    put!(y[0], out_invert);
                } else if vals.iter().all(|v| *v == Some(true)) {
                    put!(y[0], !out_invert);
                }
            } else if vals.contains(&Some(true)) {
                put!(y[0], !out_invert);
            } else if vals.iter().all(|v| *v == Some(false)) {
                put!(y[0], out_invert);
            }
            // backward
            match (is_and, vy) {
                (true, Some(true)) => {
                    for &bit in a {
                        put!(bit, true);
                    }
                }
                (false, Some(false)) => {
                    for &bit in a {
                        put!(bit, false);
                    }
                }
                (true, Some(false)) | (false, Some(true)) => {
                    let want = !is_and;
                    let undecided: Vec<usize> =
                        (0..a.len()).filter(|&i| vals[i].is_none()).collect();
                    let rest_blocked =
                        (0..a.len()).all(|i| vals[i] == Some(!want) || vals[i].is_none());
                    if undecided.len() == 1 && rest_blocked {
                        put!(a[undecided[0]], want);
                    }
                }
                _ => {}
            }
        }
        ReduceXor => {
            let vals: Vec<Option<bool>> = (0..a.len()).map(|i| val(a[i], assign)).collect();
            let vy = val(y[0], assign);
            let known_parity = vals.iter().filter_map(|v| *v).fold(false, |acc, v| acc ^ v);
            let unknown: Vec<usize> = (0..a.len()).filter(|&i| vals[i].is_none()).collect();
            if unknown.is_empty() {
                put!(y[0], known_parity);
            } else if unknown.len() == 1 {
                if let Some(w) = vy {
                    put!(a[unknown[0]], w ^ known_parity);
                }
            }
        }
        LogicAnd | LogicOr => {
            let is_and = cell.kind == LogicAnd;
            let ra = reduce_or_value(a, index, assign);
            let rb = reduce_or_value(b, index, assign);
            let vy = val(y[0], assign);
            match (is_and, ra, rb) {
                (true, Some(false), _) | (true, _, Some(false)) => put!(y[0], false),
                (true, Some(true), Some(true)) => put!(y[0], true),
                (false, Some(true), _) | (false, _, Some(true)) => put!(y[0], true),
                (false, Some(false), Some(false)) => put!(y[0], false),
                _ => {}
            }
            // backward only for 1-bit operands (the common elaborated form)
            if a.len() == 1 && b.len() == 1 {
                match (is_and, vy) {
                    (true, Some(true)) => {
                        put!(a[0], true);
                        put!(b[0], true);
                    }
                    (false, Some(false)) => {
                        put!(a[0], false);
                        put!(b[0], false);
                    }
                    (true, Some(false)) => {
                        if ra == Some(true) {
                            put!(b[0], false);
                        }
                        if rb == Some(true) {
                            put!(a[0], false);
                        }
                    }
                    (false, Some(true)) => {
                        if ra == Some(false) {
                            put!(b[0], true);
                        }
                        if rb == Some(false) {
                            put!(a[0], true);
                        }
                    }
                    _ => {}
                }
            }
        }
        // comparisons/arithmetic: decided by simulation or SAT instead
        Lt | Le | Gt | Ge | Add | Sub | Pmux => {}
        Mul | Shl | Shr | Dff => {}
    }
    Ok(n)
}

fn reduce_or_value(
    spec: &[SigBit],
    index: &NetIndex,
    assign: &HashMap<SigBit, bool>,
) -> Option<bool> {
    let mut all_false = true;
    for b in spec {
        match value(index, assign, *b) {
            Some(true) => return Some(true),
            Some(false) => {}
            None => all_false = false,
        }
    }
    if all_false {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph;
    use smartly_netlist::Module;

    fn setup(
        m: &Module,
        target: SigBit,
        known: &[(SigBit, bool)],
    ) -> (NetIndex, SubGraph, HashMap<SigBit, bool>) {
        let index = NetIndex::build(m);
        let ranks = subgraph::topo_ranks(&m.topo_order_with(&index).unwrap());
        let mut assign = HashMap::new();
        for (b, v) in known {
            assign.insert(index.canon(*b), *v);
        }
        let (sub, _) = subgraph::extract(m, &index, &ranks, target, &assign, 16, true);
        (index, sub, assign)
    }

    /// Paper Table I row 1: a = true ⇒ a|b = true (Fig. 3's key step).
    #[test]
    fn or_rule_forward_true() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        m.add_output("y", &sr);
        let (index, sub, mut assign) = setup(&m, sr.bit(0), &[(s.bit(0), true)]);
        let out = propagate(&m, &index, &sub, &mut assign);
        assert!(matches!(out, InferOutcome::Fixpoint { newly_assigned: 1 }));
        assert_eq!(assign.get(&index.canon(sr.bit(0))), Some(&true));
    }

    /// Table I row 4: a|b = false ⇒ a = b = false.
    #[test]
    fn or_rule_backward_false() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        m.add_output("y", &sr);
        let (index, sub, mut assign) = setup(&m, s.bit(0), &[(sr.bit(0), false)]);
        propagate(&m, &index, &sub, &mut assign);
        assert_eq!(assign.get(&index.canon(s.bit(0))), Some(&false));
        assert_eq!(assign.get(&index.canon(r.bit(0))), Some(&false));
    }

    /// Table I rows 5–6: a|b = true with one side false pins the other.
    #[test]
    fn or_rule_one_side() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        m.add_output("y", &sr);
        let (index, sub, mut assign) = setup(&m, r.bit(0), &[(sr.bit(0), true), (s.bit(0), false)]);
        propagate(&m, &index, &sub, &mut assign);
        assert_eq!(assign.get(&index.canon(r.bit(0))), Some(&true));
    }

    #[test]
    fn and_dual_rules() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.and(&s, &r);
        m.add_output("y", &sr);
        // y=1 ⇒ both inputs 1
        let (index, sub, mut assign) = setup(&m, s.bit(0), &[(sr.bit(0), true)]);
        propagate(&m, &index, &sub, &mut assign);
        assert_eq!(assign.get(&index.canon(s.bit(0))), Some(&true));
        assert_eq!(assign.get(&index.canon(r.bit(0))), Some(&true));
    }

    #[test]
    fn xor_completion() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let x = m.xor(&s, &r);
        m.add_output("y", &x);
        let (index, sub, mut assign) = setup(&m, r.bit(0), &[(x.bit(0), true), (s.bit(0), true)]);
        propagate(&m, &index, &sub, &mut assign);
        assert_eq!(assign.get(&index.canon(r.bit(0))), Some(&false));
    }

    #[test]
    fn eq_projection() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 2);
        let k = smartly_netlist::SigSpec::const_u64(0b10, 2);
        let e = m.eq(&a, &k);
        m.add_output("y", &e);
        // e known true ⇒ a = 2'b10
        let (index, sub, mut assign) = setup(&m, a.bit(0), &[(e.bit(0), true)]);
        propagate(&m, &index, &sub, &mut assign);
        assert_eq!(assign.get(&index.canon(a.bit(0))), Some(&false));
        assert_eq!(assign.get(&index.canon(a.bit(1))), Some(&true));
    }

    #[test]
    fn contradiction_detected() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        m.add_output("y", &sr);
        // s=1 but s|r = 0: impossible
        let (index, sub, mut assign) = setup(&m, r.bit(0), &[(s.bit(0), true), (sr.bit(0), false)]);
        assert_eq!(
            propagate(&m, &index, &sub, &mut assign),
            InferOutcome::Contradiction
        );
    }

    #[test]
    fn logic_not_rules() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 2);
        let ln = m.logic_not(&a);
        m.add_output("y", &ln);
        // ln = 1 ⇒ all bits of a are 0
        let (index, sub, mut assign) = setup(&m, a.bit(0), &[(ln.bit(0), true)]);
        propagate(&m, &index, &sub, &mut assign);
        assert_eq!(assign.get(&index.canon(a.bit(0))), Some(&false));
        assert_eq!(assign.get(&index.canon(a.bit(1))), Some(&false));
    }

    #[test]
    fn mux_branch_propagation() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let s = m.add_input("s", 1);
        let y = m.mux(&a, &b, &s);
        m.add_output("y", &y);
        // s=1 and b=0 ⇒ y=0
        let (index, sub, mut assign) = setup(&m, y.bit(0), &[(s.bit(0), true), (b.bit(0), false)]);
        propagate(&m, &index, &sub, &mut assign);
        assert_eq!(assign.get(&index.canon(y.bit(0))), Some(&false));
    }

    #[test]
    fn chained_inference_reaches_fixpoint() {
        // (s | r) & t with s=1, t=1 ⇒ output 1 through two cells
        let mut m = Module::new("t");
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let t = m.add_input("t", 1);
        let sr = m.or(&s, &r);
        let out = m.and(&sr, &t);
        m.add_output("y", &out);
        let (index, sub, mut assign) = setup(&m, out.bit(0), &[(s.bit(0), true), (t.bit(0), true)]);
        propagate(&m, &index, &sub, &mut assign);
        assert_eq!(assign.get(&index.canon(out.bit(0))), Some(&true));
    }
}
