//! The mux-tree walk shared by the Yosys-style `opt_muxtree` baseline and
//! the SAT redundancy pass.
//!
//! [`walk_muxtrees`] traverses multiplexer trees from their roots, carrying
//! the path condition (the select values under which a node's output
//! reaches its root), and
//!
//! 1. pins each select bit the path condition decides, or that the
//!    caller's resolver proves constant under it (paper Fig. 1), and
//! 2. rewrites data-port bits that carry a decided signal to the decided
//!    constant (paper Fig. 2).
//!
//! A mux is the child of a data slot (a `mux` A/B port, or one `pmux`
//! word or default) when that slot is exactly its whole output and
//! nothing else reads that output ([`slot_child`]). Every other mux is a
//! root of its own: a mux read by two slots sees two path conditions, so
//! no path-specific rewrite is sound inside it.
//!
//! The visit order is a contract: roots in cell order, popped last-first,
//! a `mux`'s A child pushed before its B child and a `pmux`'s default
//! before its words, so the resolver is asked in the same order on every
//! run. The walk keeps one path condition for the whole traversal: a
//! child applies its slot's select values on the way down, and a trail
//! of the replaced values restores the parent's path when the next
//! sibling is popped. Every node sees the path a copy per child would
//! hold.
//!
//! [`opt_muxtree`] walks with a resolver that never answers, which is
//! Yosys's identical-ancestor rule. The actual collapse (select =
//! constant ⇒ pass-through) is left to [`crate::opt_const`], mirroring how
//! Yosys splits the work between `opt_muxtree` and `opt_expr`.

use smartly_netlist::{
    Cell, CellId, CellKind, Module, NetIndex, Port, ReaderCounts, SigBit, TriVal,
};
use std::collections::HashMap;

/// The select bits (canonical) fixed on the path from a tree root down to
/// a node, each with the value it takes there.
pub type PathCondition = HashMap<SigBit, bool>;

/// One port bit of a mux-tree node that is constant on the node's path.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Pin {
    /// The `mux` or `pmux` cell.
    pub cell: CellId,
    /// `S` for a select bit, `A` or `B` for a data bit.
    pub port: Port,
    /// Bit offset within the port.
    pub offset: usize,
    /// The value the bit takes.
    pub value: bool,
}

/// One baseline muxtree sweep; returns the number of rewrites applied
/// (pinned selects + data-bit substitutions).
///
/// Run [`crate::clean_pipeline`] afterwards to realize the removals, or
/// use [`crate::baseline_optimize`] which does both to a fixpoint.
pub fn opt_muxtree(module: &mut Module) -> usize {
    sweep(module, &NetIndex::build(module))
}

/// [`opt_muxtree`] over `index`, built from `module` as it is. The pins
/// leave `index` exact ([`apply_pins`]), so the caller may go on using it.
pub(crate) fn sweep(module: &mut Module, index: &NetIndex) -> usize {
    let readers = ReaderCounts::build(module, index);
    let pins = walk_muxtrees(module, index, &readers, |_, _| None);
    apply_pins(module, &pins);
    pins.len()
}

/// Walks every mux tree of `module` and returns the pins it finds.
/// `readers` must be counted over `index` ([`ReaderCounts::build`]); they
/// decide tree membership ([`slot_child`]).
///
/// A select bit the path condition does not decide is passed, with the
/// path condition, to `resolve`; a `Some` answer pins it. The walk
/// descends into the live branch of a decided `mux`, into both branches
/// of an undecided one (`x` included), and into every slot of a `pmux`.
///
/// The visit order is fixed: roots in cell order, popped last-first; a
/// `mux` pushes its A child before its B child, and a `pmux` its default
/// child, then words 0 to n−1. `resolve` is called in that order.
///
/// One [`PathCondition`] serves the whole walk. A pending child records
/// the select values its slot fixes and the trail length of its parent's
/// path; when it is popped, the walk undoes every insert above that mark
/// (the trail keeps each insert's bit and the value it replaced) and then
/// applies the child's fixes. So `resolve` sees exactly the path a copy
/// per child would hold, and no map is cloned. A mirror of the path by
/// [`NetIndex::bit_id`] answers the per-bit tests.
pub fn walk_muxtrees(
    module: &Module,
    index: &NetIndex,
    readers: &ReaderCounts,
    mut resolve: impl FnMut(SigBit, &PathCondition) -> Option<bool>,
) -> Vec<Pin> {
    let mut pins = Vec::new();
    let mut path = Path {
        map: PathCondition::new(),
        by_id: vec![None; index.bit_count()],
        trail: Vec::new(),
    };
    // the select values each pending child's slot fixes, in push order;
    // a frame's range is always on top when the frame is popped
    let mut fixes: Vec<(SigBit, bool)> = Vec::new();
    let mut stack: Vec<Frame> = muxtree_roots(module, index, readers, is_mux_like)
        .into_iter()
        .map(|cell| Frame {
            cell,
            mark: 0,
            fixes: 0..0,
        })
        .collect();
    let mut sels: Vec<(SigBit, Option<bool>)> = Vec::new();
    while let Some(frame) = stack.pop() {
        path.undo_to(frame.mark);
        for &(bit, value) in &fixes[frame.fixes.clone()] {
            path.insert(index, bit, value);
        }
        fixes.truncate(frame.fixes.start);
        let mark = path.trail.len();

        let id = frame.cell;
        let cell = module.cell(id).expect("live mux");
        let port = |p: Port| cell.port(p).expect("mux port").bits();

        // data-port bits the path decides (paper Fig. 2)
        for p in [Port::A, Port::B] {
            for (offset, bit) in port(p).iter().enumerate() {
                if let Some(value) = path.get(index, index.canon(*bit)) {
                    pins.push(Pin {
                        cell: id,
                        port: p,
                        offset,
                        value,
                    });
                }
            }
        }

        // each select bit is a constant, decided by the path, or resolved
        sels.clear();
        for (offset, bit) in port(Port::S).iter().enumerate() {
            let sel = index.canon(*bit);
            let value = match sel {
                SigBit::Const(v) => v.to_bool(),
                SigBit::Wire(..) => {
                    let value = path.get(index, sel).or_else(|| resolve(sel, &path.map));
                    if let Some(value) = value {
                        pins.push(Pin {
                            cell: id,
                            port: Port::S,
                            offset,
                            value,
                        });
                    }
                    value
                }
            };
            sels.push((sel, value));
        }

        match (cell.kind, sels.as_slice()) {
            // a decided `mux` select: only the live branch continues the path
            (CellKind::Mux, &[(_, Some(live))]) => {
                let slot = port(if live { Port::B } else { Port::A });
                if let Some(child) = slot_child(module, index, readers, slot) {
                    let at = fixes.len();
                    stack.push(Frame {
                        cell: child,
                        mark,
                        fixes: at..at,
                    });
                }
            }
            // otherwise slot 0 (A, the default) is live when every select
            // is 0, and slot j > 0 (B, or word j - 1) when select j - 1 is 1
            // and every earlier select is 0
            _ => {
                for (j, slot) in data_slots(cell).enumerate() {
                    let Some(child) = slot_child(module, index, readers, slot) else {
                        continue;
                    };
                    let fixed = if j == 0 { sels.len() } else { j };
                    let start = fixes.len();
                    for (i, &(sel, _)) in sels[..fixed].iter().enumerate() {
                        if !sel.is_const() {
                            fixes.push((sel, i + 1 == j));
                        }
                    }
                    stack.push(Frame {
                        cell: child,
                        mark,
                        fixes: start..fixes.len(),
                    });
                }
            }
        }
    }
    pins
}

/// A mux-tree node waiting to be visited.
struct Frame {
    cell: CellId,
    /// Trail length of the parent's path.
    mark: usize,
    /// This node's select fixes, as a range of the walk's fix stack.
    fixes: std::ops::Range<usize>,
}

/// The walk's one path condition, its mirror by bit id, and the trail
/// that undoes its inserts.
struct Path {
    map: PathCondition,
    by_id: Vec<Option<bool>>,
    /// Each insert's bit, its id and the value it replaced.
    trail: Vec<(SigBit, usize, Option<bool>)>,
}

impl Path {
    fn get(&self, index: &NetIndex, canonical_bit: SigBit) -> Option<bool> {
        index.bit_id(canonical_bit).and_then(|i| self.by_id[i])
    }

    fn insert(&mut self, index: &NetIndex, bit: SigBit, value: bool) {
        let id = index.bit_id(bit).expect("a select of the module");
        let old = self.map.insert(bit, value);
        self.by_id[id] = Some(value);
        self.trail.push((bit, id, old));
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (bit, id, old) = self.trail.pop().expect("above the mark");
            match old {
                Some(value) => self.map.insert(bit, value),
                None => self.map.remove(&bit),
            };
            self.by_id[id] = old;
        }
    }
}

/// Writes each pin's value into its port bit.
///
/// Only cell input bits change: no connection, cell output or wire. So a
/// [`NetIndex`] built before the pins keeps exact canonical bits and
/// drivers after them (a [`ReaderCounts`] does not: a pinned bit no
/// longer reads its wire).
pub fn apply_pins(module: &mut Module, pins: &[Pin]) {
    for pin in pins {
        if let Some(spec) = module.cell_mut(pin.cell).and_then(|c| c.port_mut(pin.port)) {
            spec.bits_mut()[pin.offset] = SigBit::Const(TriVal::from_bool(pin.value));
        }
    }
}

/// The mux-tree node that owns the data slot `slot`: the `mux` or `pmux`
/// cell whose whole output is exactly `slot`, in order, provided nothing
/// but this slot reads that output. Every mux-tree membership test in the
/// workspace goes through this one rule; `readers` must be counted over
/// `index`.
pub fn slot_child(
    module: &Module,
    index: &NetIndex,
    readers: &ReaderCounts,
    slot: &[SigBit],
) -> Option<CellId> {
    let first = index.driver(index.canon(*slot.first()?))?;
    let cell = module.cell(first.cell)?;
    if !is_mux_like(cell.kind) || cell.output().width() != slot.len() {
        return None;
    }
    for (k, bit) in slot.iter().enumerate() {
        let d = index.driver(index.canon(*bit))?;
        if d.cell != first.cell || d.offset as usize != k {
            return None;
        }
    }
    let read: usize = cell
        .output()
        .iter()
        .map(|bit| readers.get(index, index.canon(*bit)))
        .sum();
    (read == slot.len()).then_some(first.cell)
}

/// The tree roots among the cells whose kind `node` accepts, in cell
/// order: the accepted cells that no data slot of an accepted cell owns.
pub fn muxtree_roots(
    module: &Module,
    index: &NetIndex,
    readers: &ReaderCounts,
    node: impl Fn(CellKind) -> bool,
) -> Vec<CellId> {
    let nodes: Vec<(CellId, &Cell)> = module.cells().filter(|(_, c)| node(c.kind)).collect();
    // an owned child is itself a node, so the last node bounds every id
    let mut owned = vec![false; nodes.last().map_or(0, |(id, _)| id.index() + 1)];
    for slot in nodes.iter().flat_map(|(_, cell)| data_slots(cell)) {
        if let Some(child) = slot_child(module, index, readers, slot) {
            if module.cell(child).is_some_and(|c| node(c.kind)) {
                owned[child.index()] = true;
            }
        }
    }
    nodes
        .into_iter()
        .map(|(id, _)| id)
        .filter(|id| !owned[id.index()])
        .collect()
}

fn is_mux_like(kind: CellKind) -> bool {
    matches!(kind, CellKind::Mux | CellKind::Pmux)
}

/// A node's data slots in walk order: a `mux`'s A then B, a `pmux`'s
/// default then words 0 to n−1.
fn data_slots(cell: &Cell) -> impl Iterator<Item = &[SigBit]> {
    let width = cell.output().width().max(1);
    let a = cell.port(Port::A).expect("mux A").bits();
    let b = cell.port(Port::B).expect("mux B").bits();
    std::iter::once(a).chain(b.chunks(width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline_optimize, Settled};
    use smartly_netlist::{Module, SigSpec};
    use smartly_sim::{compile, BitSim};

    /// Output `y` on every assignment of the 1-bit inputs `names` (lane
    /// `k` sets input `i` to bit `i` of `k`).
    fn exhaustive(m: &Module, names: &[&str]) -> Vec<u64> {
        let prog = compile(m).expect("module compiles");
        let mut sim = BitSim::new(&prog);
        let lanes = 1u64 << names.len();
        for (i, name) in names.iter().enumerate() {
            let values: Vec<u64> = (0..lanes).map(|k| (k >> i) & 1).collect();
            sim.set_input(name, &values);
        }
        sim.eval_comb();
        sim.output("y")
    }

    /// Paper Fig. 1: Y = S ? (S ? A : B) : C collapses to Y = S ? A : C.
    #[test]
    fn fig1_same_ctrl() {
        let mut m = Module::new("fig1");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        // inner: S=1 → a (paper Y=S?A:B); our mux is Y=S?B:A
        let inner = m.mux(&b, &a, &s);
        let outer = m.mux(&c, &inner, &s);
        m.add_output("y", &outer);
        assert_eq!(m.stats().count("mux"), 2);
        let n = baseline_optimize(&mut m, &mut Settled::Unknown);
        assert!(n > 0);
        assert_eq!(m.stats().count("mux"), 1, "inner mux must collapse");
        m.validate().unwrap();
    }

    /// Paper Fig. 2: Y = S ? (A ? S : B) : C — the inner data port S is 1
    /// on that path, so it becomes a constant.
    #[test]
    fn fig2_data_port() {
        let mut m = Module::new("fig2");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let c = m.add_input("c", 1);
        let s = m.add_input("s", 1);
        // inner: A ? S : B  → mux(a=B, b=S, s=A)
        let inner = m.mux(&b, &s, &a);
        // outer: S ? inner : C
        let outer = m.mux(&c, &inner, &s);
        m.add_output("y", &outer);
        let n = opt_muxtree(&mut m);
        assert!(n >= 1, "data-port bit must be rewritten");
        // the inner mux's B port is now constant 1
        let inner_cell = m.cells().find(|(_, cell)| {
            cell.kind == CellKind::Mux
                && cell.port(Port::B).unwrap().bit(0) == SigBit::Const(TriVal::One)
        });
        assert!(inner_cell.is_some());
        m.validate().unwrap();
    }

    /// A mux shared by two parents must not be rewritten path-specifically.
    #[test]
    fn shared_subtree_is_left_alone() {
        let mut m = Module::new("shared");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        let t = m.add_input("t", 1);
        let shared = m.mux(&a, &b, &s); // fans out twice
        let y1 = m.mux(&c, &shared, &s); // path s=1 would pin shared
        let y2 = m.mux(&shared, &c, &t); // but this path says nothing
        m.add_output("y1", &y1);
        m.add_output("y2", &y2);
        let n = opt_muxtree(&mut m);
        assert_eq!(n, 0, "shared mux must not be touched");
        assert_eq!(m.stats().count("mux"), 3);
    }

    /// Deep chain of same-select muxes collapses to one.
    #[test]
    fn deep_chain_collapses() {
        let mut m = Module::new("chain");
        let s = m.add_input("s", 1);
        let xs: Vec<SigSpec> = (0..6).map(|i| m.add_input(&format!("x{i}"), 2)).collect();
        // y = s ? (s ? (s ? x0 : x1) : x2) : x3 ... nested on the s=1 side
        let mut cur = xs[0].clone();
        for x in xs.iter().skip(1) {
            cur = m.mux(x, &cur, &s);
        }
        m.add_output("y", &cur);
        assert_eq!(m.stats().count("mux"), 5);
        baseline_optimize(&mut m, &mut Settled::Unknown);
        assert_eq!(m.stats().count("mux"), 1);
        m.validate().unwrap();
    }

    /// Different control signals: the baseline must do nothing (this is
    /// exactly the paper's Fig. 3 motivation for the SAT pass).
    #[test]
    fn fig3_dependent_controls_untouched_by_baseline() {
        let mut m = Module::new("fig3");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let s = m.add_input("s", 1);
        let r = m.add_input("r", 1);
        let sr = m.or(&s, &r);
        let inner = m.mux(&b, &a, &sr); // (s|r) ? a : b
        let outer = m.mux(&c, &inner, &s); // s ? inner : c
        m.add_output("y", &outer);
        let n = opt_muxtree(&mut m);
        assert_eq!(n, 0, "baseline cannot see through the OR gate");
        assert_eq!(m.stats().count("mux"), 2);
    }

    /// Pmux: ancestor-decided select bits are pinned.
    #[test]
    fn pmux_select_pinned_by_ancestor() {
        let mut m = Module::new("pm");
        let d = m.add_input("d", 2);
        let w0 = m.add_input("w0", 2);
        let w1 = m.add_input("w1", 2);
        let s = m.add_input("s", 1);
        let t = m.add_input("t", 1);
        let sels = {
            let mut sp = s.clone();
            sp.concat(&t);
            sp
        };
        let inner = m.pmux(&d, &[w0.clone(), w1.clone()], &sels);
        // outer: s ? inner : d  — on that path s=1 ⇒ inner's word 0 wins
        let outer = m.mux(&d, &inner, &s);
        m.add_output("y", &outer);
        let n = opt_muxtree(&mut m);
        assert!(n >= 1);
        baseline_optimize(&mut m, &mut Settled::Unknown);
        // inner pmux should now be gone (its select pinned to 1 at bit 0)
        assert_eq!(m.stats().count("pmux"), 0);
        m.validate().unwrap();
    }

    /// A mux read by two `pmux` words sees two path conditions, so it is
    /// a root of its own. Pinning its select `s0` to 1 on word 0's path
    /// would break word 1, which reads it when `s0 = 0, s1 = 1`.
    #[test]
    fn mux_shared_by_two_pmux_words_is_a_root() {
        let mut m = Module::new("dup_words");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let d = m.add_input("d", 1);
        let s0 = m.add_input("s0", 1);
        let s1 = m.add_input("s1", 1);
        let t = m.mux(&b, &a, &s0); // s0 ? a : b
        let mut sels = s0.clone();
        sels.concat(&s1);
        let y = m.pmux(&d, &[t.clone(), t], &sels);
        m.add_output("y", &y);
        let inputs = ["a", "b", "d", "s0", "s1"];
        let before = exhaustive(&m, &inputs);
        assert_eq!(opt_muxtree(&mut m), 0, "the shared mux must not be pinned");
        assert_eq!(exhaustive(&m, &inputs), before);
        m.validate().unwrap();
    }

    /// The walk descends into the live branch of a constant select:
    /// `y = 1'b1 ? (s ? (s ? a : b) : c) : x` pins the inner select in one
    /// sweep.
    #[test]
    fn constant_select_descends_into_the_live_branch() {
        let mut m = Module::new("const_sel");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let c = m.add_input("c", 1);
        let x = m.add_input("x", 1);
        let s = m.add_input("s", 1);
        let inner = m.mux(&b, &a, &s); // s ? a : b
        let middle = m.mux(&c, &inner, &s); // s ? inner : c
        let y = m.mux(&x, &middle, &SigSpec::const_u64(1, 1));
        m.add_output("y", &y);
        let inputs = ["a", "b", "c", "x", "s"];
        let before = exhaustive(&m, &inputs);
        assert_eq!(opt_muxtree(&mut m), 1, "the inner select must be pinned");
        let inner_cell = m.cells().find(|(_, cell)| cell.output() == &inner);
        let (_, inner_cell) = inner_cell.expect("inner mux still present");
        assert_eq!(
            inner_cell.port(Port::S).unwrap().bit(0),
            SigBit::Const(TriVal::One)
        );
        assert_eq!(exhaustive(&m, &inputs), before);
    }
}
