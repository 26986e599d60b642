//! Netlist simulation: 64-way bit-parallel and three-valued reference.
//!
//! Two engines over the same compiled program:
//!
//! * [`BitSim`] — two-valued, 64 parallel test vectors per pass (`x`
//!   collapses to 0); used for random-vector equivalence pre-filtering and
//!   for the "few unknown inputs ⇒ simulate exhaustively" half of the
//!   paper's hybrid decision procedure.
//! * [`TriSim`] — scalar three-valued simulation that defers to
//!   [`smartly_netlist::eval_cell`], the IR's reference semantics; used as
//!   the oracle in tests.
//!
//! Both are compiled once per module ([`compile`]) and reused across
//! vectors; sequential designs advance with `tick()`.
//!
//! A third, cone-scoped entry point serves the redundancy pass's query
//! engine: [`compile_cone`] turns a topologically ordered *subset* of a
//! module's cells into a [`ConeProgram`], and [`ConeSim`] replays 64
//! test vectors through it per pass — the substrate for counterexample
//! replay and random-simulation prefiltering of SAT queries.
//!
//! # Example
//!
//! ```
//! use smartly_netlist::Module;
//! use smartly_sim::{compile, BitSim};
//!
//! let mut m = Module::new("adder");
//! let a = m.add_input("a", 8);
//! let b = m.add_input("b", 8);
//! let y = m.add(&a, &b);
//! m.add_output("y", &y);
//!
//! let prog = compile(&m)?;
//! let mut sim = BitSim::new(&prog);
//! sim.set_input("a", &[1, 2, 250]);
//! sim.set_input("b", &[1, 3, 10]);
//! sim.eval_comb();
//! assert_eq!(sim.output("y"), vec![2, 5, 4]); // wraps at 8 bits
//! # Ok::<(), smartly_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smartly_netlist::{
    eval_cell, CellId, CellInputs, CellKind, Module, NetIndex, NetlistError, Port, SigBit, SigSpec,
    TriVal,
};
use std::collections::{HashMap, HashSet};

/// A value source: a constant or a storage slot.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ValueRef {
    Const(TriVal),
    Slot(u32),
}

#[derive(Clone, Debug)]
struct CellOp {
    kind: CellKind,
    a: Vec<ValueRef>,
    b: Vec<ValueRef>,
    s: Vec<ValueRef>,
    /// output slots
    y: Vec<u32>,
}

#[derive(Clone, Debug)]
struct DffOp {
    d: Vec<ValueRef>,
    q: Vec<u32>,
}

/// A module compiled for simulation: slots, topologically ordered cell
/// operations, port bindings and flip-flop latch lists.
#[derive(Clone, Debug)]
pub struct Program {
    slots: usize,
    ops: Vec<CellOp>,
    dffs: Vec<DffOp>,
    inputs: Vec<(String, Vec<u32>)>,
    outputs: Vec<(String, Vec<ValueRef>)>,
}

impl Program {
    /// Input port names and widths.
    pub fn inputs(&self) -> impl Iterator<Item = (&str, usize)> {
        self.inputs.iter().map(|(n, s)| (n.as_str(), s.len()))
    }

    /// Output port names and widths.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, usize)> {
        self.outputs.iter().map(|(n, s)| (n.as_str(), s.len()))
    }

    /// Whether the module contains flip-flops.
    pub fn is_sequential(&self) -> bool {
        !self.dffs.is_empty()
    }
}

/// Compiles `module` into a simulation [`Program`].
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic combinational
/// logic (via [`Module::topo_order_with`]).
pub fn compile(module: &Module) -> Result<Program, NetlistError> {
    let index = NetIndex::build(module);
    let order = module.topo_order_with(&index)?;

    struct SlotAlloc {
        slot_of: HashMap<SigBit, u32>,
        count: u32,
    }
    impl SlotAlloc {
        fn slot_for(&mut self, bit: SigBit) -> u32 {
            let count = &mut self.count;
            *self.slot_of.entry(bit).or_insert_with(|| {
                let s = *count;
                *count += 1;
                s
            })
        }
        fn resolve(&mut self, spec: &SigSpec, index: &NetIndex) -> Vec<ValueRef> {
            spec.iter()
                .map(|b| match index.canon(*b) {
                    SigBit::Const(v) => ValueRef::Const(v),
                    wire_bit => ValueRef::Slot(self.slot_for(wire_bit)),
                })
                .collect()
        }
    }
    let mut alloc = SlotAlloc {
        slot_of: HashMap::new(),
        count: 0,
    };

    let mut ops = Vec::new();
    let mut dffs = Vec::new();
    for id in order {
        let cell = module.cell(id).expect("topo order lists live cells");
        let get = |p: Port| cell.port(p).cloned().unwrap_or_default();
        let out_spec = cell.output().clone();
        let y: Vec<u32> = out_spec
            .iter()
            .map(|b| match index.canon(*b) {
                SigBit::Const(_) => unreachable!("outputs drive wires"),
                wire_bit => alloc.slot_for(wire_bit),
            })
            .collect();
        if cell.kind == CellKind::Dff {
            let d = alloc.resolve(&get(Port::D), &index);
            dffs.push(DffOp { d, q: y });
        } else {
            ops.push(CellOp {
                kind: cell.kind,
                a: alloc.resolve(&get(Port::A), &index),
                b: alloc.resolve(&get(Port::B), &index),
                s: alloc.resolve(&get(Port::S), &index),
                y,
            });
        }
    }

    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for p in module.ports() {
        let w = module.wire(p.wire).width;
        match p.dir {
            smartly_netlist::PortDir::Input => {
                let slots_vec: Vec<u32> = (0..w)
                    .map(|i| alloc.slot_for(SigBit::Wire(p.wire, i)))
                    .collect();
                inputs.push((p.name.clone(), slots_vec));
            }
            smartly_netlist::PortDir::Output => {
                let refs: Vec<ValueRef> = (0..w)
                    .map(|i| match index.canon(SigBit::Wire(p.wire, i)) {
                        SigBit::Const(v) => ValueRef::Const(v),
                        wire_bit => ValueRef::Slot(alloc.slot_for(wire_bit)),
                    })
                    .collect();
                outputs.push((p.name.clone(), refs));
            }
        }
    }

    Ok(Program {
        slots: alloc.count as usize,
        ops,
        dffs,
        inputs,
        outputs,
    })
}

// ===================================================================== BitSim

/// 64-way bit-parallel two-valued simulator.
///
/// Each storage slot holds a 64-bit word: lane `k` of every slot together
/// forms test vector `k`. Constants `x` evaluate as 0.
#[derive(Clone, Debug)]
pub struct BitSim<'p> {
    prog: &'p Program,
    state: Vec<u64>,
    lanes: usize,
}

impl<'p> BitSim<'p> {
    /// Creates a simulator with all slots (including flip-flop state) zero.
    pub fn new(prog: &'p Program) -> Self {
        BitSim {
            prog,
            state: vec![0; prog.slots],
            lanes: 1,
        }
    }

    /// Number of active lanes (test vectors), at most 64.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Sets the active lane count explicitly (useful with
    /// [`BitSim::set_input_plane`]).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 64.
    pub fn set_lanes(&mut self, lanes: usize) {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        self.lanes = lanes;
    }

    fn read(&self, r: ValueRef) -> u64 {
        match r {
            ValueRef::Const(TriVal::One) => u64::MAX,
            ValueRef::Const(_) => 0,
            ValueRef::Slot(s) => self.state[s as usize],
        }
    }

    /// Sets input `name` from per-lane values (`values[k]` = value of the
    /// port in lane `k`). Missing lanes default to 0; sets the active lane
    /// count to `values.len()` if larger than the current count.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or more than 64 values are given.
    pub fn set_input(&mut self, name: &str, values: &[u64]) {
        assert!(values.len() <= 64, "at most 64 lanes");
        let slots = &self
            .prog
            .inputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no input port '{name}'"))
            .1;
        for (bit, &slot) in slots.iter().enumerate() {
            let mut plane = 0u64;
            for (lane, &v) in values.iter().enumerate() {
                if (v >> bit) & 1 == 1 {
                    plane |= 1 << lane;
                }
            }
            self.state[slot as usize] = plane;
        }
        self.lanes = self.lanes.max(values.len());
    }

    /// Sets one input bit-plane directly (lane mask for a single bit).
    ///
    /// # Panics
    ///
    /// Panics on unknown port or out-of-range bit.
    pub fn set_input_plane(&mut self, name: &str, bit: usize, plane: u64) {
        let slots = &self
            .prog
            .inputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no input port '{name}'"))
            .1;
        self.state[slots[bit] as usize] = plane;
    }

    /// Evaluates all combinational logic for the current inputs and state.
    pub fn eval_comb(&mut self) {
        for i in 0..self.prog.ops.len() {
            let op = &self.prog.ops[i];
            let out = self.eval_op(op);
            let op_y: Vec<u32> = op.y.clone();
            for (slot, v) in op_y.iter().zip(out) {
                self.state[*slot as usize] = v;
            }
        }
    }

    /// Clock edge: evaluates combinational logic, then latches all
    /// flip-flops.
    pub fn tick(&mut self) {
        self.eval_comb();
        let next: Vec<(Vec<u32>, Vec<u64>)> = self
            .prog
            .dffs
            .iter()
            .map(|d| (d.q.clone(), d.d.iter().map(|&r| self.read(r)).collect()))
            .collect();
        for (q, vals) in next {
            for (slot, v) in q.iter().zip(vals) {
                self.state[*slot as usize] = v;
            }
        }
        self.eval_comb();
    }

    /// Reads output `name` as per-lane values (lane `k` = vector `k`).
    ///
    /// # Panics
    ///
    /// Panics if the port is unknown or wider than 64 bits.
    pub fn output(&self, name: &str) -> Vec<u64> {
        let refs = &self
            .prog
            .outputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no output port '{name}'"))
            .1;
        assert!(refs.len() <= 64, "output wider than 64 bits");
        let mut out = vec![0u64; self.lanes];
        for (bit, &r) in refs.iter().enumerate() {
            let plane = self.read(r);
            for (lane, slot) in out.iter_mut().enumerate() {
                if (plane >> lane) & 1 == 1 {
                    *slot |= 1 << bit;
                }
            }
        }
        out
    }

    /// Reads one output bit-plane.
    ///
    /// # Panics
    ///
    /// Panics on unknown port or out-of-range bit.
    pub fn output_plane(&self, name: &str, bit: usize) -> u64 {
        let refs = &self
            .prog
            .outputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no output port '{name}'"))
            .1;
        self.read(refs[bit])
    }

    fn eval_op(&self, op: &CellOp) -> Vec<u64> {
        eval_lanes(op, |r| self.read(r))
    }
}

/// Lane-parallel evaluation of one cell over a value source — shared by
/// [`BitSim`] (full-module state) and [`ConeSim`] (cone-scoped state).
fn eval_lanes(op: &CellOp, read: impl Fn(ValueRef) -> u64) -> Vec<u64> {
    use CellKind::*;
    let a: Vec<u64> = op.a.iter().map(|&r| read(r)).collect();
    let b: Vec<u64> = op.b.iter().map(|&r| read(r)).collect();
    let s: Vec<u64> = op.s.iter().map(|&r| read(r)).collect();
    let w = op.y.len();
    match op.kind {
        Not => a.iter().map(|&x| !x).collect(),
        And => a.iter().zip(&b).map(|(&x, &y)| x & y).collect(),
        Or => a.iter().zip(&b).map(|(&x, &y)| x | y).collect(),
        Xor => a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect(),
        Xnor => a.iter().zip(&b).map(|(&x, &y)| !(x ^ y)).collect(),
        ReduceAnd => vec![a.iter().fold(u64::MAX, |acc, &x| acc & x)],
        ReduceOr | ReduceBool => vec![a.iter().fold(0, |acc, &x| acc | x)],
        ReduceXor => vec![a.iter().fold(0, |acc, &x| acc ^ x)],
        LogicNot => vec![!a.iter().fold(0, |acc, &x| acc | x)],
        LogicAnd => {
            let ra = a.iter().fold(0, |acc, &x| acc | x);
            let rb = b.iter().fold(0, |acc, &x| acc | x);
            vec![ra & rb]
        }
        LogicOr => {
            let ra = a.iter().fold(0, |acc, &x| acc | x);
            let rb = b.iter().fold(0, |acc, &x| acc | x);
            vec![ra | rb]
        }
        Add => add_lanes(&a, &b, 0),
        Sub => {
            let nb: Vec<u64> = b.iter().map(|&x| !x).collect();
            add_lanes(&a, &nb, u64::MAX)
        }
        Mul => {
            // shift-and-add over partial products
            let mut acc = vec![0u64; w];
            for (j, &bj) in b.iter().enumerate().take(w) {
                if j >= w {
                    break;
                }
                let partial: Vec<u64> = (0..w)
                    .map(|i| if i >= j { a[i - j] & bj } else { 0 })
                    .collect();
                acc = add_lanes(&acc, &partial, 0);
            }
            acc
        }
        Shl | Shr => {
            // barrel shifter over the shift-amount bits (port B)
            let mut cur = a.clone();
            for (k, &sk) in b.iter().enumerate() {
                let amount = 1usize << k.min(31);
                let mut next = vec![0u64; w];
                for i in 0..w {
                    let shifted = if op.kind == Shl {
                        if i >= amount {
                            cur[i - amount]
                        } else {
                            0
                        }
                    } else if i + amount < w {
                        cur[i + amount]
                    } else {
                        0
                    };
                    next[i] = (sk & shifted) | (!sk & cur[i]);
                }
                cur = next;
            }
            cur
        }
        Eq | Ne => {
            let mut eq = u64::MAX;
            for (x, y) in a.iter().zip(&b) {
                eq &= !(x ^ y);
            }
            vec![if op.kind == Eq { eq } else { !eq }]
        }
        Lt | Le | Gt | Ge => {
            // LSB→MSB recurrence: lt_i = (!a&b) | ((a xnor b) & lt)
            let mut lt = 0u64;
            let mut gt = 0u64;
            for (x, y) in a.iter().zip(&b) {
                lt = (!x & y) | (!(x ^ y) & lt);
                gt = (x & !y) | (!(x ^ y) & gt);
            }
            vec![match op.kind {
                Lt => lt,
                Le => !gt,
                Gt => gt,
                Ge => !lt,
                _ => unreachable!(),
            }]
        }
        Mux => {
            let sel = s[0];
            a.iter()
                .zip(&b)
                .map(|(&x, &y)| (y & sel) | (x & !sel))
                .collect()
        }
        Pmux => {
            let mut taken = 0u64;
            let mut out = vec![0u64; w];
            for (i, &si) in s.iter().enumerate() {
                let take = si & !taken;
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot |= b[i * w + k] & take;
                }
                taken |= si;
            }
            for (k, slot) in out.iter_mut().enumerate() {
                *slot |= a[k] & !taken;
            }
            out
        }
        Dff => unreachable!("dffs are latched in tick()"),
    }
}

/// Lane-parallel ripple-carry addition.
fn add_lanes(a: &[u64], b: &[u64], carry_in: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len());
    let mut carry = carry_in;
    for (x, y) in a.iter().zip(b) {
        let sum = x ^ y ^ carry;
        carry = (x & y) | (x & carry) | (y & carry);
        out.push(sum);
    }
    out
}

// ================================================================ ConeSim

/// A *cone* — a topologically ordered subset of a module's combinational
/// cells — compiled for 64-lane two-valued replay.
///
/// Unlike [`compile`], which binds a whole module's ports, a cone program
/// exposes its cut: every canonical bit consumed by the cone but not
/// driven inside it becomes a settable *leaf* slot, and every bit the
/// cone computes can be read back by slot. The redundancy pass's query
/// engine uses this to replay cached counterexamples and random vectors
/// through decision sub-graphs without touching a solver.
#[derive(Clone, Debug)]
pub struct ConeProgram {
    ops: Vec<CellOp>,
    slots: usize,
    slot_of: HashMap<SigBit, u32>,
    leaves: Vec<(SigBit, u32)>,
    has_x: bool,
}

/// Compiles `cells` (drivers before readers, e.g. a
/// `SubGraph::cells` order) into a [`ConeProgram`].
///
/// Bits are canonicalized through `index`; constant bits fold into the
/// program, and a constant `x` anywhere in the cone sets
/// [`ConeProgram::has_x`] (two-valued replay collapses `x` to 0, so
/// callers needing exact three-valued semantics must fall back to a
/// [`TriSim`]-style evaluation).
///
/// # Panics
///
/// Panics if `cells` names a cell the module no longer holds or a
/// sequential cell (`dff`), which has no combinational replay semantics.
pub fn compile_cone(module: &Module, index: &NetIndex, cells: &[CellId]) -> ConeProgram {
    let driven: HashSet<SigBit> = cells
        .iter()
        .flat_map(|&id| {
            module
                .cell(id)
                .expect("cone lists live cells")
                .output()
                .iter()
                .map(|b| index.canon(*b))
                .collect::<Vec<_>>()
        })
        .collect();

    let mut slot_of: HashMap<SigBit, u32> = HashMap::new();
    let mut count = 0u32;
    let mut leaves: Vec<(SigBit, u32)> = Vec::new();
    let mut has_x = false;
    let mut ops = Vec::with_capacity(cells.len());

    for &id in cells {
        let cell = module.cell(id).expect("cone lists live cells");
        assert!(
            cell.kind != CellKind::Dff,
            "sequential cells cannot be replayed"
        );
        let mut resolve = |spec: Option<&SigSpec>| -> Vec<ValueRef> {
            spec.map(|s| {
                s.iter()
                    .map(|b| match index.canon(*b) {
                        SigBit::Const(v) => {
                            has_x |= v == TriVal::X;
                            ValueRef::Const(v)
                        }
                        bit => {
                            let next = count;
                            let slot = *slot_of.entry(bit).or_insert_with(|| {
                                count += 1;
                                next
                            });
                            if slot == next && !driven.contains(&bit) {
                                leaves.push((bit, slot));
                            }
                            ValueRef::Slot(slot)
                        }
                    })
                    .collect()
            })
            .unwrap_or_default()
        };
        let a = resolve(cell.port(Port::A));
        let b = resolve(cell.port(Port::B));
        let s = resolve(cell.port(Port::S));
        let y: Vec<u32> = cell
            .output()
            .iter()
            .map(|bit| match index.canon(*bit) {
                SigBit::Const(_) => unreachable!("outputs drive wires"),
                bit => {
                    let next = count;
                    *slot_of.entry(bit).or_insert_with(|| {
                        count += 1;
                        next
                    })
                }
            })
            .collect();
        ops.push(CellOp {
            kind: cell.kind,
            a,
            b,
            s,
            y,
        });
    }

    ConeProgram {
        ops,
        slots: count as usize,
        slot_of,
        leaves,
        has_x,
    }
}

impl ConeProgram {
    /// Storage slot of a canonical bit, if the cone references it.
    pub fn slot(&self, canonical_bit: SigBit) -> Option<u32> {
        self.slot_of.get(&canonical_bit).copied()
    }

    /// The cut bits: `(canonical bit, slot)` for every bit the cone
    /// consumes but does not drive, in first-reference order.
    pub fn leaves(&self) -> &[(SigBit, u32)] {
        &self.leaves
    }

    /// Whether any constant `x` feeds the cone (two-valued replay is then
    /// an under-approximation of the three-valued semantics).
    pub fn has_x(&self) -> bool {
        self.has_x
    }

    /// Number of compiled cell operations.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// 64-lane replay state for a [`ConeProgram`].
///
/// Set leaf planes with [`ConeSim::set_plane`], call [`ConeSim::eval`],
/// read any computed plane back with [`ConeSim::plane`]. Lane `k` of
/// every slot together forms test vector `k`.
#[derive(Clone, Debug)]
pub struct ConeSim<'p> {
    prog: &'p ConeProgram,
    state: Vec<u64>,
}

impl<'p> ConeSim<'p> {
    /// Creates replay state with every slot zero.
    pub fn new(prog: &'p ConeProgram) -> Self {
        ConeSim {
            prog,
            state: vec![0; prog.slots],
        }
    }

    /// Sets the 64-lane plane of one slot (normally a leaf).
    pub fn set_plane(&mut self, slot: u32, plane: u64) {
        self.state[slot as usize] = plane;
    }

    /// Reads the 64-lane plane of one slot.
    pub fn plane(&self, slot: u32) -> u64 {
        self.state[slot as usize]
    }

    /// Evaluates all cone cells in program order.
    pub fn eval(&mut self) {
        // copy the reference out so `op` borrows the 'p-lived program,
        // not `self` — the hot loop then writes state with no cloning
        let prog = self.prog;
        for op in &prog.ops {
            let out = eval_lanes(op, |r| match r {
                ValueRef::Const(TriVal::One) => u64::MAX,
                ValueRef::Const(_) => 0,
                ValueRef::Slot(s) => self.state[s as usize],
            });
            for (&slot, v) in op.y.iter().zip(out) {
                self.state[slot as usize] = v;
            }
        }
    }
}

// ===================================================================== TriSim

/// Scalar three-valued simulator deferring to [`eval_cell`].
///
/// Slow but authoritative: used as the oracle for [`BitSim`] and the AIG
/// mapper in tests.
#[derive(Clone, Debug)]
pub struct TriSim<'p> {
    prog: &'p Program,
    state: Vec<TriVal>,
}

impl<'p> TriSim<'p> {
    /// Creates a simulator with all slots `X` (flip-flop state included).
    pub fn new(prog: &'p Program) -> Self {
        TriSim {
            prog,
            state: vec![TriVal::X; prog.slots],
        }
    }

    fn read(&self, r: ValueRef) -> TriVal {
        match r {
            ValueRef::Const(v) => v,
            ValueRef::Slot(s) => self.state[s as usize],
        }
    }

    /// Sets input `name` to a constant value (low `width` bits of `value`).
    ///
    /// # Panics
    ///
    /// Panics on unknown port.
    pub fn set_input_u64(&mut self, name: &str, value: u64) {
        let slots = &self
            .prog
            .inputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no input port '{name}'"))
            .1;
        for (bit, &slot) in slots.iter().enumerate() {
            self.state[slot as usize] = TriVal::from_bool((value >> bit) & 1 == 1);
        }
    }

    /// Sets input `name` bit-by-bit.
    ///
    /// # Panics
    ///
    /// Panics on unknown port or width mismatch.
    pub fn set_input_tri(&mut self, name: &str, values: &[TriVal]) {
        let slots = &self
            .prog
            .inputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no input port '{name}'"))
            .1;
        assert_eq!(slots.len(), values.len(), "width mismatch");
        for (&slot, &v) in slots.iter().zip(values) {
            self.state[slot as usize] = v;
        }
    }

    /// Evaluates combinational logic.
    pub fn eval_comb(&mut self) {
        for op in &self.prog.ops {
            let inputs = CellInputs {
                a: op.a.iter().map(|&r| self.read(r)).collect(),
                b: op.b.iter().map(|&r| self.read(r)).collect(),
                s: op.s.iter().map(|&r| self.read(r)).collect(),
            };
            let out = eval_cell(op.kind, &inputs, op.y.len());
            for (&slot, v) in op.y.iter().zip(out) {
                self.state[slot as usize] = v;
            }
        }
    }

    /// Clock edge: evaluate, latch, re-evaluate.
    pub fn tick(&mut self) {
        self.eval_comb();
        let next: Vec<(Vec<u32>, Vec<TriVal>)> = self
            .prog
            .dffs
            .iter()
            .map(|d| (d.q.clone(), d.d.iter().map(|&r| self.read(r)).collect()))
            .collect();
        for (q, vals) in next {
            for (slot, v) in q.iter().zip(vals) {
                self.state[*slot as usize] = v;
            }
        }
        self.eval_comb();
    }

    /// Reads output `name` as trivals.
    ///
    /// # Panics
    ///
    /// Panics on unknown port.
    pub fn output_tri(&self, name: &str) -> Vec<TriVal> {
        let refs = &self
            .prog
            .outputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no output port '{name}'"))
            .1;
        refs.iter().map(|&r| self.read(r)).collect()
    }

    /// Reads output `name` as an integer if fully known.
    ///
    /// # Panics
    ///
    /// Panics on unknown port or outputs wider than 64 bits.
    pub fn output_u64(&self, name: &str) -> Option<u64> {
        let tris = self.output_tri(name);
        assert!(tris.len() <= 64);
        let mut v = 0u64;
        for (i, t) in tris.iter().enumerate() {
            match t.to_bool() {
                Some(true) => v |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::Module;

    fn two_input_module(f: impl Fn(&mut Module, &SigSpec, &SigSpec) -> SigSpec) -> Program {
        let mut m = Module::new("t");
        let a = m.add_input("a", 8);
        let b = m.add_input("b", 8);
        let y = f(&mut m, &a, &b);
        m.add_output("y", &y);
        m.validate().unwrap();
        compile(&m).unwrap()
    }

    #[test]
    fn bitsim_add_matches_integers() {
        let prog = two_input_module(|m, a, b| m.add(a, b));
        let mut sim = BitSim::new(&prog);
        let av = [0u64, 1, 2, 3, 100, 255, 254, 77];
        let bv = [0u64, 1, 5, 250, 100, 255, 1, 200];
        sim.set_input("a", &av);
        sim.set_input("b", &bv);
        sim.eval_comb();
        let y = sim.output("y");
        for k in 0..av.len() {
            assert_eq!(y[k], (av[k] + bv[k]) & 0xff, "lane {k}");
        }
    }

    #[test]
    fn bitsim_compare_ops() {
        let prog = two_input_module(|m, a, b| m.lt(a, b));
        let mut sim = BitSim::new(&prog);
        let av = [0u64, 5, 200, 255, 13];
        let bv = [1u64, 5, 100, 255, 200];
        sim.set_input("a", &av);
        sim.set_input("b", &bv);
        sim.eval_comb();
        let y = sim.output("y");
        for k in 0..av.len() {
            assert_eq!(y[k], u64::from(av[k] < bv[k]), "lane {k}");
        }
    }

    #[test]
    fn bitsim_mul_matches() {
        let prog = two_input_module(|m, a, b| m.mul(a, b));
        let mut sim = BitSim::new(&prog);
        let av = [0u64, 3, 15, 255, 16];
        let bv = [7u64, 3, 17, 255, 16];
        sim.set_input("a", &av);
        sim.set_input("b", &bv);
        sim.eval_comb();
        let y = sim.output("y");
        for k in 0..av.len() {
            assert_eq!(y[k], (av[k] * bv[k]) & 0xff, "lane {k}");
        }
    }

    #[test]
    fn bitsim_shift_matches() {
        let prog = two_input_module(|m, a, b| {
            let amt = b.slice(0, 4);
            m.shl(a, &amt)
        });
        let mut sim = BitSim::new(&prog);
        let av = [1u64, 0xff, 0x80, 3];
        let bv = [0u64, 4, 1, 9];
        sim.set_input("a", &av);
        sim.set_input("b", &bv);
        sim.eval_comb();
        let y = sim.output("y");
        for k in 0..av.len() {
            assert_eq!(y[k], (av[k] << bv[k]) & 0xff, "lane {k}");
        }
    }

    #[test]
    fn pmux_priority_in_bitsim() {
        let mut m = Module::new("t");
        let d = m.add_input("d", 4);
        let w0 = m.add_input("w0", 4);
        let w1 = m.add_input("w1", 4);
        let s = m.add_input("s", 2);
        let y = m.pmux(&d, &[w0.clone(), w1.clone()], &s);
        m.add_output("y", &y);
        let prog = compile(&m).unwrap();
        let mut sim = BitSim::new(&prog);
        sim.set_input("d", &[0xF, 0xF, 0xF, 0xF]);
        sim.set_input("w0", &[1, 1, 1, 1]);
        sim.set_input("w1", &[2, 2, 2, 2]);
        sim.set_input("s", &[0b00, 0b01, 0b10, 0b11]);
        sim.eval_comb();
        assert_eq!(sim.output("y")[..4], [0xF, 1, 2, 1]);
    }

    #[test]
    fn sequential_counter_ticks() {
        let mut m = Module::new("cnt");
        let clk = m.add_input("clk", 1);
        let w = m.add_wire("q", 4);
        let qspec = SigSpec::from_wire(w, 4);
        m.mark_output(w);
        let one = SigSpec::const_u64(1, 4);
        let next = m.add(&qspec, &one);
        let q = m.dff(&clk, &next);
        m.connect(qspec, q);
        let prog = compile(&m).unwrap();
        let mut sim = BitSim::new(&prog);
        sim.set_input("clk", &[0]);
        for expect in 1..=20u64 {
            sim.tick();
            assert_eq!(sim.output("q")[0], expect % 16);
        }
    }

    #[test]
    fn trisim_x_propagates_and_bitsim_agrees_on_known() {
        let prog = two_input_module(|m, a, b| m.xor(a, b));
        let mut tri = TriSim::new(&prog);
        tri.set_input_u64("a", 0b1010);
        tri.set_input_tri("b", &[TriVal::X; 8]);
        tri.eval_comb();
        assert_eq!(tri.output_u64("y"), None);
        tri.set_input_u64("b", 0b0110);
        tri.eval_comb();
        assert_eq!(tri.output_u64("y"), Some(0b1100));
    }

    #[test]
    fn cone_replay_matches_bitsim_on_a_subcone() {
        use smartly_netlist::NetIndex;
        // y = (a & b) | c over 1-bit inputs; replay just the two cells
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let c = m.add_input("c", 1);
        let ab = m.and(&a, &b);
        let y = m.or(&ab, &c);
        m.add_output("y", &y);
        let index = NetIndex::build(&m);
        let cells: Vec<_> = m.topo_order_with(&index).unwrap();
        let prog = compile_cone(&m, &index, &cells);
        assert!(!prog.has_x());
        assert_eq!(prog.op_count(), 2);
        assert_eq!(prog.leaves().len(), 3, "a, b, c are the cut");

        let mut sim = ConeSim::new(&prog);
        // exhaustive 8-lane truth table
        let planes = [0b10101010u64, 0b11001100, 0b11110000];
        for ((bit, slot), plane) in prog.leaves().iter().zip(planes) {
            assert!(!bit.is_const());
            sim.set_plane(*slot, plane);
        }
        sim.eval();
        let y_slot = prog.slot(index.canon(y.bit(0))).unwrap();
        let mut expect = 0u64;
        for lane in 0..8 {
            let v = |p: u64| (p >> lane) & 1 == 1;
            if (v(planes[0]) && v(planes[1])) || v(planes[2]) {
                expect |= 1 << lane;
            }
        }
        assert_eq!(sim.plane(y_slot) & 0xff, expect);
    }

    #[test]
    fn cone_detects_const_x() {
        use smartly_netlist::NetIndex;
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let x = SigSpec::from_bits(vec![SigBit::X]);
        let y = m.or(&a, &x);
        m.add_output("y", &y);
        let index = NetIndex::build(&m);
        let cells: Vec<_> = m.topo_order_with(&index).unwrap();
        let prog = compile_cone(&m, &index, &cells);
        assert!(prog.has_x());
    }

    #[test]
    fn bitsim_and_trisim_agree_on_random_logic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            // random expression DAG over two 8-bit inputs
            let mut m = Module::new("t");
            let a = m.add_input("a", 8);
            let b = m.add_input("b", 8);
            let mut pool = vec![a.clone(), b.clone()];
            for _ in 0..12 {
                let i = rng.gen_range(0..pool.len());
                let j = rng.gen_range(0..pool.len());
                let (x, y) = (pool[i].clone(), pool[j].clone());
                let z = match rng.gen_range(0..8) {
                    0 => m.and(&x, &y),
                    1 => m.or(&x, &y),
                    2 => m.xor(&x, &y),
                    3 => m.add(&x, &y),
                    4 => m.sub(&x, &y),
                    5 => m.not(&x),
                    6 => {
                        let s = m.lt(&x, &y);
                        m.mux(&x, &y, &s)
                    }
                    _ => {
                        let e = m.eq(&x, &y);
                        e.zext(8)
                    }
                };
                pool.push(z);
            }
            let last = pool.last().unwrap().clone();
            m.add_output("y", &last);
            m.validate().unwrap();
            let prog = compile(&m).unwrap();

            let av: Vec<u64> = (0..32).map(|_| rng.gen_range(0..256)).collect();
            let bv: Vec<u64> = (0..32).map(|_| rng.gen_range(0..256)).collect();
            let mut bits = BitSim::new(&prog);
            bits.set_input("a", &av);
            bits.set_input("b", &bv);
            bits.eval_comb();
            let fast = bits.output("y");

            for k in 0..32 {
                let mut tri = TriSim::new(&prog);
                tri.set_input_u64("a", av[k]);
                tri.set_input_u64("b", bv[k]);
                tri.eval_comb();
                assert_eq!(tri.output_u64("y"), Some(fast[k]), "lane {k}");
            }
        }
    }
}
