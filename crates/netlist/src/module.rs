//! Modules: wires, cells, ports, connections and builders.

use crate::bits::{SigBit, SigSpec};
use crate::cell::{Cell, CellKind, Port};
use crate::error::NetlistError;
use crate::index::NetIndex;
use std::collections::HashSet;
use std::fmt;

/// Identifies a [`Wire`] within its [`Module`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(u32);

impl WireId {
    /// The raw index of the wire in its module.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a [`Cell`] within its [`Module`].
///
/// Cell ids are stable across removals (removal leaves a tombstone), so
/// passes can hold ids while rewriting.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u32);

impl CellId {
    /// The raw index of the cell in its module.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A named multi-bit net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wire {
    /// Human-readable name (unique per module for named wires).
    pub name: String,
    /// Bit width (≥ 1).
    pub width: u32,
}

/// Port direction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven by the module.
    Output,
}

/// A module-level port: a direction attached to a wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModulePort {
    /// Port name (matches the wire name).
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// The backing wire.
    pub wire: WireId,
}

/// A hardware module: the unit every pass operates on.
///
/// See the [crate-level documentation](crate) for an overview and an
/// example. Builder methods (e.g. [`Module::mux`], [`Module::eq`]) append a
/// cell, allocate an output wire of the correct width, and return the
/// output as a [`SigSpec`].
#[derive(Clone, Debug)]
pub struct Module {
    /// Module name.
    pub name: String,
    wires: Vec<Wire>,
    cells: Vec<Option<Cell>>,
    ports: Vec<ModulePort>,
    connections: Vec<(SigSpec, SigSpec)>,
    auto_counter: u32,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            wires: Vec::new(),
            cells: Vec::new(),
            ports: Vec::new(),
            connections: Vec::new(),
            auto_counter: 0,
        }
    }

    // ---------------------------------------------------------------- wires

    /// Adds a named wire of `width` bits.
    pub fn add_wire(&mut self, name: impl Into<String>, width: u32) -> WireId {
        let id = WireId(self.wires.len() as u32);
        self.wires.push(Wire {
            name: name.into(),
            width,
        });
        id
    }

    /// Adds an internal wire with a generated (`$auto$N`) name.
    pub fn auto_wire(&mut self, width: u32) -> WireId {
        let n = self.auto_counter;
        self.auto_counter += 1;
        self.add_wire(format!("$auto${n}"), width)
    }

    /// The wire behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this module.
    pub fn wire(&self, id: WireId) -> &Wire {
        &self.wires[id.index()]
    }

    /// Iterates over all wires.
    pub fn wires(&self) -> impl Iterator<Item = (WireId, &Wire)> {
        self.wires
            .iter()
            .enumerate()
            .map(|(i, w)| (WireId(i as u32), w))
    }

    /// Looks up a wire by name.
    pub fn find_wire(&self, name: &str) -> Option<WireId> {
        self.wires
            .iter()
            .position(|w| w.name == name)
            .map(|i| WireId(i as u32))
    }

    /// A spec covering all bits of `wire`.
    pub fn wire_spec(&self, wire: WireId) -> SigSpec {
        SigSpec::from_wire(wire, self.wire(wire).width)
    }

    // ---------------------------------------------------------------- ports

    /// Adds an input port and returns its full spec.
    pub fn add_input(&mut self, name: &str, width: u32) -> SigSpec {
        let wire = self.add_wire(name, width);
        self.ports.push(ModulePort {
            name: name.to_string(),
            dir: PortDir::Input,
            wire,
        });
        SigSpec::from_wire(wire, width)
    }

    /// Adds an output port driven by `src` and returns the port's wire.
    ///
    /// Internally records a connection `port_wire <- src`.
    pub fn add_output(&mut self, name: &str, src: &SigSpec) -> WireId {
        let wire = self.add_wire(name, src.width() as u32);
        self.ports.push(ModulePort {
            name: name.to_string(),
            dir: PortDir::Output,
            wire,
        });
        let dst = SigSpec::from_wire(wire, src.width() as u32);
        self.connect(dst, src.clone());
        wire
    }

    /// Declares an existing wire as an output port (no new wire, no alias).
    pub fn mark_output(&mut self, wire: WireId) {
        let name = self.wire(wire).name.clone();
        self.ports.push(ModulePort {
            name,
            dir: PortDir::Output,
            wire,
        });
    }

    /// All ports in declaration order.
    pub fn ports(&self) -> &[ModulePort] {
        &self.ports
    }

    /// Input ports only.
    pub fn input_ports(&self) -> impl Iterator<Item = &ModulePort> {
        self.ports.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// Output ports only.
    pub fn output_ports(&self) -> impl Iterator<Item = &ModulePort> {
        self.ports.iter().filter(|p| p.dir == PortDir::Output)
    }

    // ---------------------------------------------------------- connections

    /// Records that `dst` is an alias for (is driven by) `src`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or `dst` contains constant bits.
    pub fn connect(&mut self, dst: SigSpec, src: SigSpec) {
        assert_eq!(
            dst.width(),
            src.width(),
            "connection width mismatch in module {}",
            self.name
        );
        assert!(
            dst.iter().all(|b| !b.is_const()),
            "connection destination must be wire bits"
        );
        self.connections.push((dst, src));
    }

    /// All module-level connections.
    pub fn connections(&self) -> &[(SigSpec, SigSpec)] {
        &self.connections
    }

    /// Mutable access to the connections (used by cleanup passes).
    pub fn connections_mut(&mut self) -> &mut Vec<(SigSpec, SigSpec)> {
        &mut self.connections
    }

    // ---------------------------------------------------------------- cells

    /// Appends `cell` and returns its id.
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Some(cell));
        id
    }

    /// The live cell behind `id`, if it has not been removed.
    pub fn cell(&self, id: CellId) -> Option<&Cell> {
        self.cells.get(id.index()).and_then(|c| c.as_ref())
    }

    /// Mutable access to a live cell.
    pub fn cell_mut(&mut self, id: CellId) -> Option<&mut Cell> {
        self.cells.get_mut(id.index()).and_then(|c| c.as_mut())
    }

    /// Removes a cell, leaving a tombstone so other ids stay valid.
    ///
    /// Returns the removed cell, or `None` if it was already gone.
    pub fn remove_cell(&mut self, id: CellId) -> Option<Cell> {
        self.cells.get_mut(id.index()).and_then(|c| c.take())
    }

    /// Iterates over live cells.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (CellId(i as u32), c)))
    }

    /// Ids of all live cells (snapshot, safe to iterate while mutating).
    pub fn cell_ids(&self) -> Vec<CellId> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| CellId(i as u32)))
            .collect()
    }

    /// Number of live cells.
    pub fn live_cell_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    // ------------------------------------------------------------- builders

    fn build_cell(&mut self, kind: CellKind, conns: Vec<(Port, SigSpec)>, y_width: u32) -> SigSpec {
        let y = self.auto_wire(y_width);
        let y_spec = SigSpec::from_wire(y, y_width);
        let mut cell = Cell::new(kind, format!("${}${}", kind.name(), y.index()));
        for (p, s) in conns {
            cell.set_port(p, s);
        }
        cell.set_port(kind.output_port(), y_spec.clone());
        self.add_cell(cell);
        y_spec
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: &SigSpec) -> SigSpec {
        let w = a.width() as u32;
        self.build_cell(CellKind::Not, vec![(Port::A, a.clone())], w)
    }

    fn binary_same_width(&mut self, kind: CellKind, a: &SigSpec, b: &SigSpec) -> SigSpec {
        let w = a.width().max(b.width()) as u32;
        let a = a.zext(w);
        let b = b.zext(w);
        self.build_cell(kind, vec![(Port::A, a), (Port::B, b)], w)
    }

    /// Bitwise AND (operands zero-extended to the wider width).
    pub fn and(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.binary_same_width(CellKind::And, a, b)
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.binary_same_width(CellKind::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.binary_same_width(CellKind::Xor, a, b)
    }

    /// Bitwise XNOR.
    pub fn xnor(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.binary_same_width(CellKind::Xnor, a, b)
    }

    /// AND-reduction to one bit.
    pub fn reduce_and(&mut self, a: &SigSpec) -> SigSpec {
        self.build_cell(CellKind::ReduceAnd, vec![(Port::A, a.clone())], 1)
    }

    /// OR-reduction to one bit.
    pub fn reduce_or(&mut self, a: &SigSpec) -> SigSpec {
        self.build_cell(CellKind::ReduceOr, vec![(Port::A, a.clone())], 1)
    }

    /// XOR-reduction (parity) to one bit.
    pub fn reduce_xor(&mut self, a: &SigSpec) -> SigSpec {
        self.build_cell(CellKind::ReduceXor, vec![(Port::A, a.clone())], 1)
    }

    /// Boolean coercion `(A != 0)`.
    pub fn reduce_bool(&mut self, a: &SigSpec) -> SigSpec {
        if a.width() == 1 {
            return a.clone();
        }
        self.build_cell(CellKind::ReduceBool, vec![(Port::A, a.clone())], 1)
    }

    /// Logical NOT `(A == 0)`.
    pub fn logic_not(&mut self, a: &SigSpec) -> SigSpec {
        self.build_cell(CellKind::LogicNot, vec![(Port::A, a.clone())], 1)
    }

    /// Logical AND.
    pub fn logic_and(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.build_cell(
            CellKind::LogicAnd,
            vec![(Port::A, a.clone()), (Port::B, b.clone())],
            1,
        )
    }

    /// Logical OR.
    pub fn logic_or(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.build_cell(
            CellKind::LogicOr,
            vec![(Port::A, a.clone()), (Port::B, b.clone())],
            1,
        )
    }

    /// Unsigned addition (width = max operand width).
    pub fn add(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.binary_same_width(CellKind::Add, a, b)
    }

    /// Unsigned wrapping subtraction.
    pub fn sub(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.binary_same_width(CellKind::Sub, a, b)
    }

    /// Unsigned truncating multiplication.
    pub fn mul(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.binary_same_width(CellKind::Mul, a, b)
    }

    /// Logical shift left.
    pub fn shl(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        let w = a.width() as u32;
        self.build_cell(
            CellKind::Shl,
            vec![(Port::A, a.clone()), (Port::B, b.clone())],
            w,
        )
    }

    /// Logical shift right.
    pub fn shr(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        let w = a.width() as u32;
        self.build_cell(
            CellKind::Shr,
            vec![(Port::A, a.clone()), (Port::B, b.clone())],
            w,
        )
    }

    fn compare(&mut self, kind: CellKind, a: &SigSpec, b: &SigSpec) -> SigSpec {
        let w = a.width().max(b.width()) as u32;
        let a = a.zext(w);
        let b = b.zext(w);
        self.build_cell(kind, vec![(Port::A, a), (Port::B, b)], 1)
    }

    /// Equality compare (1-bit result).
    pub fn eq(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.compare(CellKind::Eq, a, b)
    }

    /// Inequality compare.
    pub fn ne(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.compare(CellKind::Ne, a, b)
    }

    /// Unsigned less-than.
    pub fn lt(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.compare(CellKind::Lt, a, b)
    }

    /// Unsigned less-or-equal.
    pub fn le(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.compare(CellKind::Le, a, b)
    }

    /// Unsigned greater-than.
    pub fn gt(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.compare(CellKind::Gt, a, b)
    }

    /// Unsigned greater-or-equal.
    pub fn ge(&mut self, a: &SigSpec, b: &SigSpec) -> SigSpec {
        self.compare(CellKind::Ge, a, b)
    }

    /// 2-to-1 multiplexer: `Y = S ? B : A`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` widths differ or `s` is not 1 bit.
    pub fn mux(&mut self, a: &SigSpec, b: &SigSpec, s: &SigSpec) -> SigSpec {
        assert_eq!(a.width(), b.width(), "mux data width mismatch");
        assert_eq!(s.width(), 1, "mux select must be 1 bit");
        let w = a.width() as u32;
        self.build_cell(
            CellKind::Mux,
            vec![
                (Port::A, a.clone()),
                (Port::B, b.clone()),
                (Port::S, s.clone()),
            ],
            w,
        )
    }

    /// Parallel (priority) multiplexer: `words[i]` wins for the lowest set
    /// select bit `i`; `default` when all selects are 0.
    ///
    /// # Panics
    ///
    /// Panics if word widths differ or the select count does not match.
    pub fn pmux(&mut self, default: &SigSpec, words: &[SigSpec], sels: &SigSpec) -> SigSpec {
        assert_eq!(words.len(), sels.width(), "pmux select/word count mismatch");
        let w = default.width() as u32;
        let mut b = SigSpec::new();
        for word in words {
            assert_eq!(word.width() as u32, w, "pmux word width mismatch");
            b.concat(word);
        }
        self.build_cell(
            CellKind::Pmux,
            vec![
                (Port::A, default.clone()),
                (Port::B, b),
                (Port::S, sels.clone()),
            ],
            w,
        )
    }

    /// Positive-edge D flip-flop; returns `Q`.
    pub fn dff(&mut self, clk: &SigSpec, d: &SigSpec) -> SigSpec {
        assert_eq!(clk.width(), 1, "dff clock must be 1 bit");
        let w = d.width() as u32;
        self.build_cell(
            CellKind::Dff,
            vec![(Port::Clk, clk.clone()), (Port::D, d.clone())],
            w,
        )
    }

    // ----------------------------------------------------------- validation

    /// Checks width discipline and single-driver discipline.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] when a cell violates the
    /// width table documented on [`CellKind`], and
    /// [`NetlistError::MultipleDrivers`] when a wire bit is driven by more
    /// than one of {cell output, input port, connection destination}.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, cell) in self.cells() {
            self.validate_cell(id, cell)?;
        }
        // single-driver check
        let mut driven: HashSet<SigBit> = HashSet::new();
        let mut claim = |bit: SigBit, what: &str, name: &str| -> Result<(), NetlistError> {
            if bit.is_const() {
                return Err(NetlistError::ConstDriven {
                    module: self.name.clone(),
                    context: format!("{what} {name}"),
                });
            }
            if !driven.insert(bit) {
                return Err(NetlistError::MultipleDrivers {
                    module: self.name.clone(),
                    bit: format!("{bit:?}"),
                    context: format!("{what} {name}"),
                });
            }
            Ok(())
        };
        for p in self.input_ports() {
            for i in 0..self.wire(p.wire).width {
                claim(SigBit::Wire(p.wire, i), "input port", &p.name)?;
            }
        }
        for (_, cell) in self.cells() {
            let out = cell.output();
            for b in out.iter() {
                claim(*b, "cell output", &cell.name)?;
            }
        }
        for (dst, _) in &self.connections {
            for b in dst.iter() {
                claim(*b, "connection", "dst")?;
            }
        }
        Ok(())
    }

    fn validate_cell(&self, _id: CellId, cell: &Cell) -> Result<(), NetlistError> {
        use CellKind::*;
        let err = |msg: String| {
            Err(NetlistError::WidthMismatch {
                module: self.name.clone(),
                cell: cell.name.clone(),
                detail: msg,
            })
        };
        let w = |p: Port| -> usize { cell.port(p).map(|s| s.width()).unwrap_or(usize::MAX) };
        for p in cell.kind.ports() {
            if cell.port(*p).is_none() {
                return err(format!("port {p} unbound"));
            }
        }
        match cell.kind {
            Not => {
                if w(Port::A) != w(Port::Y) {
                    return err("not: w(A) != w(Y)".into());
                }
            }
            And | Or | Xor | Xnor => {
                if w(Port::A) != w(Port::B) || w(Port::A) != w(Port::Y) {
                    return err(format!("{}: operand widths differ", cell.kind));
                }
            }
            ReduceAnd | ReduceOr | ReduceXor | ReduceBool | LogicNot => {
                if w(Port::Y) != 1 {
                    return err(format!("{}: w(Y) != 1", cell.kind));
                }
            }
            LogicAnd | LogicOr => {
                if w(Port::Y) != 1 {
                    return err(format!("{}: w(Y) != 1", cell.kind));
                }
            }
            Add | Sub | Mul => {
                if w(Port::A) != w(Port::B) || w(Port::A) != w(Port::Y) {
                    return err(format!("{}: operand widths differ", cell.kind));
                }
            }
            Shl | Shr => {
                if w(Port::A) != w(Port::Y) {
                    return err(format!("{}: w(A) != w(Y)", cell.kind));
                }
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                if w(Port::A) != w(Port::B) {
                    return err(format!("{}: w(A) != w(B)", cell.kind));
                }
                if w(Port::Y) != 1 {
                    return err(format!("{}: w(Y) != 1", cell.kind));
                }
            }
            Mux => {
                if w(Port::A) != w(Port::B) || w(Port::A) != w(Port::Y) {
                    return err("mux: data widths differ".into());
                }
                if w(Port::S) != 1 {
                    return err("mux: w(S) != 1".into());
                }
            }
            Pmux => {
                let n = w(Port::S);
                if n == 0 {
                    return err("pmux: empty select".into());
                }
                if w(Port::B) != w(Port::A) * n {
                    return err("pmux: w(B) != w(A) * w(S)".into());
                }
                if w(Port::A) != w(Port::Y) {
                    return err("pmux: w(A) != w(Y)".into());
                }
            }
            Dff => {
                if w(Port::Clk) != 1 {
                    return err("dff: w(CLK) != 1".into());
                }
                if w(Port::D) != w(Port::Q) {
                    return err("dff: w(D) != w(Q)".into());
                }
            }
        }
        Ok(())
    }

    /// Topologically orders live cells over combinational edges.
    ///
    /// `dff` cells are sources (their `Q` does not depend on `D` within a
    /// cycle). This builds a fresh [`NetIndex`]; a pass that already holds
    /// one calls [`Module::topo_order_with`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part of the module is cyclic.
    pub fn topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        self.topo_order_with(&NetIndex::build(self))
    }

    /// [`Module::topo_order`] over `index`, which must still be valid for
    /// this module (see [`NetIndex`]). An index built before cell input
    /// bits were pinned to constants still is: the walk reads pins from
    /// the module and only canonical bits and drivers from the index, so
    /// it gives the order a fresh build would.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part of the module is cyclic.
    pub fn topo_order_with(&self, index: &NetIndex) -> Result<Vec<CellId>, NetlistError> {
        const VISITING: u8 = 1;
        const DONE: u8 = 2;
        let cycle = || NetlistError::CombinationalCycle {
            module: self.name.clone(),
        };
        let mut order = Vec::new();
        let mut state = vec![0u8; self.cells.len()];

        // iterative DFS to avoid stack overflow on deep chains; each
        // root's walk empties the stack, so one serves every root
        let mut stack: Vec<(CellId, usize)> = Vec::new();
        for (root, _) in self.cells() {
            if state[root.index()] == DONE {
                continue;
            }
            stack.push((root, 0));
            while let Some((id, phase)) = stack.pop() {
                match state[id.index()] {
                    DONE => continue,
                    VISITING if phase == 0 => return Err(cycle()),
                    _ => {}
                }
                if phase == 1 {
                    state[id.index()] = DONE;
                    order.push(id);
                    continue;
                }
                state[id.index()] = VISITING;
                stack.push((id, 1));
                let cell = self.cell(id).expect("live cell");
                if cell.kind.is_sequential() {
                    continue; // dff: no combinational input deps
                }
                for (_, spec) in cell.inputs() {
                    for bit in spec.iter() {
                        let canon = index.canon(*bit);
                        if let Some(drv) = index.driver(canon) {
                            let dc = self.cell(drv.cell).expect("live driver");
                            if !dc.kind.is_sequential() {
                                match state[drv.cell.index()] {
                                    VISITING => return Err(cycle()),
                                    DONE => {}
                                    _ => stack.push((drv.cell, 0)),
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(order)
    }

    /// Per-kind live cell counts.
    pub fn stats(&self) -> crate::stats::CellStats {
        crate::stats::CellStats::of(self)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "module {} ({} wires, {} cells)",
            self.name,
            self.wires.len(),
            self.live_cell_count()
        )?;
        for (_, cell) in self.cells() {
            write!(f, "  {} {}(", cell.kind, cell.name)?;
            for (i, (p, s)) in cell.connections().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, ".{p}({s})")?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::TriVal;
    use std::collections::HashMap;

    #[test]
    fn builder_widths() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let s = m.add_input("s", 1);
        let y = m.mux(&a, &b, &s);
        assert_eq!(y.width(), 4);
        let e = m.eq(&a, &SigSpec::const_u64(3, 4));
        assert_eq!(e.width(), 1);
        m.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_mux() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let y = m.auto_wire(4);
        let mut c = Cell::new(CellKind::Mux, "bad");
        c.set_port(Port::A, a.clone());
        c.set_port(Port::B, a.slice(0, 2).zext(4));
        c.set_port(Port::S, a.slice(0, 2)); // 2-bit select: invalid
        c.set_port(Port::Y, SigSpec::from_wire(y, 4));
        m.add_cell(c);
        assert!(matches!(
            m.validate(),
            Err(NetlistError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_double_driver() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let w = m.auto_wire(1);
        let spec = SigSpec::from_wire(w, 1);
        m.connect(spec.clone(), a.clone());
        m.connect(spec, SigSpec::from_bit(SigBit::Const(TriVal::One)));
        assert!(matches!(
            m.validate(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn topo_orders_chain() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let n1 = m.not(&a);
        let n2 = m.not(&n1);
        let n3 = m.not(&n2);
        m.add_output("y", &n3);
        let order = m.topo_order().unwrap();
        assert_eq!(order.len(), 3);
        // drivers must come before users
        let pos: HashMap<CellId, usize> = order.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        let ids = m.cell_ids();
        assert!(pos[&ids[0]] < pos[&ids[1]]);
        assert!(pos[&ids[1]] < pos[&ids[2]]);
    }

    #[test]
    fn topo_detects_cycle() {
        let mut m = Module::new("t");
        let w1 = m.auto_wire(1);
        let w2 = m.auto_wire(1);
        let s1 = SigSpec::from_wire(w1, 1);
        let s2 = SigSpec::from_wire(w2, 1);
        let mut c1 = Cell::new(CellKind::Not, "n1");
        c1.set_port(Port::A, s2.clone());
        c1.set_port(Port::Y, s1.clone());
        m.add_cell(c1);
        let mut c2 = Cell::new(CellKind::Not, "n2");
        c2.set_port(Port::A, s1);
        c2.set_port(Port::Y, s2);
        m.add_cell(c2);
        assert!(matches!(
            m.topo_order(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycle() {
        let mut m = Module::new("t");
        let clk = m.add_input("clk", 1);
        // q = dff(not(q)) : a toggle; sequential loop is fine
        let w = m.auto_wire(1);
        let q = SigSpec::from_wire(w, 1);
        let nq = m.not(&q);
        let q2 = m.dff(&clk, &nq);
        m.connect(q, q2);
        assert!(m.topo_order().is_ok());
    }

    #[test]
    fn remove_leaves_tombstone() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let y1 = m.not(&a);
        let _y2 = m.not(&y1);
        let ids = m.cell_ids();
        assert_eq!(m.live_cell_count(), 2);
        m.remove_cell(ids[0]);
        assert_eq!(m.live_cell_count(), 1);
        assert!(m.cell(ids[0]).is_none());
        assert!(m.cell(ids[1]).is_some());
    }
}
