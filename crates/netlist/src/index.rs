//! Net connectivity index: alias resolution, drivers and fanouts.

use crate::bits::{SigBit, TriVal};
use crate::cell::Port;
use crate::module::{CellId, Module, PortDir};

/// The driver of a wire bit: one bit of one cell's output port.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Driver {
    /// Driving cell.
    pub cell: CellId,
    /// Output port (`Y` or `Q`).
    pub port: Port,
    /// Bit offset within the output spec.
    pub offset: u32,
}

/// What consumes a bit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Consumer {
    /// A cell input port.
    Cell(CellId),
    /// A module output port, by its position in [`Module::ports`].
    Output(u32),
}

/// One use of a bit: consumer, port and offset within the port spec.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Sink {
    /// Who reads the bit.
    pub consumer: Consumer,
    /// At which port (meaningless for `Consumer::Output`).
    pub port: Port,
    /// Bit offset within that port's spec.
    pub offset: u32,
}

/// Dense ids `0..3` are the constants `0`, `1` and `x`; wire bits follow.
const CONST_BITS: [SigBit; 3] = [SigBit::ZERO, SigBit::ONE, SigBit::X];

/// Alias-resolution states of a bit id: `OPEN` has an unfollowed edge,
/// `ON_PATH` is on the chain being followed, and `DONE` points at its
/// chain's end (a bit with no edge is its own end).
const OPEN: u8 = 0;
const ON_PATH: u8 = 1;
const DONE: u8 = 2;

/// A snapshot of a module's connectivity.
///
/// Built once per pass via [`NetIndex::build`]; invalidated by any
/// structural mutation. Module-level connections are resolved transitively,
/// so [`NetIndex::canon`] maps every bit to the bit that *actually* carries
/// its value (a cell output, an input-port bit, or a constant).
///
/// # Layout
///
/// Every bit has a dense `u32` id: the three constants take ids `0..3`,
/// and bit `o` of wire `w` has id `base[w] + o`, where `base` holds the
/// prefix sums of the wire widths. Canonical bits and drivers are plain
/// per-id arrays, and fanouts are compressed rows (one `start` offset per
/// id into a single sink array), so the constants' rows are the three
/// per-constant sink lists. A build is a few linear sweeps with no
/// hashing, so its cost is linear in wire bits plus cell and port pins.
/// That keeps the design at one fresh build per pass: no index is kept
/// up to date through a pass's mutations. Bits outside the module's
/// wires (an out-of-range wire or offset) are their own canonical bit
/// and have no driver and no fanout.
///
/// # Example
///
/// ```
/// use smartly_netlist::{Module, NetIndex};
///
/// let mut m = Module::new("t");
/// let a = m.add_input("a", 1);
/// let y = m.not(&a);
/// m.add_output("y", &y);
/// let index = NetIndex::build(&m);
/// // the output port wire resolves to the not-gate's output bit
/// let out_wire = m.find_wire("y").unwrap();
/// let canon = index.canon(smartly_netlist::SigBit::Wire(out_wire, 0));
/// assert!(index.driver(canon).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct NetIndex {
    /// Id of bit 0 of each wire, plus the total id count at the end.
    base: Vec<u32>,
    canon: Vec<SigBit>,
    driver: Vec<Option<Driver>>,
    /// Sinks of id `i` are `sinks[fan_start[i]..fan_start[i + 1]]`.
    fan_start: Vec<u32>,
    sinks: Vec<Sink>,
}

impl NetIndex {
    /// Builds the index for `module`.
    ///
    /// # Panics
    ///
    /// Panics if the module's connection graph is cyclic (validated modules
    /// cannot be — a cycle requires a multiply-driven bit).
    pub fn build(module: &Module) -> Self {
        let mut base = Vec::new();
        let mut canon = CONST_BITS.to_vec();
        for (id, wire) in module.wires() {
            base.push(canon.len() as u32);
            canon.extend((0..wire.width).map(|i| SigBit::Wire(id, i)));
        }
        // the total bounds every prefix, so the casts above were exact
        base.push(u32::try_from(canon.len()).expect("a module has under 2^32 bits"));
        let mut index = NetIndex {
            base,
            canon,
            driver: Vec::new(),
            fan_start: Vec::new(),
            sinks: Vec::new(),
        };
        index.resolve_aliases(module);
        index.index_drivers(module);
        index.index_fanouts(module);
        index
    }

    /// The dense id of `bit`, or `None` for a bit outside the module.
    fn id(&self, bit: SigBit) -> Option<usize> {
        match bit {
            SigBit::Const(v) => Some(match v {
                TriVal::Zero => 0,
                TriVal::One => 1,
                TriVal::X => 2,
            }),
            SigBit::Wire(w, offset) => {
                let lo = *self.base.get(w.index())?;
                let hi = *self.base.get(w.index() + 1)?;
                (offset < hi - lo).then(|| (lo + offset) as usize)
            }
        }
    }

    /// The dense id of `bit`'s canonical bit.
    fn canon_id(&self, bit: SigBit) -> Option<usize> {
        self.id(self.canon(bit))
    }

    /// Records each connection `dst <- src` as a raw alias edge (a later
    /// connection of the same bit wins), then follows every chain to its
    /// end and points each bit on it straight at that end.
    fn resolve_aliases(&mut self, module: &Module) {
        let mut state = vec![DONE; self.canon.len()];
        for (dst, src) in module.connections() {
            for (d, s) in dst.iter().zip(src.iter()) {
                if let Some(i) = self.id(*d) {
                    self.canon[i] = *s;
                    state[i] = OPEN;
                }
            }
        }
        let mut path = Vec::new();
        for start in 0..state.len() {
            if state[start] != OPEN {
                continue;
            }
            let mut cur = start;
            let end = loop {
                match state[cur] {
                    DONE => break self.canon[cur],
                    ON_PATH => panic!("cyclic connection chain in module {}", module.name),
                    _ => {
                        state[cur] = ON_PATH;
                        path.push(cur);
                        match self.id(self.canon[cur]) {
                            Some(next) => cur = next,
                            None => break self.canon[cur],
                        }
                    }
                }
            };
            for i in path.drain(..) {
                self.canon[i] = end;
                state[i] = DONE;
            }
        }
    }

    /// Cell output bits, in cell id order (a later driver of the same bit
    /// wins).
    fn index_drivers(&mut self, module: &Module) {
        let mut driver = vec![None; self.canon.len()];
        for (id, cell) in module.cells() {
            let port = cell.kind.output_port();
            for (i, bit) in cell.output().iter().enumerate() {
                if let Some(c) = self.canon_id(*bit) {
                    driver[c] = Some(Driver {
                        cell: id,
                        port,
                        offset: i as u32,
                    });
                }
            }
        }
        self.driver = driver;
    }

    /// Counts each canonical bit's sinks, then fills the rows in one more
    /// walk, so every row lists its sinks in walk order.
    fn index_fanouts(&mut self, module: &Module) {
        let n = self.canon.len();
        let mut fan_start = vec![0u32; n + 1];
        for_each_sink(module, |bit, _| {
            if let Some(c) = self.canon_id(bit) {
                fan_start[c + 1] += 1;
            }
        });
        for i in 0..n {
            fan_start[i + 1] = fan_start[i + 1]
                .checked_add(fan_start[i])
                .expect("under 2^32 pins");
        }
        let mut next = fan_start.clone();
        let filler = Sink {
            consumer: Consumer::Output(0),
            port: Port::Y,
            offset: 0,
        };
        let mut sinks = vec![filler; fan_start[n] as usize];
        for_each_sink(module, |bit, sink| {
            if let Some(c) = self.canon_id(bit) {
                sinks[next[c] as usize] = sink;
                next[c] += 1;
            }
        });
        self.fan_start = fan_start;
        self.sinks = sinks;
    }

    /// Resolves a bit through module connections to its canonical source.
    pub fn canon(&self, bit: SigBit) -> SigBit {
        self.id(bit).map_or(bit, |i| self.canon[i])
    }

    /// The cell driving a canonical bit, if any.
    ///
    /// Pass the result of [`NetIndex::canon`]; a non-canonical bit has no
    /// driver entry.
    pub fn driver(&self, canonical_bit: SigBit) -> Option<Driver> {
        self.id(canonical_bit).and_then(|i| self.driver[i])
    }

    /// All sinks reading a canonical bit: cell input pins in cell id order
    /// (each cell's ports in [`crate::CellKind::input_ports`] order), then
    /// module output port bits in port order.
    pub fn fanout(&self, canonical_bit: SigBit) -> &[Sink] {
        match self.id(canonical_bit) {
            Some(i) => &self.sinks[self.fan_start[i] as usize..self.fan_start[i + 1] as usize],
            None => &[],
        }
    }

    /// Number of sinks reading a canonical bit.
    pub fn fanout_count(&self, canonical_bit: SigBit) -> usize {
        self.fanout(canonical_bit).len()
    }

    /// Whether any sink of the bit is a module output port.
    pub fn feeds_output(&self, canonical_bit: SigBit) -> bool {
        self.fanout(canonical_bit)
            .iter()
            .any(|s| matches!(s.consumer, Consumer::Output(_)))
    }

    /// Sinks of a bit that are cells *other than* `exclude`.
    pub fn external_cell_fanout(&self, canonical_bit: SigBit, exclude: &[CellId]) -> usize {
        self.fanout(canonical_bit)
            .iter()
            .filter(|s| match &s.consumer {
                Consumer::Cell(c) => !exclude.contains(c),
                Consumer::Output(_) => true,
            })
            .count()
    }
}

/// Calls `f(bit, sink)` for every read of a bit: cell input pins by cell
/// id, each cell's ports in kind order, then each output port's bits.
fn for_each_sink(module: &Module, mut f: impl FnMut(SigBit, Sink)) {
    for (id, cell) in module.cells() {
        for (port, spec) in cell.inputs() {
            for (i, bit) in spec.iter().enumerate() {
                let consumer = Consumer::Cell(id);
                f(
                    *bit,
                    Sink {
                        consumer,
                        port,
                        offset: i as u32,
                    },
                );
            }
        }
    }
    for (k, p) in module.ports().iter().enumerate() {
        if p.dir == PortDir::Output {
            let consumer = Consumer::Output(k as u32);
            for i in 0..module.wire(p.wire).width {
                f(
                    SigBit::Wire(p.wire, i),
                    Sink {
                        consumer,
                        port: Port::Y,
                        offset: i,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::SigSpec;

    #[test]
    fn alias_chain_resolves() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let w1 = m.auto_wire(1);
        let w2 = m.auto_wire(1);
        let s1 = SigSpec::from_wire(w1, 1);
        let s2 = SigSpec::from_wire(w2, 1);
        m.connect(s1.clone(), a.clone());
        m.connect(s2.clone(), s1);
        let idx = NetIndex::build(&m);
        assert_eq!(idx.canon(SigBit::Wire(w2, 0)), a.bit(0));
        assert_eq!(idx.canon(SigBit::Wire(w1, 0)), a.bit(0));
    }

    #[test]
    fn fanout_counts_cells_and_outputs() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let y1 = m.not(&a);
        let _y2 = m.not(&a);
        m.add_output("o", &a);
        let idx = NetIndex::build(&m);
        assert_eq!(idx.fanout_count(a.bit(0)), 3);
        assert!(idx.feeds_output(a.bit(0)));
        assert_eq!(idx.fanout_count(idx.canon(y1.bit(0))), 0);
    }

    #[test]
    fn driver_is_cell_output() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 2);
        let y = m.not(&a);
        let idx = NetIndex::build(&m);
        let d = idx.driver(idx.canon(y.bit(1))).unwrap();
        assert_eq!(d.offset, 1);
        assert_eq!(d.port, Port::Y);
        assert!(idx.driver(a.bit(0)).is_none());
    }
}
