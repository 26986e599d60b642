//! Net connectivity index: alias resolution and drivers, plus the
//! opt-in reader counts of the mux-tree walks.

use crate::bits::{SigBit, TriVal};
use crate::cell::Port;
use crate::module::{CellId, Module};

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

/// Dense ids `0..3` are the constants `0`, `1` and `x`; wire bits follow.
const CONST_BITS: [SigBit; 3] = [SigBit::ZERO, SigBit::ONE, SigBit::X];

/// Alias-resolution states of a bit id: `OPEN` has an unfollowed edge,
/// `ON_PATH` is on the chain being followed, and `DONE` points at its
/// chain's end (a bit with no edge is its own end).
const OPEN: u8 = 0;
const ON_PATH: u8 = 1;
const DONE: u8 = 2;

/// A snapshot of a module's connectivity: canonical bits and drivers.
///
/// Module-level connections are resolved transitively, so
/// [`NetIndex::canon`] maps every bit to the bit that *actually* carries
/// its value (a cell output, an input-port bit, or a constant), and
/// [`NetIndex::driver`] gives the cell output behind a canonical bit.
/// That is all a build makes: fanout is not indexed. The mux-tree walks,
/// the only passes that ask how many sinks read a bit, count them in a
/// [`ReaderCounts`] of their own.
///
/// # Validity
///
/// The tables describe the module's connections and cell outputs. They
/// stay exact when a pass only rewrites cell *input* bits, as
/// `apply_pins` does when it pins bits to constants, so a pass may keep
/// using its index after such a rewrite. [`Module::connect`],
/// [`Module::remove_cell`] and [`Module::add_cell`] invalidate them: a
/// pass that makes those edits either builds a fresh index afterwards
/// or accounts for them itself, as the cleanup fixpoint's forwarding of
/// folded cells does. No index is kept up to date through a pass's
/// mutations.
///
/// # Layout
///
/// Every bit has a dense `u32` id: the three constants take ids `0..3`,
/// and bit `o` of wire `w` has id `base[w] + o`, where `base` holds the
/// prefix sums of the wire widths. Canonical bits and drivers are plain
/// per-id arrays, so a build is two linear sweeps with no hashing: one
/// over the connections and one over the cell outputs. Bits outside the
/// module's wires (an out-of-range wire or offset) are their own
/// canonical bit and have no driver and no id.
///
/// [`NetIndex::bit_id`] exposes the ids and [`NetIndex::bit_count`]
/// their number, so a pass keeps per-bit state (constants, AIG literals,
/// merge keys) in a vector indexed by the id of a canonical bit instead
/// of a hash map keyed by the bit.
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
        };
        index.resolve_aliases(module);
        index.index_drivers(module);
        index
    }

    /// The dense id of `bit`, in `0..bit_count()`, or `None` for a bit
    /// outside the module. Index per-bit state by the id of a bit's
    /// [`NetIndex::canon`] result, so that aliases share one entry.
    pub fn bit_id(&self, bit: SigBit) -> Option<usize> {
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

    /// The number of dense bit ids: the three constants plus every wire
    /// bit of the module.
    pub fn bit_count(&self) -> usize {
        self.canon.len()
    }

    /// The dense id of `bit`'s canonical bit.
    fn canon_id(&self, bit: SigBit) -> Option<usize> {
        self.bit_id(self.canon(bit))
    }

    /// Records each connection `dst <- src` as a raw alias edge (a later
    /// connection of the same bit wins), then follows every chain to its
    /// end and points each bit on it straight at that end.
    fn resolve_aliases(&mut self, module: &Module) {
        let mut state = vec![DONE; self.canon.len()];
        for (dst, src) in module.connections() {
            for (d, s) in dst.iter().zip(src.iter()) {
                if let Some(i) = self.bit_id(*d) {
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
                        match self.bit_id(self.canon[cur]) {
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

    /// Resolves a bit through module connections to its canonical source.
    pub fn canon(&self, bit: SigBit) -> SigBit {
        self.bit_id(bit).map_or(bit, |i| self.canon[i])
    }

    /// The cell driving a canonical bit, if any.
    ///
    /// Pass the result of [`NetIndex::canon`]; a non-canonical bit has no
    /// driver entry.
    pub fn driver(&self, canonical_bit: SigBit) -> Option<Driver> {
        self.bit_id(canonical_bit).and_then(|i| self.driver[i])
    }
}

/// How many sinks read each canonical bit of a module: every cell input
/// pin counts once, and so does every bit of a module output port.
///
/// This is the one fanout fact the mux-tree walks need (a mux belongs to
/// its parent's tree only when the parent's slot is its sole reader), so
/// they count it next to their [`NetIndex`], in one pass over the pins.
/// Like the index it is a snapshot: [`Module::connect`],
/// [`Module::remove_cell`], [`Module::add_cell`] and any rewrite of a
/// cell's input bits leave it stale.
#[derive(Clone, Debug)]
pub struct ReaderCounts {
    /// Readers of each canonical bit, by [`NetIndex::bit_id`].
    count: Vec<u32>,
}

impl ReaderCounts {
    /// Counts the readers of every canonical bit of `module`, resolved
    /// through `index`, which must be built from `module` as it is now.
    pub fn build(module: &Module, index: &NetIndex) -> Self {
        let mut count = vec![0u32; index.bit_count()];
        let mut read = |bit: SigBit| {
            if let Some(c) = index.canon_id(bit) {
                count[c] += 1;
            }
        };
        for (_, cell) in module.cells() {
            for (_, spec) in cell.inputs() {
                spec.iter().for_each(|bit| read(*bit));
            }
        }
        for p in module.output_ports() {
            (0..module.wire(p.wire).width).for_each(|i| read(SigBit::Wire(p.wire, i)));
        }
        ReaderCounts { count }
    }

    /// Number of sinks reading a canonical bit, through the `index` the
    /// counts were built over; 0 for a bit outside the module.
    ///
    /// Pass the result of [`NetIndex::canon`]; a non-canonical bit has no
    /// readers of its own.
    pub fn get(&self, index: &NetIndex, canonical_bit: SigBit) -> usize {
        index
            .bit_id(canonical_bit)
            .map_or(0, |i| self.count[i] as usize)
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
        let _y2 = m.and(&a, &a);
        m.add_output("o", &a);
        let idx = NetIndex::build(&m);
        let readers = ReaderCounts::build(&m, &idx);
        // one not pin, two and pins and one output-port bit
        assert_eq!(readers.get(&idx, a.bit(0)), 4);
        assert_eq!(readers.get(&idx, idx.canon(y1.bit(0))), 0);
    }

    #[test]
    fn bit_ids_are_dense_and_agree_with_canon() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 3);
        let y = m.not(&a);
        let w = m.auto_wire(3);
        m.connect(SigSpec::from_wire(w, 3), y.clone());
        m.add_output("o", &SigSpec::from_wire(w, 3));
        let idx = NetIndex::build(&m);
        let mut bits: Vec<SigBit> = vec![SigBit::ZERO, SigBit::ONE, SigBit::X];
        for (id, wire) in m.wires() {
            bits.extend((0..wire.width).map(|i| SigBit::Wire(id, i)));
        }
        // every bit has its own id, and together they cover 0..bit_count
        let ids: Vec<usize> = bits.iter().map(|b| idx.bit_id(*b).unwrap()).collect();
        assert_eq!(ids, (0..idx.bit_count()).collect::<Vec<_>>());
        // the table behind canon is indexed by the same ids
        for (i, bit) in bits.iter().enumerate() {
            assert_eq!(idx.canon(*bit), idx.canon[i]);
        }
        // aliases share their canonical bit's id
        let o = m.find_wire("o").unwrap();
        let canon_id = |b: SigBit| idx.bit_id(idx.canon(b));
        assert_eq!(canon_id(SigBit::Wire(o, 2)), idx.bit_id(y.bit(2)));
        assert_eq!(canon_id(SigBit::Wire(w, 0)), idx.bit_id(y.bit(0)));
        // a bit outside the module has no id
        assert_eq!(idx.bit_id(SigBit::Wire(o, 3)), None);
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
