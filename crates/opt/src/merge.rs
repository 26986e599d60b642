//! Structural sharing of identical cells (`opt_merge`).

use smartly_netlist::{CellId, CellKind, Module, NetIndex};
use std::collections::hash_map::{Entry, HashMap};

/// Merges combinational cells with identical kind and (canonicalized)
/// input connections; returns the number of cells removed.
///
/// The survivor is the duplicate that comes first in topological order
/// ([`Module::topo_order`]), which is not always the lowest id: a
/// lower-id duplicate loses when the depth-first walk from an earlier
/// root reaches its twin first. Every duplicate's output is aliased onto
/// the survivor's via a module connection. Flip-flops are not merged so
/// equivalence checking can match them pairwise.
///
/// A cell's key is its kind plus, per input port, the port's width and
/// the dense ids ([`NetIndex::bit_id`]) of its canonical bits.
pub fn opt_merge(module: &mut Module) -> usize {
    sweep(module, &NetIndex::build(module))
}

/// [`opt_merge`] over `index`, which must still be valid for `module`:
/// built from it as it is, or before pins were applied to it
/// ([`crate::apply_pins`]). The topological order is taken now, after
/// any pins, since it picks the survivors.
pub(crate) fn sweep(module: &mut Module, index: &NetIndex) -> usize {
    let mut seen: HashMap<(CellKind, Vec<u32>), CellId> = HashMap::new();
    let mut merges: Vec<(CellId, CellId)> = Vec::new();

    let order = match module.topo_order_with(index) {
        Ok(o) => o,
        Err(_) => return 0,
    };
    'cells: for id in order {
        let cell = match module.cell(id) {
            Some(c) => c,
            None => continue,
        };
        if cell.kind == CellKind::Dff {
            continue;
        }
        let mut key = Vec::new();
        for port in cell.kind.input_ports() {
            let bits = cell.port(*port).map_or(&[][..], |s| s.bits());
            key.push(bits.len() as u32);
            for bit in bits {
                // a bit outside the module has no id: never merge its cell
                let Some(bit_id) = index.bit_id(index.canon(*bit)) else {
                    continue 'cells;
                };
                key.push(bit_id as u32);
            }
        }
        match seen.entry((cell.kind, key)) {
            Entry::Occupied(rep) => merges.push((id, *rep.get())),
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
    }

    let count = merges.len();
    for (dup, rep) in merges {
        let rep_out = module.cell(rep).expect("representative").output().clone();
        let dup_out = module.cell(dup).expect("duplicate").output().clone();
        module.remove_cell(dup);
        module.connect(dup_out, rep_out);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::{Cell, Module, Port, SigSpec};

    #[test]
    fn merges_identical_eq_cells() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let k = SigSpec::const_u64(3, 4);
        let e1 = m.eq(&a, &k);
        let e2 = m.eq(&a, &k);
        let y = m.and(&e1, &e2);
        m.add_output("y", &y);
        assert_eq!(opt_merge(&mut m), 1);
        assert_eq!(m.stats().count("eq"), 1);
        m.validate().unwrap();
    }

    #[test]
    fn chained_merge_via_canonical_bits() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        // two identical ANDs, then two XORs reading *different* wires that
        // become identical once the ANDs merge
        let a1 = m.and(&a, &b);
        let a2 = m.and(&a, &b);
        let x1 = m.xor(&a1, &a);
        let x2 = m.xor(&a2, &a);
        let y = m.or(&x1, &x2);
        m.add_output("y", &y);
        // first sweep merges the ANDs; XOR keys differ until then
        assert_eq!(opt_merge(&mut m), 1);
        // second sweep sees canonicalized inputs and merges the XORs
        assert_eq!(opt_merge(&mut m), 1);
        assert_eq!(m.stats().count("xor"), 1);
        m.validate().unwrap();
    }

    #[test]
    fn survivor_is_first_in_topological_order() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        // cell 0 reads `w`, which cell 2 drives, so the walk from root 0
        // reaches cell 2 before root 1 is visited
        let w = SigSpec::from_wire(m.auto_wire(1), 1);
        let n = m.not(&w);
        let y1 = m.and(&a, &b);
        let mut twin = Cell::new(CellKind::And, "twin");
        twin.set_port(Port::A, a.clone());
        twin.set_port(Port::B, b.clone());
        twin.set_port(Port::Y, w);
        m.add_cell(twin);
        m.add_output("n", &n);
        m.add_output("y1", &y1);
        let ids = m.cell_ids();
        assert_eq!(opt_merge(&mut m), 1);
        assert!(
            m.cell(ids[1]).is_none(),
            "the lower-id twin is the duplicate"
        );
        assert!(
            m.cell(ids[2]).is_some(),
            "the first in topological order survives"
        );
        m.validate().unwrap();
    }

    #[test]
    fn different_cells_not_merged() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let y1 = m.and(&a, &b);
        let y2 = m.or(&a, &b);
        m.add_output("y1", &y1);
        m.add_output("y2", &y2);
        assert_eq!(opt_merge(&mut m), 0);
    }

    #[test]
    fn dffs_never_merge() {
        let mut m = Module::new("t");
        let clk = m.add_input("clk", 1);
        let d = m.add_input("d", 4);
        let q1 = m.dff(&clk, &d);
        let q2 = m.dff(&clk, &d);
        m.add_output("q1", &q1);
        m.add_output("q2", &q2);
        assert_eq!(opt_merge(&mut m), 0);
        assert_eq!(m.stats().count("dff"), 2);
    }
}
