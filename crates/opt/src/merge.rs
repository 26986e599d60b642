//! Structural sharing of identical cells (`opt_merge`).

use smartly_netlist::{CellKind, Module, NetIndex, SigSpec};
use std::collections::HashMap;

/// Merges combinational cells with identical kind and (canonicalized)
/// input connections; returns the number of cells removed.
///
/// The survivor is the earliest cell in id order; every duplicate's output
/// is aliased onto the survivor's via a module connection. Flip-flops are
/// not merged so equivalence checking can match them pairwise.
pub fn opt_merge(module: &mut Module) -> usize {
    let index = NetIndex::build(module);
    let mut seen: HashMap<(CellKind, Vec<SigSpec>), smartly_netlist::CellId> = HashMap::new();
    let mut merges: Vec<(smartly_netlist::CellId, smartly_netlist::CellId)> = Vec::new();

    let order = match module.topo_order_with(&index) {
        Ok(o) => o,
        Err(_) => return 0,
    };
    for id in order {
        let cell = match module.cell(id) {
            Some(c) => c,
            None => continue,
        };
        if cell.kind == CellKind::Dff {
            continue;
        }
        let key_inputs: Vec<SigSpec> = cell
            .kind
            .input_ports()
            .iter()
            .map(|p| {
                cell.port(*p)
                    .map(|s| s.iter().map(|b| index.canon(*b)).collect())
                    .unwrap_or_default()
            })
            .collect();
        let key = (cell.kind, key_inputs);
        match seen.get(&key) {
            Some(&rep) => merges.push((id, rep)),
            None => {
                seen.insert(key, id);
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
    use smartly_netlist::Module;

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
