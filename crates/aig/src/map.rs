//! Word-level netlist → AIG lowering (`aigmap`).

use crate::graph::{Aig, AigLit};
use smartly_netlist::{CellKind, Module, NetIndex, NetlistError, Port, SigBit, SigSpec, TriVal};
use std::collections::HashMap;

/// A module lowered to an AIG, with named port bindings.
///
/// Flip-flops are cut: each `dff` contributes pseudo-inputs (its `Q` bits,
/// named `dff$<k>`) and pseudo-outputs (its `D` bits, named `dff$<k>`), so
/// the graph is purely combinational — exactly the transition logic whose
/// AND-count the paper reports as *AIG area*.
#[derive(Clone, Debug)]
pub struct MappedAig {
    /// The underlying graph.
    pub aig: Aig,
    inputs: Vec<(String, Vec<AigLit>)>,
    outputs: Vec<(String, Vec<AigLit>)>,
    num_port_inputs: usize,
    num_port_outputs: usize,
}

impl MappedAig {
    /// AIG area: AND nodes reachable from any output (ports and flip-flop
    /// `D` pins), flip-flops themselves excluded — the paper's metric.
    pub fn area(&self) -> usize {
        let roots: Vec<AigLit> = self
            .outputs
            .iter()
            .flat_map(|(_, lits)| lits.iter().copied())
            .collect();
        self.aig.count_ands(&roots)
    }

    /// All inputs `(name, bits)` in creation order: module input ports
    /// first, then `dff$<k>` pseudo-inputs.
    pub fn inputs(&self) -> &[(String, Vec<AigLit>)] {
        &self.inputs
    }

    /// All outputs `(name, bits)`: module output ports first, then
    /// `dff$<k>` pseudo-outputs.
    pub fn outputs(&self) -> &[(String, Vec<AigLit>)] {
        &self.outputs
    }

    /// Real (port) inputs only.
    pub fn port_inputs(&self) -> &[(String, Vec<AigLit>)] {
        &self.inputs[..self.num_port_inputs]
    }

    /// Real (port) outputs only.
    pub fn port_outputs(&self) -> &[(String, Vec<AigLit>)] {
        &self.outputs[..self.num_port_outputs]
    }

    /// Looks up an input by name.
    pub fn input(&self, name: &str) -> Option<&[AigLit]> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, l)| l.as_slice())
    }

    /// Looks up an output by name.
    pub fn output(&self, name: &str) -> Option<&[AigLit]> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, l)| l.as_slice())
    }

    /// Evaluates all outputs for named input values (two-valued).
    ///
    /// # Panics
    ///
    /// Panics if a name in `values` is unknown; missing inputs default to 0.
    pub fn eval_u64(&self, values: &HashMap<String, u64>) -> HashMap<String, u64> {
        for name in values.keys() {
            assert!(
                self.input(name).is_some(),
                "unknown input '{name}' in eval_u64"
            );
        }
        // inputs are in creation order; rebuild the flat input vector
        let mut flat: Vec<bool> = Vec::new();
        for (name, lits) in &self.inputs {
            let v = values.get(name).copied().unwrap_or(0);
            for bit in 0..lits.len() {
                flat.push((v >> bit) & 1 == 1);
            }
        }
        let mut out = HashMap::new();
        for (name, lits) in &self.outputs {
            let bits = self.aig.eval(&flat, lits);
            let mut v = 0u64;
            for (i, b) in bits.iter().enumerate() {
                if *b {
                    v |= 1 << i;
                }
            }
            out.insert(name.clone(), v);
        }
        out
    }
}

/// Maps one or more modules into a **single** structurally hashed AIG
/// with inputs shared by name.
///
/// This is the miter construction trick that makes equivalence checking
/// fast: when two modules are mapped through the same `SharedMapper`,
/// cones that are structurally identical fold to the *same* literal, so
/// only genuinely rewritten logic ever reaches the SAT solver.
///
/// # Example
///
/// ```
/// use smartly_netlist::Module;
/// use smartly_aig::SharedMapper;
///
/// let build = |name: &str| {
///     let mut m = Module::new(name);
///     let a = m.add_input("a", 4);
///     let b = m.add_input("b", 4);
///     let y = m.and(&a, &b);
///     m.add_output("y", &y);
///     m
/// };
/// let mut sm = SharedMapper::new();
/// let oa = sm.map_module(&build("m1"))?;
/// let ob = sm.map_module(&build("m2"))?;
/// assert_eq!(oa[0].1, ob[0].1, "identical cones share literals");
/// # Ok::<(), smartly_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharedMapper {
    aig: Aig,
    named_inputs: HashMap<String, Vec<AigLit>>,
    input_order: Vec<(String, Vec<AigLit>)>,
}

impl SharedMapper {
    /// Creates an empty mapper.
    pub fn new() -> Self {
        SharedMapper {
            aig: Aig::new(),
            named_inputs: HashMap::new(),
            input_order: Vec::new(),
        }
    }

    /// The shared graph.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Inputs in creation order (shared across mapped modules).
    pub fn inputs(&self) -> &[(String, Vec<AigLit>)] {
        &self.input_order
    }

    fn input_lits(&mut self, name: &str, width: usize) -> Result<Vec<AigLit>, NetlistError> {
        if let Some(lits) = self.named_inputs.get(name) {
            if lits.len() != width {
                return Err(NetlistError::NotFound {
                    module: String::new(),
                    name: format!("input '{name}' with matching width"),
                });
            }
            return Ok(lits.clone());
        }
        let lits: Vec<AigLit> = (0..width).map(|_| self.aig.add_input()).collect();
        self.named_inputs.insert(name.to_string(), lits.clone());
        self.input_order.push((name.to_string(), lits.clone()));
        Ok(lits)
    }

    /// Maps `module` into the shared graph; returns its outputs (ports
    /// first, then `dff$<k>` pseudo-outputs).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic logic,
    /// [`NetlistError::NotFound`] for undriven consumed bits or when a
    /// port name is reused with a different width.
    pub fn map_module(
        &mut self,
        module: &Module,
    ) -> Result<Vec<(String, Vec<AigLit>)>, NetlistError> {
        let index = NetIndex::build(module);
        let order = module.topo_order_with(&index)?;
        // the literal of each bit by bit id; `AigLit::NONE` is undriven
        let mut lit_of: Vec<AigLit> = vec![AigLit::NONE; index.bit_count()];
        let bind = |lit_of: &mut [AigLit], bit: SigBit, lit: AigLit| {
            if let Some(i) = index.bit_id(bit) {
                lit_of[i] = lit;
            }
        };

        // 1. module input ports (shared by name)
        for p in module.input_ports() {
            let w = module.wire(p.wire).width;
            let lits = self.input_lits(&p.name, w as usize)?;
            for (i, l) in lits.iter().enumerate() {
                bind(&mut lit_of, SigBit::Wire(p.wire, i as u32), *l);
            }
        }

        // 2. flip-flop Q pins: shared `dff$<k>` pseudo-inputs, matched by
        // cell order across modules
        let mut dff_cells = Vec::new();
        for (id, cell) in module.cells() {
            if cell.kind == CellKind::Dff {
                dff_cells.push(id);
            }
        }
        for (k, &id) in dff_cells.iter().enumerate() {
            let cell = module.cell(id).expect("live dff");
            let q = cell.port(Port::Q).expect("dff Q bound");
            let lits = self.input_lits(&format!("dff${k}"), q.width())?;
            for (bit, l) in q.iter().zip(lits) {
                bind(&mut lit_of, index.canon(*bit), l);
            }
        }

        // 3. combinational cells in topological order
        let resolve = |spec: &SigSpec, lit_of: &[AigLit]| -> Result<Vec<AigLit>, NetlistError> {
            spec.iter()
                .map(|b| match index.canon(*b) {
                    SigBit::Const(TriVal::One) => Ok(AigLit::TRUE),
                    SigBit::Const(_) => Ok(AigLit::FALSE),
                    wire_bit => index
                        .bit_id(wire_bit)
                        .map(|i| lit_of[i])
                        .filter(|&lit| lit != AigLit::NONE)
                        .ok_or_else(|| NetlistError::NotFound {
                            module: module.name.clone(),
                            name: format!("driver of {wire_bit:?}"),
                        }),
                })
                .collect()
        };

        for id in order {
            let cell = module.cell(id).expect("live cell");
            if cell.kind == CellKind::Dff {
                continue;
            }
            let a = cell
                .port(Port::A)
                .map(|s| resolve(s, &lit_of))
                .transpose()?
                .unwrap_or_default();
            let b = cell
                .port(Port::B)
                .map(|s| resolve(s, &lit_of))
                .transpose()?
                .unwrap_or_default();
            let s = cell
                .port(Port::S)
                .map(|sp| resolve(sp, &lit_of))
                .transpose()?
                .unwrap_or_default();
            let w = cell.output().width();
            let out = map_cell(&mut self.aig, cell.kind, &a, &b, &s, w);
            for (bit, lit) in cell.output().iter().zip(out) {
                bind(&mut lit_of, index.canon(*bit), lit);
            }
        }

        // 4. outputs: ports then dff D pins
        let mut outputs: Vec<(String, Vec<AigLit>)> = Vec::new();
        for p in module.output_ports() {
            let w = module.wire(p.wire).width;
            let spec = SigSpec::from_wire(p.wire, w);
            outputs.push((p.name.clone(), resolve(&spec, &lit_of)?));
        }
        for (k, &id) in dff_cells.iter().enumerate() {
            let cell = module.cell(id).expect("live dff");
            let d = cell.port(Port::D).expect("dff D bound");
            outputs.push((format!("dff${k}"), resolve(d, &lit_of)?));
        }
        Ok(outputs)
    }
}

/// Lowers `module` to an AIG (the Yosys `aigmap` equivalent).
///
/// Unknown constants (`x`) lower to **0**, matching the two-valued
/// simulator. Each cell kind uses the standard decomposition (ripple-carry
/// adders, borrow-chain comparators, barrel shifters, priority-chain
/// `pmux`).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic logic, and
/// [`NetlistError::NotFound`] if a consumed wire bit has no driver.
pub fn aigmap(module: &Module) -> Result<MappedAig, NetlistError> {
    let mut sm = SharedMapper::new();
    let outputs = sm.map_module(module)?;
    let num_port_outputs = module.output_ports().count();
    let num_port_inputs = module.input_ports().count();
    Ok(MappedAig {
        aig: sm.aig,
        inputs: sm.input_order,
        outputs,
        num_port_inputs,
        num_port_outputs,
    })
}

fn map_cell(
    aig: &mut Aig,
    kind: CellKind,
    a: &[AigLit],
    b: &[AigLit],
    s: &[AigLit],
    w: usize,
) -> Vec<AigLit> {
    use CellKind::*;
    match kind {
        Not => a.iter().map(|&x| !x).collect(),
        And => a.iter().zip(b).map(|(&x, &y)| aig.and(x, y)).collect(),
        Or => a.iter().zip(b).map(|(&x, &y)| aig.or(x, y)).collect(),
        Xor => a.iter().zip(b).map(|(&x, &y)| aig.xor(x, y)).collect(),
        Xnor => a.iter().zip(b).map(|(&x, &y)| aig.xnor(x, y)).collect(),
        ReduceAnd => vec![aig.big_and(a)],
        ReduceOr | ReduceBool => vec![aig.big_or(a)],
        ReduceXor => {
            let mut acc = AigLit::FALSE;
            for &x in a {
                acc = aig.xor(acc, x);
            }
            vec![acc]
        }
        LogicNot => vec![!aig.big_or(a)],
        LogicAnd => {
            let ra = aig.big_or(a);
            let rb = aig.big_or(b);
            vec![aig.and(ra, rb)]
        }
        LogicOr => {
            let ra = aig.big_or(a);
            let rb = aig.big_or(b);
            vec![aig.or(ra, rb)]
        }
        Add => add_vec(aig, a, b, AigLit::FALSE),
        Sub => {
            let nb: Vec<AigLit> = b.iter().map(|&x| !x).collect();
            add_vec(aig, a, &nb, AigLit::TRUE)
        }
        Mul => {
            let mut acc = vec![AigLit::FALSE; w];
            for (j, &bj) in b.iter().enumerate().take(w) {
                let partial: Vec<AigLit> = (0..w)
                    .map(|i| {
                        if i >= j {
                            aig.and(a[i - j], bj)
                        } else {
                            AigLit::FALSE
                        }
                    })
                    .collect();
                acc = add_vec(aig, &acc, &partial, AigLit::FALSE);
            }
            acc
        }
        Shl | Shr => {
            let mut cur = a.to_vec();
            for (k, &bk) in b.iter().enumerate() {
                let amount = 1usize << k.min(31);
                let mut next = Vec::with_capacity(w);
                for i in 0..w {
                    let shifted = if kind == Shl {
                        if i >= amount {
                            cur[i - amount]
                        } else {
                            AigLit::FALSE
                        }
                    } else if i + amount < w {
                        cur[i + amount]
                    } else {
                        AigLit::FALSE
                    };
                    next.push(aig.mux(bk, shifted, cur[i]));
                }
                cur = next;
            }
            cur
        }
        Eq | Ne => {
            let xnors: Vec<AigLit> = a.iter().zip(b).map(|(&x, &y)| aig.xnor(x, y)).collect();
            let eq = aig.big_and(&xnors);
            vec![if kind == Eq { eq } else { !eq }]
        }
        Lt | Le | Gt | Ge => {
            let mut lt = AigLit::FALSE;
            let mut gt = AigLit::FALSE;
            for (&x, &y) in a.iter().zip(b) {
                let xe = aig.xnor(x, y);
                let l_here = aig.and(!x, y);
                let g_here = aig.and(x, !y);
                let lk = aig.and(xe, lt);
                let gk = aig.and(xe, gt);
                lt = aig.or(l_here, lk);
                gt = aig.or(g_here, gk);
            }
            vec![match kind {
                Lt => lt,
                Le => !gt,
                Gt => gt,
                Ge => !lt,
                _ => unreachable!(),
            }]
        }
        Mux => {
            let sel = s[0];
            a.iter().zip(b).map(|(&x, &y)| aig.mux(sel, y, x)).collect()
        }
        Pmux => {
            // priority chain: lowest select bit wins
            let mut acc = a.to_vec();
            for i in (0..s.len()).rev() {
                let word = &b[i * w..(i + 1) * w];
                acc = acc
                    .iter()
                    .zip(word)
                    .map(|(&e, &t)| aig.mux(s[i], t, e))
                    .collect();
            }
            acc
        }
        Dff => unreachable!("dffs are cut before mapping"),
    }
}

/// Ripple-carry addition.
fn add_vec(aig: &mut Aig, a: &[AigLit], b: &[AigLit], carry_in: AigLit) -> Vec<AigLit> {
    let mut out = Vec::with_capacity(a.len());
    let mut carry = carry_in;
    for (&x, &y) in a.iter().zip(b) {
        let xy = aig.xor(x, y);
        out.push(aig.xor(xy, carry));
        let t1 = aig.and(x, y);
        let t2 = aig.and(xy, carry);
        carry = aig.or(t1, t2);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::Module;

    #[test]
    fn and_module_area() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let y = m.and(&a, &b);
        m.add_output("y", &y);
        let mapped = aigmap(&m).unwrap();
        assert_eq!(mapped.area(), 4);
    }

    #[test]
    fn mux_is_three_ands_per_bit() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let s = m.add_input("s", 1);
        let y = m.mux(&a, &b, &s);
        m.add_output("y", &y);
        let mapped = aigmap(&m).unwrap();
        assert_eq!(mapped.area(), 3);
    }

    #[test]
    fn dff_cut_excludes_ff_from_area() {
        let mut m = Module::new("t");
        let clk = m.add_input("clk", 1);
        let d = m.add_input("d", 8);
        let q = m.dff(&clk, &d);
        m.add_output("q", &q);
        let mapped = aigmap(&m).unwrap();
        assert_eq!(mapped.area(), 0); // pure wiring, no ANDs
        assert_eq!(mapped.inputs().len(), 3); // clk, d, dff$0
        assert_eq!(mapped.outputs().len(), 2); // q, dff$0
    }

    #[test]
    fn eval_matches_semantics_add() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 8);
        let b = m.add_input("b", 8);
        let y = m.add(&a, &b);
        m.add_output("y", &y);
        let mapped = aigmap(&m).unwrap();
        for (x, z) in [(3u64, 5u64), (255, 1), (127, 127), (0, 0)] {
            let mut vals = HashMap::new();
            vals.insert("a".to_string(), x);
            vals.insert("b".to_string(), z);
            let out = mapped.eval_u64(&vals);
            assert_eq!(out["y"], (x + z) & 0xff);
        }
    }

    #[test]
    fn strash_shares_identical_cones() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let y1 = m.and(&a, &b);
        let y2 = m.and(&a, &b); // structurally identical cell
        m.add_output("y1", &y1);
        m.add_output("y2", &y2);
        let mapped = aigmap(&m).unwrap();
        assert_eq!(mapped.area(), 4); // shared, not 8
    }

    #[test]
    fn undriven_consumed_bit_is_not_found() {
        // a cell input that nothing drives
        let mut m = Module::new("t");
        let w = SigSpec::from_wire(m.auto_wire(2), 2);
        let y = m.not(&w);
        m.add_output("y", &y);
        assert!(matches!(aigmap(&m), Err(NetlistError::NotFound { .. })));
        // an output port bit that nothing drives
        let mut m = Module::new("t");
        let w = m.auto_wire(1);
        m.mark_output(w);
        assert!(matches!(aigmap(&m), Err(NetlistError::NotFound { .. })));
    }

    #[test]
    fn x_maps_to_zero() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let y = m.and(&a, &SigSpec::xes(1));
        m.add_output("y", &y);
        let mapped = aigmap(&m).unwrap();
        assert_eq!(mapped.area(), 0); // a & 0 folds away
        let mut vals = HashMap::new();
        vals.insert("a".to_string(), 1u64);
        assert_eq!(mapped.eval_u64(&vals)["y"], 0);
    }
}
