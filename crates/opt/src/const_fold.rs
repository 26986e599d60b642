//! Constant folding and pass-through collapsing (`opt_const`).

use smartly_netlist::{
    eval_cell, Cell, CellInputs, CellKind, Module, NetIndex, Port, SigBit, SigSpec, TriVal,
};

/// One constant-folding sweep; returns the number of cells folded or
/// simplified. Run to a fixpoint via [`crate::clean_pipeline`].
///
/// Handled rewrites:
///
/// * any cell with fully-constant inputs evaluates via
///   [`smartly_netlist::eval_cell`] and is replaced by a constant
///   connection;
/// * `mux` with a constant select (what the muxtree passes produce)
///   collapses to the selected branch; `mux` with identical branches
///   collapses outright;
/// * uniform-constant operands of `and`/`or`/`xor` collapse
///   (`a & 0 = 0`, `a & 1 = a`, ...);
/// * `eq` of bitwise-identical specs folds to 1; contradictory constant
///   bits fold to 0; 1-bit `eq a, 1` collapses to `a`;
/// * `pmux` drops constant-0 selects and truncates at a constant-1 select.
///
/// Cells are visited in topological order, and a constant a fold
/// produces is seen by every later cell of the same sweep. A non-constant
/// alias is not: it shows only in the next sweep's index.
pub fn opt_const(module: &mut Module) -> usize {
    sweep(module, &NetIndex::build(module), &mut Vec::new()).unwrap_or(0)
}

/// [`opt_const`] over `index`, built from `module` as it is on entry, or
/// `None` when the module has a combinational cycle and the sweep did not
/// run.
///
/// `forward` is reset to one entry per bit id. Each output bit of a cell
/// the sweep replaces by a connection gets the bit that now carries its
/// value, canonical under `index` or a constant. Later cells of the sweep
/// see only the constant entries; [`crate::clean`] follows them all, so
/// it can run over the same index.
pub(crate) fn sweep(
    module: &mut Module,
    index: &NetIndex,
    forward: &mut Vec<Option<SigBit>>,
) -> Option<usize> {
    forward.clear();
    forward.resize(index.bit_count(), None);
    let order = module.topo_order_with(index).ok()?;
    let mut changes = 0usize;

    for id in order {
        let Some(cell) = module.cell(id) else {
            continue;
        };
        if cell.kind == CellKind::Dff {
            continue;
        }
        let resolve = |bit: &SigBit| -> SigBit {
            let c = index.canon(*bit);
            if c.is_const() {
                return c;
            }
            // a fold is visible within the sweep only when it left a
            // constant
            match index.bit_id(c).and_then(|i| forward[i]) {
                Some(src) if src.is_const() => src,
                _ => c,
            }
        };
        if !may_fold(cell, index, resolve) {
            continue;
        }
        let kind = cell.kind;
        let port = |p: Port| -> SigSpec {
            cell.port(p)
                .map(|s| s.iter().map(resolve).collect())
                .unwrap_or_default()
        };
        let a = port(Port::A);
        let b = port(Port::B);
        let s = port(Port::S);
        let out_spec = cell.output().clone();
        let w = out_spec.width();

        let replace_with =
            |module: &mut Module, src: SigSpec, forward: &mut [Option<SigBit>]| -> bool {
                debug_assert_eq!(src.width(), w);
                module.remove_cell(id);
                for (dst, sbit) in out_spec.iter().zip(src.iter()) {
                    // only a wire bit forwards: constants keep ids 0..3
                    let dst = index.canon(*dst);
                    if let (SigBit::Wire(..), Some(i)) = (dst, index.bit_id(dst)) {
                        forward[i] = Some(*sbit);
                    }
                }
                module.connect(out_spec.clone(), src);
                true
            };

        // 1. full constant evaluation
        if a.is_fully_const() && b.is_fully_const() && s.is_fully_const() {
            let inputs = CellInputs {
                a: a.as_const_trivals().unwrap_or_default(),
                b: b.as_const_trivals().unwrap_or_default(),
                s: s.as_const_trivals().unwrap_or_default(),
            };
            let out = eval_cell(kind, &inputs, w);
            let src: SigSpec = out.into_iter().map(SigBit::Const).collect();
            changes += usize::from(replace_with(module, src, forward));
            continue;
        }

        match kind {
            CellKind::Mux => {
                match s.bit(0) {
                    SigBit::Const(TriVal::Zero) => {
                        changes += usize::from(replace_with(module, a, forward));
                        continue;
                    }
                    SigBit::Const(TriVal::One) => {
                        changes += usize::from(replace_with(module, b, forward));
                        continue;
                    }
                    _ => {}
                }
                if a == b {
                    changes += usize::from(replace_with(module, a, forward));
                    continue;
                }
            }
            CellKind::And | CellKind::Or | CellKind::Xor => {
                let fold = |konst: &SigSpec, other: &SigSpec| -> Option<SigSpec> {
                    if !konst.is_fully_def() {
                        return None;
                    }
                    let all_zero = konst.as_const_u64() == Some(0);
                    let all_one = konst.iter().all(|b| *b == SigBit::Const(TriVal::One));
                    match kind {
                        CellKind::And if all_zero => Some(SigSpec::zeros(w as u32)),
                        CellKind::And if all_one => Some(other.clone()),
                        CellKind::Or if all_one => Some(SigSpec::ones(w as u32)),
                        CellKind::Or if all_zero => Some(other.clone()),
                        CellKind::Xor if all_zero => Some(other.clone()),
                        _ => None,
                    }
                };
                let folded = if a.is_fully_const() {
                    fold(&a, &b)
                } else if b.is_fully_const() {
                    fold(&b, &a)
                } else if a == b {
                    match kind {
                        CellKind::And | CellKind::Or => Some(a.clone()),
                        CellKind::Xor => Some(SigSpec::zeros(w as u32)),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some(src) = folded {
                    changes += usize::from(replace_with(module, src, forward));
                    continue;
                }
            }
            CellKind::Eq | CellKind::Ne => {
                let neg = kind == CellKind::Ne;
                if a == b {
                    let v = SigSpec::const_u64(u64::from(!neg), 1);
                    changes += usize::from(replace_with(module, v, forward));
                    continue;
                }
                // contradictory known bits ⇒ never equal
                let contradiction = a.iter().zip(b.iter()).any(|(x, y)| {
                    matches!(
                        (x, y),
                        (SigBit::Const(TriVal::Zero), SigBit::Const(TriVal::One))
                            | (SigBit::Const(TriVal::One), SigBit::Const(TriVal::Zero))
                    )
                });
                if contradiction {
                    let v = SigSpec::const_u64(u64::from(neg), 1);
                    changes += usize::from(replace_with(module, v, forward));
                    continue;
                }
                // 1-bit eq against constant: wire or inverter
                if w == 1 && a.width() == 1 {
                    let (konst, sig) = match (a.bit(0), b.bit(0)) {
                        (SigBit::Const(v), other) if v.is_known() => (Some(v), other),
                        (other, SigBit::Const(v)) if v.is_known() => (Some(v), other),
                        _ => (None, a.bit(0)),
                    };
                    if let Some(v) = konst {
                        let want_one = (v == TriVal::One) != neg;
                        if want_one {
                            // y = sig
                            changes +=
                                usize::from(replace_with(module, SigSpec::from_bit(sig), forward));
                            continue;
                        } else {
                            // y = !sig : rewrite the cell into a Not
                            let c = module.cell_mut(id).expect("live cell");
                            // a fresh cell drops the stale B binding
                            let mut fresh = Cell::new(CellKind::Not, c.name.clone());
                            fresh.set_port(Port::A, SigSpec::from_bit(sig));
                            fresh.set_port(Port::Y, out_spec.clone());
                            *c = fresh;
                            changes += 1;
                            continue;
                        }
                    }
                }
            }
            CellKind::Pmux => {
                let n = s.width();
                let mut new_sels: Vec<SigBit> = Vec::new();
                let mut new_words: Vec<SigSpec> = Vec::new();
                let mut default = a.clone();
                let mut changed = false;
                for i in 0..n {
                    match s.bit(i) {
                        SigBit::Const(TriVal::Zero) => {
                            changed = true; // dropped
                        }
                        SigBit::Const(TriVal::One) => {
                            // everything after (and the default) is dead
                            default = b.slice(i * w, w);
                            changed = true;
                            break;
                        }
                        bit => {
                            new_sels.push(bit);
                            new_words.push(b.slice(i * w, w));
                        }
                    }
                }
                if changed {
                    if new_sels.is_empty() {
                        changes += usize::from(replace_with(module, default, forward));
                    } else if new_sels.len() == 1 {
                        // degenerate pmux: a plain mux
                        let c = module.cell_mut(id).expect("live cell");
                        let mut fresh = Cell::new(CellKind::Mux, c.name.clone());
                        fresh.set_port(Port::A, default);
                        fresh.set_port(Port::B, new_words.pop().expect("one word"));
                        fresh.set_port(Port::S, SigSpec::from_bit(new_sels[0]));
                        fresh.set_port(Port::Y, out_spec.clone());
                        *c = fresh;
                        changes += 1;
                    } else {
                        let mut bspec = SigSpec::new();
                        for word in &new_words {
                            bspec.concat(word);
                        }
                        let c = module.cell_mut(id).expect("live cell");
                        c.set_port(Port::A, default);
                        c.set_port(Port::B, bspec);
                        c.set_port(Port::S, SigSpec::from_bits(new_sels));
                        changes += 1;
                    }
                    continue;
                }
            }
            _ => {}
        }
    }
    Some(changes)
}

/// Whether a rewrite of [`opt_const`] can fire on `cell`, decided without
/// allocating: every rule needs an input bit that resolves to a constant,
/// an empty input port (vacuously constant), or, for `mux`, `and`, `or`,
/// `xor`, `eq` and `ne`, equal `A` and `B` operands.
fn may_fold(cell: &Cell, index: &NetIndex, resolve: impl Fn(&SigBit) -> SigBit) -> bool {
    let bits = |p: Port| cell.port(p).map_or(&[][..], SigSpec::bits);
    if cell.kind.input_ports().iter().any(|p| bits(*p).is_empty()) {
        return true;
    }
    let (a, b) = (bits(Port::A), bits(Port::B));
    if [a, b, bits(Port::S)]
        .iter()
        .any(|spec| spec.iter().any(|bit| resolve(bit).is_const()))
    {
        return true;
    }
    // no constant anywhere, so each operand resolves to its canonical bits
    matches!(
        cell.kind,
        CellKind::Mux | CellKind::And | CellKind::Or | CellKind::Xor | CellKind::Eq | CellKind::Ne
    ) && a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| index.canon(*x) == index.canon(*y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean_pipeline;
    use smartly_netlist::Module;

    #[test]
    fn folds_constant_adder() {
        let mut m = Module::new("t");
        let x = SigSpec::const_u64(5, 8);
        let y = SigSpec::const_u64(7, 8);
        let sum = m.add(&x, &y);
        m.add_output("y", &sum);
        let n = opt_const(&mut m);
        assert_eq!(n, 1);
        assert_eq!(m.live_cell_count(), 0);
        // the output now aliases a constant 12
        let idx = NetIndex::build(&m);
        let out = m.find_wire("y").unwrap();
        let v = (0..8)
            .map(|i| idx.canon(SigBit::Wire(out, i)))
            .collect::<SigSpec>();
        assert_eq!(v.as_const_u64(), Some(12));
    }

    #[test]
    fn collapses_mux_with_const_select() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let one = SigSpec::const_u64(1, 1);
        let y = m.mux(&a, &b, &one);
        m.add_output("y", &y);
        assert_eq!(opt_const(&mut m), 1);
        let idx = NetIndex::build(&m);
        let out = m.find_wire("y").unwrap();
        // output aliases b
        assert_eq!(idx.canon(SigBit::Wire(out, 0)), b.bit(0));
    }

    #[test]
    fn and_with_zero_folds() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let y = m.and(&a, &SigSpec::zeros(4));
        m.add_output("y", &y);
        assert_eq!(opt_const(&mut m), 1);
        assert_eq!(m.live_cell_count(), 0);
    }

    #[test]
    fn eq_identical_folds_to_one() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let y = m.eq(&a, &a);
        m.add_output("y", &y);
        assert_eq!(opt_const(&mut m), 1);
        let idx = NetIndex::build(&m);
        let out = m.find_wire("y").unwrap();
        assert_eq!(idx.canon(SigBit::Wire(out, 0)), SigBit::Const(TriVal::One));
    }

    #[test]
    fn eq1_against_const_becomes_wire_or_not() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let y1 = m.eq(&a, &SigSpec::const_u64(1, 1));
        let y0 = m.eq(&a, &SigSpec::const_u64(0, 1));
        m.add_output("y1", &y1);
        m.add_output("y0", &y0);
        assert_eq!(opt_const(&mut m), 2);
        let stats = m.stats();
        assert_eq!(stats.count("eq"), 0);
        assert_eq!(stats.count("not"), 1);
    }

    #[test]
    fn pmux_with_const_selects_simplifies() {
        let mut m = Module::new("t");
        let d = m.add_input("d", 4);
        let w0 = m.add_input("w0", 4);
        let w1 = m.add_input("w1", 4);
        let s1 = m.add_input("s1", 1);
        // selects: [const 0, s1, const 1] word2 wins unless s1
        let sels = SigSpec::from_bits(vec![
            SigBit::Const(TriVal::Zero),
            s1.bit(0),
            SigBit::Const(TriVal::One),
        ]);
        let w2 = m.add_input("w2", 4);
        let y = m.pmux(&d, &[w0.clone(), w1.clone(), w2.clone()], &sels);
        m.add_output("y", &y);
        assert_eq!(opt_const(&mut m), 1);
        // now a plain mux: s1 ? w1 : w2
        let stats = m.stats();
        assert_eq!(stats.count("pmux"), 0);
        assert_eq!(stats.count("mux"), 1);
    }

    #[test]
    fn chain_folds_to_fixpoint() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        // ((a & 0) | a) ^ 0  ==  a
        let z = m.and(&a, &SigSpec::zeros(4));
        let o = m.or(&z, &a);
        let y = m.xor(&o, &SigSpec::zeros(4));
        m.add_output("y", &y);
        clean_pipeline(&mut m);
        assert_eq!(m.live_cell_count(), 0);
        let idx = NetIndex::build(&m);
        let out = m.find_wire("y").unwrap();
        assert_eq!(idx.canon(SigBit::Wire(out, 0)), a.bit(0));
    }
}
