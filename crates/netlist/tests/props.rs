//! Randomized tests for the IR: `SigSpec` algebra, `eval_cell` laws, the
//! dense connectivity index against a hash-map oracle, and the mux-tree
//! walk over it.
//!
//! Formerly written with `proptest`; the offline build environment cannot
//! fetch it, so each property now runs as a seeded loop over the vendored
//! deterministic RNG — same laws, reproducible cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartly_netlist::{
    eval_cell, CellId, CellInputs, CellKind, Driver, Module, NetIndex, Port, PortDir, ReaderCounts,
    SigBit, SigSpec, TriVal,
};
use smartly_opt::{muxtree_roots, slot_child, walk_muxtrees, PathCondition, Pin};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

const CASES: usize = 64;

fn trivals(bits: u64, mask_x: u64, w: usize) -> Vec<TriVal> {
    (0..w)
        .map(|i| {
            if (mask_x >> i) & 1 == 1 {
                TriVal::X
            } else {
                TriVal::from_bool((bits >> i) & 1 == 1)
            }
        })
        .collect()
}

#[test]
fn const_u64_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7401);
    for _ in 0..CASES {
        let v = rng.gen_range(0..=u64::MAX);
        let w = rng.gen_range(1u32..=64);
        let spec = SigSpec::const_u64(v & mask(w), w);
        assert_eq!(spec.as_const_u64(), Some(v & mask(w)));
        assert_eq!(spec.width(), w as usize);
    }
}

#[test]
fn slice_then_concat_is_identity() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7402);
    for _ in 0..CASES {
        let v = rng.gen_range(0..=u64::MAX);
        let w = rng.gen_range(2u32..=32);
        let cut = rng.gen_range(1u32..31).min(w - 1);
        let spec = SigSpec::const_u64(v & mask(w), w);
        let mut lo = spec.slice(0, cut as usize);
        let hi = spec.slice(cut as usize, (w - cut) as usize);
        lo.concat(&hi);
        assert_eq!(lo, spec);
    }
}

#[test]
fn zext_preserves_value() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7403);
    for _ in 0..CASES {
        let v = rng.gen_range(0..=u64::MAX);
        let w = rng.gen_range(1u32..=32);
        let extra = rng.gen_range(0u32..16);
        let spec = SigSpec::const_u64(v & mask(w), w);
        assert_eq!(spec.zext(w + extra).as_const_u64(), Some(v & mask(w)));
    }
}

/// AND/OR/XOR are commutative even with X bits.
#[test]
fn bitwise_ops_commute() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7404);
    for _ in 0..CASES {
        let (a, b) = (rng.gen_range(0..=u64::MAX), rng.gen_range(0..=u64::MAX));
        let (xa, xb) = (rng.gen_range(0..=u64::MAX), rng.gen_range(0..=u64::MAX));
        let w = 16usize;
        let va = trivals(a, xa, w);
        let vb = trivals(b, xb, w);
        for kind in [CellKind::And, CellKind::Or, CellKind::Xor, CellKind::Xnor] {
            let ab = eval_cell(kind, &CellInputs::binary(va.clone(), vb.clone()), w);
            let ba = eval_cell(kind, &CellInputs::binary(vb.clone(), va.clone()), w);
            assert_eq!(&ab, &ba, "{kind:?}");
        }
    }
}

/// De Morgan over three-valued vectors: !(a & b) == !a | !b.
#[test]
fn de_morgan() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7405);
    for _ in 0..CASES {
        let (a, b, xa) = (
            rng.gen_range(0..=u64::MAX),
            rng.gen_range(0..=u64::MAX),
            rng.gen_range(0..=u64::MAX),
        );
        let w = 12usize;
        let va = trivals(a, xa, w);
        let vb = trivals(b, 0, w);
        let and = eval_cell(
            CellKind::And,
            &CellInputs::binary(va.clone(), vb.clone()),
            w,
        );
        let not_and = eval_cell(CellKind::Not, &CellInputs::unary(and), w);
        let na = eval_cell(CellKind::Not, &CellInputs::unary(va), w);
        let nb = eval_cell(CellKind::Not, &CellInputs::unary(vb), w);
        let or = eval_cell(CellKind::Or, &CellInputs::binary(na, nb), w);
        assert_eq!(not_and, or);
    }
}

/// Add/Sub agree with wrapping integer arithmetic on known values.
#[test]
fn arith_matches_integers() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7406);
    for _ in 0..CASES {
        let (a, b) = (rng.gen_range(0..=u64::MAX), rng.gen_range(0..=u64::MAX));
        let w = rng.gen_range(1u32..=32);
        let m = mask(w);
        let va = trivals(a & m, 0, w as usize);
        let vb = trivals(b & m, 0, w as usize);
        let sum = eval_cell(
            CellKind::Add,
            &CellInputs::binary(va.clone(), vb.clone()),
            w as usize,
        );
        assert_eq!(to_u64(&sum), Some((a & m).wrapping_add(b & m) & m));
        let diff = eval_cell(CellKind::Sub, &CellInputs::binary(va, vb), w as usize);
        assert_eq!(to_u64(&diff), Some((a & m).wrapping_sub(b & m) & m));
    }
}

/// Comparison trichotomy on known values.
#[test]
fn compare_trichotomy() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7407);
    for _ in 0..CASES {
        let (a, b) = (rng.gen_range(0..=u32::MAX), rng.gen_range(0..=u32::MAX));
        let w = 32usize;
        let va = trivals(a as u64, 0, w);
        let vb = trivals(b as u64, 0, w);
        let lt = eval_cell(CellKind::Lt, &CellInputs::binary(va.clone(), vb.clone()), 1)[0];
        let eq = eval_cell(CellKind::Eq, &CellInputs::binary(va.clone(), vb.clone()), 1)[0];
        let gt = eval_cell(CellKind::Gt, &CellInputs::binary(va, vb), 1)[0];
        let count = [lt, eq, gt].iter().filter(|v| **v == TriVal::One).count();
        assert_eq!(count, 1, "exactly one of <,==,> holds");
    }
}

/// Mux with a known select equals the selected branch exactly.
#[test]
fn mux_selects_branch() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7408);
    for _ in 0..CASES {
        let (a, b, xa) = (
            rng.gen_range(0..=u64::MAX),
            rng.gen_range(0..=u64::MAX),
            rng.gen_range(0..=u64::MAX),
        );
        let s = rng.gen_bool(0.5);
        let w = 8usize;
        let va = trivals(a, xa, w);
        let vb = trivals(b, 0, w);
        let y = eval_cell(
            CellKind::Mux,
            &CellInputs::mux(va.clone(), vb.clone(), vec![TriVal::from_bool(s)]),
            w,
        );
        assert_eq!(y, if s { vb } else { va });
    }
}

/// X never appears where a controlling value decides the output.
#[test]
fn controlling_values_beat_x() {
    let w = 8usize;
    let zeros = trivals(0, 0, w);
    let xs = trivals(0, u64::MAX, w);
    let y = eval_cell(
        CellKind::And,
        &CellInputs::binary(zeros.clone(), xs.clone()),
        w,
    );
    assert_eq!(y, zeros);
    let ones = trivals(u64::MAX, 0, w);
    let y = eval_cell(CellKind::Or, &CellInputs::binary(ones.clone(), xs), w);
    assert_eq!(y, ones);
}

fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

fn to_u64(bits: &[TriVal]) -> Option<u64> {
    let mut v = 0u64;
    for (i, b) in bits.iter().enumerate() {
        match b.to_bool() {
            Some(true) => v |= 1 << i,
            Some(false) => {}
            None => return None,
        }
    }
    Some(v)
}

/// A random module: inputs and cells of mixed widths (multi-port
/// `mux`/`pmux`/`add`/`eq`/`dff` among them), alias chains up to 8 deep
/// recorded in shuffled order (some rooted at constants, read by cells at
/// every depth), a wire driven after its readers, and output ports
/// aliased to inputs, constants, cell outputs and chain wires. Some bits
/// are driven twice, which validation rejects but the index must still
/// resolve the way the oracle does: the later edge or driver wins.
fn random_module(rng: &mut StdRng) -> Module {
    let mut m = Module::new("rand");
    let mut pool: Vec<SigBit> = Vec::new();
    for k in 0..rng.gen_range(1..=3) {
        pool.extend(m.add_input(&format!("i{k}"), rng.gen_range(1..=6)).iter());
    }
    let clk = m.add_input("clk", 1);
    // no cell reads `r` itself; multiply-driven outputs alias it
    let r = m.add_input("r", 1).bit(0);
    // `late` is readable from the start but driven at the end, by bits
    // that do not depend on it combinationally: a cell may then read a
    // bit driven by a cell with a higher id
    let late_width = rng.gen_range(1..=4);
    let late = SigSpec::from_wire(m.auto_wire(late_width), late_width);
    pool.extend(late.iter());
    let mut tainted: HashSet<SigBit> = late.iter().copied().collect();
    let mut pending: Vec<(SigSpec, SigSpec)> = Vec::new();

    fn operand(rng: &mut StdRng, pool: &[SigBit], w: u32) -> SigSpec {
        (0..w)
            .map(|_| match rng.gen_range(0..10) {
                0 => SigBit::ZERO,
                1 => SigBit::ONE,
                2 if rng.gen_bool(0.3) => SigBit::X,
                _ => pool[rng.gen_range(0..pool.len())],
            })
            .collect()
    }

    for _ in 0..rng.gen_range(4..=16) {
        let w = rng.gen_range(1..=5);
        if rng.gen_range(0..4) == 0 {
            // an alias chain: root <- operand, w1 <- root, ... w_d <- w_{d-1}
            let depth = rng.gen_range(1..=8);
            let mut src = if rng.gen_bool(0.25) {
                SigSpec::const_u64(rng.gen_range(0..32), w)
            } else {
                operand(rng, &pool, w)
            };
            for _ in 0..depth {
                let wire = m.auto_wire(w);
                let dst = SigSpec::from_wire(wire, w);
                for (d, s) in dst.iter().zip(src.iter()) {
                    if tainted.contains(s) {
                        tainted.insert(*d);
                    }
                }
                pending.push((dst.clone(), src));
                pool.extend(dst.iter());
                src = dst;
            }
            if rng.gen_bool(0.2) {
                // a second, conflicting edge onto the chain's last wire,
                // from a constant or an input bit (so it cannot close a
                // loop): the connection recorded later wins
                let root = if rng.gen_bool(0.5) {
                    SigBit::ONE
                } else {
                    pool[0]
                };
                pending.push((src, SigSpec::from_bits(vec![root; w as usize])));
            }
            continue;
        }
        let a = operand(rng, &pool, w);
        let b = operand(rng, &pool, w);
        let y = match rng.gen_range(0..8) {
            0 => m.not(&a),
            1 => m.and(&a, &b),
            2 => m.xor(&a, &b),
            3 => m.eq(&a, &b),
            4 => m.add(&a, &b),
            5 => m.mux(&a, &b, &operand(rng, &pool, 1)),
            6 => {
                let n = rng.gen_range(1..=3);
                let words: Vec<SigSpec> = (0..n).map(|_| operand(rng, &pool, w)).collect();
                m.pmux(&a, &words, &operand(rng, &pool, n as u32))
            }
            _ => m.dff(&clk, &a),
        };
        let id = *m.cell_ids().last().expect("a cell");
        let cell = m.cell(id).expect("live");
        let reads_late = cell
            .inputs()
            .any(|(_, spec)| spec.iter().any(|b| tainted.contains(b)));
        if reads_late && !cell.kind.is_sequential() {
            tainted.extend(y.iter());
        }
        if rng.gen_bool(0.1) {
            // a multiply-driven output: its bits alias `r`, which then
            // records the last such cell as its driver
            pending.push((y.clone(), SigSpec::from_bits(vec![r; y.width()])));
        }
        pool.extend(y.iter());
    }
    let untainted: Vec<SigBit> = pool
        .iter()
        .filter(|b| !tainted.contains(b))
        .copied()
        .collect();
    pending.push((late, operand(rng, &untainted, late_width)));
    // shuffled, so chains resolve through bits whose own edge comes later
    while !pending.is_empty() {
        let (dst, src) = pending.swap_remove(rng.gen_range(0..pending.len()));
        m.connect(dst, src);
    }
    for k in 0..rng.gen_range(1..=4) {
        let w = rng.gen_range(1..=4);
        let src = match rng.gen_range(0..3) {
            0 => SigSpec::const_u64(rng.gen_range(0..16), w),
            _ => operand(rng, &pool, w),
        };
        m.add_output(&format!("o{k}"), &src);
    }
    if let Some(SigBit::Wire(wire, _)) = pool.iter().rev().find(|b| !b.is_const()) {
        if rng.gen_bool(0.5) {
            m.mark_output(*wire);
        }
    }
    m
}

/// The hash-map index: raw alias edges resolved transitively, drivers and
/// reader counts keyed by canonical bit, each cell input pin and each
/// output port bit counting one read.
struct Oracle {
    alias: HashMap<SigBit, SigBit>,
    drivers: HashMap<SigBit, Driver>,
    readers: HashMap<SigBit, usize>,
}

impl Oracle {
    fn build(m: &Module) -> Self {
        let mut raw = HashMap::new();
        for (dst, src) in m.connections() {
            for (d, s) in dst.iter().zip(src.iter()) {
                raw.insert(*d, *s);
            }
        }
        let mut alias = HashMap::new();
        for &start in raw.keys() {
            let mut cur = start;
            let mut steps = 0;
            while let Some(&next) = raw.get(&cur) {
                cur = next;
                steps += 1;
                assert!(steps <= raw.len(), "oracle: cyclic chain");
            }
            alias.insert(start, cur);
        }
        let canon = |b: SigBit| alias.get(&b).copied().unwrap_or(b);
        let mut drivers = HashMap::new();
        let mut readers: HashMap<SigBit, usize> = HashMap::new();
        for (id, cell) in m.cells() {
            let port = cell.kind.output_port();
            for (i, bit) in cell.output().iter().enumerate() {
                let offset = i as u32;
                drivers.insert(
                    canon(*bit),
                    Driver {
                        cell: id,
                        port,
                        offset,
                    },
                );
            }
        }
        for (_, cell) in m.cells() {
            for (_, spec) in cell.inputs() {
                for bit in spec.iter() {
                    *readers.entry(canon(*bit)).or_default() += 1;
                }
            }
        }
        for p in m.ports() {
            if p.dir == PortDir::Output {
                for i in 0..m.wire(p.wire).width {
                    *readers.entry(canon(SigBit::Wire(p.wire, i))).or_default() += 1;
                }
            }
        }
        Oracle {
            alias,
            drivers,
            readers,
        }
    }
}

/// Every bit of `m`: the constants, every wire bit, and one past the last
/// wire's width (a bit outside the module).
fn all_bits(m: &Module) -> Vec<SigBit> {
    let mut bits = vec![SigBit::ZERO, SigBit::ONE, SigBit::X];
    for (id, wire) in m.wires() {
        bits.extend((0..wire.width).map(|i| SigBit::Wire(id, i)));
    }
    let (last, wire) = m.wires().last().expect("a wire");
    bits.push(SigBit::Wire(last, wire.width));
    bits
}

#[test]
fn dense_index_matches_hash_map_oracle() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_7409);
    for case in 0..CASES * 4 {
        let m = random_module(&mut rng);
        let oracle = Oracle::build(&m);
        let index = NetIndex::build(&m);
        let readers = ReaderCounts::build(&m, &index);
        for bit in all_bits(&m) {
            let canon = oracle.alias.get(&bit).copied().unwrap_or(bit);
            assert_eq!(index.canon(bit), canon, "case {case}: canon of {bit:?}");
            assert_eq!(
                index.driver(bit),
                oracle.drivers.get(&bit).copied(),
                "case {case}: driver of {bit:?}"
            );
            assert_eq!(
                readers.get(&index, bit),
                oracle.readers.get(&bit).copied().unwrap_or(0),
                "case {case}: readers of {bit:?}"
            );
        }
    }
}

/// Pinning cell input bits to constants, as the mux-tree passes do,
/// leaves an index built before the pins as exact as a fresh one: the
/// same canonical bits, drivers and topological order.
#[test]
fn an_index_stays_exact_across_pinned_inputs() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_740b);
    for case in 0..CASES * 2 {
        let mut m = random_module(&mut rng);
        let before = NetIndex::build(&m);
        for id in m.cell_ids() {
            let cell = m.cell_mut(id).expect("live");
            for &port in cell.kind.input_ports() {
                let Some(spec) = cell.port_mut(port) else {
                    continue;
                };
                for bit in spec.bits_mut() {
                    if rng.gen_bool(0.3) {
                        *bit = SigBit::Const(TriVal::from_bool(rng.gen_bool(0.5)));
                    }
                }
            }
        }
        let fresh = NetIndex::build(&m);
        assert_eq!(before.bit_count(), fresh.bit_count(), "case {case}");
        for bit in all_bits(&m) {
            assert_eq!(
                before.bit_id(bit),
                fresh.bit_id(bit),
                "case {case}: id of {bit:?}"
            );
            assert_eq!(
                before.canon(bit),
                fresh.canon(bit),
                "case {case}: canon of {bit:?}"
            );
            assert_eq!(
                before.driver(bit),
                fresh.driver(bit),
                "case {case}: driver of {bit:?}"
            );
        }
        assert_eq!(
            m.topo_order_with(&before),
            m.topo_order_with(&fresh),
            "case {case}: topological order"
        );
    }
}

#[test]
fn topo_order_with_matches_topo_order_and_respects_drivers() {
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_740a);
    let mut acyclic = 0;
    for case in 0..CASES {
        let m = random_module(&mut rng);
        let order = m.topo_order_with(&NetIndex::build(&m));
        assert_eq!(m.topo_order(), order, "case {case}");
        // two cells re-driving `r` can close a combinational loop
        let Ok(order) = order else { continue };
        acyclic += 1;
        assert_eq!(order.len(), m.live_cell_count(), "case {case}");
        let oracle = Oracle::build(&m);
        let rank: HashMap<CellId, usize> = order.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        for (id, cell) in m.cells() {
            if cell.kind.is_sequential() {
                continue;
            }
            for (_, spec) in cell.inputs() {
                for bit in spec.iter() {
                    let canon = oracle.alias.get(bit).copied().unwrap_or(*bit);
                    if let Some(d) = oracle.drivers.get(&canon) {
                        if !m.cell(d.cell).unwrap().kind.is_sequential() {
                            assert!(rank[&d.cell] < rank[&id], "case {case}: driver after user");
                        }
                    }
                }
            }
        }
    }
    assert!(
        acyclic > CASES / 2,
        "only {acyclic} of {CASES} modules were acyclic"
    );
}

#[test]
#[should_panic(expected = "cyclic connection chain")]
fn cyclic_connection_chain_panics() {
    let mut m = Module::new("loop");
    let a = m.add_input("a", 1);
    let w1 = SigSpec::from_wire(m.auto_wire(1), 1);
    let w2 = SigSpec::from_wire(m.auto_wire(1), 1);
    let w3 = SigSpec::from_wire(m.auto_wire(1), 1);
    m.connect(w1.clone(), w2.clone());
    m.connect(w2, w3.clone());
    m.connect(w3, w1.clone());
    let y = m.and(&a, &w1);
    m.add_output("y", &y);
    NetIndex::build(&m);
}

/// The clone-per-child walk `walk_muxtrees` replaced: every pending node
/// holds its own copy of the path condition. Returns the pins, and each
/// `resolve` call's select and path in call order.
#[allow(clippy::type_complexity)]
fn cloning_walk(
    m: &Module,
    index: &NetIndex,
    readers: &ReaderCounts,
    resolve: impl Fn(SigBit, &PathCondition) -> Option<bool>,
) -> (Vec<Pin>, Vec<(SigBit, Vec<(SigBit, bool)>)>) {
    let is_mux = |kind| matches!(kind, CellKind::Mux | CellKind::Pmux);
    let mut pins = Vec::new();
    let mut calls = Vec::new();
    let mut stack: Vec<(CellId, PathCondition)> = muxtree_roots(m, index, readers, is_mux)
        .into_iter()
        .map(|root| (root, PathCondition::new()))
        .collect();
    while let Some((id, path)) = stack.pop() {
        let cell = m.cell(id).expect("live mux");
        let port = |p: Port| cell.port(p).expect("mux port").bits();
        for p in [Port::A, Port::B] {
            for (offset, bit) in port(p).iter().enumerate() {
                if let Some(&value) = path.get(&index.canon(*bit)) {
                    pins.push(Pin {
                        cell: id,
                        port: p,
                        offset,
                        value,
                    });
                }
            }
        }
        let mut sels = Vec::new();
        for (offset, bit) in port(Port::S).iter().enumerate() {
            let sel = index.canon(*bit);
            let value = match sel {
                SigBit::Const(v) => v.to_bool(),
                SigBit::Wire(..) => {
                    let value = path.get(&sel).copied().or_else(|| {
                        calls.push((sel, sorted_path(&path)));
                        resolve(sel, &path)
                    });
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
        let width = cell.output().width().max(1);
        let slots: Vec<&[SigBit]> = std::iter::once(port(Port::A))
            .chain(port(Port::B).chunks(width))
            .collect();
        match (cell.kind, sels.as_slice()) {
            (CellKind::Mux, &[(_, Some(live))]) => {
                let slot = port(if live { Port::B } else { Port::A });
                if let Some(child) = slot_child(m, index, readers, slot) {
                    stack.push((child, path));
                }
            }
            _ => {
                for (j, slot) in slots.into_iter().enumerate() {
                    let Some(child) = slot_child(m, index, readers, slot) else {
                        continue;
                    };
                    let fixed = if j == 0 { sels.len() } else { j };
                    let mut child_path = path.clone();
                    for (i, &(sel, _)) in sels[..fixed].iter().enumerate() {
                        if !sel.is_const() {
                            child_path.insert(sel, i + 1 == j);
                        }
                    }
                    stack.push((child, child_path));
                }
            }
        }
    }
    (pins, calls)
}

fn sorted_path(path: &PathCondition) -> Vec<(SigBit, bool)> {
    let mut pairs: Vec<(SigBit, bool)> = path.iter().map(|(&b, &v)| (b, v)).collect();
    pairs.sort_unstable();
    pairs
}

/// Adds up to three output mux trees to `m`, up to four levels deep, of
/// `mux` and `pmux` nodes whose selects come from a few of the module's
/// bits (so paths repeat and decide selects) and whose leaves are module
/// bits (select bits among them, for data-port pins).
fn graft_mux_trees(rng: &mut StdRng, m: &mut Module) {
    fn tree(
        rng: &mut StdRng,
        m: &mut Module,
        sels: &[SigBit],
        pool: &[SigBit],
        w: u32,
        depth: u32,
    ) -> SigSpec {
        let pick = |rng: &mut StdRng, from: &[SigBit]| from[rng.gen_range(0..from.len())];
        if depth == 0 || rng.gen_bool(0.25) {
            return (0..w)
                .map(|_| match rng.gen_range(0..3) {
                    0 => pick(rng, sels),
                    _ => pick(rng, pool),
                })
                .collect();
        }
        if rng.gen_bool(0.7) {
            let a = tree(rng, m, sels, pool, w, depth - 1);
            let b = tree(rng, m, sels, pool, w, depth - 1);
            let s = SigSpec::from_bit(pick(rng, sels));
            m.mux(&a, &b, &s)
        } else {
            let n = rng.gen_range(1..=3);
            let default = tree(rng, m, sels, pool, w, depth - 1);
            let words: Vec<SigSpec> = (0..n)
                .map(|_| tree(rng, m, sels, pool, w, depth - 1))
                .collect();
            let s: SigSpec = (0..n).map(|_| pick(rng, sels)).collect();
            m.pmux(&default, &words, &s)
        }
    }
    let mut pool = all_bits(m);
    pool.pop(); // the bit outside the module
    let sels: Vec<SigBit> = (0..rng.gen_range(2..=4))
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect();
    for t in 0..rng.gen_range(1..=3) {
        let w = rng.gen_range(1..=2);
        let root = tree(rng, m, &sels, &pool, w, 4);
        m.add_output(&format!("t{t}"), &root);
    }
}

/// `walk_muxtrees` edits one path condition and restores it from a trail;
/// on random modules it must find the pins of a walk that clones the path
/// for every child, and make the same `resolve` calls in the same order
/// with the same paths. The resolver answers some calls from a hash of
/// the select and path, so decided selects steer both walks alike.
#[test]
fn the_trail_walk_matches_a_cloning_walk() {
    let answer = |sel: SigBit, path: &PathCondition| {
        let mut h = DefaultHasher::new();
        (sel, sorted_path(path)).hash(&mut h);
        match h.finish() % 3 {
            0 => None,
            k => Some(k == 1),
        }
    };
    let mut rng = StdRng::seed_from_u64(0x6e65_746c_6973_740c);
    let mut nested = 0;
    for case in 0..CASES * 4 {
        let mut m = random_module(&mut rng);
        graft_mux_trees(&mut rng, &mut m);
        let index = NetIndex::build(&m);
        let readers = ReaderCounts::build(&m, &index);
        let mut calls = Vec::new();
        let pins = walk_muxtrees(&m, &index, &readers, |sel, path| {
            calls.push((sel, sorted_path(path)));
            answer(sel, path)
        });
        let (want_pins, want_calls) = cloning_walk(&m, &index, &readers, answer);
        assert_eq!(pins, want_pins, "case {case}: pins");
        assert_eq!(calls, want_calls, "case {case}: resolve calls");
        nested += calls.iter().filter(|(_, path)| !path.is_empty()).count();
    }
    assert!(nested > CASES, "too few resolve calls had a path condition");
}
