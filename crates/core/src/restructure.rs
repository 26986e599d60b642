//! Muxtree restructuring (paper §III, Algorithm 1).
//!
//! `case` statements elaborate into chains (or trees) of `mux` cells whose
//! selects are `eq`-against-constant comparisons of a *single* control
//! bus. This pass
//!
//! 1. finds such trees (`OnlyEq` ∧ `SingleCtrl`), where a `mux` belongs to
//!    its parent's tree by the membership rule every mux-tree pass shares
//!    ([`smartly_opt::slot_child`]),
//! 2. collects the priority `pattern → leaf` rules into a complete
//!    function table over the control bits,
//! 3. builds an ADD with the greedy terminal-minimizing bit order
//!    ([`smartly_add::Add::build_greedy`]),
//! 4. applies the `Check(...)` cost gate — removable `eq` comparators,
//!    mux-count delta weighted by data width, rebuilt height — and
//! 5. re-emits one mux per ADD node, selected by *raw control bits*, so
//!    the `eq` cells disconnect and die in `opt_clean` (paper Fig. 7).

use smartly_add::{Add, AddRef, FunctionTable};
use smartly_netlist::{CellId, CellKind, Module, NetIndex, Port, SigBit, SigSpec, TriVal};
use smartly_opt::{muxtree_roots, slot_child};
use std::collections::{HashMap, HashSet};

/// Minimum estimated AIG-area saving required to rebuild.
const MIN_SAVING: i64 = 1;

/// Configuration for [`restructure`].
#[derive(Copy, Clone, Debug)]
pub struct RestructureOptions {
    /// Maximum distinct control bits per tree (table is `2^width`).
    pub max_ctrl_width: u32,
}

impl Default for RestructureOptions {
    fn default() -> Self {
        RestructureOptions { max_ctrl_width: 14 }
    }
}

/// Telemetry from one [`restructure`] sweep.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RestructureStats {
    /// Candidate trees satisfying `OnlyEq` ∧ `SingleCtrl`.
    pub candidates: usize,
    /// Trees actually rebuilt (passed `Check`).
    pub rebuilt: usize,
    /// Mux cells removed across all rebuilds.
    pub muxes_removed: usize,
    /// Mux cells emitted by the rebuilds.
    pub muxes_added: usize,
    /// `eq`-family comparators disconnected (swept by `opt_clean`).
    pub eqs_freed: usize,
}

/// One select condition expressed as a cube over the control universe.
#[derive(Clone, Debug)]
struct Cube {
    /// `(universe index, required value)` pairs.
    lits: Vec<(usize, bool)>,
}

impl Cube {
    fn matches(&self, idx: usize) -> bool {
        self.lits
            .iter()
            .all(|&(bit, v)| ((idx >> bit) & 1 == 1) == v)
    }
}

enum Tree {
    Leaf(SigSpec),
    Node {
        #[allow(dead_code)]
        cell: CellId,
        cube: Cube,
        then_branch: Box<Tree>,
        else_branch: Box<Tree>,
    },
}

struct Collected {
    tree: Tree,
    universe: Vec<SigBit>,
    mux_cells: Vec<CellId>,
    sel_cells: Vec<CellId>,
    width: usize,
    /// cost of the existing structure in 2-to-1 mux equivalents (a
    /// `pmux` over n selects counts as n)
    old_mux_units: usize,
}

/// Rebuilds every profitable `case`-shaped muxtree; returns telemetry.
///
/// Follow with [`smartly_opt::clean_pipeline`] to sweep the freed `eq`
/// cells (Algorithm 1's `RemoveUnusedCell`).
pub fn restructure(module: &mut Module, options: &RestructureOptions) -> RestructureStats {
    let mut stats = RestructureStats::default();
    let index = NetIndex::build(module);

    let roots = muxtree_roots(module, &index, |kind| kind == CellKind::Mux);

    // pmux cells are single-level candidates of their own
    let pmux_roots: Vec<CellId> = module
        .cells()
        .filter(|(_, c)| c.kind == CellKind::Pmux)
        .map(|(id, _)| id)
        .collect();

    let mut consumed: HashSet<CellId> = HashSet::new();
    for (root, is_pmux) in roots
        .into_iter()
        .map(|r| (r, false))
        .chain(pmux_roots.into_iter().map(|r| (r, true)))
    {
        if consumed.contains(&root) {
            continue;
        }
        let collected = if is_pmux {
            collect_pmux(module, &index, root, options)
        } else {
            collect_tree(module, &index, root, options)
        };
        let Some(collected) = collected else {
            continue;
        };
        if collected.old_mux_units < 2 {
            continue; // single mux: nothing to restructure
        }
        stats.candidates += 1;

        // leaves → terminal ids, then the function table
        let mut leaves: Vec<SigSpec> = Vec::new();
        let width_bits = collected.universe.len() as u32;
        let mut table = FunctionTable::new_filled(width_bits, 0);
        fill_table(
            &collected.tree,
            &mut leaves,
            &mut table,
            &all_indices(width_bits),
        );
        let add = Add::build_greedy(&table);

        // ----- Check(...) -----
        let old_muxes = collected.old_mux_units;
        let new_muxes = add.node_count();
        // eq cells whose entire fanout lies inside this tree are freed
        let removable: Vec<CellId> = collected
            .sel_cells
            .iter()
            .copied()
            .filter(|&sc| {
                let cell = module.cell(sc).expect("live select cell");
                cell.output().iter().all(|b| {
                    index
                        .fanout(index.canon(*b))
                        .iter()
                        .all(|s| match &s.consumer {
                            smartly_netlist::Consumer::Cell(c) => collected.mux_cells.contains(c),
                            smartly_netlist::Consumer::Output(_) => false,
                        })
                })
            })
            .collect();
        // AIG-area cost model: mux ≈ 3 ANDs per data bit; an eq against a
        // constant folds its per-bit xnors away and costs only the k-1
        // ANDs of the reduction tree
        let eq_gain: i64 = removable
            .iter()
            .map(|&sc| {
                let cell = module.cell(sc).expect("live");
                let k = cell.port(Port::A).map(|s| s.width()).unwrap_or(1) as i64;
                (k - 1).max(1)
            })
            .sum();
        let mux_gain = (old_muxes as i64 - new_muxes as i64) * 3 * collected.width as i64;
        let saving = eq_gain + mux_gain;
        // refuse rebuilds whose ADD is deeper than the original chain
        let height_ok = add.depth() <= old_muxes.max(add.width() as usize);
        if saving < MIN_SAVING || !height_ok {
            continue;
        }

        // ----- Rebuild -----
        let new_out = emit(module, &add, &collected.universe, &leaves);
        let root_out = module.cell(root).expect("live root").output().clone();
        for &id in &collected.mux_cells {
            module.remove_cell(id);
            consumed.insert(id);
        }
        module.connect(root_out, new_out);

        stats.rebuilt += 1;
        stats.muxes_removed += old_muxes;
        stats.muxes_added += new_muxes;
        stats.eqs_freed += removable.len();
    }
    stats
}

fn all_indices(width: u32) -> Vec<usize> {
    (0..(1usize << width)).collect()
}

/// Recursively fills the function table from the decision tree.
fn fill_table(
    tree: &Tree,
    leaves: &mut Vec<SigSpec>,
    table: &mut FunctionTable,
    indices: &[usize],
) {
    match tree {
        Tree::Leaf(spec) => {
            let id = match leaves.iter().position(|l| l == spec) {
                Some(i) => i as u32,
                None => {
                    leaves.push(spec.clone());
                    (leaves.len() - 1) as u32
                }
            };
            for &i in indices {
                table.set(i, id);
            }
        }
        Tree::Node {
            cube,
            then_branch,
            else_branch,
            ..
        } => {
            let (hit, miss): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| cube.matches(i));
            fill_table(then_branch, leaves, table, &hit);
            fill_table(else_branch, leaves, table, &miss);
        }
    }
}

/// Emits the rebuilt muxtree; returns the new output spec.
fn emit(module: &mut Module, add: &Add, universe: &[SigBit], leaves: &[SigSpec]) -> SigSpec {
    let mut memo: HashMap<AddRef, SigSpec> = HashMap::new();
    fn walk(
        module: &mut Module,
        add: &Add,
        universe: &[SigBit],
        leaves: &[SigSpec],
        r: AddRef,
        memo: &mut HashMap<AddRef, SigSpec>,
    ) -> SigSpec {
        if let Some(s) = memo.get(&r) {
            return s.clone();
        }
        let out = match r {
            AddRef::Terminal(t) => leaves[t as usize].clone(),
            AddRef::Node(i) => {
                let node = add.node(i);
                let lo = walk(module, add, universe, leaves, node.lo, memo);
                let hi = walk(module, add, universe, leaves, node.hi, memo);
                let sel = SigSpec::from_bit(universe[node.var as usize]);
                module.mux(&lo, &hi, &sel)
            }
        };
        memo.insert(r, out.clone());
        out
    }
    walk(module, add, universe, leaves, add.root(), &mut memo)
}

fn intern(universe: &mut Vec<SigBit>, bit: SigBit, cap: u32) -> Option<usize> {
    if let Some(i) = universe.iter().position(|&b| b == bit) {
        return Some(i);
    }
    if universe.len() as u32 >= cap {
        return None;
    }
    universe.push(bit);
    Some(universe.len() - 1)
}

/// Decodes a select signal into a cube: an `eq(bus, const)` cell, a
/// `logic_not`/`not` (= eq 0), or a raw control bit.
fn select_cube(
    module: &Module,
    index: &NetIndex,
    sel_bit: SigBit,
    universe: &mut Vec<SigBit>,
    sel_cells: &mut Vec<CellId>,
    cap: u32,
) -> Option<Cube> {
    let canon = index.canon(sel_bit);
    let driver = match index.driver(canon) {
        None => {
            // raw control bit
            let i = intern(universe, canon, cap)?;
            return Some(Cube {
                lits: vec![(i, true)],
            });
        }
        Some(d) => d,
    };
    let cell = module.cell(driver.cell)?;
    match cell.kind {
        CellKind::Eq => {
            let a = cell.port(Port::A)?;
            let b = cell.port(Port::B)?;
            // one side constant, other side control bits
            let (konst, bus) = if a.is_fully_const() {
                (a, b)
            } else if b.is_fully_const() {
                (b, a)
            } else {
                return None;
            };
            let mut lits = Vec::new();
            for (kb, sb) in konst.iter().zip(bus.iter()) {
                let want = match kb {
                    SigBit::Const(TriVal::One) => true,
                    SigBit::Const(TriVal::Zero) => false,
                    _ => return None,
                };
                let cb = index.canon(*sb);
                match cb {
                    SigBit::Const(TriVal::One) => {
                        if !want {
                            return Some(Cube {
                                lits: vec![(usize::MAX, true)],
                            }); // never matches; handled by caller
                        }
                    }
                    SigBit::Const(TriVal::Zero) => {
                        if want {
                            return Some(Cube {
                                lits: vec![(usize::MAX, true)],
                            });
                        }
                    }
                    SigBit::Const(TriVal::X) => return None,
                    _ => {
                        let i = intern(universe, cb, cap)?;
                        lits.push((i, want));
                    }
                }
            }
            sel_cells.push(driver.cell);
            Some(Cube { lits })
        }
        CellKind::LogicNot | CellKind::Not if cell.port(Port::A)?.width() == 1 => {
            let a = index.canon(cell.port(Port::A)?.bit(0));
            if a.is_const() {
                return None;
            }
            let i = intern(universe, a, cap)?;
            sel_cells.push(driver.cell);
            Some(Cube {
                lits: vec![(i, false)],
            })
        }
        _ => {
            // raw (non-eq) 1-bit signal: usable as its own control bit,
            // but it is not an eq cell so SingleCtrl over a bus fails
            // only when the universe cap is hit
            let i = intern(universe, canon, cap)?;
            Some(Cube {
                lits: vec![(i, true)],
            })
        }
    }
}

/// Walks a mux chain/tree, checking `OnlyEq` and `SingleCtrl`, and
/// collecting cubes over a shared control-bit universe.
fn collect_tree(
    module: &Module,
    index: &NetIndex,
    root: CellId,
    options: &RestructureOptions,
) -> Option<Collected> {
    let mut universe: Vec<SigBit> = Vec::new();
    let mut mux_cells: Vec<CellId> = Vec::new();
    let mut sel_cells: Vec<CellId> = Vec::new();
    let width = module.cell(root)?.output().width();

    // a child is followed only when it is a mux its slot owns
    let mux_child = |spec: &SigSpec| -> Option<CellId> {
        slot_child(module, index, spec.bits())
            .filter(|&c| module.cell(c).is_some_and(|c| c.kind == CellKind::Mux))
    };

    #[allow(clippy::too_many_arguments)]
    fn walk(
        module: &Module,
        index: &NetIndex,
        id: CellId,
        universe: &mut Vec<SigBit>,
        mux_cells: &mut Vec<CellId>,
        sel_cells: &mut Vec<CellId>,
        mux_child: &dyn Fn(&SigSpec) -> Option<CellId>,
        cap: u32,
        depth: usize,
    ) -> Option<Tree> {
        if depth > 64 {
            return None;
        }
        let cell = module.cell(id)?;
        let s_spec = cell.port(Port::S)?;
        let cube = select_cube(module, index, s_spec.bit(0), universe, sel_cells, cap)?;
        if cube.lits.iter().any(|&(i, _)| i == usize::MAX) {
            return None; // contradictory eq: leave to opt_const
        }
        mux_cells.push(id);
        let a_spec = cell.port(Port::A)?.clone();
        let b_spec = cell.port(Port::B)?.clone();
        let then_branch = match mux_child(&b_spec) {
            Some(child) => walk(
                module,
                index,
                child,
                universe,
                mux_cells,
                sel_cells,
                mux_child,
                cap,
                depth + 1,
            )?,
            None => Tree::Leaf(canon_spec(index, &b_spec)),
        };
        let else_branch = match mux_child(&a_spec) {
            Some(child) => walk(
                module,
                index,
                child,
                universe,
                mux_cells,
                sel_cells,
                mux_child,
                cap,
                depth + 1,
            )?,
            None => Tree::Leaf(canon_spec(index, &a_spec)),
        };
        Some(Tree::Node {
            cell: id,
            cube,
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        })
    }

    let tree = walk(
        module,
        index,
        root,
        &mut universe,
        &mut mux_cells,
        &mut sel_cells,
        &mux_child,
        options.max_ctrl_width,
        0,
    )?;
    sel_cells.sort_unstable();
    sel_cells.dedup();
    let old_mux_units = mux_cells.len();
    Some(Collected {
        tree,
        universe,
        mux_cells,
        sel_cells,
        width,
        old_mux_units,
    })
}

/// Collects a single `pmux` cell as a restructuring candidate: each
/// select bit must decode to a cube over one control universe; the
/// priority semantics (lowest set select wins, default on none) become a
/// nested decision tree.
fn collect_pmux(
    module: &Module,
    index: &NetIndex,
    id: CellId,
    options: &RestructureOptions,
) -> Option<Collected> {
    let cell = module.cell(id)?;
    let s_spec = cell.port(Port::S)?.clone();
    let a_spec = cell.port(Port::A)?.clone();
    let b_spec = cell.port(Port::B)?.clone();
    let w = cell.output().width();
    let n = s_spec.width();

    let mut universe: Vec<SigBit> = Vec::new();
    let mut sel_cells: Vec<CellId> = Vec::new();
    // priority lowest-index-first: s0 ? w0 : (s1 ? w1 : ... : default)
    let mut tree = Tree::Leaf(canon_spec(index, &a_spec));
    for i in (0..n).rev() {
        let cube = select_cube(
            module,
            index,
            s_spec.bit(i),
            &mut universe,
            &mut sel_cells,
            options.max_ctrl_width,
        )?;
        if cube.lits.iter().any(|&(k, _)| k == usize::MAX) {
            return None; // contradictory eq: opt_const's job
        }
        let word = canon_spec(index, &b_spec.slice(i * w, w));
        tree = Tree::Node {
            cell: id,
            cube,
            then_branch: Box::new(Tree::Leaf(word)),
            else_branch: Box::new(tree),
        };
    }
    sel_cells.sort_unstable();
    sel_cells.dedup();
    Some(Collected {
        tree,
        universe,
        mux_cells: vec![id],
        sel_cells,
        width: w,
        old_mux_units: n,
    })
}

fn canon_spec(index: &NetIndex, spec: &SigSpec) -> SigSpec {
    spec.iter().map(|b| index.canon(*b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_opt::clean_pipeline;

    /// Builds the paper's Listing 1 netlist shape: a chain of 3 eq + 3 mux.
    fn listing1() -> Module {
        let mut m = Module::new("listing1");
        let s = m.add_input("s", 2);
        let p: Vec<SigSpec> = (0..4).map(|i| m.add_input(&format!("p{i}"), 8)).collect();
        let e0 = m.eq(&s, &SigSpec::const_u64(0, 2));
        let e1 = m.eq(&s, &SigSpec::const_u64(1, 2));
        let e2 = m.eq(&s, &SigSpec::const_u64(2, 2));
        // priority chain: e0 ? p0 : (e1 ? p1 : (e2 ? p2 : p3))
        let m2 = m.mux(&p[3], &p[2], &e2);
        let m1 = m.mux(&m2, &p[1], &e1);
        let m0 = m.mux(&m1, &p[0], &e0);
        m.add_output("y", &m0);
        m
    }

    /// Paper Figs. 5–7: the chain keeps 3 muxes but drops all eq cells.
    #[test]
    fn listing1_three_mux_no_eq() {
        let mut m = listing1();
        assert_eq!(m.stats().count("eq"), 3);
        assert_eq!(m.stats().count("mux"), 3);
        let stats = restructure(&mut m, &RestructureOptions::default());
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(stats.muxes_added, 3, "paper Fig. 7: exactly 3 muxes");
        assert_eq!(stats.eqs_freed, 3);
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("eq"), 0, "eq cells disconnected and swept");
        assert_eq!(m.stats().count("mux"), 3);
        m.validate().unwrap();
    }

    /// Listing 2 (casez priority): greedy order gives 3 muxes, not 7.
    #[test]
    fn listing2_priority_order() {
        let mut m = Module::new("listing2");
        let s = m.add_input("s", 3);
        let p: Vec<SigSpec> = (0..4).map(|i| m.add_input(&format!("p{i}"), 4)).collect();
        // casez arms compare only the non-wildcard bits
        let e0 = m.eq(&s.slice(2, 1), &SigSpec::const_u64(1, 1)); // 1zz
        let e1 = m.eq(&s.slice(1, 2), &SigSpec::const_u64(0b01, 2)); // 01z
        let e2 = m.eq(&s, &SigSpec::const_u64(0b001, 3)); // 001
        let m2 = m.mux(&p[3], &p[2], &e2);
        let m1 = m.mux(&m2, &p[1], &e1);
        let m0 = m.mux(&m1, &p[0], &e0);
        m.add_output("y", &m0);
        let stats = restructure(&mut m, &RestructureOptions::default());
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(stats.muxes_added, 3, "good assignment needs 3 MUXes");
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("eq"), 0);
        m.validate().unwrap();
    }

    /// An eq shared with external logic is not counted as freed and the
    /// rebuild decision accounts for that.
    #[test]
    fn externally_shared_eq_not_freed() {
        let mut m = listing1();
        // share e0 with an extra output
        let e0_cell = m
            .cells()
            .find(|(_, c)| c.kind == CellKind::Eq)
            .map(|(id, _)| id)
            .unwrap();
        let e0_out = m.cell(e0_cell).unwrap().output().clone();
        m.add_output("dbg", &e0_out);
        let stats = restructure(&mut m, &RestructureOptions::default());
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(stats.eqs_freed, 2, "the shared eq survives");
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("eq"), 1);
        m.validate().unwrap();
    }

    /// Trees with non-eq selects that exceed no cap still restructure via
    /// raw control bits (if-chains over single bits).
    #[test]
    fn raw_bit_selects_work() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 2);
        let p: Vec<SigSpec> = (0..3).map(|i| m.add_input(&format!("p{i}"), 4)).collect();
        let s0 = s.slice(0, 1);
        let s1 = s.slice(1, 1);
        // y = s0 ? p0 : (s1 ? p1 : p2)  — already optimal; Check refuses
        let inner = m.mux(&p[2], &p[1], &s1);
        let outer = m.mux(&inner, &p[0], &s0);
        m.add_output("y", &outer);
        let stats = restructure(&mut m, &RestructureOptions::default());
        // candidate recognized, but no saving ⇒ not rebuilt
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.rebuilt, 0);
        assert_eq!(m.stats().count("mux"), 2);
    }

    /// A wide control bus beyond the cap is skipped.
    #[test]
    fn cap_respected() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 20);
        let p: Vec<SigSpec> = (0..3).map(|i| m.add_input(&format!("p{i}"), 2)).collect();
        let e0 = m.eq(&s, &SigSpec::const_u64(0, 20));
        let e1 = m.eq(&s, &SigSpec::const_u64(1, 20));
        let inner = m.mux(&p[2], &p[1], &e1);
        let outer = m.mux(&inner, &p[0], &e0);
        m.add_output("y", &outer);
        let opts = RestructureOptions { max_ctrl_width: 8 };
        let stats = restructure(&mut m, &opts);
        assert_eq!(stats.candidates, 0);
        assert_eq!(stats.rebuilt, 0);
    }

    /// A pmux whose selects are eq cells over one bus restructures too
    /// (the extension that makes the Pmux case-lowering flow benefit).
    #[test]
    fn pmux_candidate_rebuilds() {
        let mut m = Module::new("pm");
        let s = m.add_input("s", 2);
        let p: Vec<SigSpec> = (0..4).map(|i| m.add_input(&format!("p{i}"), 8)).collect();
        let e0 = m.eq(&s, &SigSpec::const_u64(0, 2));
        let e1 = m.eq(&s, &SigSpec::const_u64(1, 2));
        let e2 = m.eq(&s, &SigSpec::const_u64(2, 2));
        let mut sels = e0.clone();
        sels.concat(&e1);
        sels.concat(&e2);
        let y = m.pmux(&p[3], &[p[0].clone(), p[1].clone(), p[2].clone()], &sels);
        m.add_output("y", &y);
        let stats = restructure(&mut m, &RestructureOptions::default());
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(stats.muxes_added, 3, "same optimum as the chain form");
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("pmux"), 0);
        assert_eq!(m.stats().count("eq"), 0);
        assert_eq!(m.stats().count("mux"), 3);
        m.validate().unwrap();
    }

    /// Functional equivalence of a pmux rebuild, checked by simulation.
    #[test]
    fn pmux_rebuild_preserves_function() {
        let build = |restructured: bool| -> Module {
            let mut m = Module::new("pm");
            let s = m.add_input("s", 2);
            let p: Vec<SigSpec> = (0..4).map(|i| m.add_input(&format!("p{i}"), 4)).collect();
            let e0 = m.eq(&s, &SigSpec::const_u64(0, 2));
            let e1 = m.eq(&s, &SigSpec::const_u64(1, 2));
            let e2 = m.eq(&s, &SigSpec::const_u64(3, 2));
            let mut sels = e0.clone();
            sels.concat(&e1);
            sels.concat(&e2);
            let y = m.pmux(&p[3], &[p[0].clone(), p[1].clone(), p[2].clone()], &sels);
            m.add_output("y", &y);
            if restructured {
                restructure(&mut m, &RestructureOptions::default());
                clean_pipeline(&mut m);
            }
            m
        };
        let orig = build(false);
        let opt = build(true);
        let r = smartly_aig::check_equiv(&orig, &opt, &smartly_aig::EquivOptions::default())
            .expect("cec runs");
        assert_eq!(r, smartly_aig::EquivResult::Equivalent);
    }

    /// Shared duplicate eq cells across arms still collect correctly.
    #[test]
    fn merged_eq_cells_shared_in_tree() {
        let mut m = Module::new("t");
        let s = m.add_input("s", 2);
        let p: Vec<SigSpec> = (0..3).map(|i| m.add_input(&format!("p{i}"), 8)).collect();
        let e0 = m.eq(&s, &SigSpec::const_u64(0, 2));
        // same eq feeds two muxes (post-opt_merge shape)
        let inner = m.mux(&p[2], &p[1], &e0);
        let outer = m.mux(&inner, &p[0], &e0);
        m.add_output("y", &outer);
        let stats = restructure(&mut m, &RestructureOptions::default());
        assert_eq!(stats.candidates, 1);
        // rebuild happens (eq freed outweighs the mux delta)
        assert_eq!(stats.rebuilt, 1);
        clean_pipeline(&mut m);
        assert_eq!(m.stats().count("eq"), 0);
        m.validate().unwrap();
    }
}
