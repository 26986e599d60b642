//! Dead-cell sweeping (`opt_clean`).

use smartly_netlist::{CellId, CellKind, Module, NetIndex, PortDir, SigBit};

/// Options for [`opt_clean`].
#[derive(Copy, Clone, Debug)]
pub struct CleanOptions {
    /// Keep flip-flops even when their `Q` is unread.
    ///
    /// Defaults to `true` so that original/optimized netlists keep
    /// pairwise-matchable flip-flops for equivalence checking; the area
    /// metric excludes them either way.
    pub keep_dffs: bool,
}

impl Default for CleanOptions {
    fn default() -> Self {
        CleanOptions { keep_dffs: true }
    }
}

/// Removes cells not backward-reachable from any module output.
///
/// Mark-and-sweep: roots are the drivers of output-port bits (plus every
/// flip-flop when [`CleanOptions::keep_dffs`] is set); anything a live
/// cell reads is live. Whole dead cones disappear in one call — this is
/// the paper's `RemoveUnusedCell()` step from Algorithm 1.
pub fn opt_clean(module: &mut Module, options: &CleanOptions) -> usize {
    let index = NetIndex::build(module);
    let ids = module.cell_ids();
    // liveness by cell id: ids are slot indices, so the last live id
    // bounds them all
    let mut live = vec![false; ids.last().map_or(0, |id| id.index() + 1)];
    let mut stack: Vec<CellId> = Vec::new();

    let mark_driver = |bit: SigBit, stack: &mut Vec<CellId>| {
        if let Some(drv) = index.driver(index.canon(bit)) {
            stack.push(drv.cell);
        }
    };

    // roots: output ports
    for p in module.ports() {
        if p.dir == PortDir::Output {
            let w = module.wire(p.wire).width;
            for i in 0..w {
                mark_driver(SigBit::Wire(p.wire, i), &mut stack);
            }
        }
    }
    // roots: flip-flops (kept alive by default)
    if options.keep_dffs {
        for (id, cell) in module.cells() {
            if cell.kind == CellKind::Dff {
                stack.push(id);
            }
        }
    }

    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id.index()], true) {
            continue;
        }
        let cell = module.cell(id).expect("live cell");
        for (_, spec) in cell.inputs() {
            for bit in spec.iter() {
                if let Some(drv) = index.driver(index.canon(*bit)) {
                    if !live[drv.cell.index()] {
                        stack.push(drv.cell);
                    }
                }
            }
        }
    }

    let mut removed = 0usize;
    for id in ids {
        if !live[id.index()] {
            module.remove_cell(id);
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::Module;

    #[test]
    fn removes_dead_cone() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let live = m.and(&a, &b);
        m.add_output("y", &live);
        // dead cone: three chained cells nobody reads
        let d1 = m.or(&a, &b);
        let d2 = m.xor(&d1, &b);
        let _d3 = m.not(&d2);
        assert_eq!(m.live_cell_count(), 4);
        let removed = opt_clean(&mut m, &CleanOptions::default());
        assert_eq!(removed, 3);
        assert_eq!(m.live_cell_count(), 1);
        m.validate().unwrap();
    }

    #[test]
    fn keeps_live_through_connections() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let y = m.not(&a);
        let w = m.auto_wire(4);
        let ws = smartly_netlist::SigSpec::from_wire(w, 4);
        m.connect(ws.clone(), y);
        m.add_output("out", &ws);
        assert_eq!(opt_clean(&mut m, &CleanOptions::default()), 0);
        assert_eq!(m.live_cell_count(), 1);
    }

    #[test]
    fn dffs_kept_by_default_swept_on_request() {
        let mut m = Module::new("t");
        let clk = m.add_input("clk", 1);
        let d = m.add_input("d", 4);
        let _q = m.dff(&clk, &d); // unread
        assert_eq!(opt_clean(&mut m, &CleanOptions::default()), 0);
        assert_eq!(m.live_cell_count(), 1);
        let removed = opt_clean(&mut m, &CleanOptions { keep_dffs: false });
        assert_eq!(removed, 1);
        assert_eq!(m.live_cell_count(), 0);
    }

    #[test]
    fn partial_use_keeps_cell() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let y = m.not(&a); // 4-bit result, only bit 0 used
        m.add_output("out", &y.slice(0, 1));
        assert_eq!(opt_clean(&mut m, &CleanOptions::default()), 0);
        assert_eq!(m.live_cell_count(), 1);
    }

    #[test]
    fn logic_feeding_only_kept_dff_stays_live() {
        let mut m = Module::new("t");
        let clk = m.add_input("clk", 1);
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let d = m.and(&a, &b);
        let _q = m.dff(&clk, &d); // Q unread, but dff kept ⇒ AND stays
        assert_eq!(opt_clean(&mut m, &CleanOptions::default()), 0);
        assert_eq!(m.live_cell_count(), 2);
    }
}
