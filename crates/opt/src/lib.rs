//! Baseline netlist optimization passes.
//!
//! These are the re-implementations of the Yosys machinery the paper
//! compares against and builds on:
//!
//! * [`opt_muxtree`] — the *baseline*: traverses multiplexer trees
//!   monitoring visited control ports and eliminates never-active branches
//!   when a select is decided by an **identical** ancestor signal (paper
//!   Figs. 1–2). The walk itself is [`walk_muxtrees`]; smaRTLy's SAT pass
//!   runs the same walk with a stronger resolver, one that proves a
//!   select constant under the path condition.
//! * [`opt_const`] — constant folding / pass-through collapsing (the
//!   `opt_expr` analogue); it is what actually deletes a mux once a pass
//!   pins its select.
//! * [`opt_clean`] — dead-cell sweeping (`RemoveUnusedCell` in the paper's
//!   Algorithm 1).
//! * [`opt_merge`] — word-level structural sharing of identical cells.
//!
//! [`clean_pipeline`] chains const folding and sweeping to their joint
//! fixpoint — every optimization pass in the workspace ends with it —
//! and [`baseline_optimize`] repeats muxtree, merge and cleanup until
//! none of them changes anything. [`Settled`] carries what is known
//! about a module between passes, so a pass that provably changes
//! nothing is skipped instead of run to find that out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clean;
mod const_fold;
mod merge;
mod muxtree;

pub use clean::{opt_clean, CleanOptions};
pub use const_fold::opt_const;
pub use merge::opt_merge;
pub use muxtree::{
    apply_pins, muxtree_roots, opt_muxtree, slot_child, walk_muxtrees, PathCondition, Pin,
};

use smartly_netlist::{Module, NetIndex};

/// Runs `opt_const` + `opt_clean` to their joint fixpoint and returns
/// the total number of changes.
///
/// This is the cleanup tail shared by the baseline and the smaRTLy passes;
/// flip-flops are preserved (see [`CleanOptions::keep_dffs`]) so that
/// equivalence checking can match them pairwise.
///
/// Each sweep builds one [`NetIndex`]. The const half folds over it and
/// records, for each output bit of a cell it replaced, the bit that now
/// carries the value. The clean half reuses the index and follows those
/// records before it looks up a driver, so it removes exactly the cells
/// [`opt_clean`] over a fresh index would. Within the const half only
/// the folds to constants are visible, as in [`opt_const`].
///
/// The loop stops after a sweep in which `opt_const` folds nothing.
/// `opt_clean` only deletes cells that nothing live reads, so the next
/// `opt_const` would see the same live cells with the same inputs and
/// fold nothing, and `opt_clean` is idempotent. (When a combinational
/// cycle keeps `opt_const` from sweeping, the loop also runs until
/// `opt_clean` deletes nothing, since a deletion can break the cycle.)
/// It needs no iteration cap: every productive sweep deletes a cell,
/// turns an `eq`/`ne` into a `not`, or narrows a `pmux`, and neither
/// pass creates `eq`, `ne` or `pmux` cells. So a second call right after
/// the first returns 0: the module is at [`Settled::Clean`].
pub fn clean_pipeline(module: &mut Module) -> usize {
    let mut total = 0;
    let mut forward = Vec::new();
    loop {
        let index = NetIndex::build(module);
        let folded = const_fold::sweep(module, &index, &mut forward);
        let removed = clean::sweep(module, &index, &forward, &CleanOptions::default());
        total += folded.unwrap_or(0) + removed;
        let done = match folded {
            Some(n) => n == 0,
            None => removed == 0,
        };
        if done {
            return total;
        }
    }
}

/// What is known about a module between passes. Each state implies the
/// one before it, and a pass that mutates the module resets it to
/// `Unknown`; `opt_muxtree`, `opt_merge`, `restructure` and the SAT pass
/// mutate nothing when they report no change.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Settled {
    /// Nothing is known: a fresh module, or one a pass just rewrote.
    #[default]
    Unknown,
    /// At the cleanup fixpoint: [`clean_pipeline`] would change nothing.
    Clean,
    /// Also at the baseline fixpoint: [`baseline_optimize`] would change
    /// nothing.
    Baseline,
}

/// Runs the full Yosys-style baseline: `opt_muxtree` and `opt_merge`,
/// each round followed by the cleanup fixpoint, until a round in which
/// muxtree and merge change nothing. Returns the number of muxtree
/// rewrites.
///
/// Each round builds one [`NetIndex`]: muxtree walks it, and since its
/// pins rewrite only cell input bits ([`apply_pins`]), merge keys the
/// cells on the same index. Merge still takes its topological order
/// after the pins, because the order picks each duplicate's survivor.
///
/// `settled` is what is known about the module on entry, and is updated
/// to what is known on return. At [`Settled::Baseline`] the call returns
/// 0 without running a pass. At [`Settled::Clean`] the cleanup after a
/// round that changed nothing is skipped, since it would return 0. On
/// return the module is at least `Clean`. It is at `Baseline` unless the
/// last round's cleanup changed a module that was not clean on entry:
/// muxtree and merge have not seen what that cleanup left.
pub fn baseline_optimize(module: &mut Module, settled: &mut Settled) -> usize {
    let mut total = 0;
    while *settled != Settled::Baseline {
        let index = NetIndex::build(module);
        let rewrites = muxtree::sweep(module, &index);
        let merged = merge::sweep(module, &index);
        total += rewrites;
        if rewrites + merged > 0 {
            clean_pipeline(module);
            *settled = Settled::Clean;
            continue;
        }
        if *settled == Settled::Unknown && clean_pipeline(module) > 0 {
            *settled = Settled::Clean;
            break;
        }
        *settled = Settled::Baseline;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::{CellKind, SigSpec};

    /// Each mux `y_i = s_i ? x : y_(i-1)` (with `y_(-1) = x`) has equal
    /// branches only once the previous fold's alias is visible, and a
    /// non-constant alias shows only in the next sweep's index: the chain
    /// takes one sweep per mux, more than any fixed cap of 8. With
    /// `const_lane`, `x` carries a constant bit too, so every mux has a
    /// constant input and the alias is hidden only by what the sweep
    /// resolves, not by its cheap pre-check.
    fn mux_chain(const_lane: bool) -> Module {
        let mut m = Module::new("chain");
        let mut x = m.add_input("x", 4);
        if const_lane {
            x.concat(&SigSpec::zeros(1));
        }
        let mut prev = x.clone();
        for i in 0..10 {
            let s = m.add_input(&format!("s{i}"), 1);
            prev = m.mux(&prev, &x, &s);
        }
        m.add_output("y", &prev);
        m
    }

    /// A combinational loop keeps `opt_const` from sweeping until
    /// `opt_clean` deletes it; only then does the live and-with-0 fold.
    fn dead_cycle() -> Module {
        let mut m = Module::new("cycle");
        let a = m.add_input("a", 1);
        let w = SigSpec::from_wire(m.auto_wire(1), 1);
        let loop_out = m.not(&w);
        m.connect(w, loop_out);
        let y = m.and(&a, &SigSpec::zeros(1));
        m.add_output("y", &y);
        m
    }

    /// `y = ((p & q) | 0) ^ 0`: the xor folds onto the or's output, which
    /// an earlier fold of the same sweep replaced by the and's. Beside it
    /// `z = 1 ? !p : !q` folds onto `!p` and leaves `!q` dead.
    fn fold_of_a_fold() -> Module {
        let mut m = Module::new("folds");
        let p = m.add_input("p", 2);
        let q = m.add_input("q", 2);
        let and = m.and(&p, &q);
        let or = m.or(&and, &SigSpec::zeros(2));
        let y = m.xor(&or, &SigSpec::zeros(2));
        m.add_output("y", &y);
        let not_p = m.not(&p);
        let not_q = m.not(&q);
        let z = m.mux(&not_q, &not_p, &SigSpec::ones(1));
        m.add_output("z", &z);
        m
    }

    /// Runs `clean_pipeline`'s sweeps one at a time and returns what each
    /// const half folded. Each clean half runs over its sweep's index and
    /// forwarding, and must remove exactly the cells `opt_clean` removes
    /// from a copy over a fresh index.
    fn sweeps_checked(m: &mut Module) -> Vec<Option<usize>> {
        let mut folds = Vec::new();
        let mut forward = Vec::new();
        loop {
            let index = NetIndex::build(m);
            let folded = const_fold::sweep(m, &index, &mut forward);
            let mut fresh = m.clone();
            let removed = clean::sweep(m, &index, &forward, &CleanOptions::default());
            let name = &m.name;
            assert_eq!(
                removed,
                opt_clean(&mut fresh, &CleanOptions::default()),
                "{name}"
            );
            assert_eq!(m.cell_ids(), fresh.cell_ids(), "{name}");
            folds.push(folded);
            if folded == Some(0) || (folded.is_none() && removed == 0) {
                return folds;
            }
        }
    }

    #[test]
    fn cleanup_runs_to_the_fixpoint_with_no_cap() {
        let mut m = mux_chain(false);
        assert_eq!(clean_pipeline(&mut m), 10);
        assert_eq!(m.live_cell_count(), 0);
        assert_eq!(
            clean_pipeline(&mut m),
            0,
            "a second call finds the fixpoint"
        );
        m.validate().unwrap();
    }

    #[test]
    fn a_dead_cycle_is_swept_and_then_folded() {
        let mut m = dead_cycle();
        assert_eq!(clean_pipeline(&mut m), 2);
        assert_eq!(m.live_cell_count(), 0);
    }

    #[test]
    fn each_clean_half_removes_what_a_fresh_index_would() {
        // one mux per sweep: no sweep sees an earlier fold's alias
        let mut want = vec![Some(1); 10];
        want.push(Some(0));
        for const_lane in [false, true] {
            let mut m = mux_chain(const_lane);
            assert_eq!(sweeps_checked(&mut m), want, "const lane {const_lane}");
            assert_eq!(m.live_cell_count(), 0);
        }

        let mut m = dead_cycle();
        assert_eq!(sweeps_checked(&mut m), [None, Some(1), Some(0)]);
        assert_eq!(m.live_cell_count(), 0);

        let mut m = fold_of_a_fold();
        assert_eq!(sweeps_checked(&mut m), [Some(3), Some(0)]);
        let kinds: Vec<CellKind> = m.cells().map(|(_, c)| c.kind).collect();
        assert_eq!(kinds, [CellKind::And, CellKind::Not], "!q is swept");
        m.validate().unwrap();
    }

    #[test]
    fn baseline_reports_what_it_settled() {
        // s ? (s ? a : b) : c: the inner select is decided by its ancestor
        let mut m = Module::new("fig1");
        let a = m.add_input("a", 2);
        let b = m.add_input("b", 2);
        let c = m.add_input("c", 2);
        let s = m.add_input("s", 1);
        let inner = m.mux(&b, &a, &s);
        let outer = m.mux(&c, &inner, &s);
        m.add_output("y", &outer);
        let mut settled = Settled::Unknown;
        assert_eq!(baseline_optimize(&mut m, &mut settled), 1);
        assert_eq!(settled, Settled::Baseline);
        let cells = m.live_cell_count();
        // a settled module is returned untouched, with no pass run
        assert_eq!(baseline_optimize(&mut m, &mut settled), 0);
        assert_eq!(m.live_cell_count(), cells);

        // a cleanup that changes an unclean module leaves it only Clean
        let mut m = Module::new("dead");
        let a = m.add_input("a", 1);
        let _dead = m.not(&a);
        m.add_output("y", &a);
        let mut settled = Settled::Unknown;
        assert_eq!(baseline_optimize(&mut m, &mut settled), 0);
        assert_eq!(settled, Settled::Clean);
        assert_eq!(m.live_cell_count(), 0);
        assert_eq!(baseline_optimize(&mut m, &mut settled), 0);
        assert_eq!(settled, Settled::Baseline);
    }
}
