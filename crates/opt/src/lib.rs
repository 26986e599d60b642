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
//! [`clean_pipeline`] chains const folding and sweeping to a fixpoint —
//! every optimization pass in the workspace ends with it.

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

use smartly_netlist::Module;

/// Runs `opt_const` + `opt_clean` to a fixpoint (at most `max_iters`
/// rounds) and returns the total number of changes.
///
/// This is the cleanup tail shared by the baseline and the smaRTLy passes;
/// flip-flops are preserved (see [`CleanOptions::keep_dffs`]) so that
/// equivalence checking can match them pairwise.
pub fn clean_pipeline(module: &mut Module, max_iters: usize) -> usize {
    let mut total = 0;
    for _ in 0..max_iters {
        let c1 = opt_const(module);
        let c2 = opt_clean(module, &CleanOptions::default());
        total += c1 + c2;
        if c1 + c2 == 0 {
            break;
        }
    }
    total
}

/// Runs the full Yosys-style baseline: `opt_muxtree` followed by the
/// cleanup fixpoint. Returns the number of muxtree rewrites.
pub fn baseline_optimize(module: &mut Module) -> usize {
    let mut total = 0;
    loop {
        let n = opt_muxtree(module);
        let merged = opt_merge(module);
        clean_pipeline(module, 8);
        total += n;
        if n == 0 && merged == 0 {
            break;
        }
    }
    total
}
