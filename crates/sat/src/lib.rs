//! A CDCL SAT solver in the MiniSAT lineage, on a modern data layout.
//!
//! The smaRTLy paper uses MiniSAT [Sörensson & Eén 2005] to decide whether a
//! multiplexer control signal is constant under a path condition. This
//! crate is a from-scratch Rust implementation of the same ingredient
//! list, modernized where it pays in the hot loop:
//!
//! * a flat `u32` **clause arena** (header packs size/learnt/tier/LBD;
//!   literals contiguous) with a compacting GC, so propagation is
//!   cache-local and clause deletion is a header-bit flip,
//! * two-watched-literal unit propagation with **blocking literals**
//!   and in-place watch-list compaction,
//! * VSIDS variable activity with an indexed max-heap (activity
//!   rescales hoisted out of the per-bump hot path),
//! * first-UIP conflict analysis with deep conflict-clause minimization
//!   (MiniSAT 1.13's headline feature),
//! * an **LBD-tiered learnt database** (core / tier2 / local, glucose
//!   style, tiers fixed at learn time) with periodic reduction,
//! * phase saving (MiniSAT's polarity cache),
//! * **EMA-adaptive restarts** (Glucose-style fast/slow LBD averages
//!   force a restart when recent learnt clauses turn bad),
//! * solving under assumptions and an optional conflict budget (the paper
//!   bounds SAT effort with a threshold; [`Solver::set_conflict_budget`]
//!   is the hook for that),
//! * a **cooperative deadline** ([`Solver::set_deadline`]): a cloneable
//!   cancellation token polled every few conflicts alongside the budget,
//!   so a wall-clock limit interrupts a stuck solve mid-search; expiry
//!   surfaces as [`SolveResult::Unknown`], exactly like budget
//!   exhaustion,
//! * **temporary domains** ([`Solver::set_domain`], gipsat's
//!   `temporary_domain`): the next solves decide and assign only a given
//!   set of variables, so a query over one cone of a large incremental
//!   formula propagates only that cone. The contract: every assignment
//!   of the domain that satisfies the clauses inside it must leave the
//!   clauses that mention an outside variable satisfiable by the outside
//!   variables, as a fan-in-closed cone plus the assumption variables
//!   does. Then UNSAT holds for the whole formula, a model extends to it
//!   by evaluating the outside nodes, and every learnt clause stays
//!   valid once the domain is lifted.
//!
//! [`tseitin::TseitinEncoder`] layers gate-consistency encoding on top, so
//! circuit cones can be asserted directly.
//!
//! The crate also hosts the two codecs that the driver and the `smartly
//! serve` daemon share — both depend on this crate, neither on the
//! other: [`codec`], the checksummed little-endian binary format of the
//! knowledge store and the job journal, and [`json`], the JSON of
//! reports, digests, traces and the daemon's wire protocol.
//!
//! # Example
//!
//! ```
//! use smartly_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a | b) & (!a | b) & (a | !b)  =>  a=1, b=1
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a), Lit::pos(b)]);
//! s.add_clause([Lit::pos(a), Lit::neg(b)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.model_value(Lit::pos(a)), Some(true));
//! assert_eq!(s.model_value(Lit::pos(b)), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod deadline;
mod heap;
pub mod json;
mod solver;
pub mod tseitin;

pub use codec::{fnv64, ByteReader, ByteWriter, CodecError};
pub use deadline::Deadline;
pub use solver::{SolveResult, Solver, SolverStats, DEADLINE_CHECK_INTERVAL};
pub use tseitin::TseitinEncoder;

use std::fmt;

/// A propositional variable (0-based index).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Builds a variable from its 0-based index.
    ///
    /// Useful for addressing variables allocated in a known order;
    /// solving with a variable never allocated through
    /// [`Solver::new_var`] panics.
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable with a sign.
///
/// Encoded as `var << 1 | sign` where `sign == 1` means negated.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn pos(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    pub fn neg(var: Var) -> Lit {
        Lit(var.0 << 1 | 1)
    }

    /// Builds a literal from a variable and a value: `Lit::new(v, true)` is
    /// satisfied when `v` is true.
    pub fn new(var: Var, value: bool) -> Lit {
        if value {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The raw code (`var << 1 | sign`), useful as an array index.
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "-{}", self.var().0 + 1)
        } else {
            write!(f, "{}", self.var().0 + 1)
        }
    }
}

#[cfg(test)]
mod lit_tests {
    use super::*;

    #[test]
    fn lit_codec() {
        let v = Var(7);
        assert_eq!(Lit::pos(v).var(), v);
        assert!(!Lit::pos(v).is_neg());
        assert!(Lit::neg(v).is_neg());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(!!Lit::pos(v), Lit::pos(v));
        assert_eq!(Lit::new(v, false), Lit::neg(v));
    }
}
