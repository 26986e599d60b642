//! smaRTLy core: SAT-based redundancy elimination and muxtree
//! restructuring.
//!
//! This crate implements the two optimizations of *"SmaRTLy: RTL
//! Optimization with Logic Inferencing and Structural Rebuilding"*
//! (DAC 2025) on top of the workspace substrates:
//!
//! * [`sat_redundancy`] (paper §II) — runs the baseline's mux-tree walk
//!   ([`smartly_opt::walk_muxtrees`]) with a stronger resolver: it builds
//!   a bounded *sub-graph* around each control bit the path condition
//!   leaves undecided ([`subgraph`]), prunes it with the Theorem II.1
//!   influence criterion, propagates the Table I [`inference`] rules, and
//!   decides the bit with exhaustive simulation or a CDCL SAT solver
//!   ([`decide`]). A decided select pins to a constant and the mux
//!   collapses — catching *logically dependent* controls the Yosys
//!   baseline cannot see (paper Fig. 3: `S ? ((S|R) ? A : B) : C`).
//!   Queries run through the stateful [`QueryEngine`] funnel — verdict
//!   memo, design-level verdict store, random-simulation prefilter,
//!   shared counterexample replay, then exhaustive simulation or one
//!   incremental activation-literal solver per module — instead of a
//!   fresh solver per query ([`query_engine`] has the details).
//! * [`restructure()`](restructure()) (paper §III, Algorithm 1) — rebuilds `case`-shaped
//!   muxtrees (`OnlyEq` + `SingleCtrl`) through an algebraic decision
//!   diagram with greedy per-node bit selection, re-emitting one mux per
//!   ADD node and freeing the `eq` comparators.
//!
//! [`Pipeline`] sequences the passes into the four configurations the
//! paper evaluates (Yosys baseline / SAT / Rebuild / Full) and can verify
//! every rewrite with the AIG equivalence checker.
//!
//! # Example — paper Fig. 3
//!
//! ```
//! use smartly_netlist::Module;
//! use smartly_core::{Pipeline, OptLevel};
//!
//! let mut m = Module::new("fig3");
//! let a = m.add_input("a", 4);
//! let b = m.add_input("b", 4);
//! let c = m.add_input("c", 4);
//! let s = m.add_input("s", 1);
//! let r = m.add_input("r", 1);
//! let sr = m.or(&s, &r);
//! let inner = m.mux(&b, &a, &sr);   // (s|r) ? a : b
//! let outer = m.mux(&c, &inner, &s); // s ? inner : c
//! m.add_output("y", &outer);
//!
//! let report = Pipeline::default().run(&mut m, OptLevel::Full)?;
//! assert_eq!(m.stats().count("mux"), 1); // inner mux eliminated
//! assert!(report.sat_rewrites > 0);
//! # Ok::<(), smartly_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decide;
pub mod inference;
mod pipeline;
pub mod query_engine;
pub mod restructure;
pub mod sat_pass;
pub mod subgraph;

pub use pipeline::{OptLevel, Pipeline, PipelineReport};
pub use query_engine::{
    FunnelProfile, Layer, QueryEngine, QueryEngineOptions, QueryEngineStats, SharedCexBank,
    SharedVectors, SharedVerdictStore, VerdictMemo,
};
pub use restructure::{restructure, restructure_with, AddCache, RestructureOptions};
pub use sat_pass::{
    sat_redundancy, sat_redundancy_with, QueryReplays, SatRedundancyOptions, SweepContext,
};
pub use smartly_sat::Deadline;
