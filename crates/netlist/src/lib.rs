//! Coarse-grain RTL netlist intermediate representation.
//!
//! This crate provides the word-level netlist IR that every other crate in
//! the smaRTLy reproduction operates on. It is modeled on Yosys' RTLIL:
//!
//! * a [`Module`] owns multi-bit [`Wire`]s and word-level [`Cell`]s;
//! * a [`SigBit`] is either a constant ([`TriVal`]) or one bit of a wire;
//! * a [`SigSpec`] is an ordered vector of bits — cell ports and module
//!   ports bind `SigSpec`s, so slicing and concatenation are free;
//! * module-level *connections* record signal aliases (`assign y = x;`),
//!   resolved on demand by [`NetIndex`].
//!
//! The cell library ([`CellKind`]) covers the subset of RTLIL exercised by
//! the paper: bitwise/logic/reduction gates, unsigned arithmetic and
//! comparison, shifts, `mux`/`pmux` (the stars of the show), and `dff`.
//!
//! # Mux semantics
//!
//! Following Yosys' `$mux`: `Y = S ? B : A`. A `pmux` has a default input
//! `A`, `n` stacked words on `B`, and an `n`-bit select `S`; the lowest set
//! select bit wins (priority semantics), and `S == 0` yields `A`.
//!
//! # Example
//!
//! ```
//! use smartly_netlist::{Module, SigSpec};
//!
//! let mut m = Module::new("demo");
//! let a = m.add_input("a", 8);
//! let b = m.add_input("b", 8);
//! let s = m.add_input("s", 1);
//! let y = m.mux(&a, &b, &s);
//! m.add_output("y", &y);
//! assert_eq!(m.live_cell_count(), 1);
//! m.validate().expect("well-formed netlist");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod cell;
mod design;
mod error;
mod eval;
mod index;
mod module;
mod stats;

pub use bits::{SigBit, SigSpec, TriVal};
pub use cell::{Cell, CellKind, Port};
pub use design::Design;
pub use error::NetlistError;
pub use eval::{eval_cell, CellInputs};
pub use index::{Driver, NetIndex, ReaderCounts};
pub use module::{CellId, Module, ModulePort, PortDir, Wire, WireId};
pub use stats::CellStats;
