//! And-Inverter Graphs: the paper's area metric and equivalence checker.
//!
//! The smaRTLy evaluation converts optimized netlists to AIGs with Yosys'
//! `aigmap` and reports **AIG area = number of AND2 nodes**, flip-flops
//! excluded. This crate provides:
//!
//! * [`Aig`] — a structurally hashed and-inverter graph with constant
//!   folding;
//! * [`aigmap`] — word-level netlist → AIG lowering (flip-flop `Q` pins
//!   become AIG inputs, `D` pins become latch outputs, so the metric and
//!   the equivalence check both operate on the combinational transition
//!   logic, matching the paper);
//! * [`check_equiv`] — SAT-sweeping combinational equivalence checking of
//!   two designs mapped into one shared graph: random simulation splits
//!   the nodes into candidate classes, proven internal equivalences are
//!   merged bottom-up so rewritten output cones collapse, and only output
//!   pairs left distinct reach a final miter (the paper: "All the results
//!   generated by our program passed equivalence checking").
//!
//! # Example
//!
//! ```
//! use smartly_netlist::Module;
//! use smartly_aig::aigmap;
//!
//! let mut m = Module::new("t");
//! let a = m.add_input("a", 4);
//! let b = m.add_input("b", 4);
//! let y = m.and(&a, &b);
//! m.add_output("y", &y);
//! let mapped = aigmap(&m)?;
//! assert_eq!(mapped.area(), 4); // one AND2 per bit
//! # Ok::<(), smartly_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cec;
mod graph;
mod map;

pub use cec::{aig_area, check_equiv, EquivOptions, EquivResult};
pub use graph::{Aig, AigLit, AigNode};
pub use map::{aigmap, MappedAig, SharedMapper};
