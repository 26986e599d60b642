//! Design-level driver: the engine that turns the per-module smaRTLy
//! passes into a whole-design optimizer.
//!
//! The core crates optimize one [`smartly_netlist::Module`] at a time;
//! real RTL arrives as multi-module designs. This crate adds the missing
//! orchestration layer:
//!
//! * [`optimize_design`] — runs the [`smartly_core::Pipeline`] over every
//!   module of a [`smartly_netlist::Design`] on a pool of scoped worker
//!   threads (a shared atomic cursor over a heaviest-first work list, so
//!   idle workers steal the next pending module);
//! * a **structural memo cache** — modules with identical bodies (common
//!   in generated and industrial RTL) are optimized once and the result
//!   is cloned for every duplicate ([`structural_key`]);
//! * a **design-level knowledge base** ([`knowledge`]) — a thread-safe
//!   counterexample bank shared by every module sweep, so memo-cache
//!   *near-miss* modules (same cone shapes, different nets) seed each
//!   other's SAT-replay vectors instead of starting cold;
//! * **guards** — [`DriverOptions::max_cells`] skips oversized modules,
//!   [`DriverOptions::timeout`] arms a cooperative deadline that
//!   interrupts a module mid-SAT-search and reverts it to its original
//!   netlist;
//! * **panic isolation** — each module's optimization runs under
//!   `catch_unwind`; a panicking pass poisons that one module (original
//!   netlist restored, panic message and backtrace in the report) while
//!   the rest of the design keeps optimizing;
//! * **crash-safe persistence** ([`persist`]) — knowledge saves are
//!   write-verify-rename with bounded retry, fsync of both the file and
//!   its parent directory, so a crash mid-save never corrupts an
//!   existing knowledge file;
//! * a **deterministic fault-injection harness** (`smartly-failpoint`) —
//!   named fail-point sites across the save path and the module pool,
//!   armed via `SMARTLY_FAILPOINTS` or in-process, drive the chaos
//!   suite that pins the degradation ladder;
//! * a deterministic [`DesignReport`] — per-module
//!   [`smartly_core::PipelineReport`]s aggregated in stable module order;
//!   [`DesignReport::digest`] is byte-identical across `jobs` settings;
//! * [`emit_design`] — post-optimization Verilog for the whole design;
//! * [`run_public_corpus`] — the benchmark harness behind
//!   `smartly corpus` and the `BENCH_driver.json` artifact;
//! * **observability** ([`trace`]) — opt-in hierarchical span traces
//!   (module → round → pass → query → SAT call) exported as Chrome
//!   trace-event JSON, plus always-on latency histograms in the timing
//!   report. Purely observational: `--digest` output is byte-identical
//!   with tracing on or off.
//!
//! # Example
//!
//! ```
//! use smartly_driver::{optimize_design, DriverOptions};
//!
//! let src = r#"
//! module leaf (input wire s, input wire [3:0] a, input wire [3:0] b,
//!              output reg [3:0] y);
//!   always @(*) begin
//!     if (s) begin if (s) y = a; else y = b; end else y = b;
//!   end
//! endmodule
//! module leaf_copy (input wire s, input wire [3:0] a, input wire [3:0] b,
//!                   output reg [3:0] y);
//!   always @(*) begin
//!     if (s) begin if (s) y = a; else y = b; end else y = b;
//!   end
//! endmodule
//! "#;
//! let mut design = smartly_verilog::compile(src)?;
//! let opts = DriverOptions { verify: true, ..Default::default() };
//! let report = optimize_design(&mut design, &opts)?;
//! assert_eq!(report.modules.len(), 2);
//! assert_eq!(report.memo_hits(), 1); // leaf_copy cloned from leaf
//! assert_eq!(report.all_equivalent(), Some(true));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod curve;
mod engine;
pub mod job;
/// The workspace's JSON codec. It lives in `smartly-sat` so the daemon
/// can share it; reports, digests and traces reach it through this path.
pub use smartly_sat::json;
pub mod knowledge;
mod panic_guard;
pub mod persist;
mod report;
pub mod trace;

pub use corpus::{
    run_public_corpus, CorpusOptions, CorpusReport, CorpusRow, KnowledgeBench, LevelResult,
    SolverBench,
};
pub use curve::{jobs_ladder, run_scaling_curve, CurveOptions, CurvePoint, CurveReport};
pub use engine::{
    level_from_str, optimize_design, structural_key, DriverOptions, FP_MODULE_DEADLINE,
    FP_MODULE_PANIC,
};
pub use job::{optimize_source, JobOutput};
pub use knowledge::{DesignVerdictStore, KnowledgeBase, KnowledgeStats, VerdictStoreStats};
pub use persist::{
    load_state, save_state, KbReport, KnowledgeState, SaveReport, StoreKey, FP_SAVE_BACKOFF,
    FP_SAVE_IO, FP_SAVE_RELOAD, FP_SAVE_RENAME, FP_SAVE_VERIFY,
};
pub use report::{DesignReport, ModuleOutcome, ModuleReport, Verbosity};
pub use trace::{chrome_trace_json, LayerAgg, SpanAgg, TraceSummary};

use smartly_netlist::{Design, NetlistError};
use smartly_verilog::{emit_verilog, VerilogError};

/// Everything the driver can fail with.
#[derive(Debug)]
pub enum DriverError {
    /// A netlist-level failure inside the pipeline.
    Netlist(NetlistError),
    /// A frontend failure while compiling source.
    Verilog(VerilogError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Netlist(e) => write!(f, "netlist error: {e}"),
            DriverError::Verilog(e) => write!(f, "verilog error: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<NetlistError> for DriverError {
    fn from(e: NetlistError) -> Self {
        DriverError::Netlist(e)
    }
}

impl From<VerilogError> for DriverError {
    fn from(e: VerilogError) -> Self {
        DriverError::Verilog(e)
    }
}

/// Renders every module of `design` back to structural Verilog, in module
/// order, separated by blank lines.
pub fn emit_design(design: &Design) -> String {
    let mut out = String::new();
    for (i, module) in design.modules().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&emit_verilog(module));
    }
    out
}
