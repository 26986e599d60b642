//! Shared harness code for the table-reproducing binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1` | Table I — the `or`-cell inference rules, demonstrated |
//! | `table2` | Table II — AIG areas Original / Yosys / smaRTLy / Ratio |
//! | `table3` | Table III — per-method reduction (SAT / Rebuild / Full) |
//! | `industrial` | §IV-B — the industrial-suite gap |
//! | `ablation` | design-choice ablations (pruning, hybrid, ADD order) |
//!
//! Run e.g. `cargo run --release -p smartly-bench --bin table2 -- paper`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smartly_core::{OptLevel, Pipeline, PipelineReport};
use smartly_netlist::Module;
use smartly_workloads::{BenchCase, Scale};

/// Parses the common `tiny|small|paper|medium|large` CLI argument
/// (default `paper`).
pub fn scale_from_args() -> Scale {
    std::env::args()
        .nth(1)
        .as_deref()
        .and_then(Scale::from_name)
        .unwrap_or(Scale::Paper)
}

/// One case optimized at one level.
#[derive(Clone, Debug)]
pub struct LevelResult {
    /// Optimization level.
    pub level: OptLevel,
    /// AIG area before any optimization.
    pub area_before: usize,
    /// AIG area afterwards.
    pub area_after: usize,
    /// Wall-clock optimization time in milliseconds.
    pub millis: u128,
    /// The raw pipeline report.
    pub report: PipelineReport,
}

/// Runs `case` at `level` and collects the result.
///
/// # Panics
///
/// Panics if the generated source fails to compile or optimize — a
/// harness bug, covered by the workload tests.
pub fn run_level(case: &BenchCase, level: OptLevel) -> LevelResult {
    let mut module: Module = case.compile().expect("corpus compiles");
    let pipeline = Pipeline::default();
    let start = std::time::Instant::now();
    let report = pipeline.run(&mut module, level).expect("pipeline runs");
    LevelResult {
        level,
        area_before: report.area_before,
        area_after: report.area_after,
        millis: start.elapsed().as_millis(),
        report,
    }
}

/// Percentage reduction of `new` relative to `old`.
pub fn pct(old: usize, new: usize) -> f64 {
    if old == 0 {
        0.0
    } else {
        100.0 * (1.0 - new as f64 / old as f64)
    }
}
