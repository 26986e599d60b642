//! Benchmark workloads: the synthetic public corpus and the
//! industrial-style generator.
//!
//! The paper evaluates on the 10 largest IWLS-2005 / RISC-V circuits and a
//! confidential industrial suite. Neither ships with this repository, so
//! this crate *generates* Verilog designs whose structural mix is tuned,
//! case by case, to the per-circuit behavior reported in the paper's
//! Table III:
//!
//! * `top_cache_axi` is `case`-statement heavy (Rebuild dominates there:
//!   24.91% vs. SAT's 0.01%),
//! * `wb_conmax` is dominated by logically dependent control cones (SAT
//!   19.05% vs. Rebuild 4.65%),
//! * `mem_ctrl`/`ethernet` are datapath-heavy with little mux headroom,
//!   and so on.
//!
//! Absolute sizes are scaled down (10^3–10^5 AND nodes instead of up to
//! 10^7) so the whole suite runs in CI time; the *shape* — which method
//! wins where, and by roughly what factor — is the reproduction target.
//! All generation is seeded and deterministic.
//!
//! # The scale ladder
//!
//! Every corpus is generated at one of five [`Scale`]s, strictly ordered
//! by live-cell count: `Tiny < Small < Paper < Medium < Large`.
//! Tiny/Small/Paper are fractional block counts of the same structural
//! recipe (1/12, 1/3, 1/1) and drive essentially zero CDCL conflicts —
//! every equivalence query is settled by simulation or a conflict-free
//! SAT probe. `Medium`/`Large` are the *conflict-bearing* scales: on top
//! of the Paper block counts they widen case selects, deepen shared-cone
//! nesting, and inject adder-identity miter cones whose UNSAT proofs
//! force real conflict/propagation work in the solver
//! ([`Scale::conflict_bearing`]). Sources at Tiny/Small/Paper are
//! byte-identical to what pre-Medium versions of this crate generated:
//! the new features draw nothing from the RNG at legacy scales.
//!
//! # Example
//!
//! ```
//! use smartly_workloads::{public_corpus, Scale};
//!
//! let corpus = public_corpus(Scale::Tiny);
//! assert_eq!(corpus.len(), 10);
//! let m = corpus[0].compile()?;
//! assert!(m.live_cell_count() > 0);
//! # Ok::<(), smartly_verilog::VerilogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod industrial;
mod public;

pub use generator::{DesignSpec, Scale};
pub use industrial::{industrial_corpus, IndustrialSpec};
pub use public::public_corpus;

use smartly_netlist::Module;
use smartly_verilog::{compile_with, CaseLowering, ElaborateOptions, VerilogError};

/// A multi-module design of *near-miss parameter variants* — the
/// workload shape the driver's design-level knowledge base targets.
///
/// Every module holds `cones` copies of the same dependent-control
/// pattern: an inner mux whose select is a wide AND-reduction
/// (`&w[and_width-1:0]`), nested under an outer mux on a free select.
/// The AND-cone's true polarity has probability `2^-and_width` per
/// random vector, so the query engine's random prefilter essentially
/// never witnesses it and every module must pay a SAT call to learn the
/// all-ones witness — *unless* a sibling module already published that
/// model to the shared bank. Each variant also carries a distinct chain
/// of inverters, so the driver's full-text module memo cannot fire: the
/// modules are structural near-misses, with identical cone shapes on
/// different nets.
///
/// With `and_width` above the hybrid `sim_threshold` (default 10) the
/// cones route to SAT rather than exhaustive simulation.
pub fn knowledge_probes(variants: usize, cones: usize, and_width: u32) -> Vec<Module> {
    (0..variants)
        .map(|v| {
            let mut m = Module::new(format!("probe_{v:02}"));
            for c in 0..cones {
                let s = m.add_input(&format!("s{c}"), 1);
                let wide = m.add_input(&format!("w{c}"), and_width);
                let st = m.reduce_and(&wide);
                let a = m.add_input(&format!("a{c}"), 4);
                let b = m.add_input(&format!("b{c}"), 4);
                let d = m.add_input(&format!("d{c}"), 4);
                let inner = m.mux(&b, &a, &st);
                let outer = m.mux(&d, &inner, &s);
                m.add_output(&format!("y{c}"), &outer);
            }
            // the near-miss distinguisher: v+1 chained inverters make
            // every variant's canonical text unique
            let x = m.add_input("x", 1);
            let mut t = x;
            for _ in 0..=v {
                t = m.not(&t);
            }
            m.add_output("z", &t);
            m
        })
        .collect()
}

/// A SAT-heavy stress design for the CDCL solver itself: every mux
/// select is an adder-commutativity miter, `(a + b) == (b + a)`, which
/// is constant-true but only provably so by real conflict-driven search
/// — the random prefilter witnesses the true polarity instantly and
/// never the false one, and the UNSAT proof of "can it be false?" walks
/// a carry-chain refutation that generates hundreds-to-thousands of
/// conflicts. Widths grow by one per cone (`bits`, `bits + 1`, …) so
/// the cones are *not* isomorphic and the per-module verdict memo
/// cannot shortcut them: each query hits the shared incremental solver,
/// piling learnt clauses into one database until tier-based reduction
/// and the compacting arena GC fire.
///
/// One module holds all `cones`: the corpus runner uses this as the
/// timing-only solver bench exercising the learnt-clause tiers
/// (`lbd_core`), `reduce_db` (`reduces`), arena compaction
/// (`arena_gcs`) and EMA restarts (`restarts`) on a real query stream.
pub fn solver_stress(cones: usize, bits: u32) -> Vec<Module> {
    let mut m = Module::new("solver_stress");
    for c in 0..cones {
        let w = bits + c as u32;
        let a = m.add_input(&format!("a{c}"), w);
        let b = m.add_input(&format!("b{c}"), w);
        let p = m.add_input(&format!("p{c}"), 4);
        let q = m.add_input(&format!("q{c}"), 4);
        let ab = m.add(&a, &b);
        let ba = m.add(&b, &a);
        let sel = m.eq(&ab, &ba);
        let y = m.mux(&q, &p, &sel);
        m.add_output(&format!("y{c}"), &y);
    }
    vec![m]
}

/// One benchmark case: a name, a description and generated Verilog.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Case name (matches the paper's Table II rows for the public set).
    pub name: String,
    /// What this case models and why.
    pub description: String,
    /// Generated Verilog source.
    pub source: String,
}

impl BenchCase {
    /// Parses and elaborates the case with priority-chain `case` lowering
    /// (the muxtree shape the paper optimizes).
    ///
    /// # Errors
    ///
    /// Returns [`VerilogError`] if generation produced invalid source
    /// (a generator bug — covered by tests).
    pub fn compile(&self) -> Result<Module, VerilogError> {
        let opts = ElaborateOptions {
            case_lowering: CaseLowering::Chain,
        };
        let design = compile_with(&self.source, &opts)?;
        design.into_top().ok_or_else(|| VerilogError::Elaborate {
            module: self.name.clone(),
            message: "empty design".to_string(),
        })
    }
}

/// Tiny hand-written sources for the paper's figures (used by examples
/// and integration tests).
pub fn paper_figures() -> Vec<BenchCase> {
    vec![
        BenchCase {
            name: "fig1_same_ctrl".to_string(),
            description: "Fig. 1: nested mux with identical control".to_string(),
            source: r#"
module fig1 (input wire s, input wire [3:0] a, input wire [3:0] b,
             input wire [3:0] c, output reg [3:0] y);
  always @(*) begin
    if (s) begin
      if (s) y = a; else y = b;
    end else y = c;
  end
endmodule
"#
            .to_string(),
        },
        BenchCase {
            name: "fig3_dependent_ctrl".to_string(),
            description: "Fig. 3: control decided through an OR gate".to_string(),
            source: r#"
module fig3 (input wire s, input wire r, input wire [3:0] a,
             input wire [3:0] b, input wire [3:0] c, output reg [3:0] y);
  always @(*) begin
    if (s) begin
      if (s | r) y = a; else y = b;
    end else y = c;
  end
endmodule
"#
            .to_string(),
        },
        BenchCase {
            name: "listing1_case_chain".to_string(),
            description: "Listing 1: 4-way case, chain of eq+mux".to_string(),
            source: r#"
module listing1 (input wire [1:0] s, input wire [7:0] p0, input wire [7:0] p1,
                 input wire [7:0] p2, input wire [7:0] p3, output reg [7:0] y);
  always @(*) begin
    case (s)
      2'b00: y = p0;
      2'b01: y = p1;
      2'b10: y = p2;
      default: y = p3;
    endcase
  end
endmodule
"#
            .to_string(),
        },
        BenchCase {
            name: "listing2_casez".to_string(),
            description: "Listing 2: casez priority decode".to_string(),
            source: r#"
module listing2 (input wire [2:0] s, input wire [3:0] p0, input wire [3:0] p1,
                 input wire [3:0] p2, input wire [3:0] p3, output reg [3:0] y);
  always @(*) begin
    casez (s)
      3'b1zz: y = p0;
      3'b01z: y = p1;
      3'b001: y = p2;
      default: y = p3;
    endcase
  end
endmodule
"#
            .to_string(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figures_compile_and_validate() {
        for case in paper_figures() {
            let m = case
                .compile()
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            m.validate().unwrap();
            assert!(m.stats().mux_like() >= 1, "{} has muxes", case.name);
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = public_corpus(Scale::Tiny);
        let b = public_corpus(Scale::Tiny);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.source, y.source, "{} must be reproducible", x.name);
        }
    }
}
