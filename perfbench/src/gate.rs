//! The output-correctness gate: seeded co-simulation of every optimized
//! netlist against its original, and seeded single-gate mutants that
//! keep the equivalence checker honest.

use crate::stats::Rng;
use smartly_netlist::{CellKind, Module, Port};
use smartly_sim::{compile, BitSim};

/// Clock cycles simulated from reset (all flip-flops zero) per check.
const COSIM_CYCLES: usize = 8;
/// Independent 64-lane vector batches per check.
const COSIM_BATCHES: usize = 2;

/// Stable per-name salt, so each module draws its own vector stream.
fn salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Co-simulates `gate` against `gold` on 64 seeded random vectors per
/// batch, [`COSIM_CYCLES`] cycles from reset, comparing every output bit
/// every cycle. `Err` names the first differing output.
pub fn cosim(gold: &Module, gate: &Module, seed: u64) -> Result<(), String> {
    let pg = compile(gold).map_err(|e| format!("{}: original: {e}", gold.name))?;
    let pt = compile(gate).map_err(|e| format!("{}: optimized: {e}", gate.name))?;
    let inputs: Vec<(String, usize)> = pg.inputs().map(|(n, w)| (n.to_string(), w)).collect();
    let outputs: Vec<(String, usize)> = pg.outputs().map(|(n, w)| (n.to_string(), w)).collect();
    let gate_inputs: Vec<(String, usize)> = pt.inputs().map(|(n, w)| (n.to_string(), w)).collect();
    let gate_outputs: Vec<(String, usize)> =
        pt.outputs().map(|(n, w)| (n.to_string(), w)).collect();
    if inputs.iter().any(|p| !gate_inputs.contains(p))
        || outputs.iter().any(|p| !gate_outputs.contains(p))
    {
        return Err(format!("{}: port lists differ", gold.name));
    }
    let mut rng = Rng::stream(seed ^ salt(&gold.name), crate::inputs::STREAM_COSIM);
    for batch in 0..COSIM_BATCHES {
        let mut g = BitSim::new(&pg);
        let mut t = BitSim::new(&pt);
        g.set_lanes(64);
        t.set_lanes(64);
        for cycle in 0..COSIM_CYCLES {
            for (name, width) in &inputs {
                for bit in 0..*width {
                    let plane = rng.next_u64();
                    g.set_input_plane(name, bit, plane);
                    t.set_input_plane(name, bit, plane);
                }
            }
            g.eval_comb();
            t.eval_comb();
            for (name, width) in &outputs {
                for bit in 0..*width {
                    if g.output_plane(name, bit) != t.output_plane(name, bit) {
                        return Err(format!(
                            "{}: output {name}[{bit}] differs (batch {batch}, cycle {cycle})",
                            gold.name
                        ));
                    }
                }
            }
            if pg.is_sequential() || pt.is_sequential() {
                g.tick();
                t.tick();
            }
        }
    }
    Ok(())
}

/// A single-gate mutant of `module`: one seeded AND/OR swap, XOR/XNOR
/// swap, or mux data-input swap. Only mutants that co-simulation tells
/// apart from `module` are returned, so their known answer is
/// "not equivalent" by an oracle independent of the checker. `None`
/// when no candidate gate yields an observable change.
pub fn mutant(module: &Module, seed: u64) -> Option<Module> {
    let mut rng = Rng::stream(seed ^ salt(&module.name), crate::inputs::STREAM_MUTANTS);
    let mut candidates: Vec<_> = module
        .cells()
        .filter(|(_, c)| {
            matches!(
                c.kind,
                CellKind::And | CellKind::Or | CellKind::Xor | CellKind::Xnor | CellKind::Mux
            )
        })
        .map(|(id, _)| id)
        .collect();
    rng.shuffle(&mut candidates);
    for id in candidates.into_iter().take(32) {
        let mut m = module.clone();
        let cell = m.cell_mut(id).expect("candidate is live");
        match cell.kind {
            CellKind::And => cell.kind = CellKind::Or,
            CellKind::Or => cell.kind = CellKind::And,
            CellKind::Xor => cell.kind = CellKind::Xnor,
            CellKind::Xnor => cell.kind = CellKind::Xor,
            _ => {
                let a = cell.port(Port::A).cloned().unwrap_or_default();
                let b = cell.port(Port::B).cloned().unwrap_or_default();
                if a == b {
                    continue;
                }
                cell.set_port(Port::A, b);
                cell.set_port(Port::B, a);
            }
        }
        if cosim(module, &m, seed).is_err() {
            return Some(m);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_core::{OptLevel, Pipeline};

    fn fig3() -> Module {
        smartly_workloads::paper_figures()[1]
            .compile()
            .expect("figure compiles")
    }

    #[test]
    fn optimized_netlist_passes_and_broken_one_trips_the_gate() {
        let original = fig3();
        let mut optimized = original.clone();
        Pipeline::default()
            .run(&mut optimized, OptLevel::Full)
            .expect("pipeline");
        assert_eq!(cosim(&original, &optimized, 1), Ok(()));
        let broken = mutant(&optimized, 1).expect("fig3 has a mutable gate");
        assert!(cosim(&original, &broken, 1).is_err());
    }
}
