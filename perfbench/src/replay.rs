//! The traced run: replays `Pipeline::run_with_deadline` through the
//! crates' public pieces, with a span around every call, so each layer's
//! self time is measured from outside the program.
//!
//! The sequence mirrors the pipeline exactly (area, baseline, up to
//! `rounds` × rebuild/sat with their cleanup tails, final clean, area,
//! optional verification). The mirror guard in the caller holds it to
//! that: every circuit's area and live-cell count must equal the
//! untraced run's.

use smartly_aig::{aig_area, check_equiv, EquivOptions, EquivResult};
use smartly_core::restructure::RestructureStats;
use smartly_core::sat_pass::SatPassStats;
use smartly_core::{
    restructure, sat_redundancy_with, OptLevel, Pipeline, SharedCexBank, SharedVerdictStore,
    SweepContext,
};
use smartly_driver::json::Json;
use smartly_netlist::{Module, NetIndex, NetlistError};
use smartly_opt::{opt_clean, opt_const, opt_merge, opt_muxtree, CleanOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the recorder's start.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub circuit: usize,
}

/// In-memory span recorder: spans nest by call structure and are only
/// written out once the run is over.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    circuit: usize,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            circuit: 0,
        }
    }

    pub fn set_circuit(&mut self, circuit: usize) {
        self.circuit = circuit;
    }

    pub fn begin(&mut self, name: &'static str) {
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            circuit: self.circuit,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        let idx = self.stack.pop().expect("end without begin");
        self.spans[idx].end = self.t0.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start).saturating_sub(c).as_secs_f64();
        }
        out
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// The spans as a JSON array (`name`, `start_us`, `end_us`,
    /// `parent`, `circuit`).
    pub fn to_json(&self, circuits: &[String]) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Json::object();
                    o.set("name", Json::Str(s.name.to_string()));
                    o.set("start_us", Json::UInt(s.start.as_micros() as u64));
                    o.set("end_us", Json::UInt(s.end.as_micros() as u64));
                    o.set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    );
                    o.set(
                        "circuit",
                        Json::Str(circuits.get(s.circuit).cloned().unwrap_or_default()),
                    );
                    o
                })
                .collect(),
        )
    }
}

/// Counters gathered across the replay.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub sat: SatPassStats,
    pub rebuild: RestructureStats,
    pub muxtree_rewrites: usize,
    pub clean_iters: usize,
}

/// What the traced replay produced.
pub struct Replay {
    pub rec: Recorder,
    /// Circuit names, in input order (the spans' `circuit` field).
    pub names: Vec<String>,
    pub counters: Counters,
    /// `(area_after, live cells after)` per circuit, in input order.
    pub results: Vec<(usize, usize)>,
    /// Verification verdict per circuit, when verification ran.
    pub verdicts: Vec<Option<EquivResult>>,
    /// Wall time of the whole replay, probes included.
    pub wall: Duration,
}

/// Design-level knowledge the replay attaches to every circuit's sweeps,
/// as `optimize_design` does.
pub struct Knowledge {
    pub bank: Option<Arc<dyn SharedCexBank>>,
    pub verdicts: Option<Arc<dyn SharedVerdictStore>>,
}

/// Replays the pipeline over `modules` (heaviest first, as the driver
/// schedules them at `jobs = 1`) with spans around every pass.
pub fn replay(
    mut modules: Vec<Module>,
    level: OptLevel,
    verify: bool,
    knowledge: &Knowledge,
) -> Result<Replay, NetlistError> {
    let pipeline = Pipeline::default();
    let mut rec = Recorder::new();
    let mut c = Counters::default();
    let mut results = vec![(0, 0); modules.len()];
    let mut verdicts = vec![None; modules.len()];
    let names = modules.iter().map(|m| m.name.clone()).collect();
    let mut order: Vec<usize> = (0..modules.len()).collect();
    let weight: Vec<usize> = modules.iter().map(Module::live_cell_count).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weight[i]), i));

    let t0 = Instant::now();
    for i in order {
        rec.set_circuit(i);
        let module = &mut modules[i];
        rec.begin("module");
        let original = verify.then(|| module.clone());
        rec.time("aig.area", || aig_area(module))?;
        probe(&mut rec, module);
        baseline(&mut rec, &mut c, module);
        probe(&mut rec, module);

        let mut ctx = SweepContext::new(knowledge.bank.clone(), knowledge.verdicts.clone());
        for _ in 0..pipeline.rounds {
            rec.begin("round");
            let mut changed = false;
            if matches!(level, OptLevel::RebuildOnly | OptLevel::Full) {
                let st = rec.time("core.restructure", || {
                    restructure(module, &pipeline.rebuild)
                });
                changed |= st.rebuilt > 0;
                c.rebuild.candidates += st.candidates;
                c.rebuild.rebuilt += st.rebuilt;
                clean(&mut rec, &mut c, module);
                probe(&mut rec, module);
            }
            if matches!(level, OptLevel::SatOnly | OptLevel::Full) {
                if pipeline.sat.incremental {
                    rec.time("core.begin_round", || ctx.begin_round(module));
                }
                let st = rec.time("core.sat_sweep", || {
                    sat_redundancy_with(module, &pipeline.sat, &mut ctx)
                });
                changed |= st.rewrites > 0;
                c.sat.absorb(&st);
                clean(&mut rec, &mut c, module);
                baseline(&mut rec, &mut c, module);
                probe(&mut rec, module);
            }
            rec.end();
            if !changed {
                break;
            }
        }
        clean(&mut rec, &mut c, module);
        let area = rec.time("aig.area", || aig_area(module))?;
        results[i] = (area, module.live_cell_count());
        if let Some(orig) = original {
            let r = rec.time("aig.cec", || {
                check_equiv(&orig, module, &EquivOptions::default())
            })?;
            verdicts[i] = Some(r);
        }
        rec.end();
    }
    Ok(Replay {
        rec,
        names,
        counters: c,
        results,
        verdicts,
        wall: t0.elapsed(),
    })
}

/// `smartly_opt::baseline_optimize`, pass by pass.
fn baseline(rec: &mut Recorder, c: &mut Counters, module: &mut Module) {
    loop {
        let n = rec.time("opt.muxtree", || opt_muxtree(module));
        let merged = rec.time("opt.merge", || opt_merge(module));
        clean(rec, c, module);
        c.muxtree_rewrites += n;
        if n == 0 && merged == 0 {
            break;
        }
    }
}

/// `smartly_opt::clean_pipeline(module, 8)`, pass by pass.
fn clean(rec: &mut Recorder, c: &mut Counters, module: &mut Module) {
    for _ in 0..8 {
        let c1 = rec.time("opt.const", || opt_const(module));
        let c2 = rec.time("opt.clean", || opt_clean(module, &CleanOptions::default()));
        c.clean_iters += 1;
        if c1 + c2 == 0 {
            break;
        }
    }
}

/// The netlist probe at a pass boundary: one index build and one
/// topological order of the module as it stands.
fn probe(rec: &mut Recorder, module: &Module) {
    rec.time("netlist.index_build", || black_box(NetIndex::build(module)));
    rec.time("netlist.topo_order", || black_box(module.topo_order().ok()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        rec.begin("outer");
        rec.time("inner", || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(5));
        rec.end();
        let st = rec.self_times();
        assert!(st["inner"] >= 0.019);
        assert!(st["outer"] < st["inner"]);
        assert!((rec.total("outer") - st["outer"] - st["inner"]).abs() < 1e-6);
    }

    #[test]
    fn replay_matches_the_pipeline() {
        let modules = smartly_netlist::Design::from_modules(
            smartly_workloads::paper_figures()
                .iter()
                .map(|c| c.compile().expect("figure compiles"))
                .collect(),
        )
        .into_modules();
        let none = Knowledge {
            bank: None,
            verdicts: None,
        };
        let r = replay(modules.clone(), OptLevel::Full, true, &none).expect("replay");
        for (i, mut m) in modules.into_iter().enumerate() {
            let rep = Pipeline::default()
                .run(&mut m, OptLevel::Full)
                .expect("pipeline");
            assert_eq!(r.results[i], (rep.area_after, m.live_cell_count()));
            assert_eq!(r.verdicts[i], Some(EquivResult::Equivalent));
        }
    }
}
