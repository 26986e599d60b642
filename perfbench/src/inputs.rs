//! The four workloads and the seeded inputs each one optimizes.
//!
//! Every input is Verilog source generated in-process and then parsed
//! and elaborated, so set-up time always covers generation plus the
//! frontend. The public-corpus specs are fixed inside
//! `smartly-workloads` (its `specs()` is crate-private), so the seed
//! cannot reach the corpus sources themselves: it picks miter widths,
//! the serve job mix, mutants and co-simulation vectors.

use crate::stats::Rng;
use smartly_core::OptLevel;
use smartly_netlist::Module;
use smartly_verilog::VerilogError;
use smartly_workloads::{public_corpus, solver_stress, BenchCase, Scale};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    MediumFull,
    SatMiters,
    TinyVerify,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MediumFull,
        Workload::SatMiters,
        Workload::TinyVerify,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MediumFull => "medium_full",
            Workload::SatMiters => "sat_miters",
            Workload::TinyVerify => "tiny_verify",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is the measured size; `Toy` keeps every code path but shrinks
/// the inputs so the self-test finishes in seconds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

/// Circuits of the Medium corpus `medium_full` optimizes: the first two
/// in Table II order (`top_cache_axi`, `pci_bridge32`, as `smartly
/// corpus --cases 2`), which keeps one pass near 5 s on a 2-core machine.
pub const MEDIUM_CASES: usize = 2;

/// Operand widths of the `sat_miters` adder miters. Every width in the
/// range appears once per round, so the seed regroups a fixed set of
/// cones rather than changing how much search there is. Widths up to 32
/// are proven by CDCL search; the 33-bit cone (66 free leaves) is past
/// the 64-leaf SAT threshold and stays, which is what `cells_after`
/// counts on this workload.
pub const MITER_WIDTHS: (u32, u32) = (12, 33);
/// Rounds over [`MITER_WIDTHS`].
pub const MITER_ROUNDS: usize = 8;
/// Consecutive widths (cones) per `solver_stress` module.
const MITER_CONES: usize = 2;

/// Seed streams, one per seeded purpose.
pub const STREAM_MITERS: u64 = 1;
pub const STREAM_SERVE: u64 = 2;
pub const STREAM_MUTANTS: u64 = 3;
pub const STREAM_COSIM: u64 = 4;

/// What a batch workload runs: one design of `cases` optimized at `level`.
pub struct BatchSpec {
    pub level: OptLevel,
    pub verify: bool,
    /// Circuits taken from the corpus, when the workload bounds them.
    pub cases_bound: Option<usize>,
}

pub fn batch_spec(w: Workload) -> BatchSpec {
    match w {
        Workload::MediumFull => BatchSpec {
            level: OptLevel::Full,
            verify: false,
            cases_bound: Some(MEDIUM_CASES),
        },
        Workload::SatMiters => BatchSpec {
            level: OptLevel::SatOnly,
            verify: false,
            cases_bound: None,
        },
        Workload::TinyVerify => BatchSpec {
            level: OptLevel::Full,
            verify: true,
            cases_bound: None,
        },
        Workload::ServeWarm => unreachable!("serve_warm is not a batch workload"),
    }
}

/// Generates the Verilog sources of a batch workload.
pub fn batch_sources(w: Workload, seed: u64, size: Size) -> Vec<BenchCase> {
    match (w, size) {
        (Workload::MediumFull, Size::Full) => corpus(Scale::Medium, MEDIUM_CASES),
        (Workload::MediumFull, Size::Toy) => corpus(Scale::Tiny, 2),
        (Workload::SatMiters, Size::Full) => miters(seed, MITER_WIDTHS, MITER_ROUNDS),
        (Workload::SatMiters, Size::Toy) => miters(seed, (30, MITER_WIDTHS.1), 1),
        (Workload::TinyVerify, Size::Full) => corpus(Scale::Tiny, 10),
        (Workload::TinyVerify, Size::Toy) => corpus(Scale::Tiny, 2),
        (Workload::ServeWarm, _) => unreachable!("serve_warm is not a batch workload"),
    }
}

fn corpus(scale: Scale, cases: usize) -> Vec<BenchCase> {
    let mut all = public_corpus(scale);
    all.truncate(cases);
    all
}

/// `rounds` passes over the width range, each cut into pairs of
/// consecutive widths at a seeded phase (`[12,13],[14,15],...` or
/// `[12],[13,14],...`); each run becomes one `solver_stress` module
/// (cones `w, w+1`), renamed to be unique, emitted as Verilog. Module
/// order is shuffled too. Runs of one fixed length keep the amount of
/// search, and the module sizes, the same for every seed.
fn miters(seed: u64, (lo, hi): (u32, u32), rounds: usize) -> Vec<BenchCase> {
    let mut rng = Rng::stream(seed, STREAM_MITERS);
    let mut cases = Vec::new();
    for round in 0..rounds {
        let mut w = lo;
        let mut cones = 1 + rng.below(MITER_CONES);
        while w <= hi {
            cones = cones.min((hi - w + 1) as usize);
            let mut module = solver_stress(cones, w)
                .pop()
                .expect("solver_stress returns one module");
            module.name = format!("miter_r{round}_w{w}_n{cones}");
            cases.push(BenchCase {
                name: module.name.clone(),
                description: format!("{cones} adder miters from width {w}"),
                source: smartly_verilog::emit_verilog(&module),
            });
            w += cones as u32;
            cones = MITER_CONES;
        }
    }
    rng.shuffle(&mut cases);
    cases
}

/// Parses and elaborates every case.
pub fn compile_all(cases: &[BenchCase]) -> Result<Vec<Module>, VerilogError> {
    cases.iter().map(BenchCase::compile).collect()
}

/// Small-corpus circuits in the serve pool: the six below 10k AIG nodes.
/// The four largest would stretch one deck to several seconds.
const SERVE_SMALL: [&str; 6] = [
    "pci_bridge32",
    "wb_conmax",
    "wb_dma",
    "tv80",
    "usb_funct",
    "ac97_ctrl",
];

/// The serve job pool: the Tiny corpus and six Small circuits, with a
/// seeded "seen" subset (7 of the 10 Tiny, 4 of the 6 Small) that
/// set-up's cold pass writes into the knowledge file. One deck submits
/// every pool source once, in a seeded order, so 11 of every 16 jobs
/// read disk verdicts and 5 publish new ones, whatever the seed.
pub struct ServePool {
    pub sources: Vec<BenchCase>,
    pub seen: Vec<bool>,
}

pub fn serve_pool(seed: u64, size: Size) -> ServePool {
    let mut rng = Rng::stream(seed, STREAM_SERVE);
    let mut sources = Vec::new();
    let mut seen = Vec::new();
    for scale in [Scale::Tiny, Scale::Small] {
        let mut cases = corpus(scale, 10);
        if scale == Scale::Small {
            cases.retain(|c| SERVE_SMALL.contains(&c.name.as_str()));
        }
        if size == Size::Toy {
            cases.truncate(2);
        }
        let seen_here = cases.len() * 7 / 10;
        for c in &mut cases {
            c.name = format!("{}/{}", scale.name(), c.name);
        }
        let mut flags: Vec<bool> = (0..cases.len()).map(|i| i < seen_here).collect();
        rng.shuffle(&mut flags);
        sources.extend(cases);
        seen.extend(flags);
    }
    ServePool { sources, seen }
}

/// The deck order for deck number `deck`: a seeded permutation of the
/// pool indices.
pub fn serve_deck(seed: u64, deck: usize, pool_len: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, STREAM_SERVE + 16 * (deck as u64 + 1));
    let mut order: Vec<usize> = (0..pool_len).collect();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miter_widths_are_a_fixed_multiset_and_names_unique() {
        for seed in [1, 2, 3] {
            let cases = miters(seed, MITER_WIDTHS, MITER_ROUNDS);
            let mut names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), cases.len());
            let cones: usize = compile_all(&cases)
                .expect("miters compile")
                .iter()
                .map(|m| m.output_ports().count())
                .sum();
            let (lo, hi) = MITER_WIDTHS;
            assert_eq!(cones, MITER_ROUNDS * (hi - lo + 1) as usize);
        }
    }

    #[test]
    fn serve_pool_mix_is_seeded_but_balanced() {
        let a = serve_pool(5, Size::Full);
        let b = serve_pool(5, Size::Full);
        assert_eq!(a.seen, b.seen);
        assert_eq!(a.seen.iter().filter(|s| **s).count(), 11);
        assert_eq!(a.sources.len(), 16);
        let deck = serve_deck(5, 0, 16);
        let mut sorted = deck.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(deck, serve_deck(5, 0, 16));
    }
}
