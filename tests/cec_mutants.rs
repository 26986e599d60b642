//! The equivalence checker still finds real differences. Every Tiny
//! corpus circuit is optimized at `full`, and one of its gates is
//! mutated: AND↔OR, XOR↔XNOR, or swapped mux data, keeping the first
//! seeded candidate that random simulation tells apart. Checked against
//! the original, the mutant comes back `NotEquivalent`, with a
//! counterexample that separates the reported output bit on the two
//! `aigmap`s; the unmutated result stays `Equivalent`.

use smartly_aig::{aigmap, check_equiv, EquivOptions, EquivResult, MappedAig};
use smartly_core::{OptLevel, Pipeline};
use smartly_netlist::{CellKind, Module, Port};
use smartly_workloads::{public_corpus, Scale};

/// Random patterns that try to tell a candidate mutant apart.
const PATTERNS: usize = 256;
/// Candidate gates tried per circuit.
const CANDIDATES: usize = 32;

/// xorshift64: a seeded stream independent of any crate under test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Whether some random pattern of the inputs, flip-flop cut points
/// included, gives two mappings of the same interface a different
/// output bit.
fn simulation_differs(a: &MappedAig, b: &MappedAig, rng: &mut Rng) -> bool {
    let width: usize = a.inputs().iter().map(|(_, lits)| lits.len()).sum();
    let roots = |m: &MappedAig| -> Vec<_> {
        m.outputs()
            .iter()
            .flat_map(|(_, lits)| lits.iter().copied())
            .collect()
    };
    let (roots_a, roots_b) = (roots(a), roots(b));
    (0..PATTERNS).any(|_| {
        let pattern: Vec<bool> = (0..width).map(|_| rng.next() & 1 == 1).collect();
        a.aig.eval(&pattern, &roots_a) != b.aig.eval(&pattern, &roots_b)
    })
}

/// A seeded single-gate mutant of `module` that random simulation tells
/// apart from it, with its mapping.
fn mutant(module: &Module, mapped: &MappedAig, seed: u64) -> Option<(Module, MappedAig)> {
    let mut rng = Rng(seed | 1);
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
    for i in (1..candidates.len()).rev() {
        candidates.swap(i, rng.below(i + 1));
    }
    for id in candidates.into_iter().take(CANDIDATES) {
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
        let m_mapped = aigmap(&m).expect("mutant maps");
        if simulation_differs(mapped, &m_mapped, &mut rng) {
            return Some((m, m_mapped));
        }
    }
    None
}

#[test]
fn tiny_mutants_are_refuted_with_real_counterexamples() {
    let options = EquivOptions::default();
    let mut replayed = 0;
    let cases = public_corpus(Scale::Tiny);
    for (k, case) in cases.iter().enumerate() {
        let original = case.compile().expect("corpus compiles");
        let mut full = original.clone();
        Pipeline::default()
            .run(&mut full, OptLevel::Full)
            .expect("pipeline");
        let verdict = check_equiv(&original, &full, &options).expect("checkable");
        assert_eq!(verdict, EquivResult::Equivalent, "{}: unmutated", case.name);

        let mapped = aigmap(&full).expect("result maps");
        let (bad, bad_mapped) = mutant(&full, &mapped, 0x5eed_0000 + k as u64)
            .unwrap_or_else(|| panic!("{}: no observable single-gate mutant", case.name));
        let verdict = check_equiv(&original, &bad, &options).expect("checkable");
        let EquivResult::NotEquivalent {
            output,
            bit,
            counterexample,
        } = verdict
        else {
            panic!("{}: mutant verdict {verdict:?}", case.name);
        };
        let gold = aigmap(&original).expect("original maps");
        let fits = |m: &MappedAig| {
            m.inputs()
                .iter()
                .chain(m.outputs())
                .all(|(_, lits)| lits.len() <= 64)
        };
        if fits(&gold) && fits(&bad_mapped) {
            let (g, b) = (
                gold.eval_u64(&counterexample),
                bad_mapped.eval_u64(&counterexample),
            );
            assert_ne!(
                (g[&output] >> bit) & 1,
                (b[&output] >> bit) & 1,
                "{}: the counterexample does not separate {output}[{bit}]",
                case.name
            );
            replayed += 1;
        }
    }
    assert!(
        replayed * 2 >= cases.len(),
        "only {replayed} of {} counterexamples could be replayed",
        cases.len()
    );
}
