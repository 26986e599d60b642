//! Randomized tests: the CDCL solver against brute force, and encoder laws.
//!
//! Formerly written with `proptest`; the offline build environment cannot
//! fetch it, so each property now runs as a seeded loop over the vendored
//! deterministic RNG — same laws, reproducible cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartly_sat::{Lit, SolveResult, Solver, TseitinEncoder, Var};

const CASES: usize = 48;

/// A random clause set over `nvars` variables: 1..24 clauses of 1..4 lits.
fn random_clauses(rng: &mut StdRng, nvars: usize) -> Vec<Vec<i32>> {
    let nclauses = rng.gen_range(1..24usize);
    (0..nclauses)
        .map(|_| {
            let len = rng.gen_range(1..4usize);
            (0..len)
                .map(|_| {
                    let v = rng.gen_range(1..=nvars as i32);
                    if rng.gen_bool(0.5) {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect()
}

fn brute_force_sat(nvars: usize, clauses: &[Vec<i32>]) -> bool {
    'assign: for m in 0u32..(1 << nvars) {
        for c in clauses {
            let sat = c.iter().any(|&l| {
                let val = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                if l > 0 {
                    val
                } else {
                    !val
                }
            });
            if !sat {
                continue 'assign;
            }
        }
        return true;
    }
    false
}

fn lit_of(l: i32) -> Lit {
    Lit::new(Var::from_index(l.unsigned_abs() as usize - 1), l > 0)
}

fn load(clauses: &[Vec<i32>], nvars: usize) -> Solver {
    let mut s = Solver::new();
    for _ in 0..nvars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c.iter().map(|&l| lit_of(l)));
    }
    s
}

/// The solver agrees with brute force on every random instance, and SAT
/// answers come with a genuinely satisfying model.
#[test]
fn agrees_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x7361_7470_726f_7001);
    for _ in 0..CASES {
        let nvars = 8;
        let clauses = random_clauses(&mut rng, nvars);
        let expected = brute_force_sat(nvars, &clauses);
        let mut s = load(&clauses, nvars);
        let got = s.solve();
        assert_eq!(
            got,
            if expected {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            },
            "clauses {clauses:?}"
        );
        if got == SolveResult::Sat {
            for c in &clauses {
                let sat = c.iter().any(|&l| s.model_value(lit_of(l)) == Some(true));
                assert!(sat, "model violates clause {c:?}");
            }
        }
    }
}

/// Under assumptions, answers are consistent with adding the assumptions
/// as unit clauses.
#[test]
fn assumptions_match_units() {
    let mut rng = StdRng::seed_from_u64(0x7361_7470_726f_7002);
    for _ in 0..CASES {
        let nvars = 6;
        let clauses = random_clauses(&mut rng, nvars);
        let asm_bits = rng.gen_range(0u8..8);
        let assumptions: Vec<i32> = (0..3)
            .map(|i| {
                let v = i + 1; // distinct variables 1..=3
                if (asm_bits >> i) & 1 == 1 {
                    v
                } else {
                    -v
                }
            })
            .collect();
        let mut s = load(&clauses, nvars);
        let asm_lits: Vec<Lit> = assumptions.iter().map(|&l| lit_of(l)).collect();
        let with_assumptions = s.solve_with(&asm_lits);

        let mut augmented: Vec<Vec<i32>> = clauses.clone();
        for &l in &assumptions {
            augmented.push(vec![l]);
        }
        let expected = brute_force_sat(nvars, &augmented);
        assert_eq!(
            with_assumptions,
            if expected {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            }
        );
        // the solver stays reusable after assumption solving
        let plain = s.solve();
        assert_eq!(
            plain,
            if brute_force_sat(nvars, &clauses) {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            }
        );
    }
}

/// Tseitin-encoded random AND/OR/XOR trees evaluate like their reference
/// interpretation for every input assignment.
#[test]
fn encoder_matches_reference() {
    type Reference = Box<dyn Fn(&[bool]) -> bool>;
    let mut rng = StdRng::seed_from_u64(0x7361_7470_726f_7003);
    for _ in 0..CASES {
        let ops: Vec<u8> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0u8..3))
            .collect();
        let inputs = rng.gen_range(0u8..16);
        let mut enc = TseitinEncoder::new();
        let leaves: Vec<Lit> = (0..4).map(|_| enc.fresh()).collect();
        let mut acc = leaves[0];
        let mut reference: Reference = Box::new(|v: &[bool]| v[0]);
        for (i, op) in ops.iter().enumerate() {
            let leaf = leaves[(i + 1) % 4];
            let leaf_idx = (i + 1) % 4;
            let prev = reference;
            reference = match op {
                0 => {
                    acc = enc.and(acc, leaf);
                    Box::new(move |v| prev(v) && v[leaf_idx])
                }
                1 => {
                    acc = enc.or(acc, leaf);
                    Box::new(move |v| prev(v) || v[leaf_idx])
                }
                _ => {
                    acc = enc.xor(acc, leaf);
                    Box::new(move |v| prev(v) ^ v[leaf_idx])
                }
            };
        }
        let vals: Vec<bool> = (0..4).map(|i| (inputs >> i) & 1 == 1).collect();
        let expect = reference(&vals);
        let mut asms: Vec<Lit> = leaves
            .iter()
            .zip(&vals)
            .map(|(&l, &v)| if v { l } else { !l })
            .collect();
        asms.push(if expect { !acc } else { acc });
        assert_eq!(enc.solve_with(&asms), SolveResult::Unsat);
    }
}
