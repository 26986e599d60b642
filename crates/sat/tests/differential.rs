//! Differential suite for the arena solver: seeded random 3-SAT pinned
//! against exhaustive checking, plus regressions for learnt-database
//! reduction and arena GC under assumption-scoped solving (clause GC
//! must never drop reason clauses or core-tier learnts), and temporary
//! domains checked against unrestricted solves and exhaustive circuit
//! evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartly_sat::{Lit, SolveResult, Solver, TseitinEncoder, Var};
use std::collections::HashSet;

fn lit_of(l: i32) -> Lit {
    Lit::new(Var::from_index(l.unsigned_abs() as usize - 1), l > 0)
}

/// Random 3-SAT instance: `nclauses` clauses of exactly 3 distinct vars.
fn random_3sat(rng: &mut StdRng, nvars: usize, nclauses: usize) -> Vec<Vec<i32>> {
    (0..nclauses)
        .map(|_| {
            let mut vars: Vec<i32> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.gen_range(1..=nvars as i32);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| if rng.gen_bool(0.5) { v } else { -v })
                .collect()
        })
        .collect()
}

fn brute_force_sat(nvars: usize, clauses: &[Vec<i32>]) -> bool {
    assert!(nvars <= 20, "exhaustive check caps at 20 vars");
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

fn check_model(s: &Solver, clauses: &[Vec<i32>]) {
    for c in clauses {
        let sat = c.iter().any(|&l| s.model_value(lit_of(l)) == Some(true));
        assert!(sat, "model violates clause {c:?}");
    }
}

/// Seeded random 3-SAT around the phase-transition ratio: the arena
/// solver's SAT/UNSAT verdicts match exhaustive checking on every
/// instance up to 20 variables, and SAT answers carry a valid model.
#[test]
fn random_3sat_matches_exhaustive_up_to_20_vars() {
    let mut rng = StdRng::seed_from_u64(0x35A7_D1FF ^ 0x1234_5678_9abc_def0);
    for round in 0..40 {
        // sweep sizes including the 20-var ceiling; clause ratio ~4.3
        // hovers around the hard SAT/UNSAT boundary
        let nvars = 8 + (round % 13); // 8..=20
        let nclauses = (nvars as f64 * 4.3) as usize;
        let clauses = random_3sat(&mut rng, nvars, nclauses);
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
            "round {round}: {clauses:?}"
        );
        if got == SolveResult::Sat {
            check_model(&s, &clauses);
        }
    }
}

/// The same verdict equivalence holds under random assumption prefixes,
/// and the solver stays reusable afterwards.
#[test]
fn random_3sat_under_assumptions_matches_exhaustive() {
    let mut rng = StdRng::seed_from_u64(0xA550_35A7);
    for round in 0..30 {
        let nvars = 10 + (round % 9); // 10..=18
        let clauses = random_3sat(&mut rng, nvars, nvars * 4);
        let mut s = load(&clauses, nvars);
        for _ in 0..3 {
            let k = rng.gen_range(0..4usize);
            let mut asm: Vec<i32> = Vec::new();
            for v in 1..=k as i32 {
                asm.push(if rng.gen_bool(0.5) { v } else { -v });
            }
            let mut augmented = clauses.clone();
            augmented.extend(asm.iter().map(|&l| vec![l]));
            let expected = brute_force_sat(nvars, &augmented);
            let asm_lits: Vec<Lit> = asm.iter().map(|&l| lit_of(l)).collect();
            let got = s.solve_with(&asm_lits);
            assert_eq!(
                got,
                if expected {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                },
                "round {round} asm {asm:?}: {clauses:?}"
            );
            if got == SolveResult::Sat {
                check_model(&s, &augmented);
            }
        }
    }
}

fn pigeonhole(s: &mut Solver, n: usize, m: usize) -> Vec<Lit> {
    let nv = n * m;
    while s.num_vars() < nv {
        s.new_var();
    }
    let lit = |i: usize, j: usize| Lit::pos(Var::from_index(i * m + j));
    for i in 0..n {
        s.add_clause((0..m).map(|j| lit(i, j)));
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause([!lit(i1, j), !lit(i2, j)]);
            }
        }
    }
    (0..m).map(|j| lit(0, j)).collect()
}

/// Reduce-under-assumptions regression: a conflict-heavy instance solved
/// repeatedly under assumptions must reduce its learnt database (and
/// keep core-tier glue clauses) without ever invalidating a verdict —
/// reason clauses are locked against deletion and the compacting GC
/// forwards every watcher/reason reference.
#[test]
fn reduce_under_assumptions_never_drops_reasons_or_core() {
    let mut s = Solver::new();
    let first_row = pigeonhole(&mut s, 7, 6);
    // php(7,6) under each "pigeon 0 in hole j" assumption is still
    // UNSAT, and the shared learnt database grows across the calls
    for &a in &first_row {
        assert_eq!(s.solve_with(&[a]), SolveResult::Unsat);
    }
    let st = s.stats();
    assert!(st.conflicts > 500, "expected heavy search: {st:?}");
    assert!(st.reduces > 0, "learnt DB must have reduced: {st:?}");
    assert!(st.lbd_core > 0, "glue clauses must have been kept: {st:?}");
    // the database survived reductions/GC in a consistent state: the
    // unconditional verdict is still provable, and a satisfiable
    // sibling instance added afterwards still solves
    assert_eq!(s.solve(), SolveResult::Unsat);

    let mut s2 = Solver::new();
    pigeonhole(&mut s2, 6, 6); // 6 pigeons into 6 holes: satisfiable
    assert_eq!(s2.solve(), SolveResult::Sat);
}

/// Arena GC fires under sustained load and verdicts stay exact: solving
/// a stream of shifted pigeonhole instances in one solver accumulates
/// and reclaims learnt clauses.
#[test]
fn arena_gc_reclaims_without_changing_verdicts() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 8, 7);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = s.stats();
    assert!(st.reduces > 0, "php(8,7) must reduce: {st:?}");
    assert!(st.arena_gcs > 0, "reduction must have compacted: {st:?}");
}

/// Regression pin: a conflict-heavy UNSAT proof under the default
/// configuration demonstrably exercises search control — EMA restarts
/// fire and glue learnts are placed in the core tier at learn time.
#[test]
fn default_config_exercises_ema_and_promotion_on_pigeonhole() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 8, 7);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = s.stats();
    assert!(st.restarts > 0, "EMA restarts must fire: {st:?}");
    assert!(
        st.lbd_core > 0,
        "glue learnts must enter the core tier: {st:?}"
    );
}

/// A long-lived incremental solver (selector-guarded random 3-SAT
/// instances sharing one learnt database) accumulates enough conflicts
/// to reduce and compact its database mid-stream, and every verdict —
/// plain or under an assumption prefix — still matches exhaustive
/// checking. A single wrongly dropped or mis-forwarded clause would
/// flip some later instance's verdict.
#[test]
fn incremental_selector_stream_matches_exhaustive() {
    const NVARS: usize = 12;
    let mut rng = StdRng::seed_from_u64(0x1A_7E57_ED5E);
    let mut s = Solver::new();
    for _ in 0..NVARS {
        s.new_var();
    }
    // selector-guard each instance: clause ∨ ¬sel, activated by
    // assuming sel — the standard incremental encoding, so all
    // instances share variables, learnts, and database reductions
    let mut selectors: Vec<Var> = Vec::new();
    let mut instances: Vec<Vec<Vec<i32>>> = Vec::new();
    for _ in 0..24 {
        let clauses = random_3sat(&mut rng, NVARS, (NVARS as f64 * 4.4) as usize);
        let sel = s.new_var();
        for c in &clauses {
            let lits = c
                .iter()
                .map(|&l| lit_of(l))
                .chain(std::iter::once(Lit::neg(sel)));
            s.add_clause(lits);
        }
        selectors.push(sel);
        instances.push(clauses);
    }
    let verify_all = |s: &mut Solver, rng: &mut StdRng, pass: &str| {
        for (i, clauses) in instances.iter().enumerate() {
            let expected = brute_force_sat(NVARS, clauses);
            let got = s.solve_with(&[Lit::pos(selectors[i])]);
            assert_eq!(
                got,
                if expected {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                },
                "{pass} instance {i}: {clauses:?}"
            );
            if got == SolveResult::Sat {
                check_model(s, clauses);
            }
            // the same instance under a random assumption prefix
            let k = rng.gen_range(1..4usize);
            let asm: Vec<i32> = (1..=k as i32)
                .map(|v| if rng.gen_bool(0.5) { v } else { -v })
                .collect();
            let mut augmented = clauses.clone();
            augmented.extend(asm.iter().map(|&l| vec![l]));
            let expected = brute_force_sat(NVARS, &augmented);
            let mut asm_lits = vec![Lit::pos(selectors[i])];
            asm_lits.extend(asm.iter().map(|&l| lit_of(l)));
            let got = s.solve_with(&asm_lits);
            assert_eq!(
                got,
                if expected {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                },
                "{pass} instance {i} asm {asm:?}: {clauses:?}"
            );
            if got == SolveResult::Sat {
                check_model(s, &augmented);
            }
        }
    };
    verify_all(&mut s, &mut rng, "cold");

    // Now make the same solver grind: selector-guarded pigeonhole
    // gadgets on fresh variables push the shared database through
    // several reductions and arena compactions, which walk *all*
    // clauses, including the random instances above.
    for _ in 0..4 {
        let base = s.num_vars();
        let (n, m) = (7, 6);
        while s.num_vars() < base + n * m {
            s.new_var();
        }
        let sel = s.new_var();
        let lit = |i: usize, j: usize| Lit::pos(Var::from_index(base + i * m + j));
        for i in 0..n {
            s.add_clause((0..m).map(|j| lit(i, j)).chain([Lit::neg(sel)]));
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!lit(i1, j), !lit(i2, j), Lit::neg(sel)]);
                }
            }
        }
        assert_eq!(s.solve_with(&[Lit::pos(sel)]), SolveResult::Unsat);
    }
    let st = s.stats();
    assert!(
        st.reduces > 0 && st.arena_gcs > 0,
        "gadgets must reduce and compact the shared database: {st:?}"
    );

    // The verdicts that matter: every random instance still answers
    // exactly as before the database was reduced and compacted.
    verify_all(&mut s, &mut rng, "post-reduction");
}

/// One gate of a [`Circuit`]: `xor` or AND over two earlier nodes, each
/// read through a complement flag.
struct Gate {
    xor: bool,
    a: (usize, bool),
    b: (usize, bool),
}

/// A seeded random AND/XOR circuit encoded through [`TseitinEncoder`]:
/// nodes `0..inputs` are inputs, node `inputs + k` is gate `k`.
struct Circuit {
    inputs: usize,
    gates: Vec<Gate>,
    /// The encoder literal of every node.
    lits: Vec<Lit>,
}

impl Circuit {
    fn random(rng: &mut StdRng, enc: &mut TseitinEncoder, inputs: usize, gates: usize) -> Self {
        let mut c = Circuit {
            inputs,
            gates: Vec::new(),
            lits: (0..inputs).map(|_| enc.fresh()).collect(),
        };
        for _ in 0..gates {
            let n = c.lits.len();
            let xor = rng.gen_bool(0.4);
            let mut fanin = || (rng.gen_range(0..n), rng.gen_bool(0.5));
            let gate = Gate {
                xor,
                a: fanin(),
                b: fanin(),
            };
            let read = |(node, neg): (usize, bool)| if neg { !c.lits[node] } else { c.lits[node] };
            let (a, b) = (read(gate.a), read(gate.b));
            let y = if gate.xor {
                enc.xor(a, b)
            } else {
                enc.and(a, b)
            };
            c.lits.push(y);
            c.gates.push(gate);
        }
        c
    }

    /// Every node's value under input pattern `m` (bit `k` is input `k`).
    fn eval(&self, m: u32) -> Vec<bool> {
        let mut v: Vec<bool> = (0..self.inputs).map(|k| (m >> k) & 1 == 1).collect();
        for g in &self.gates {
            let (a, b) = (v[g.a.0] ^ g.a.1, v[g.b.0] ^ g.b.1);
            v.push(if g.xor { a ^ b } else { a && b });
        }
        v
    }

    /// The fan-in cone of `roots`, inputs included.
    fn cone(&self, roots: &[usize]) -> Vec<usize> {
        let mut seen = vec![false; self.lits.len()];
        let mut stack = roots.to_vec();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            if let Some(g) = n.checked_sub(self.inputs).map(|k| &self.gates[k]) {
                stack.extend([g.a.0, g.b.0]);
            }
        }
        (0..self.lits.len()).filter(|&n| seen[n]).collect()
    }

    /// Whether some input pattern gives every `(node, value)` its value.
    fn satisfiable(&self, wanted: &[(usize, bool)]) -> bool {
        (0..1u32 << self.inputs).any(|m| {
            let v = self.eval(m);
            wanted.iter().all(|&(n, value)| v[n] == value)
        })
    }
}

/// Checks a satisfying call made inside the domain of `cone`: every
/// cone node has a model value, every cone gate holds on those values,
/// and no variable outside the domain was left assigned.
fn check_domain_model(s: &Solver, c: &Circuit, cone: &[usize], domain: &HashSet<Var>) {
    let value = |n: usize| {
        s.model_value(c.lits[n])
            .unwrap_or_else(|| panic!("domain node {n} unassigned"))
    };
    for &n in cone {
        if let Some(g) = n.checked_sub(c.inputs).map(|k| &c.gates[k]) {
            let (a, b) = (value(g.a.0) ^ g.a.1, value(g.b.0) ^ g.b.1);
            let y = if g.xor { a ^ b } else { a && b };
            assert_eq!(value(n), y, "gate {n} violated by the domain model");
        }
    }
    for v in (0..s.num_vars()).map(Var::from_index) {
        if !domain.contains(&v) && s.fixed_value(v).is_none() {
            assert_eq!(
                s.model_value(Lit::pos(v)),
                None,
                "outside variable {v:?} assigned"
            );
        }
    }
}

/// Temporary domains on seeded random circuits. Each domain is the
/// fan-in cone of a few random roots, queried under random assumptions
/// on its nodes, twice per domain, with unrestricted calls in between on
/// the same solver. Every verdict inside the domain matches the
/// unrestricted verdict and exhaustive evaluation, every model satisfies
/// the domain's gates, and no call assigns a variable outside its domain.
#[test]
fn domain_verdicts_match_unrestricted_and_exhaustive() {
    let mut rng = StdRng::seed_from_u64(0xD0_3A1E);
    let (mut sat, mut unsat) = (0, 0);
    for round in 0..40 {
        let mut enc = TseitinEncoder::new();
        let inputs = 4 + round % 5; // 4..=8
        let c = Circuit::random(&mut rng, &mut enc, inputs, 16 + round % 24);
        for query in 0..6 {
            let gates = c.gates.len();
            let roots: Vec<usize> = (0..rng.gen_range(1..4usize))
                .map(|_| inputs + rng.gen_range(0..gates))
                .collect();
            let cone = c.cone(&roots);
            let vars: Vec<Var> = cone.iter().map(|&n| c.lits[n].var()).collect();
            let domain: HashSet<Var> = vars.iter().copied().collect();
            enc.set_domain(&vars);
            for call in 0..2 {
                let wanted: Vec<(usize, bool)> = (0..rng.gen_range(1..4usize))
                    .map(|_| (cone[rng.gen_range(0..cone.len())], rng.gen_bool(0.5)))
                    .collect();
                let assumptions: Vec<Lit> = wanted
                    .iter()
                    .map(|&(n, value)| if value { c.lits[n] } else { !c.lits[n] })
                    .collect();
                let expected = if c.satisfiable(&wanted) {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                };
                let escapes = enc.solver().domain_escapes();
                let got = enc.solve_with(&assumptions);
                let ctx = format!("round {round} query {query} call {call}: {wanted:?}");
                assert_eq!(got, expected, "domain verdict, {ctx}");
                assert_eq!(enc.solver().domain_escapes(), escapes, "escape, {ctx}");
                if got == SolveResult::Sat {
                    check_domain_model(enc.solver(), &c, &cone, &domain);
                    sat += 1;
                } else {
                    unsat += 1;
                }
                if call == 1 {
                    enc.clear_domain();
                    assert_eq!(
                        enc.solve_with(&assumptions),
                        expected,
                        "unrestricted, {ctx}"
                    );
                }
            }
        }
    }
    assert!(
        sat > 50 && unsat > 50,
        "unbalanced verdicts: {sat} SAT, {unsat} UNSAT"
    );
}

/// A unit learnt inside a domain whose level-0 implication leaves it:
/// the domain holds back the implication, and lifting the domain makes
/// it, so `fixed_value` sees it before any further solve.
#[test]
fn lifting_a_domain_propagates_its_level0_units() {
    let mut s = Solver::new();
    let (d, a, o) = (s.new_var(), s.new_var(), s.new_var());
    // (d | a) & (d | !a) implies d; (!d | o) carries it out of the domain
    s.add_clause([Lit::pos(d), Lit::pos(a)]);
    s.add_clause([Lit::pos(d), Lit::neg(a)]);
    s.add_clause([Lit::neg(d), Lit::pos(o)]);
    s.set_domain(&[d, a]);
    // all activities are equal: `d` is decided first, false, and the
    // conflict teaches the unit `d`
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.fixed_value(d), Some(true), "the unit `d` was learnt");
    assert_eq!(s.fixed_value(o), None, "`o` lies outside the domain");
    assert_eq!(s.model_value(Lit::pos(o)), None);
    assert_eq!(s.domain_escapes(), 0);
    s.clear_domain();
    assert_eq!(s.fixed_value(o), Some(true), "lifting dropped `d -> o`");
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.model_value(Lit::pos(o)), Some(true));
}
