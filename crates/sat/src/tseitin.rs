//! Gate-consistency (Tseitin) encoding on top of [`Solver`].
//!
//! The smaRTLy redundancy-elimination pass encodes a circuit sub-graph into
//! CNF and asks whether a control bit can take each polarity. This module
//! provides the per-gate constraint builders, with constant folding so that
//! encoding a partially-known cone stays cheap.

use crate::{Lit, SolveResult, Solver, Var};

/// Incrementally encodes gates into a wrapped [`Solver`].
///
/// # Example
///
/// ```
/// use smartly_sat::{TseitinEncoder, SolveResult};
///
/// let mut enc = TseitinEncoder::new();
/// let a = enc.fresh();
/// let b = enc.fresh();
/// let y = enc.and(a, b);
/// enc.assert_lit(y);
/// // y forces both a and b
/// assert_eq!(enc.solve_with(&[!a]), SolveResult::Unsat);
/// assert_eq!(enc.solve_with(&[a, b]), SolveResult::Sat);
/// ```
#[derive(Debug)]
pub struct TseitinEncoder {
    solver: Solver,
    true_lit: Lit,
}

impl Default for TseitinEncoder {
    fn default() -> Self {
        TseitinEncoder::new()
    }
}

impl TseitinEncoder {
    /// Creates an encoder with a constant-true literal pre-asserted.
    pub fn new() -> Self {
        let mut solver = Solver::new();
        let t = Lit::pos(solver.new_var());
        solver.add_clause([t]);
        TseitinEncoder {
            solver,
            true_lit: t,
        }
    }

    /// The literal that is always true.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The literal that is always false.
    pub fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    /// Turns a boolean constant into a literal.
    pub fn const_lit(&self, value: bool) -> Lit {
        if value {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    /// Allocates a free input literal.
    pub fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    fn known(&self, l: Lit) -> Option<bool> {
        if l == self.true_lit {
            Some(true)
        } else if l == !self.true_lit {
            Some(false)
        } else {
            self.solver
                .fixed_value(l.var())
                .map(|v| if l.is_neg() { !v } else { v })
        }
    }

    /// Encodes `y = a AND b`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.known(a), self.known(b)) {
            (Some(false), _) | (_, Some(false)) => return self.false_lit(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let y = self.fresh();
        self.solver.add_clause([!y, a]);
        self.solver.add_clause([!y, b]);
        self.solver.add_clause([y, !a, !b]);
        y
    }

    /// Encodes `y = a OR b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Encodes `y = a XOR b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.known(a), self.known(b)) {
            (Some(x), _) => return if x { !b } else { b },
            (_, Some(x)) => return if x { !a } else { a },
            _ => {}
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit();
        }
        let y = self.fresh();
        self.solver.add_clause([!y, a, b]);
        self.solver.add_clause([!y, !a, !b]);
        self.solver.add_clause([y, !a, b]);
        self.solver.add_clause([y, a, !b]);
        y
    }

    /// Encodes `y = a XNOR b` (equality).
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Encodes `y = s ? b : a` (matching the netlist `mux` convention).
    pub fn mux(&mut self, s: Lit, a: Lit, b: Lit) -> Lit {
        match self.known(s) {
            Some(true) => return b,
            Some(false) => return a,
            None => {}
        }
        if a == b {
            return a;
        }
        let y = self.fresh();
        self.solver.add_clause([!s, !b, y]);
        self.solver.add_clause([!s, b, !y]);
        self.solver.add_clause([s, !a, y]);
        self.solver.add_clause([s, a, !y]);
        // redundant but propagation-strengthening clauses
        self.solver.add_clause([!a, !b, y]);
        self.solver.add_clause([a, b, !y]);
        y
    }

    /// Encodes the conjunction of many literals.
    pub fn big_and(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => self.true_lit(),
            1 => lits[0],
            _ => {
                let mut acc = lits[0];
                for &l in &lits[1..] {
                    acc = self.and(acc, l);
                }
                acc
            }
        }
    }

    /// Encodes the disjunction of many literals.
    pub fn big_or(&mut self, lits: &[Lit]) -> Lit {
        let negs: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.big_and(&negs)
    }

    /// Permanently asserts `l`.
    pub fn assert_lit(&mut self, l: Lit) {
        self.solver.add_clause([l]);
    }

    /// Adds an arbitrary clause.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        self.solver.add_clause(lits)
    }

    /// Solves under assumptions.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve_with(assumptions)
    }

    /// Confines the next solves to `vars`; see [`Solver::set_domain`].
    /// The fan-in cones of the queried gates, with the assumption
    /// variables, meet its contract. No gate may be encoded until
    /// [`TseitinEncoder::clear_domain`].
    pub fn set_domain(&mut self, vars: &[Var]) {
        self.solver.set_domain(vars);
    }

    /// Lifts the domain; see [`Solver::clear_domain`].
    pub fn clear_domain(&mut self) {
        self.solver.clear_domain();
    }

    /// Access to the underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Mutable access to the underlying solver (e.g. to set budgets).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Variable count including the constant.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }
}

/// Convenience: allocate `n` fresh input literals.
pub fn fresh_inputs(enc: &mut TseitinEncoder, n: usize) -> Vec<Lit> {
    (0..n).map(|_| enc.fresh()).collect()
}

/// Re-export for gate-level identities in tests.
#[doc(hidden)]
pub fn var_of(l: Lit) -> Var {
    l.var()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks a 2-input gate encoding against a truth table.
    fn check_gate2(f: impl Fn(&mut TseitinEncoder, Lit, Lit) -> Lit, table: [bool; 4]) {
        for (i, &expect) in table.iter().enumerate() {
            let av = i & 1 == 1;
            let bv = i & 2 == 2;
            let mut enc = TseitinEncoder::new();
            let a = enc.fresh();
            let b = enc.fresh();
            let y = f(&mut enc, a, b);
            let asm = [Lit::new(a.var(), av), Lit::new(b.var(), bv)];
            // y must equal expect: asserting the opposite is UNSAT
            let opposite = if expect { !y } else { y };
            let mut asms = asm.to_vec();
            asms.push(opposite);
            assert_eq!(enc.solve_with(&asms), SolveResult::Unsat, "case {i}");
            let agree = if expect { y } else { !y };
            let mut asms = asm.to_vec();
            asms.push(agree);
            assert_eq!(enc.solve_with(&asms), SolveResult::Sat, "case {i}");
        }
    }

    #[test]
    fn and_truth_table() {
        check_gate2(|e, a, b| e.and(a, b), [false, false, false, true]);
    }

    #[test]
    fn or_truth_table() {
        check_gate2(|e, a, b| e.or(a, b), [false, true, true, true]);
    }

    #[test]
    fn xor_truth_table() {
        check_gate2(|e, a, b| e.xor(a, b), [false, true, true, false]);
    }

    #[test]
    fn xnor_truth_table() {
        check_gate2(|e, a, b| e.xnor(a, b), [true, false, false, true]);
    }

    #[test]
    fn mux_truth_table() {
        // y = s ? b : a over all 8 combinations
        for i in 0..8 {
            let sv = i & 1 == 1;
            let av = i & 2 == 2;
            let bv = i & 4 == 4;
            let expect = if sv { bv } else { av };
            let mut enc = TseitinEncoder::new();
            let s = enc.fresh();
            let a = enc.fresh();
            let b = enc.fresh();
            let y = enc.mux(s, a, b);
            let asms = vec![
                Lit::new(s.var(), sv),
                Lit::new(a.var(), av),
                Lit::new(b.var(), bv),
                if expect { !y } else { y },
            ];
            let mut e = enc;
            assert_eq!(e.solve_with(&asms), SolveResult::Unsat, "case {i}");
        }
    }

    #[test]
    fn constant_folding_shortcuts() {
        let mut enc = TseitinEncoder::new();
        let a = enc.fresh();
        let t = enc.true_lit();
        let f = enc.false_lit();
        assert_eq!(enc.and(a, t), a);
        assert_eq!(enc.and(a, f), f);
        assert_eq!(enc.or(a, t), t);
        assert_eq!(enc.or(a, f), a);
        assert_eq!(enc.xor(a, f), a);
        assert_eq!(enc.xor(a, t), !a);
        assert_eq!(enc.and(a, a), a);
        assert_eq!(enc.and(a, !a), f);
        assert_eq!(enc.mux(t, a, f), f);
        assert_eq!(enc.mux(f, a, f), a);
    }

    #[test]
    fn big_gates() {
        let mut enc = TseitinEncoder::new();
        let xs = fresh_inputs(&mut enc, 5);
        let all = enc.big_and(&xs);
        let any = enc.big_or(&xs);
        // all true ⇒ both outputs true
        let mut asms: Vec<Lit> = xs.clone();
        asms.push(!all);
        assert_eq!(enc.solve_with(&asms), SolveResult::Unsat);
        let mut asms: Vec<Lit> = xs.iter().map(|&l| !l).collect();
        asms.push(any);
        assert_eq!(enc.solve_with(&asms), SolveResult::Unsat);
    }
}
