//! SAT-sweeping combinational equivalence checking (CEC).
//!
//! Both designs are mapped through one [`SharedMapper`], so structurally
//! identical cones fold to the *same* AIG literal and compare for free.
//! The output pairs that still differ are checked fraig-style, over their
//! fan-in cones only:
//!
//! 1. **Simulate.** Bit-parallel random simulation (64 patterns per `u64`
//!    word) gives every cone node a signature. Nodes whose signatures agree
//!    up to complement form candidate equivalence classes. An output pair
//!    whose signatures differ is refuted by that pattern before any SAT
//!    call.
//! 2. **Sweep.** Nodes are visited in index order, which is topological,
//!    and rebuilt over their fanins' representatives in a fresh strashed
//!    [`Aig`]. A rebuilt node that strashing does not fold is proven
//!    against the first node of its class with two budgeted assumption
//!    calls on one incremental solver. A proof merges it; a
//!    counterexample is simulated into every signature, which splits the
//!    class; a budget-out leaves it unmerged, which is sound. Once the
//!    internal equivalences are merged, rewritten cones fold back
//!    together and their output pairs collapse structurally.
//!
//!    Both calls of a proof run inside the solver domain of the two cones
//!    they compare ([`smartly_sat::Solver::set_domain`]): the fan-in
//!    cones are closed under their Tseitin definitions, so the search
//!    decides and propagates only those cones, however much of the
//!    shared graph the solver has encoded before.
//! 3. **Miter the rest.** Only output pairs still distinct on the reduced
//!    graph reach a final miter, inside the domain of the pair's cones
//!    and the miter's XOR.

use crate::graph::{Aig, AigLit, AigNode};
use crate::map::{aigmap, SharedMapper};
use smartly_netlist::{Module, NetlistError};
use smartly_sat::{Lit, SolveResult, TseitinEncoder, Var};
use std::collections::HashMap;

/// Conflict budget of each internal sweep proof. A proof that runs out
/// leaves its node unmerged; its output pairs then reach the final miter.
const SWEEP_BUDGET: u64 = 1_000;

/// Options for [`check_equiv`].
#[derive(Copy, Clone, Debug)]
pub struct EquivOptions {
    /// Random simulation patterns (bit-parallel, 64 per word) that seed
    /// the candidate classes and refute easy bugs before any SAT call.
    pub sim_vectors: usize,
    /// Optional conflict budget for each final output miter (`None` =
    /// complete check). Internal sweep proofs have a fixed budget of their
    /// own: one that runs out only leaves its node unmerged.
    pub conflict_budget: Option<u64>,
    /// Seed for the random simulation patterns.
    pub seed: u64,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            sim_vectors: 1024,
            conflict_budget: None,
            seed: 0x5eed_cafe,
        }
    }
}

/// Outcome of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivResult {
    /// All outputs proven equal.
    Equivalent,
    /// A differing output was found, with the input assignment exposing it.
    NotEquivalent {
        /// Output port (or `dff$k` cut point) that differs.
        output: String,
        /// Bit index within that output.
        bit: usize,
        /// Input values (`name` → value) demonstrating the difference.
        /// Only input bits 0–63 are recorded: the higher bits of a wider
        /// input are not part of the value.
        counterexample: HashMap<String, u64>,
    },
    /// The conflict budget ran out before a verdict.
    Unknown {
        /// Output being checked when the budget expired.
        output: String,
        /// Bit index within that output.
        bit: usize,
    },
}

/// A structurally differing output bit: name, bit, gold and gate literal.
type Pair = (String, usize, AigLit, AigLit);

/// Checks combinational equivalence of two modules by SAT sweeping (see
/// the module docs): simulation first, then bottom-up merging of proven
/// internal equivalences, then a final miter for each output pair the
/// merging did not collapse. [`EquivOptions::conflict_budget`] bounds only
/// those final miters.
///
/// Requirements (all hold for netlists derived by the optimization passes
/// in this workspace):
///
/// * identical input port names and widths,
/// * identical output port names and widths,
/// * identical flip-flop count, matched in cell order.
///
/// # Errors
///
/// Returns [`NetlistError::NotFound`] on port or flip-flop mismatches, and
/// propagates mapping errors (cyclic logic, undriven wires).
pub fn check_equiv(
    gold: &Module,
    gate: &Module,
    options: &EquivOptions,
) -> Result<EquivResult, NetlistError> {
    check(gold, gate, options).map(|(verdict, _)| verdict)
}

/// [`check_equiv`], plus how many output pairs reached a final miter.
fn check(
    gold: &Module,
    gate: &Module,
    options: &EquivOptions,
) -> Result<(EquivResult, usize), NetlistError> {
    // strict interface check on the modules themselves
    let gold_inputs: Vec<(String, u32)> = gold
        .input_ports()
        .map(|p| (p.name.clone(), gold.wire(p.wire).width))
        .collect();
    let gate_inputs: Vec<(String, u32)> = gate
        .input_ports()
        .map(|p| (p.name.clone(), gate.wire(p.wire).width))
        .collect();
    for (name, w) in &gold_inputs {
        if !gate_inputs.iter().any(|(n, ww)| n == name && ww == w) {
            return Err(NetlistError::NotFound {
                module: gate.name.clone(),
                name: format!("matching input '{name}'"),
            });
        }
    }
    for (name, w) in &gate_inputs {
        if !gold_inputs.iter().any(|(n, ww)| n == name && ww == w) {
            return Err(NetlistError::NotFound {
                module: gold.name.clone(),
                name: format!("matching input '{name}'"),
            });
        }
    }

    let mut sm = SharedMapper::new();
    let outs_a = sm.map_module(gold)?;
    let outs_b = sm.map_module(gate)?;

    if outs_a.len() != outs_b.len() {
        return Err(NetlistError::NotFound {
            module: gate.name.clone(),
            name: "matching output set (flip-flop counts differ?)".to_string(),
        });
    }
    let out_b_map: HashMap<&str, &Vec<AigLit>> =
        outs_b.iter().map(|(n, l)| (n.as_str(), l)).collect();
    let mut pairs: Vec<Pair> = Vec::new();
    for (name, lits_a) in &outs_a {
        let lits_b = out_b_map
            .get(name.as_str())
            .ok_or_else(|| NetlistError::NotFound {
                module: gate.name.clone(),
                name: format!("matching output '{name}'"),
            })?;
        if lits_a.len() != lits_b.len() {
            return Err(NetlistError::NotFound {
                module: gate.name.clone(),
                name: format!("output '{name}' with matching width"),
            });
        }
        for (bit, (&la, &lb)) in lits_a.iter().zip(lits_b.iter()).enumerate() {
            if la != lb {
                pairs.push((name.clone(), bit, la, lb));
            }
        }
    }
    if pairs.is_empty() {
        return Ok((EquivResult::Equivalent, 0)); // structurally identical
    }

    let mut sweep = Sweep::new(sm.aig(), &pairs, options);
    if let Some(refuted) = sweep.refute(&sm, &pairs) {
        return Ok((refuted, 0));
    }
    sweep.run();
    // counterexamples found while sweeping may separate an output pair
    if let Some(refuted) = sweep.refute(&sm, &pairs) {
        return Ok((refuted, 0));
    }
    Ok(sweep.miter_rest(&sm, &pairs, options.conflict_budget))
}

/// Outcome of one internal equivalence proof.
enum Proof {
    Equal,
    Differ,
    Unknown,
}

/// The sweep state over the shared graph (`old`) and its reduced rebuild
/// (`new`).
struct Sweep<'a> {
    old: &'a Aig,
    /// Old nodes in the fan-in of a differing output pair, index order.
    cone: Vec<u32>,
    /// `sig[w][n]`: 64 simulation patterns of old node `n`. The words past
    /// the random ones hold counterexamples, 64 per word; their unused
    /// lanes hold the all-zero input pattern.
    sig: Vec<Vec<u64>>,
    /// How many leading words of `sig` hold the random patterns.
    random_words: usize,
    /// Lanes of the newest counterexample word already used.
    cex_lanes: u32,
    /// Hash of the normalized random-pattern words → the nodes visited and
    /// not merged, in index order. Counterexample words split a bucket
    /// into classes; the first member of a class is its head.
    heads: HashMap<u64, Vec<u32>>,
    new: Aig,
    /// Old node → its literal in `new`.
    map: Vec<AigLit>,
    /// New node → the literal it was merged into (itself when unmerged).
    redirect: Vec<AigLit>,
    enc: TseitinEncoder,
    /// New node → its solver literal, encoded on demand.
    sat_lit: Vec<Option<Lit>>,
    /// New node → the DFS epoch that last collected it into a domain.
    stamp: Vec<u32>,
    epoch: u32,
    /// Scratch of that DFS: its stack and the variables it collected.
    stack: Vec<u32>,
    domain: Vec<Var>,
}

impl<'a> Sweep<'a> {
    /// Marks the cones of `pairs`, rebuilds the inputs and simulates
    /// `options.sim_vectors` random patterns.
    fn new(old: &'a Aig, pairs: &[Pair], options: &EquivOptions) -> Self {
        let n = old.node_count();
        let mut in_cone = vec![false; n];
        in_cone[0] = true;
        let mut stack: Vec<u32> = pairs
            .iter()
            .flat_map(|&(_, _, a, b)| [a.node(), b.node()])
            .collect();
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut in_cone[v as usize], true) {
                continue;
            }
            if let AigNode::And(a, b) = old.node(AigLit::from_node(v)) {
                stack.extend([a.node(), b.node()]);
            }
        }
        let cone: Vec<u32> = (0..n as u32).filter(|&v| in_cone[v as usize]).collect();

        let mut new = Aig::new();
        let mut map = vec![AigLit::FALSE; n];
        for &v in old.inputs() {
            map[v as usize] = new.add_input();
        }
        let redirect = (0..new.node_count() as u32)
            .map(AigLit::from_node)
            .collect();

        let words = options.sim_vectors.div_ceil(64).max(1);
        let mut sweep = Sweep {
            old,
            cone,
            sig: Vec::new(),
            random_words: words,
            cex_lanes: 64,
            heads: HashMap::new(),
            new,
            map,
            redirect,
            enc: TseitinEncoder::new(),
            sat_lit: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            stack: Vec::new(),
            domain: Vec::new(),
        };
        let mut state = options.seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for w in 0..words {
            let lanes = options.sim_vectors.saturating_sub(64 * w).min(64);
            let used = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
            let mut word = vec![0u64; n];
            for &v in old.inputs() {
                word[v as usize] = next() & used;
            }
            sweep.sig.push(word);
            sweep.simulate(w);
        }
        sweep
    }

    /// Simulates word `w` over the cone's AND nodes from its input values.
    fn simulate(&mut self, w: usize) {
        let s = &mut self.sig[w];
        for &v in &self.cone {
            if let AigNode::And(a, b) = self.old.node(AigLit::from_node(v)) {
                s[v as usize] = (s[a.node() as usize] ^ ones_if(a.is_complement()))
                    & (s[b.node() as usize] ^ ones_if(b.is_complement()));
            }
        }
    }

    /// The first pattern `(word, lane)` on which two old literals differ.
    fn difference(&self, a: AigLit, b: AigLit) -> Option<(usize, u32)> {
        self.sig.iter().enumerate().find_map(|(w, s)| {
            let d = s[a.node() as usize] ^ s[b.node() as usize];
            let d = d ^ ones_if(a.is_complement() != b.is_complement());
            (d != 0).then(|| (w, d.trailing_zeros()))
        })
    }

    /// The first output pair some simulated pattern tells apart.
    fn refute(&self, sm: &SharedMapper, pairs: &[Pair]) -> Option<EquivResult> {
        pairs.iter().find_map(|(name, bit, la, lb)| {
            self.difference(*la, *lb)
                .map(|pattern| EquivResult::NotEquivalent {
                    output: name.clone(),
                    bit: *bit,
                    counterexample: self.counterexample(sm, pattern),
                })
        })
    }

    /// Named input values of one simulated pattern (bits 0–63 per input).
    fn counterexample(&self, sm: &SharedMapper, (w, lane): (usize, u32)) -> HashMap<String, u64> {
        sm.inputs()
            .iter()
            .map(|(name, lits)| {
                let value = lits.iter().take(64).enumerate().fold(0u64, |v, (b, l)| {
                    v | ((self.sig[w][l.node() as usize] >> lane) & 1) << b
                });
                (name.clone(), value)
            })
            .collect()
    }

    /// Whether node `v`'s signature is stored complemented in its class:
    /// classes are normalized so that the first pattern reads 0.
    fn phase(&self, v: u32) -> bool {
        self.sig[0][v as usize] & 1 == 1
    }

    /// Hash of `v`'s normalized random-pattern words: its bucket.
    fn key(&self, v: u32) -> u64 {
        let f = ones_if(self.phase(v));
        self.sig[..self.random_words].iter().fold(0, |h, s| {
            let h = (h ^ s[v as usize] ^ f).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^ (h >> 29)
        })
    }

    /// The head of `v`'s class, if one was visited before `v`.
    fn candidate(&self, v: u32) -> Option<u32> {
        self.heads.get(&self.key(v))?.iter().copied().find(|&r| {
            let f = ones_if(self.phase(v) != self.phase(r));
            self.sig
                .iter()
                .all(|s| (s[v as usize] ^ f) == s[r as usize])
        })
    }

    /// Makes unmerged node `v` a candidate for the nodes visited after it.
    fn join_class(&mut self, v: u32) {
        let key = self.key(v);
        self.heads.entry(key).or_default().push(v);
    }

    /// Visits every cone node bottom-up, merging each one proven equal to
    /// its class head.
    fn run(&mut self) {
        for i in 0..self.cone.len() {
            let v = self.cone[i];
            let AigNode::And(a, b) = self.old.node(AigLit::from_node(v)) else {
                // nothing merges the constant or an input
                self.join_class(v);
                continue;
            };
            let (fa, fb) = (self.lit(a), self.lit(b));
            let fresh = self.new.node_count();
            let raw = self.new.and(fa, fb);
            if raw.node() as usize != fresh {
                // folded, or strashed onto an existing node
                self.map[v as usize] =
                    negate_if(self.redirect[raw.node() as usize], raw.is_complement());
                continue;
            }
            self.redirect.push(raw);
            self.map[v as usize] = raw;
            loop {
                let Some(r) = self.candidate(v) else {
                    self.join_class(v);
                    break;
                };
                let target = negate_if(self.map[r as usize], self.phase(v) != self.phase(r));
                match self.prove(raw, target) {
                    Proof::Equal => {
                        self.map[v as usize] = target;
                        self.redirect[raw.node() as usize] = target;
                        break;
                    }
                    Proof::Differ => self.refine(),
                    Proof::Unknown => {
                        self.join_class(v);
                        break;
                    }
                }
            }
        }
    }

    /// An old literal's image in the reduced graph.
    fn lit(&self, l: AigLit) -> AigLit {
        negate_if(self.map[l.node() as usize], l.is_complement())
    }

    /// Two budgeted assumption calls inside the cones of `x` and `y`: can
    /// they differ either way?
    fn prove(&mut self, x: AigLit, y: AigLit) -> Proof {
        let sx = self.encode(x);
        let sy = self.encode(y);
        self.enc
            .solver_mut()
            .set_conflict_budget(Some(SWEEP_BUDGET));
        self.enter_domain(x, y, None);
        let proof = [[sx, !sy], [!sx, sy]]
            .iter()
            .find_map(|assumptions| match self.enc.solve_with(assumptions) {
                SolveResult::Unsat => None,
                SolveResult::Sat => Some(Proof::Differ),
                SolveResult::Unknown => Some(Proof::Unknown),
            })
            .unwrap_or(Proof::Equal);
        self.enc.clear_domain();
        proof
    }

    /// Sets the solver domain to the variables of the encoded cones of `x`
    /// and `y`, plus `extra`: one epoch-stamped DFS over `new`.
    fn enter_domain(&mut self, x: AigLit, y: AigLit, extra: Option<Lit>) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // wrapped: clear the stamps so stale marks are impossible
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.stamp.resize(self.new.node_count(), 0);
        self.domain.clear();
        self.stack.clear();
        self.stack.extend([x.node(), y.node()]);
        while let Some(v) = self.stack.pop() {
            if std::mem::replace(&mut self.stamp[v as usize], self.epoch) == self.epoch {
                continue;
            }
            let lit = self.sat_lit[v as usize].expect("the cone is encoded");
            self.domain.push(lit.var());
            if let AigNode::And(a, b) = self.new.node(AigLit::from_node(v)) {
                self.stack.extend([a.node(), b.node()]);
            }
        }
        self.domain.extend(extra.map(Lit::var));
        self.enc.set_domain(&self.domain);
    }

    /// Adds the last model to every signature as one more pattern (inputs
    /// outside the proof's cones read 0), which splits the classes it
    /// tells apart.
    fn refine(&mut self) {
        if self.cex_lanes == 64 {
            self.sig.push(vec![0; self.old.node_count()]);
            self.cex_lanes = 0;
        }
        let w = self.sig.len() - 1;
        for (ordinal, &v) in self.old.inputs().iter().enumerate() {
            // the rebuilt input of ordinal `k` is node `k + 1`
            let value = self
                .sat_lit
                .get(ordinal + 1)
                .copied()
                .flatten()
                .and_then(|l| self.enc.solver().model_value(l))
                .unwrap_or(false);
            let bit = 1u64 << self.cex_lanes;
            let word = &mut self.sig[w][v as usize];
            *word = (*word & !bit) | if value { bit } else { 0 };
        }
        self.cex_lanes += 1;
        self.simulate(w);
    }

    /// Final miters, under `budget`, for the output pairs the sweep did
    /// not collapse; also returns how many pairs needed one.
    fn miter_rest(
        &mut self,
        sm: &SharedMapper,
        pairs: &[Pair],
        budget: Option<u64>,
    ) -> (EquivResult, usize) {
        let mut miters = 0;
        for (name, bit, la, lb) in pairs {
            let (x, y) = (self.lit(*la), self.lit(*lb));
            if x == y {
                continue;
            }
            miters += 1;
            let sx = self.encode(x);
            let sy = self.encode(y);
            let miter = self.enc.xor(sx, sy);
            self.enc.solver_mut().set_conflict_budget(budget);
            self.enter_domain(x, y, Some(miter));
            let result = self.enc.solve_with(&[miter]);
            self.enc.clear_domain();
            match result {
                SolveResult::Unsat => {}
                SolveResult::Unknown => {
                    let verdict = EquivResult::Unknown {
                        output: name.clone(),
                        bit: *bit,
                    };
                    return (verdict, miters);
                }
                SolveResult::Sat => {
                    self.refine();
                    let pattern = self
                        .difference(*la, *lb)
                        .expect("a model of the miter separates the pair");
                    let verdict = EquivResult::NotEquivalent {
                        output: name.clone(),
                        bit: *bit,
                        counterexample: self.counterexample(sm, pattern),
                    };
                    return (verdict, miters);
                }
            }
        }
        (EquivResult::Equivalent, miters)
    }

    /// Iterative post-order Tseitin encoding of one cone of the reduced
    /// graph; nodes already encoded are reused.
    fn encode(&mut self, root: AigLit) -> Lit {
        self.sat_lit.resize(self.new.node_count(), None);
        let mut stack: Vec<u32> = vec![root.node()];
        while let Some(&v) = stack.last() {
            if self.sat_lit[v as usize].is_some() {
                stack.pop();
                continue;
            }
            let lit = match self.new.node(AigLit::from_node(v)) {
                AigNode::Const => self.enc.false_lit(),
                AigNode::Input => self.enc.fresh(),
                AigNode::And(a, b) => {
                    match (
                        self.sat_lit[a.node() as usize],
                        self.sat_lit[b.node() as usize],
                    ) {
                        (Some(la), Some(lb)) => self.enc.and(
                            negate_if(la, a.is_complement()),
                            negate_if(lb, b.is_complement()),
                        ),
                        (la, lb) => {
                            if la.is_none() {
                                stack.push(a.node());
                            }
                            if lb.is_none() {
                                stack.push(b.node());
                            }
                            continue;
                        }
                    }
                }
            };
            self.sat_lit[v as usize] = Some(lit);
            stack.pop();
        }
        let base = self.sat_lit[root.node() as usize].expect("encoded root");
        negate_if(base, root.is_complement())
    }
}

/// The all-ones word when `set`, else zero: complements a signature.
fn ones_if(set: bool) -> u64 {
    if set {
        !0
    } else {
        0
    }
}

fn negate_if<L: std::ops::Not<Output = L>>(l: L, negate: bool) -> L {
    if negate {
        !l
    } else {
        l
    }
}

/// Convenience: area of a module after `aigmap` (the paper's metric).
///
/// # Errors
///
/// Propagates [`aigmap`] errors.
pub fn aig_area(module: &Module) -> Result<usize, NetlistError> {
    Ok(aigmap(module)?.area())
}
#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::{Module, SigSpec};

    fn mux_module(swap: bool) -> Module {
        let mut m = Module::new(if swap { "b" } else { "a" });
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let s = m.add_input("s", 1);
        let y = if swap {
            // y = s ? b : a  via AND/OR gates instead of a mux cell
            let mask = SigSpec::from_bits(vec![s.bit(0); 4]);
            let not_mask = m.not(&mask);
            let t1 = m.and(&b, &mask);
            let t2 = m.and(&a, &not_mask);
            m.or(&t1, &t2)
        } else {
            m.mux(&a, &b, &s)
        };
        m.add_output("y", &y);
        m
    }

    #[test]
    fn equivalent_structures_pass() {
        let m1 = mux_module(false);
        let m2 = mux_module(true);
        let r = check_equiv(&m1, &m2, &EquivOptions::default()).unwrap();
        assert_eq!(r, EquivResult::Equivalent);
    }

    #[test]
    fn identical_modules_short_circuit() {
        let m1 = mux_module(false);
        let m2 = mux_module(false);
        let r = check_equiv(&m1, &m2, &EquivOptions::default()).unwrap();
        assert_eq!(r, EquivResult::Equivalent);
    }

    #[test]
    fn inequivalent_detected_with_counterexample() {
        let mut m1 = Module::new("a");
        let a = m1.add_input("a", 4);
        let b = m1.add_input("b", 4);
        let y = m1.and(&a, &b);
        m1.add_output("y", &y);

        let mut m2 = Module::new("b");
        let a = m2.add_input("a", 4);
        let b = m2.add_input("b", 4);
        let y = m2.or(&a, &b);
        m2.add_output("y", &y);

        match check_equiv(&m1, &m2, &EquivOptions::default()).unwrap() {
            EquivResult::NotEquivalent {
                output,
                counterexample,
                ..
            } => {
                assert_eq!(output, "y");
                let av = counterexample["a"];
                let bv = counterexample["b"];
                assert_ne!(av & bv, av | bv);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn sat_catches_rare_difference() {
        // differ only when a == 0xffff: random sim over 4 vectors will
        // almost surely miss it, SAT must find it
        let mut m1 = Module::new("a");
        let a = m1.add_input("a", 16);
        let ones = SigSpec::ones(16);
        let y = m1.eq(&a, &ones);
        m1.add_output("y", &y);

        let mut m2 = Module::new("b");
        let _a = m2.add_input("a", 16);
        m2.add_output("y", &SigSpec::zeros(1));

        let opts = EquivOptions {
            sim_vectors: 4,
            ..Default::default()
        };
        match check_equiv(&m1, &m2, &opts).unwrap() {
            EquivResult::NotEquivalent { counterexample, .. } => {
                assert_eq!(counterexample["a"], 0xffff);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn rare_difference_under_xor_fold_refines_classes() {
        // `a == 0xffff` is constant 0 on 4 random patterns, so it lands in
        // the constant class; only the counterexample of its failed proof
        // separates the two folded outputs
        let build = |rare: bool| {
            let mut m = Module::new(if rare { "a" } else { "b" });
            let a = m.add_input("a", 16);
            let x = m.add_input("x", 16);
            let mut acc = if rare {
                m.eq(&a, &SigSpec::ones(16))
            } else {
                SigSpec::zeros(1)
            };
            for i in 0..16 {
                acc = m.xor(&acc, &x.slice(i, 1));
            }
            m.add_output("y", &acc);
            m
        };
        let opts = EquivOptions {
            sim_vectors: 4,
            ..Default::default()
        };
        match check_equiv(&build(true), &build(false), &opts).unwrap() {
            EquivResult::NotEquivalent {
                output,
                counterexample,
                ..
            } => {
                assert_eq!(output, "y");
                assert_eq!(counterexample["a"], 0xffff);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn rewritten_leaves_collapse_before_the_final_miter() {
        // the Tiny output shape: an XOR fold over mux leaves, once as
        // Fig. 3's `s ? (s | r ? a : b) : c` and once with the inner
        // select pinned, `s ? a : c`
        let build = |pinned: bool| {
            let mut m = Module::new(if pinned { "gate" } else { "gold" });
            let s = m.add_input("s", 8);
            let r = m.add_input("r", 8);
            let a = m.add_input("a", 8);
            let b = m.add_input("b", 8);
            let c = m.add_input("c", 8);
            let mut acc = SigSpec::zeros(1);
            for i in 0..8 {
                let (si, ai) = (s.slice(i, 1), a.slice(i, 1));
                let inner = if pinned {
                    ai
                } else {
                    let sr = m.or(&si, &r.slice(i, 1));
                    m.mux(&b.slice(i, 1), &ai, &sr)
                };
                let leaf = m.mux(&c.slice(i, 1), &inner, &si);
                acc = m.xor(&acc, &leaf);
            }
            m.add_output("y", &acc);
            m
        };
        let (verdict, final_miters) =
            check(&build(false), &build(true), &EquivOptions::default()).unwrap();
        assert_eq!(verdict, EquivResult::Equivalent);
        assert_eq!(final_miters, 0, "the sweep must collapse the output pair");
    }

    #[test]
    fn budget_outs_fall_to_the_final_miter() {
        // the partial products of `a * b` and `b * a` differ, so the high
        // product bits run past the sweep's own budget and stay unmerged;
        // the final miter alone honours `conflict_budget`
        let build = |swap: bool| {
            let mut m = Module::new("mul");
            let a = m.add_input("a", 7);
            let b = m.add_input("b", 7);
            let y = if swap { m.mul(&b, &a) } else { m.mul(&a, &b) };
            m.add_output("y", &y);
            m
        };
        let (gold, gate) = (build(false), build(true));
        let bounded = EquivOptions {
            conflict_budget: Some(1),
            ..Default::default()
        };
        let (verdict, final_miters) = check(&gold, &gate, &bounded).unwrap();
        assert!(
            matches!(verdict, EquivResult::Unknown { .. }),
            "{verdict:?}"
        );
        assert_eq!(final_miters, 1);
        let (verdict, final_miters) = check(&gold, &gate, &EquivOptions::default()).unwrap();
        assert_eq!(verdict, EquivResult::Equivalent);
        assert!(final_miters > 0);
    }

    #[test]
    fn port_mismatch_is_error() {
        let mut m1 = Module::new("a");
        let a = m1.add_input("a", 4);
        m1.add_output("y", &a);
        let mut m2 = Module::new("b");
        let b = m2.add_input("b", 4);
        m2.add_output("y", &b);
        assert!(check_equiv(&m1, &m2, &EquivOptions::default()).is_err());
    }

    #[test]
    fn sequential_equivalence_via_cut_points() {
        // register + increment, written two ways
        let build = |via_sub: bool| {
            let mut m = Module::new("c");
            let clk = m.add_input("clk", 1);
            let d = m.add_input("d", 4);
            let q = m.dff(&clk, &d);
            let one = SigSpec::const_u64(1, 4);
            let y = if via_sub {
                let minus1 = SigSpec::const_u64(0xF, 4);
                m.sub(&q, &minus1)
            } else {
                m.add(&q, &one)
            };
            m.add_output("y", &y);
            m
        };
        let r = check_equiv(&build(false), &build(true), &EquivOptions::default()).unwrap();
        assert_eq!(r, EquivResult::Equivalent);
    }

    #[test]
    fn deep_xor_chain_fast_path() {
        // two identical deep chains: must short-circuit structurally
        let build = || {
            let mut m = Module::new("deep");
            let a = m.add_input("a", 8);
            let b = m.add_input("b", 8);
            let mut acc = a.clone();
            for _ in 0..200 {
                acc = m.xor(&acc, &b);
                acc = m.add(&acc, &a);
            }
            m.add_output("y", &acc);
            m
        };
        let t = std::time::Instant::now();
        let r = check_equiv(&build(), &build(), &EquivOptions::default()).unwrap();
        assert_eq!(r, EquivResult::Equivalent);
        assert!(
            t.elapsed().as_millis() < 2_000,
            "structural fast path must avoid SAT"
        );
    }
}
