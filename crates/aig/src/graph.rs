//! The structurally hashed and-inverter graph.

use std::collections::HashMap;

/// A literal into an [`Aig`]: node index with a complement bit.
///
/// `AigLit(0)` is constant **false**, `AigLit(1)` constant **true**.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(u32);

impl AigLit {
    /// Constant false.
    pub const FALSE: AigLit = AigLit(0);
    /// Constant true.
    pub const TRUE: AigLit = AigLit(1);

    fn new(node: u32, complement: bool) -> Self {
        AigLit(node << 1 | u32::from(complement))
    }

    /// The positive literal of a node index.
    pub fn from_node(node: u32) -> Self {
        AigLit::new(node, false)
    }

    /// The node this literal points at.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this is one of the two constants.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// The constant value, if constant.
    pub fn as_const(self) -> Option<bool> {
        self.is_const().then(|| self.is_complement())
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;
    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

/// An AND node (or input/constant placeholder).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AigNode {
    /// The constant-false node (index 0 only).
    Const,
    /// A primary input.
    Input,
    /// A two-input AND gate.
    And(AigLit, AigLit),
}

/// A structurally hashed AIG.
///
/// ANDs are canonicalized (ordered fanins, constant/identity folding) and
/// deduplicated, so building the same function twice yields the same
/// literal — the `aigmap`-level equivalent of Yosys' strashing.
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: HashMap<(AigLit, AigLit), u32>,
    /// node indices of inputs, in creation order
    inputs: Vec<u32>,
}

impl Aig {
    /// Creates an AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::Const],
            strash: HashMap::new(),
            inputs: Vec::new(),
        }
    }

    /// Node indices of the primary inputs, in creation order.
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Total node count (constant + inputs + ANDs).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind a literal.
    pub fn node(&self, lit: AigLit) -> AigNode {
        self.nodes[lit.node() as usize]
    }

    /// Adds a primary input and returns its positive literal.
    pub fn add_input(&mut self) -> AigLit {
        let idx = self.nodes.len() as u32;
        self.nodes.push(AigNode::Input);
        self.inputs.push(idx);
        AigLit::new(idx, false)
    }

    /// AND with structural hashing and folding.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // constant / trivial folding
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&idx) = self.strash.get(&(a, b)) {
            return AigLit::new(idx, false);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(a, b));
        self.strash.insert((a, b), idx);
        AigLit::new(idx, false)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// XOR (two ANDs + OR = 3 AND nodes worst case).
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let t1 = self.and(a, !b);
        let t2 = self.and(!a, b);
        self.or(t1, t2)
    }

    /// XNOR.
    pub fn xnor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.xor(a, b)
    }

    /// If-then-else: `s ? t : e`.
    pub fn mux(&mut self, s: AigLit, t: AigLit, e: AigLit) -> AigLit {
        let pt = self.and(s, t);
        let pe = self.and(!s, e);
        self.or(pt, pe)
    }

    /// Conjunction of many literals (balanced tree).
    pub fn big_and(&mut self, lits: &[AigLit]) -> AigLit {
        match lits.len() {
            0 => AigLit::TRUE,
            1 => lits[0],
            _ => {
                let mid = lits.len() / 2;
                let l = self.big_and(&lits[..mid]);
                let r = self.big_and(&lits[mid..]);
                self.and(l, r)
            }
        }
    }

    /// Disjunction of many literals (balanced tree).
    pub fn big_or(&mut self, lits: &[AigLit]) -> AigLit {
        let negs: Vec<AigLit> = lits.iter().map(|&l| !l).collect();
        !self.big_and(&negs)
    }

    /// Counts AND nodes reachable from `roots` (the paper's area metric).
    pub fn count_ands(&self, roots: &[AigLit]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = roots.iter().map(|l| l.node()).collect();
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if seen[n as usize] {
                continue;
            }
            seen[n as usize] = true;
            if let AigNode::And(a, b) = self.nodes[n as usize] {
                count += 1;
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        count
    }

    /// Evaluates `roots` under an input assignment (`inputs[i]` = value of
    /// the `i`-th input in creation order).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the number of inputs.
    pub fn eval(&self, inputs: &[bool], roots: &[AigLit]) -> Vec<bool> {
        let mut values = vec![false; self.nodes.len()];
        let mut input_idx = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                AigNode::Const => values[i] = false,
                AigNode::Input => {
                    values[i] = inputs[input_idx];
                    input_idx += 1;
                }
                AigNode::And(a, b) => {
                    let va = values[a.node() as usize] ^ a.is_complement();
                    let vb = values[b.node() as usize] ^ b.is_complement();
                    values[i] = va && vb;
                }
            }
        }
        roots
            .iter()
            .map(|l| values[l.node() as usize] ^ l.is_complement())
            .collect()
    }

    /// Iterates over all nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = (u32, AigNode)> + '_ {
        self.nodes.iter().enumerate().map(|(i, &n)| (i as u32, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.add_input();
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(a, AigLit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), AigLit::FALSE);
        assert_eq!(g.or(a, AigLit::TRUE), AigLit::TRUE);
        assert_eq!(g.xor(a, AigLit::FALSE), a);
        assert_eq!(g.xor(a, AigLit::TRUE), !a);
    }

    #[test]
    fn strash_dedups() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let y1 = g.and(a, b);
        let y2 = g.and(b, a); // commuted
        assert_eq!(y1, y2);
        assert_eq!(g.count_ands(&[y1]), 1);
    }

    #[test]
    fn xor_truth_table() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let y = g.xor(a, b);
        for (av, bv) in [(false, false), (true, false), (false, true), (true, true)] {
            assert_eq!(g.eval(&[av, bv], &[y])[0], av ^ bv);
        }
    }

    #[test]
    fn mux_truth_table() {
        let mut g = Aig::new();
        let s = g.add_input();
        let t = g.add_input();
        let e = g.add_input();
        let y = g.mux(s, t, e);
        for i in 0..8u32 {
            let sv = i & 1 == 1;
            let tv = i & 2 == 2;
            let ev = i & 4 == 4;
            assert_eq!(
                g.eval(&[sv, tv, ev], &[y])[0],
                if sv { tv } else { ev },
                "case {i}"
            );
        }
    }

    #[test]
    fn area_counts_only_reachable() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let y = g.and(a, b);
        let _dead = g.xor(a, b); // 3 nodes, unreachable from y
        assert_eq!(g.count_ands(&[y]), 1);
    }

    #[test]
    fn big_gates() {
        let mut g = Aig::new();
        let xs: Vec<AigLit> = (0..5).map(|_| g.add_input()).collect();
        let all = g.big_and(&xs);
        let any = g.big_or(&xs);
        assert_eq!(g.eval(&[true; 5], &[all, any]), vec![true, true]);
        assert_eq!(g.eval(&[false; 5], &[all, any]), vec![false, false]);
        assert_eq!(
            g.eval(&[true, false, true, true, true], &[all, any]),
            vec![false, true]
        );
    }
}
