//! The structurally hashed and-inverter graph.

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
    /// A literal of no node, for the empty entries of dense tables: the
    /// graph never grows to its node, `2^31 − 1`.
    pub(crate) const NONE: AigLit = AigLit(u32::MAX);

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
///
/// Nodes are numbered in creation order. The structural hash is an
/// open-addressing table (linear probing, a power-of-two size, at most
/// half full) of AND-node indices, where 0 marks an empty slot: node 0
/// is the constant, never an AND. A slot's fanin pair is read back from
/// the node itself, so the table stores no keys, 4 bytes a slot.
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: Vec<u32>,
    /// node indices of inputs, in creation order
    inputs: Vec<u32>,
}

impl Default for Aig {
    fn default() -> Self {
        Aig::new()
    }
}

/// The smallest strash table, in slots.
const MIN_SLOTS: usize = 64;

impl Aig {
    /// Creates an AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::Const],
            strash: Vec::new(),
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
        let idx = self.push(AigNode::Input);
        self.inputs.push(idx);
        AigLit::new(idx, false)
    }

    /// Appends a node and returns its index.
    fn push(&mut self, node: AigNode) -> u32 {
        let idx = self.nodes.len() as u32;
        assert!(idx < AigLit::NONE.node(), "AIG node limit reached");
        self.nodes.push(node);
        idx
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
        let ands = self.nodes.len() - 1 - self.inputs.len();
        if 2 * (ands + 1) > self.strash.len() {
            self.grow_strash();
        }
        let slot = self.strash_slot(a, b);
        if self.strash[slot] == 0 {
            self.strash[slot] = self.push(AigNode::And(a, b));
        }
        AigLit::new(self.strash[slot], false)
    }

    /// The strash slot that holds the AND of `a` and `b` (ordered), or
    /// the empty slot where it belongs.
    fn strash_slot(&self, a: AigLit, b: AigLit) -> usize {
        let key = u64::from(a.0) << 32 | u64::from(b.0);
        // Fibonacci hashing: the top bits of the product index the table
        let bits = self.strash.len().trailing_zeros();
        let mask = self.strash.len() - 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        loop {
            let idx = self.strash[slot];
            if idx == 0 || self.nodes[idx as usize] == AigNode::And(a, b) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the strash table and re-slots every AND node.
    fn grow_strash(&mut self) {
        let slots = (2 * self.strash.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.strash, vec![0; slots]);
        for idx in old.into_iter().filter(|&idx| idx != 0) {
            let AigNode::And(a, b) = self.nodes[idx as usize] else {
                unreachable!("the strash holds only AND nodes");
            };
            let slot = self.strash_slot(a, b);
            self.strash[slot] = idx;
        }
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

    /// A seeded stream of ANDs over inputs, constants and earlier
    /// results, long enough to grow the table several times, gets the
    /// same literal for every call as folding plus a `HashMap` keyed by
    /// the ordered fanins, and the same node count.
    #[test]
    fn strash_matches_a_hash_map_oracle() {
        use std::collections::HashMap;
        let mut g = Aig::new();
        let mut lits: Vec<AigLit> = (0..16).map(|_| g.add_input()).collect();
        lits.extend([AigLit::FALSE, AigLit::TRUE]);
        let mut oracle: HashMap<(AigLit, AigLit), AigLit> = HashMap::new();
        let mut oracle_nodes = 1 + 16;
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40_000 {
            let mut pick = || {
                let r = next();
                // half the picks come from the first literals, so that
                // many pairs repeat and hit the table
                let range = if r & 1 == 0 {
                    lits.len()
                } else {
                    lits.len().min(24)
                };
                let lit = lits[(r >> 8) as usize % range];
                if r & 2 == 0 {
                    lit
                } else {
                    !lit
                }
            };
            let (a, b) = (pick(), pick());
            let want = if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
                AigLit::FALSE
            } else if a == AigLit::TRUE {
                b
            } else if b == AigLit::TRUE || a == b {
                a
            } else {
                *oracle.entry((a.min(b), a.max(b))).or_insert_with(|| {
                    oracle_nodes += 1;
                    AigLit::from_node(oracle_nodes as u32 - 1)
                })
            };
            assert_eq!(g.and(a, b), want, "and({a:?}, {b:?})");
            lits.push(want);
        }
        assert_eq!(g.node_count(), oracle_nodes);
        assert!(oracle.len() < 40_000, "the stream repeated pairs");
        assert!(
            g.strash.len() >= 64 * MIN_SLOTS,
            "the stream crossed several growths ({} slots)",
            g.strash.len()
        );
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
