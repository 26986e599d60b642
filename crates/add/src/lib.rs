//! Algebraic Decision Diagrams (ADDs) for muxtree restructuring.
//!
//! An ADD generalizes a BDD from `{0,1}` terminals to an arbitrary finite
//! terminal set [Bahar et al. 1997]. The smaRTLy restructuring pass
//! (paper §III) collects a `case` statement's *control-bit → data-leaf*
//! function, builds an ADD over the individual control bits, and re-emits
//! one 2-to-1 MUX per internal node.
//!
//! Variable choice is the paper's greedy heuristic: at every node pick the
//! bit that minimizes the **sum of distinct terminal counts of the two
//! cofactors** (so the select `S2` of Listing 2 scores 4 = |{p1,p2,p3}| +
//! |{p0}| and beats `S0`'s 6). Because each node chooses its own variable
//! this is a *free* ADD; hash-consing still shares isomorphic subgraphs.
//!
//! # Example — the paper's Listing 1
//!
//! ```
//! use smartly_add::{FunctionTable, Add};
//!
//! // case (s[1:0]) 0:p0 1:p1 2:p2 default:p3 — terminals 0..=3
//! let mut t = FunctionTable::new_filled(2, 3);
//! t.set(0b00, 0);
//! t.set(0b01, 1);
//! t.set(0b10, 2);
//! let add = Add::build_greedy(&t);
//! assert_eq!(add.node_count(), 3); // three MUXes, as in paper Fig. 7
//! assert_eq!(add.eval(0b10), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// A complete function table over `width` input bits with `u32` terminals.
///
/// Index `i`'s bit `k` is the value of input bit `k` (LSB-first), matching
/// the control-bus bit order of the restructuring pass.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FunctionTable {
    width: u32,
    entries: Vec<u32>,
}

impl FunctionTable {
    /// A table of `2^width` entries, all set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 24` (tables are materialized in full).
    pub fn new_filled(width: u32, fill: u32) -> Self {
        assert!(width <= 24, "function tables are capped at 24 bits");
        FunctionTable {
            width,
            entries: vec![fill; 1usize << width],
        }
    }

    /// Number of input bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Sets entry `index` to terminal `t`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^width`.
    pub fn set(&mut self, index: usize, t: u32) {
        self.entries[index] = t;
    }

    /// The terminal for assignment `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^width`.
    pub fn get(&self, index: usize) -> u32 {
        self.entries[index]
    }

    /// Builds a table from priority-ordered cubes (first match wins).
    ///
    /// Each cube gives, per input bit, `Some(required value)` or `None`
    /// (don't care). Assignments matching no cube get `default`.
    ///
    /// # Panics
    ///
    /// Panics if a cube's length differs from `width` or `width > 24`.
    pub fn from_priority_cubes(
        width: u32,
        default: u32,
        cubes: &[(Vec<Option<bool>>, u32)],
    ) -> Self {
        let mut table = FunctionTable::new_filled(width, default);
        // apply lowest priority first so earlier cubes overwrite
        for (cube, t) in cubes.iter().rev() {
            assert_eq!(cube.len(), width as usize, "cube width mismatch");
            // enumerate assignments matching the cube
            let free: Vec<usize> = (0..width as usize).filter(|&i| cube[i].is_none()).collect();
            let base: usize = (0..width as usize)
                .map(|i| match cube[i] {
                    Some(true) => 1usize << i,
                    _ => 0,
                })
                .sum();
            for m in 0..(1usize << free.len()) {
                let mut idx = base;
                for (k, &bit) in free.iter().enumerate() {
                    if (m >> k) & 1 == 1 {
                        idx |= 1 << bit;
                    }
                }
                table.entries[idx] = *t;
            }
        }
        table
    }

    /// Distinct terminals of the sub-function where the bits listed in
    /// `fixed` take the given values.
    pub fn distinct_terminals(&self, fixed: &[(u32, bool)]) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        'outer: for idx in 0..self.entries.len() {
            for &(bit, val) in fixed {
                if ((idx >> bit) & 1 == 1) != val {
                    continue 'outer;
                }
            }
            let t = self.entries[idx];
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }
}

/// Reference to an ADD vertex: an internal node or a terminal.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AddRef {
    /// A terminal (leaf) value.
    Terminal(u32),
    /// An internal node, by index into [`Add::node`].
    Node(u32),
}

/// An internal decision node: branch on `var`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct AddNode {
    /// Input bit tested at this node.
    pub var: u32,
    /// Child when the bit is 0.
    pub lo: AddRef,
    /// Child when the bit is 1.
    pub hi: AddRef,
}

/// A reduced, hash-consed algebraic decision diagram.
#[derive(Clone, Debug)]
pub struct Add {
    nodes: Vec<AddNode>,
    root: AddRef,
    width: u32,
}

impl Add {
    /// Builds an ADD with the paper's greedy per-node bit selection.
    pub fn build_greedy(table: &FunctionTable) -> Add {
        Builder::new(table, None).build()
    }

    /// Builds an ADD with a fixed variable order (for the good-vs-bad
    /// ordering comparison of Listing 2 and the ablation bench).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..width`.
    pub fn build_with_order(table: &FunctionTable, order: &[u32]) -> Add {
        let mut sorted: Vec<u32> = order.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted == (0..table.width()).collect::<Vec<_>>(),
            "order must be a permutation of 0..width"
        );
        Builder::new(table, Some(order.to_vec())).build()
    }

    /// The root reference.
    pub fn root(&self) -> AddRef {
        self.root
    }

    /// Number of internal nodes — the number of 2-to-1 MUXes a rebuild
    /// needs.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind a [`AddRef::Node`].
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn node(&self, index: u32) -> AddNode {
        self.nodes[index as usize]
    }

    /// Longest root-to-terminal path (0 for a constant function).
    pub fn depth(&self) -> usize {
        fn walk(add: &Add, r: AddRef) -> usize {
            match r {
                AddRef::Terminal(_) => 0,
                AddRef::Node(i) => {
                    let n = add.node(i);
                    1 + walk(add, n.lo).max(walk(add, n.hi))
                }
            }
        }
        walk(self, self.root)
    }

    /// Evaluates the diagram on assignment `index` (bit `k` of `index` =
    /// input bit `k`).
    pub fn eval(&self, index: usize) -> u32 {
        let mut cur = self.root;
        loop {
            match cur {
                AddRef::Terminal(t) => return t,
                AddRef::Node(i) => {
                    let n = self.node(i);
                    cur = if (index >> n.var) & 1 == 1 {
                        n.hi
                    } else {
                        n.lo
                    };
                }
            }
        }
    }

    /// Distinct terminals reachable from the root.
    pub fn terminals(&self) -> Vec<u32> {
        let mut out = Vec::new();
        fn walk(add: &Add, r: AddRef, out: &mut Vec<u32>) {
            match r {
                AddRef::Terminal(t) => {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
                AddRef::Node(i) => {
                    let n = add.node(i);
                    walk(add, n.lo, out);
                    walk(add, n.hi, out);
                }
            }
        }
        walk(self, self.root, &mut out);
        out
    }

    /// Input bit count of the source table.
    pub fn width(&self) -> u32 {
        self.width
    }
}

struct Builder<'t> {
    table: &'t FunctionTable,
    order: Option<Vec<u32>>,
    nodes: Vec<AddNode>,
    unique: HashMap<AddNode, u32>,
    /// memo: (free variable set, subtable signature) → node
    memo: HashMap<(Vec<u32>, Vec<u32>), AddRef>,
}

impl<'t> Builder<'t> {
    fn new(table: &'t FunctionTable, order: Option<Vec<u32>>) -> Self {
        Builder {
            table,
            order,
            nodes: Vec::new(),
            unique: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    fn build(mut self) -> Add {
        let fixed: Vec<(u32, bool)> = Vec::new();
        let root = self.rec(&fixed, 0);
        Add {
            nodes: self.nodes,
            root,
            width: self.table.width(),
        }
    }

    /// Enumerates the subtable entries under `fixed`, in index order.
    fn subtable(&self, fixed: &[(u32, bool)]) -> Vec<u32> {
        let w = self.table.width() as usize;
        let mut out = Vec::new();
        'outer: for idx in 0..(1usize << w) {
            for &(bit, val) in fixed {
                if ((idx >> bit) & 1 == 1) != val {
                    continue 'outer;
                }
            }
            out.push(self.table.get(idx));
        }
        out
    }

    fn rec(&mut self, fixed: &[(u32, bool)], depth: usize) -> AddRef {
        let fixed_bits: Vec<u32> = {
            let mut v: Vec<u32> = fixed.iter().map(|&(b, _)| b).collect();
            v.sort_unstable();
            v
        };
        let free: Vec<u32> = (0..self.table.width())
            .filter(|v| !fixed_bits.contains(v))
            .collect();
        let sub = self.subtable(fixed);
        let key = (free, sub);
        if let Some(&r) = self.memo.get(&key) {
            return r;
        }
        // constant sub-function?
        if key.1.iter().all(|&t| t == key.1[0]) {
            let r = AddRef::Terminal(key.1[0]);
            self.memo.insert(key, r);
            return r;
        }
        let var = match &self.order {
            Some(order) => order[depth.min(order.len() - 1)],
            None => {
                // greedy: minimize |terminals(lo)| + |terminals(hi)|
                let mut best = (usize::MAX, 0u32);
                for v in 0..self.table.width() {
                    if fixed_bits.contains(&v) {
                        continue;
                    }
                    let mut f0 = fixed.to_vec();
                    f0.push((v, false));
                    let mut f1 = fixed.to_vec();
                    f1.push((v, true));
                    let score = self.table.distinct_terminals(&f0).len()
                        + self.table.distinct_terminals(&f1).len();
                    if score < best.0 {
                        best = (score, v);
                    }
                }
                best.1
            }
        };
        // with a fixed order the chosen var may already be fixed (skip it)
        if fixed_bits.contains(&var) {
            return self.rec_with_next_order_var(fixed, depth);
        }
        let mut f0 = fixed.to_vec();
        f0.push((var, false));
        let lo = self.rec(&f0, depth + 1);
        let mut f1 = fixed.to_vec();
        f1.push((var, true));
        let hi = self.rec(&f1, depth + 1);
        let r = if lo == hi {
            lo
        } else {
            let node = AddNode { var, lo, hi };
            let idx = match self.unique.get(&node) {
                Some(&i) => i,
                None => {
                    let i = self.nodes.len() as u32;
                    self.nodes.push(node);
                    self.unique.insert(node, i);
                    i
                }
            };
            AddRef::Node(idx)
        };
        self.memo.insert(key, r);
        r
    }

    fn rec_with_next_order_var(&mut self, fixed: &[(u32, bool)], depth: usize) -> AddRef {
        self.rec(fixed, depth + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Listing 2 of the paper: casez (s) 3'b1zz:p0; 3'b01z:p1; 3'b001:p2;
    /// default:p3 — bits LSB-first so `3'b1zz` = bit2 must be 1.
    fn listing2_table() -> FunctionTable {
        FunctionTable::from_priority_cubes(
            3,
            3,
            &[
                (vec![None, None, Some(true)], 0),
                (vec![None, Some(true), Some(false)], 1),
                (vec![Some(true), Some(false), Some(false)], 2),
            ],
        )
    }

    #[test]
    fn listing1_gives_three_nodes() {
        let mut t = FunctionTable::new_filled(2, 3);
        t.set(0b00, 0);
        t.set(0b01, 1);
        t.set(0b10, 2);
        let add = Add::build_greedy(&t);
        assert_eq!(add.node_count(), 3);
        for idx in 0..4 {
            assert_eq!(add.eval(idx), t.get(idx), "idx {idx}");
        }
    }

    #[test]
    fn listing2_greedy_three_vs_bad_order_seven() {
        let t = listing2_table();
        let greedy = Add::build_greedy(&t);
        assert_eq!(greedy.node_count(), 3, "good assignment: 3 MUXes");
        // the paper: assigning S0 first needs 7 MUXes
        let bad = Add::build_with_order(&t, &[0, 1, 2]);
        assert!(
            bad.node_count() > greedy.node_count(),
            "bad order {} should exceed greedy {}",
            bad.node_count(),
            greedy.node_count()
        );
        // both evaluate identically
        for idx in 0..8 {
            assert_eq!(greedy.eval(idx), t.get(idx));
            assert_eq!(bad.eval(idx), t.get(idx));
        }
    }

    #[test]
    fn greedy_picks_msb_for_listing2() {
        let t = listing2_table();
        let add = Add::build_greedy(&t);
        match add.root() {
            AddRef::Node(i) => assert_eq!(add.node(i).var, 2, "root should test S2"),
            AddRef::Terminal(_) => panic!("root must be a node"),
        }
    }

    #[test]
    fn constant_function_has_no_nodes() {
        let t = FunctionTable::new_filled(4, 7);
        let add = Add::build_greedy(&t);
        assert_eq!(add.node_count(), 0);
        assert_eq!(add.root(), AddRef::Terminal(7));
        assert_eq!(add.depth(), 0);
    }

    #[test]
    fn redundant_var_is_skipped() {
        // f(s1, s0) = s1 ? a : b — s0 never matters
        let mut t = FunctionTable::new_filled(2, 0);
        t.set(0b10, 1);
        t.set(0b11, 1);
        let add = Add::build_greedy(&t);
        assert_eq!(add.node_count(), 1);
        match add.root() {
            AddRef::Node(i) => assert_eq!(add.node(i).var, 1),
            AddRef::Terminal(_) => panic!("root must be a node"),
        }
    }

    #[test]
    fn sharing_collapses_isomorphic_subtrees() {
        // f = parity-ish function with shared cofactors:
        // f(s1,s0) = s0 (independent of s1): must share to a single node
        let mut t = FunctionTable::new_filled(2, 0);
        t.set(0b01, 1);
        t.set(0b11, 1);
        let add = Add::build_greedy(&t);
        assert_eq!(add.node_count(), 1);
    }

    #[test]
    fn terminals_reports_reachable_set() {
        let t = listing2_table();
        let add = Add::build_greedy(&t);
        let mut ts = add.terminals();
        ts.sort_unstable();
        assert_eq!(ts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn from_priority_cubes_respects_priority() {
        // overlapping cubes: first matches 1xx -> 9, second xx1 -> 5
        let t = FunctionTable::from_priority_cubes(
            3,
            0,
            &[
                (vec![None, None, Some(true)], 9),
                (vec![Some(true), None, None], 5),
            ],
        );
        assert_eq!(t.get(0b101), 9, "higher priority cube wins");
        assert_eq!(t.get(0b001), 5);
        assert_eq!(t.get(0b010), 0);
    }

    #[test]
    fn eval_matches_table_exhaustively_random() {
        let mut seed = 0xabcdef12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let w = 1 + (next() % 6) as u32;
            let nterm = 1 + (next() % 5) as u32;
            let mut t = FunctionTable::new_filled(w, 0);
            for idx in 0..(1usize << w) {
                t.set(idx, (next() % nterm as u64) as u32);
            }
            let add = Add::build_greedy(&t);
            for idx in 0..(1usize << w) {
                assert_eq!(add.eval(idx), t.get(idx));
            }
            // node count can never exceed a complete tree
            assert!(add.node_count() < (1 << w));
            assert!(add.depth() <= w as usize);
        }
    }
}
