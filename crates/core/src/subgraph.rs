//! Sub-graph extraction around a control bit (paper §II).
//!
//! When the traversal meets an undecided control bit, smaRTLy gathers the
//! gates within distance `k` of it, together with the cones of the known
//! path-condition bits. Theorem II.1 then prunes the collection: a known
//! signal can only influence the target if one is an ancestor of the
//! other or they share a common ancestor — equivalently, if their leaf
//! *supports* intersect (transitively). The paper reports this dismisses
//! about 80% of gathered gates; [`SubgraphStats`] measures exactly that.

use smartly_netlist::{CellId, CellKind, Module, NetIndex, Port, SigBit, TriVal};
use smartly_sat::codec::{fnv64_extend, FNV64_OFFSET};
use std::collections::{HashMap, HashSet, VecDeque};

/// Cell kinds the inference/decision engines understand. Anything else
/// (sequential elements, multipliers, shifters) becomes a free leaf — a
/// sound over-approximation.
pub fn is_supported(kind: CellKind) -> bool {
    use CellKind::*;
    !matches!(kind, Dff | Mul | Shl | Shr)
}

/// A bounded cone of logic feeding a target bit.
#[derive(Clone, Debug)]
pub struct SubGraph {
    /// Cells in topological order (drivers before readers).
    pub cells: Vec<CellId>,
    /// Free leaf bits: canonical bits consumed by the sub-graph with no
    /// in-graph driver.
    pub leaves: Vec<SigBit>,
    /// The canonical target bit.
    pub target: SigBit,
}

/// Pruning effectiveness counters (for the paper's ~80% claim).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SubgraphStats {
    /// Gates gathered before Theorem II.1 pruning.
    pub gates_before_prune: usize,
    /// Gates kept afterwards.
    pub gates_after_prune: usize,
}

/// One backward cone: cells within `k` hops plus its leaf support.
#[derive(Clone)]
pub(crate) struct Cone {
    cells: HashSet<CellId>,
    leaves: HashSet<SigBit>,
}

/// Memoizes per-bit cones across the many queries of one pass sweep
/// (cones depend only on the netlist, which is immutable during a sweep).
#[derive(Default)]
pub struct ConeCache {
    map: HashMap<(SigBit, usize), std::rc::Rc<Cone>>,
    balls: HashMap<(SigBit, usize), std::rc::Rc<HashSet<CellId>>>,
    /// The cells reading each canonical bit, by bit id: the forward edges
    /// of the undirected gather, built for the sweep's first ball.
    cell_readers: Vec<Vec<CellId>>,
}

impl ConeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ConeCache::default()
    }

    fn get(
        &mut self,
        module: &Module,
        index: &NetIndex,
        start: SigBit,
        k: usize,
    ) -> std::rc::Rc<Cone> {
        let key = (index.canon(start), k);
        if let Some(c) = self.map.get(&key) {
            return c.clone();
        }
        let c = std::rc::Rc::new(cone(module, index, key.0, k));
        self.map.insert(key, c.clone());
        c
    }

    fn get_ball(
        &mut self,
        module: &Module,
        index: &NetIndex,
        start: SigBit,
        k: usize,
    ) -> std::rc::Rc<HashSet<CellId>> {
        let key = (index.canon(start), k);
        if let Some(b) = self.balls.get(&key) {
            return b.clone();
        }
        if self.cell_readers.is_empty() {
            self.cell_readers = vec![Vec::new(); index.bit_count()];
            for (id, cell) in module.cells() {
                for (_, spec) in cell.inputs() {
                    for bit in spec.iter() {
                        if let Some(i) = index.bit_id(index.canon(*bit)) {
                            self.cell_readers[i].push(id);
                        }
                    }
                }
            }
        }
        let b = std::rc::Rc::new(undirected_ball(module, index, &self.cell_readers, key.0, k));
        self.balls.insert(key, b.clone());
        b
    }
}

/// All cells within `k` *undirected* hops of `start` — the paper's raw
/// gather ("all logical gates within a specified distance k from the
/// control port"), before Theorem II.1 pruning. Sequential cells stop the
/// walk so the gathered region stays a DAG. `cell_readers` lists the
/// cells reading each canonical bit, by bit id.
fn undirected_ball(
    module: &Module,
    index: &NetIndex,
    cell_readers: &[Vec<CellId>],
    start: SigBit,
    k: usize,
) -> HashSet<CellId> {
    let mut cells: HashSet<CellId> = HashSet::new();
    let mut queue: VecDeque<(CellId, usize)> = VecDeque::new();
    let enqueue_bit = |bit: SigBit, depth: usize, queue: &mut VecDeque<(CellId, usize)>| {
        let c = index.canon(bit);
        if let Some(d) = index.driver(c) {
            queue.push_back((d.cell, depth));
        }
        if let Some(i) = index.bit_id(c) {
            queue.extend(cell_readers[i].iter().map(|&id| (id, depth)));
        }
    };
    enqueue_bit(start, 0, &mut queue);
    while let Some((id, depth)) = queue.pop_front() {
        let Some(cell) = module.cell(id) else {
            continue;
        };
        if !is_supported(cell.kind) {
            continue;
        }
        if !cells.insert(id) || depth >= k {
            continue;
        }
        for (_, spec) in cell.inputs() {
            for b in spec.iter() {
                enqueue_bit(*b, depth + 1, &mut queue);
            }
        }
        for b in cell.output().iter() {
            enqueue_bit(*b, depth + 1, &mut queue);
        }
    }
    cells
}

fn cone(module: &Module, index: &NetIndex, start: SigBit, k: usize) -> Cone {
    let mut cells: HashSet<CellId> = HashSet::new();
    let mut leaves: HashSet<SigBit> = HashSet::new();
    let mut queue: VecDeque<(SigBit, usize)> = VecDeque::new();
    queue.push_back((index.canon(start), 0));
    let mut seen_bits: HashSet<SigBit> = HashSet::new();
    while let Some((bit, depth)) = queue.pop_front() {
        if !seen_bits.insert(bit) {
            continue;
        }
        if bit.is_const() {
            continue;
        }
        let driver = index.driver(bit);
        let stop = match driver {
            None => true,
            Some(d) => {
                let cell = module.cell(d.cell).expect("live driver");
                !is_supported(cell.kind) || depth >= k
            }
        };
        if stop {
            leaves.insert(bit);
            continue;
        }
        let d = driver.expect("checked above");
        if cells.insert(d.cell) {
            let cell = module.cell(d.cell).expect("live driver");
            for (_, spec) in cell.inputs() {
                for b in spec.iter() {
                    queue.push_back((index.canon(*b), depth + 1));
                }
            }
        }
    }
    Cone { cells, leaves }
}

/// The rank table [`extract`] sorts cells by: entry `c` is the position
/// of cell id `c` in `order`, and `u32::MAX` for a cell not in it.
pub fn topo_ranks(order: &[CellId]) -> Vec<u32> {
    let mut ranks = vec![u32::MAX; order.iter().map(|c| c.index() + 1).max().unwrap_or(0)];
    for (rank, c) in order.iter().enumerate() {
        // cell ids are u32, so a position among them is too
        ranks[c.index()] = rank as u32;
    }
    ranks
}

/// Extracts the decision sub-graph for `target` under the path condition
/// `known`, with distance bound `k`. `topo_rank` is [`topo_ranks`] of a
/// topological order of `module`.
///
/// With `prune` set, only known bits whose cones share support with the
/// target's cone (transitively — the Theorem II.1 groups) contribute;
/// without it, every known bit's cone is merged (the ablation baseline).
pub fn extract(
    module: &Module,
    index: &NetIndex,
    topo_rank: &[u32],
    target: SigBit,
    known: &HashMap<SigBit, bool>,
    k: usize,
    prune: bool,
) -> (SubGraph, SubgraphStats) {
    let mut cache = ConeCache::new();
    extract_cached(
        module, index, topo_rank, target, known, k, prune, false, &mut cache,
    )
}

/// [`extract`] with a [`ConeCache`] shared across queries of one sweep.
///
/// With `measure_gather` set, `gates_before_prune` counts the paper's raw
/// distance-`k` gather (the undirected ball around the control port) —
/// accurate for the ~80%-dismissed ablation but not free; without it the
/// statistic falls back to the cheap cone-union count.
#[allow(clippy::too_many_arguments)]
pub fn extract_cached(
    module: &Module,
    index: &NetIndex,
    topo_rank: &[u32],
    target: SigBit,
    known: &HashMap<SigBit, bool>,
    k: usize,
    prune: bool,
    measure_gather: bool,
    cache: &mut ConeCache,
) -> (SubGraph, SubgraphStats) {
    let target = index.canon(target);
    let target_cone = cache.get(module, index, target, k);

    // cones of all known bits (gathered set, pre-pruning)
    let known_bits: Vec<SigBit> = known.keys().copied().collect();
    let known_cones: Vec<(SigBit, std::rc::Rc<Cone>)> = known_bits
        .iter()
        .map(|&b| (b, cache.get(module, index, b, k)))
        .collect();

    // the paper's raw gather is the undirected distance-k ball around the
    // control port plus the known-bit cones; Theorem II.1 (below) prunes
    // it to signals that can actually influence the target
    let gates_before_prune = {
        let mut all_cells: HashSet<CellId> = target_cone.cells.clone();
        if measure_gather {
            let ball = cache.get_ball(module, index, target, k);
            all_cells.extend(ball.iter().copied());
        }
        for (_, c) in &known_cones {
            all_cells.extend(c.cells.iter().copied());
        }
        all_cells.len()
    };

    // Theorem II.1 grouping: iteratively admit known bits whose support
    // intersects the accumulated support
    let mut support: HashSet<SigBit> = target_cone.leaves.clone();
    // a known bit that *is* in the cone (internal or leaf) is relevant too
    let mut in_graph_cells: HashSet<CellId> = target_cone.cells.clone();
    let mut leaves: HashSet<SigBit> = target_cone.leaves.clone();

    if prune {
        let mut admitted = vec![false; known_cones.len()];
        loop {
            let mut changed = false;
            for (i, (bit, c)) in known_cones.iter().enumerate() {
                if admitted[i] {
                    continue;
                }
                let touches = support.contains(bit)
                    || c.leaves.iter().any(|l| support.contains(l))
                    || c.cells.iter().any(|cl| in_graph_cells.contains(cl));
                if touches {
                    admitted[i] = true;
                    changed = true;
                    support.extend(c.leaves.iter().copied());
                    support.insert(*bit);
                    in_graph_cells.extend(c.cells.iter().copied());
                    leaves.extend(c.leaves.iter().copied());
                }
            }
            if !changed {
                break;
            }
        }
    } else {
        for (bit, c) in &known_cones {
            support.insert(*bit);
            in_graph_cells.extend(c.cells.iter().copied());
            leaves.extend(c.leaves.iter().copied());
        }
    }

    // drop "leaves" that are actually driven inside the merged graph
    let driven_inside: HashSet<SigBit> = in_graph_cells
        .iter()
        .flat_map(|&id| {
            module
                .cell(id)
                .expect("live cell")
                .output()
                .iter()
                .map(|b| index.canon(*b))
                .collect::<Vec<_>>()
        })
        .collect();
    let leaves: Vec<SigBit> = leaves
        .into_iter()
        .filter(|b| !driven_inside.contains(b))
        .collect();

    let mut cells: Vec<CellId> = in_graph_cells.into_iter().collect();
    cells.sort_by_key(|c| topo_rank.get(c.index()).copied().unwrap_or(u32::MAX));

    let stats = SubgraphStats {
        gates_before_prune,
        gates_after_prune: cells.len(),
    };
    (
        SubGraph {
            cells,
            leaves,
            target,
        },
        stats,
    )
}

/// A canonical, renaming-invariant key for one decision query: the
/// cone's structure with every net bit replaced by a dense first-use
/// index, followed by the target and the path condition restricted to
/// in-cone bits.
///
/// Two isomorphic queries — the same mux-tree shape replicated across a
/// bus, a structure duplicated by generate loops — produce *equal* keys,
/// so a verdict computed for one can be reused for the other (the
/// [`crate::QueryEngine`] memo layer). The key encodes the complete
/// structure, so equal keys can never conflate genuinely different
/// queries; a near-miss in cell ordering merely costs a memo miss.
pub fn query_key(
    module: &Module,
    index: &NetIndex,
    sub: &SubGraph,
    assign: &HashMap<SigBit, bool>,
) -> Vec<u64> {
    query_key_and_shape(module, index, sub, assign).0
}

/// A stable 64-bit fingerprint of the [`query_key`] *encoding scheme*:
/// FNV-1a over every [`CellKind`]'s discriminant and name plus the
/// scheme's sentinel constants.
///
/// Persisted knowledge (the driver's `smartly.kb` store) records this
/// fingerprint in its header. Keys are only comparable between runs
/// that encode cells identically — reordering the `CellKind` enum,
/// adding a variant, or renaming one changes the fingerprint, so a
/// loader that checks it falls back to a cold start instead of
/// replaying verdicts against silently re-numbered keys.
pub fn encoding_fingerprint() -> u64 {
    let mut h = FNV64_OFFSET;
    for kind in CellKind::ALL {
        h = fnv64_extend(h, &(kind as u64).to_le_bytes());
        h = fnv64_extend(h, kind.name().as_bytes());
    }
    // the non-kind encoding constants: const bit codes, the wire-id
    // offset, and the port/output/target sentinels
    for sentinel in [0u64, 1, 2, 3, u64::MAX - 64, u64::MAX - 128, u64::MAX - 129] {
        h = fnv64_extend(h, &sentinel.to_le_bytes());
    }
    h
}

/// The *shape* of a decision cone: the structure-only prefix of its
/// [`query_key`] — cells, connectivity and target with every wire bit
/// replaced by its first-use intern index, but **no path condition** —
/// folded to a 64-bit signature, plus the intern table mapping each
/// index back to this cone's canonical bit.
///
/// Isomorphic cones in *different modules* (bus-replicated peripherals,
/// parameter variants of one block) produce equal signatures with
/// corresponding bits at equal indices, so counterexample vectors
/// recorded against one cone can be replayed through the other: the
/// design-level shared bank keys on `sig` and stores per-index planes.
/// The signature is a hash — a collision can hand a cone someone else's
/// vectors, which costs a wasted replay but never a wrong verdict,
/// because replay re-verifies every lane against the querying cone's own
/// path condition.
#[derive(Clone, Debug)]
pub struct ConeShape {
    /// FNV-1a over the structural key prefix (and the intern count).
    pub sig: u64,
    /// `bits[i]` = the canonical bit interned at index `i`, in first-use
    /// order over the cone's cells.
    pub bits: Vec<SigBit>,
}

/// [`query_key`] and the cone's [`ConeShape`] in one pass (the key's
/// structural prefix is exactly what the shape hashes).
pub fn query_key_and_shape(
    module: &Module,
    index: &NetIndex,
    sub: &SubGraph,
    assign: &HashMap<SigBit, bool>,
) -> (Vec<u64>, ConeShape) {
    // constants encode as 0/1/2; wires as 3 + first-use index
    let mut ids: HashMap<SigBit, u64> = HashMap::new();
    let mut order: Vec<SigBit> = Vec::new();
    let mut intern = |bit: SigBit| -> u64 {
        match index.canon(bit) {
            SigBit::Const(TriVal::Zero) => 0,
            SigBit::Const(TriVal::One) => 1,
            SigBit::Const(TriVal::X) => 2,
            c => {
                let next = ids.len() as u64;
                3 + *ids.entry(c).or_insert_with(|| {
                    order.push(c);
                    next
                })
            }
        }
    };
    let mut key: Vec<u64> = Vec::with_capacity(sub.cells.len() * 8 + assign.len() * 2 + 2);
    for &id in &sub.cells {
        let cell = module.cell(id).expect("live cell");
        key.push(u64::MAX - cell.kind as u64);
        for port in [Port::A, Port::B, Port::S] {
            if let Some(spec) = cell.port(port) {
                key.push(u64::MAX - 64 - port as u64);
                for b in spec.iter() {
                    key.push(intern(*b));
                }
            }
        }
        key.push(u64::MAX - 128);
        for b in cell.output().iter() {
            key.push(intern(*b));
        }
    }
    key.push(u64::MAX - 129);
    key.push(intern(sub.target));

    // the shape signature covers exactly the structural prefix built so
    // far (FNV-1a, stable across processes) plus the intern width
    let sig = key
        .iter()
        .chain([&(order.len() as u64)])
        .fold(FNV64_OFFSET, |h, word| fnv64_extend(h, &word.to_le_bytes()));
    let shape = ConeShape { sig, bits: order };

    // the path condition, restricted to bits the cone references (bits
    // outside it cannot influence the verdict), in canonical id order
    let mut pairs: Vec<(u64, bool)> = assign
        .iter()
        .filter_map(|(b, &v)| ids.get(&index.canon(*b)).map(|&i| (3 + i, v)))
        .collect();
    pairs.sort_unstable();
    for (i, v) in pairs {
        key.push(i);
        key.push(u64::from(v));
    }
    (key, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::Module;

    fn ranks(m: &Module) -> Vec<u32> {
        topo_ranks(&m.topo_order().unwrap())
    }

    #[test]
    fn cone_respects_distance() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let n1 = m.not(&a);
        let n2 = m.not(&n1);
        let n3 = m.not(&n2);
        m.add_output("y", &n3);
        let index = NetIndex::build(&m);
        let r = ranks(&m);
        let (sub, _) = extract(
            &m,
            &index,
            &r,
            index.canon(n3.bit(0)),
            &HashMap::new(),
            2,
            true,
        );
        assert_eq!(sub.cells.len(), 2, "depth 2 keeps two inverters");
        // leaf is n1's output (cut) — not the primary input
        assert_eq!(sub.leaves.len(), 1);
        assert_eq!(sub.leaves[0], index.canon(n1.bit(0)));
    }

    #[test]
    fn measured_gather_walks_readers_as_well_as_drivers() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let n1 = m.not(&a);
        let n2 = m.not(&n1);
        let _beside = m.and(&a, &b);
        m.add_output("y", &n2);
        let index = NetIndex::build(&m);
        let r = ranks(&m);
        let target = index.canon(n1.bit(0));
        let gathered = |measure_gather| {
            let mut cache = ConeCache::new();
            let known = HashMap::new();
            let (_, stats) = extract_cached(
                &m,
                &index,
                &r,
                target,
                &known,
                1,
                true,
                measure_gather,
                &mut cache,
            );
            stats.gates_before_prune
        };
        // one hop from n1's output: n2 reads it, and the and gate reads
        // n1's input
        assert_eq!(gathered(true), 3);
        assert_eq!(gathered(false), 1, "the cone alone");
    }

    #[test]
    fn unsupported_cells_become_leaves() {
        let mut m = Module::new("t");
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let prod = m.mul(&a, &b);
        let red = m.reduce_or(&prod);
        m.add_output("y", &red);
        let index = NetIndex::build(&m);
        let r = ranks(&m);
        let (sub, _) = extract(
            &m,
            &index,
            &r,
            index.canon(red.bit(0)),
            &HashMap::new(),
            8,
            true,
        );
        assert_eq!(sub.cells.len(), 1, "multiplier must be cut");
        assert_eq!(sub.leaves.len(), 4, "its outputs become leaves");
    }

    #[test]
    fn pruning_dismisses_unrelated_known_cones() {
        let mut m = Module::new("t");
        // target cone: t = x | y
        let x = m.add_input("x", 1);
        let y = m.add_input("y", 1);
        let t = m.or(&x, &y);
        // related known: k1 = x & z (shares x)
        let z = m.add_input("z", 1);
        let k1 = m.and(&x, &z);
        // unrelated known: k2 = p ^ q (disjoint support)
        let p = m.add_input("p", 1);
        let q = m.add_input("q", 1);
        let k2 = m.xor(&p, &q);
        m.add_output("o1", &t);
        m.add_output("o2", &k1);
        m.add_output("o3", &k2);

        let index = NetIndex::build(&m);
        let r = ranks(&m);
        let mut known = HashMap::new();
        known.insert(index.canon(k1.bit(0)), true);
        known.insert(index.canon(k2.bit(0)), false);

        let (sub, stats) = extract(&m, &index, &r, index.canon(t.bit(0)), &known, 8, true);
        assert_eq!(stats.gates_before_prune, 3);
        assert_eq!(stats.gates_after_prune, 2, "xor cone dismissed");
        assert_eq!(sub.cells.len(), 2);

        // without pruning everything stays
        let (sub2, stats2) = extract(&m, &index, &r, index.canon(t.bit(0)), &known, 8, false);
        assert_eq!(stats2.gates_after_prune, 3);
        assert_eq!(sub2.cells.len(), 3);
    }

    #[test]
    fn transitive_relevance_is_kept() {
        let mut m = Module::new("t");
        let x = m.add_input("x", 1);
        let y = m.add_input("y", 1);
        let z = m.add_input("z", 1);
        let t = m.or(&x, &y); // target over {x,y}
        let k1 = m.and(&y, &z); // shares y with target
        let w = m.add_input("w", 1);
        let k2 = m.xor(&z, &w); // shares z with k1 only
        m.add_output("o1", &t);
        m.add_output("o2", &k1);
        m.add_output("o3", &k2);
        let index = NetIndex::build(&m);
        let r = ranks(&m);
        let mut known = HashMap::new();
        known.insert(index.canon(k1.bit(0)), true);
        known.insert(index.canon(k2.bit(0)), true);
        let (sub, _) = extract(&m, &index, &r, index.canon(t.bit(0)), &known, 8, true);
        assert_eq!(sub.cells.len(), 3, "k2 admitted via k1's support");
    }

    #[test]
    fn query_keys_canonicalize_isomorphic_cones() {
        let mut m = Module::new("t");
        // two copies of (a & b) | c on disjoint nets, plus one xor cone
        let mk = |m: &mut Module, tag: &str| {
            let a = m.add_input(&format!("a{tag}"), 1);
            let b = m.add_input(&format!("b{tag}"), 1);
            let c = m.add_input(&format!("c{tag}"), 1);
            let ab = m.and(&a, &b);
            let y = m.or(&ab, &c);
            m.add_output(&format!("y{tag}"), &y);
            (a, y)
        };
        let (a0, y0) = mk(&mut m, "0");
        let (a1, y1) = mk(&mut m, "1");
        let x = m.add_input("x", 1);
        let z = m.add_input("z", 1);
        let w = m.xor(&x, &z);
        m.add_output("w", &w);

        let index = NetIndex::build(&m);
        let r = ranks(&m);
        let key_of = |target: SigBit, known: &[(SigBit, bool)]| {
            let mut assign = HashMap::new();
            for (b, v) in known {
                assign.insert(index.canon(*b), *v);
            }
            let (sub, _) = extract(&m, &index, &r, index.canon(target), &assign, 8, true);
            query_key(&m, &index, &sub, &assign)
        };
        let k0 = key_of(y0.bit(0), &[(a0.bit(0), true)]);
        let k1 = key_of(y1.bit(0), &[(a1.bit(0), true)]);
        assert_eq!(k0, k1, "replicated structure must share a key");
        // different path-condition value ⇒ different key
        let k1f = key_of(y1.bit(0), &[(a1.bit(0), false)]);
        assert_ne!(k0, k1f);
        // different structure ⇒ different key
        let kw = key_of(w.bit(0), &[]);
        assert_ne!(k0, kw);
    }

    #[test]
    fn cone_shapes_match_across_modules_and_ignore_path_values() {
        // the same (a & b) | c cone built in two separate modules
        let mk = |name: &str| {
            let mut m = Module::new(name);
            let a = m.add_input("a", 1);
            let b = m.add_input("b", 1);
            let c = m.add_input("c", 1);
            let ab = m.and(&a, &b);
            let y = m.or(&ab, &c);
            m.add_output("y", &y);
            (m, a, y)
        };
        let (m0, a0, y0) = mk("alpha");
        let (m1, a1, y1) = mk("beta");
        let shape_of = |m: &Module, target: SigBit, known: &[(SigBit, bool)]| {
            let index = NetIndex::build(m);
            let r = ranks(m);
            let mut assign = HashMap::new();
            for (b, v) in known {
                assign.insert(index.canon(*b), *v);
            }
            let (sub, _) = extract(m, &index, &r, index.canon(target), &assign, 8, true);
            query_key_and_shape(m, &index, &sub, &assign).1
        };
        let s0 = shape_of(&m0, y0.bit(0), &[(a0.bit(0), true)]);
        let s1 = shape_of(&m1, y1.bit(0), &[(a1.bit(0), true)]);
        assert_eq!(s0.sig, s1.sig, "isomorphic cones share a signature");
        assert_eq!(s0.bits.len(), s1.bits.len());
        // the path-condition *value* never enters the shape
        let s1f = shape_of(&m1, y1.bit(0), &[(a1.bit(0), false)]);
        assert_eq!(s0.sig, s1f.sig);
        // intern order puts corresponding bits at corresponding indices
        let i0 = s0.bits.iter().position(|&b| b == a0.bit(0)).unwrap();
        let i1 = s1.bits.iter().position(|&b| b == a1.bit(0)).unwrap();
        assert_eq!(i0, i1);

        // a structurally different cone hashes differently
        let mut m2 = Module::new("gamma");
        let x = m2.add_input("x", 1);
        let z = m2.add_input("z", 1);
        let w = m2.xor(&x, &z);
        m2.add_output("w", &w);
        let s2 = shape_of(&m2, w.bit(0), &[]);
        assert_ne!(s0.sig, s2.sig);
    }

    /// Both hashes are persisted in `smartly.kb`, so their values must
    /// never drift: a drifted fingerprint rejects every existing file as
    /// stale, and a drifted shape signature orphans its counterexample
    /// records.
    #[test]
    fn persisted_hashes_are_pinned() {
        assert_eq!(encoding_fingerprint(), 0xd539_29ad_6644_bcbf);
        let mut m = Module::new("pin");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        let c = m.add_input("c", 1);
        let ab = m.and(&a, &b);
        let y = m.or(&ab, &c);
        m.add_output("y", &y);
        let index = NetIndex::build(&m);
        let r = ranks(&m);
        let mut assign = HashMap::new();
        assign.insert(index.canon(a.bit(0)), true);
        let (sub, _) = extract(&m, &index, &r, index.canon(y.bit(0)), &assign, 8, true);
        let (_, shape) = query_key_and_shape(&m, &index, &sub, &assign);
        assert_eq!(shape.bits.len(), 5);
        assert_eq!(shape.sig, 0x9a30_746f_d63a_60bb);
    }

    #[test]
    fn dff_is_a_cut_point() {
        let mut m = Module::new("t");
        let clk = m.add_input("clk", 1);
        let d = m.add_input("d", 1);
        let q = m.dff(&clk, &d);
        let y = m.not(&q);
        m.add_output("y", &y);
        let index = NetIndex::build(&m);
        let r = ranks(&m);
        let (sub, _) = extract(
            &m,
            &index,
            &r,
            index.canon(y.bit(0)),
            &HashMap::new(),
            8,
            true,
        );
        assert_eq!(sub.cells.len(), 1, "graph stops at the dff");
        assert_eq!(sub.leaves.len(), 1);
    }
}
