//! The design-level knowledge base: a thread-safe counterexample bank
//! and verdict store shared by every module sweep of one
//! [`crate::optimize_design`] run — and, through [`crate::persist`],
//! across runs.
//!
//! A module's query engine keeps no SAT model past the query that found
//! it, so without a shared bank a design full of bus-replicated
//! peripherals and parameter variants re-derives the same witnesses once
//! per module. [`KnowledgeBase`] implements
//! [`smartly_core::SharedCexBank`]: SAT models are published under their
//! cone's canonical *shape signature*
//! ([`smartly_core::subgraph::ConeShape`]), and a sibling module whose
//! memo cache *near-misses* (same cone shape, different nets, so the
//! full-text module memo cannot fire) imports them as 64-wide replay
//! vectors instead of re-deriving witnesses from scratch.
//!
//! Soundness and determinism rest on the replay contract (see the
//! [`SharedCexBank`] docs): imported lanes are always re-verified
//! against the querying cone's own path condition, a refutation
//! concludes exactly the `Unknown` SAT would, and shared witnesses
//! never feed the SAT polarity skip. The bank can therefore be filled
//! in any scheduling order — every verdict the conflict budget does not
//! cut short is identical across `--jobs` settings and bank on/off, and
//! with it areas and digests (CI pins this empirically); only the
//! funnel-layer *attribution* (which layer answered) shifts, which is
//! why those counters live outside the digest.
//!
//! The bank is bounded: at most [`KnowledgeBase::capacity`] shapes are
//! tracked, evicted by *hit-count-weighted retention* (the least-hit,
//! then oldest, shape goes first, so hot shapes survive memory pressure
//! and the save/load cycle), and each shape holds a 64-lane ring of
//! models (later models overwrite the oldest lane).
//!
//! [`DesignVerdictStore`] is the verdict-side sibling
//! ([`smartly_core::SharedVerdictStore`]): canonical
//! [`query_key`](smartly_core::subgraph::query_key) → conclusive
//! verdict. It holds two generations — an immutable *disk* generation
//! loaded from a knowledge file, which lookups serve, and a *fresh*
//! generation accumulated from this run's conclusive decisions, which
//! only the save path reads. Serving only the immutable generation
//! keeps the hit pattern (and the `by_disk_verdict` counter) a pure
//! function of the loaded file and the input design, independent of
//! worker scheduling.

use smartly_core::decide::Decision;
use smartly_core::{SharedCexBank, SharedVectors, SharedVerdictStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default bound on tracked cone shapes.
pub const DEFAULT_KNOWLEDGE_CAPACITY: usize = 8_192;

/// One shape's ring of packed models.
#[derive(Clone, Debug)]
struct ShapeEntry {
    /// Intern-table width of the shape (collision guard: lookups with a
    /// different width miss).
    width: usize,
    /// Per-intern-index 64-lane value words.
    planes: Vec<u64>,
    /// Lanes holding a model (≤ 64).
    filled: u32,
    /// Next lane to (over)write.
    cursor: u32,
    /// Lookups this shape has answered (lifetime, carried across the
    /// save/load cycle) — the retention weight.
    hits: u64,
    /// Insertion sequence, the eviction tie-break (older goes first).
    seq: u64,
    /// Whether the entry was loaded from a knowledge file.
    from_disk: bool,
}

#[derive(Debug, Default)]
struct Bank {
    shapes: HashMap<u64, ShapeEntry>,
    /// Monotonic insertion counter backing the eviction tie-break.
    next_seq: u64,
    stats: KnowledgeStats,
}

impl Bank {
    /// Frees one slot by dropping the least-valuable shape: fewest hits,
    /// then oldest insertion. The linear scan runs only when a *new*
    /// shape arrives at capacity, and every new shape is minted by a
    /// SAT solve — the scan is microseconds next to the solve that
    /// produced the model. Returns whether a shape was dropped, so
    /// callers never loop on an empty bank.
    fn evict_one(&mut self) -> bool {
        let victim = self
            .shapes
            .iter()
            .min_by_key(|(sig, e)| (e.hits, e.seq, **sig))
            .map(|(sig, _)| *sig);
        match victim {
            Some(sig) => {
                self.shapes.remove(&sig);
                self.stats.evictions += 1;
                true
            }
            None => false,
        }
    }
}

/// Aggregate telemetry of a [`KnowledgeBase`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KnowledgeStats {
    /// Distinct cone shapes currently tracked.
    pub shapes: usize,
    /// Models published by module sweeps.
    pub published: u64,
    /// Lookups that returned vectors.
    pub hits: u64,
    /// Lookups answered by a shape loaded from a knowledge file (a
    /// subset of `hits`).
    pub disk_hits: u64,
    /// Lookups that found nothing (unknown shape, width mismatch, or an
    /// empty ring).
    pub misses: u64,
    /// Shapes evicted by the capacity bound.
    pub evictions: u64,
}

/// One shape's serializable state, as exchanged with [`crate::persist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeRecord {
    /// The cone shape signature ([`smartly_core::subgraph::ConeShape::sig`]).
    pub sig: u64,
    /// Intern-table width.
    pub width: u32,
    /// Lanes holding a model (≤ 64).
    pub filled: u32,
    /// Next ring lane to overwrite.
    pub cursor: u32,
    /// Lifetime lookup hits (the retention weight).
    pub hits: u64,
    /// Per-intern-index 64-lane value words (`width` of them).
    pub planes: Vec<u64>,
}

/// The design-lifetime shared counterexample bank (see the [module
/// docs](self)).
#[derive(Debug)]
pub struct KnowledgeBase {
    inner: Mutex<Bank>,
    capacity: usize,
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        KnowledgeBase::new(DEFAULT_KNOWLEDGE_CAPACITY)
    }
}

impl KnowledgeBase {
    /// A bank bounded to `capacity` cone shapes (minimum 1).
    pub fn new(capacity: usize) -> Self {
        KnowledgeBase {
            inner: Mutex::new(Bank::default()),
            capacity: capacity.max(1),
        }
    }

    /// The configured shape bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the bank's telemetry.
    pub fn stats(&self) -> KnowledgeStats {
        let bank = self.inner.lock().expect("knowledge bank poisoned");
        let mut s = bank.stats;
        s.shapes = bank.shapes.len();
        s
    }

    /// Seeds one shape from persistent state (marked disk-origin; does
    /// not count as a publish). Returns `false` once the bank is full —
    /// loaders feed records hot-first, so the overflow is the cold tail
    /// — or when the record is malformed / the signature already
    /// present.
    pub fn preload(&self, rec: &ShapeRecord) -> bool {
        if rec.planes.len() != rec.width as usize || rec.filled == 0 || rec.filled > 64 {
            return false;
        }
        let mut bank = self.inner.lock().expect("knowledge bank poisoned");
        if bank.shapes.len() >= self.capacity || bank.shapes.contains_key(&rec.sig) {
            return false;
        }
        let seq = bank.next_seq;
        bank.next_seq += 1;
        bank.shapes.insert(
            rec.sig,
            ShapeEntry {
                width: rec.width as usize,
                planes: rec.planes.clone(),
                filled: rec.filled,
                cursor: rec.cursor,
                hits: rec.hits,
                seq,
                from_disk: true,
            },
        );
        true
    }

    /// Serializable snapshot of every tracked shape, hottest first
    /// (hits descending, then signature ascending — a deterministic
    /// order for bounded saves).
    pub fn export(&self) -> Vec<ShapeRecord> {
        let bank = self.inner.lock().expect("knowledge bank poisoned");
        let mut records: Vec<ShapeRecord> = bank
            .shapes
            .iter()
            .map(|(&sig, e)| ShapeRecord {
                sig,
                width: e.width as u32,
                filled: e.filled,
                cursor: e.cursor,
                hits: e.hits,
                planes: e.planes.clone(),
            })
            .collect();
        records.sort_by(|a, b| b.hits.cmp(&a.hits).then(a.sig.cmp(&b.sig)));
        records
    }
}

impl SharedCexBank for KnowledgeBase {
    fn lookup(&self, sig: u64, width: usize) -> Option<SharedVectors> {
        let mut bank = self.inner.lock().expect("knowledge bank poisoned");
        match bank.shapes.get_mut(&sig) {
            Some(e) if e.width == width && e.filled > 0 => {
                e.hits += 1;
                let from_disk = e.from_disk;
                let vectors = SharedVectors {
                    planes: e.planes.clone(),
                    lanes: e.filled,
                };
                bank.stats.hits += 1;
                if from_disk {
                    bank.stats.disk_hits += 1;
                }
                Some(vectors)
            }
            _ => {
                bank.stats.misses += 1;
                None
            }
        }
    }

    fn publish(&self, sig: u64, values: &[bool]) {
        let mut bank = self.inner.lock().expect("knowledge bank poisoned");
        bank.stats.published += 1;
        if let Some(e) = bank.shapes.get_mut(&sig) {
            if e.width != values.len() {
                // signature collision between different shapes: keep the
                // incumbent (first-wins is as sound as any policy — the
                // colliding shape simply misses on lookup)
                return;
            }
            let lane = e.cursor % 64;
            e.cursor = e.cursor.wrapping_add(1);
            e.filled = (e.filled + 1).min(64);
            for (plane, &v) in e.planes.iter_mut().zip(values) {
                if v {
                    *plane |= 1 << lane;
                } else {
                    *plane &= !(1 << lane);
                }
            }
            return;
        }
        while bank.shapes.len() >= self.capacity && bank.evict_one() {}
        let planes = values
            .iter()
            .map(|&v| if v { 1u64 } else { 0 })
            .collect::<Vec<u64>>();
        let seq = bank.next_seq;
        bank.next_seq += 1;
        bank.shapes.insert(
            sig,
            ShapeEntry {
                width: values.len(),
                planes,
                filled: 1,
                cursor: 1,
                hits: 0,
                seq,
                from_disk: false,
            },
        );
    }
}

/// Telemetry of a [`DesignVerdictStore`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VerdictStoreStats {
    /// Entries in the immutable disk generation.
    pub disk_entries: usize,
    /// Entries published this run (fresh generation, saved later).
    pub fresh_entries: usize,
    /// Lookups answered by a disk entry.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Publish calls accepted into the fresh generation.
    pub published: u64,
}

/// The design-level, module-agnostic verdict store (see the [module
/// docs](self) for the two-generation determinism contract).
#[derive(Debug, Default)]
pub struct DesignVerdictStore {
    /// Immutable after construction; the only generation lookups serve.
    disk: HashMap<Box<[u64]>, Decision>,
    /// This run's conclusive verdicts, read only by the save path.
    fresh: Mutex<HashMap<Box<[u64]>, Decision>>,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    published: AtomicU64,
}

impl DesignVerdictStore {
    /// An empty store (cold start).
    pub fn new() -> Self {
        DesignVerdictStore::default()
    }

    /// A store whose disk generation holds `entries` (the load path).
    /// Non-conclusive decisions are dropped defensively — the save path
    /// never writes them, so their presence means a corrupt or
    /// hand-edited file.
    pub fn with_disk(entries: impl IntoIterator<Item = (Box<[u64]>, Decision)>) -> Self {
        DesignVerdictStore {
            disk: entries
                .into_iter()
                .filter(|(_, d)| !matches!(d, Decision::Skipped))
                .collect(),
            ..DesignVerdictStore::default()
        }
    }

    /// A snapshot of the store's telemetry.
    pub fn stats(&self) -> VerdictStoreStats {
        VerdictStoreStats {
            disk_entries: self.disk.len(),
            fresh_entries: self.fresh.lock().expect("verdict store poisoned").len(),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
        }
    }

    /// Serializable snapshot for saving: this run's fresh verdicts
    /// first, then the carried disk generation, both in ascending key
    /// order (deterministic given the same entry sets) and deduplicated
    /// fresh-first — so under a bounded save the newest knowledge wins.
    pub fn export(&self) -> Vec<(Box<[u64]>, Decision)> {
        let fresh = self.fresh.lock().expect("verdict store poisoned");
        let mut head: Vec<(Box<[u64]>, Decision)> =
            fresh.iter().map(|(k, &d)| (k.clone(), d)).collect();
        head.sort_by(|a, b| a.0.cmp(&b.0));
        let mut tail: Vec<(Box<[u64]>, Decision)> = self
            .disk
            .iter()
            .filter(|(k, _)| !fresh.contains_key(*k))
            .map(|(k, &d)| (k.clone(), d))
            .collect();
        tail.sort_by(|a, b| a.0.cmp(&b.0));
        head.extend(tail);
        head
    }
}

impl SharedVerdictStore for DesignVerdictStore {
    fn lookup(&self, key: &[u64]) -> Option<Decision> {
        match self.disk.get(key) {
            Some(&d) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(d)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn publish(&self, key: &[u64], decision: Decision) {
        if matches!(decision, Decision::Skipped) || self.disk.contains_key(key) {
            return;
        }
        let mut fresh = self.fresh.lock().expect("verdict store poisoned");
        if fresh.insert(key.into(), decision).is_none() {
            self.published.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_lookup_round_trips_lanes() {
        let kb = KnowledgeBase::new(8);
        kb.publish(42, &[true, false, true]);
        kb.publish(42, &[false, true, true]);
        let v = kb.lookup(42, 3).expect("hit");
        assert_eq!(v.lanes, 2);
        assert_eq!(v.planes, vec![0b01, 0b10, 0b11]);
        assert_eq!(kb.stats().published, 2);
        assert_eq!(kb.stats().hits, 1);
        assert_eq!(kb.stats().disk_hits, 0, "nothing was loaded from disk");
    }

    #[test]
    fn width_mismatch_misses_and_never_mixes() {
        let kb = KnowledgeBase::new(8);
        kb.publish(7, &[true, true]);
        // a colliding shape with a different width neither reads nor
        // corrupts the incumbent entry
        assert!(kb.lookup(7, 3).is_none());
        kb.publish(7, &[false, false, false]);
        let v = kb.lookup(7, 2).expect("incumbent survives");
        assert_eq!(v.lanes, 1);
        assert_eq!(kb.stats().misses, 1);
    }

    #[test]
    fn eviction_keeps_hot_shapes() {
        let kb = KnowledgeBase::new(2);
        kb.publish(1, &[true]);
        kb.publish(2, &[true]);
        // heat shape 1: the retention weight must now protect it even
        // though it is the older insertion
        assert!(kb.lookup(1, 1).is_some());
        kb.publish(3, &[true]);
        assert!(kb.lookup(1, 1).is_some(), "hot shape survives");
        assert!(kb.lookup(2, 1).is_none(), "cold shape was evicted");
        assert!(kb.lookup(3, 1).is_some());
        assert_eq!(kb.stats().evictions, 1);
        assert_eq!(kb.stats().shapes, 2);
    }

    #[test]
    fn eviction_tie_breaks_oldest_first() {
        let kb = KnowledgeBase::new(2);
        kb.publish(1, &[true]);
        kb.publish(2, &[true]);
        kb.publish(3, &[true]);
        assert!(kb.lookup(1, 1).is_none(), "equal hits: oldest goes first");
        assert!(kb.lookup(2, 1).is_some());
        assert!(kb.lookup(3, 1).is_some());
    }

    #[test]
    fn ring_overwrites_past_64_lanes() {
        let kb = KnowledgeBase::new(2);
        for i in 0..70 {
            kb.publish(9, &[i % 2 == 0]);
        }
        let v = kb.lookup(9, 1).expect("hit");
        assert_eq!(v.lanes, 64);
    }

    #[test]
    fn preload_and_export_round_trip() {
        let kb = KnowledgeBase::new(8);
        kb.publish(5, &[true, false]);
        let _ = kb.lookup(5, 2); // one hit, carried through export
        let records = kb.export();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].hits, 1);

        let warm = KnowledgeBase::new(8);
        assert!(warm.preload(&records[0]));
        assert!(!warm.preload(&records[0]), "duplicate preload is refused");
        let v = warm.lookup(5, 2).expect("preloaded shape answers");
        assert_eq!(v.planes, vec![1, 0]);
        let s = warm.stats();
        assert_eq!(s.disk_hits, 1, "hits on loaded shapes are attributed");
        assert_eq!(s.published, 0, "preload is not a publish");
        // exported again, the carried hit count has grown
        assert_eq!(warm.export()[0].hits, 2);
    }

    #[test]
    fn preload_rejects_malformed_records() {
        let kb = KnowledgeBase::new(8);
        let bad_width = ShapeRecord {
            sig: 1,
            width: 3,
            filled: 1,
            cursor: 1,
            hits: 0,
            planes: vec![0; 2],
        };
        assert!(!kb.preload(&bad_width));
        let bad_filled = ShapeRecord {
            sig: 2,
            width: 1,
            filled: 65,
            cursor: 1,
            hits: 0,
            planes: vec![0],
        };
        assert!(!kb.preload(&bad_filled));
        assert_eq!(kb.stats().shapes, 0);
    }

    #[test]
    fn verdict_store_serves_disk_only() {
        let key_a: Box<[u64]> = vec![1, 2, 3].into();
        let store = DesignVerdictStore::with_disk([(key_a.clone(), Decision::Const(true))]);
        assert_eq!(store.lookup(&key_a), Some(Decision::Const(true)));

        // a fresh publish is stored for saving but never served
        store.publish(&[9, 9], Decision::Unknown);
        assert_eq!(store.lookup(&[9, 9]), None);
        // re-publishing a disk key is a no-op
        store.publish(&key_a, Decision::Const(true));
        // skipped decisions are refused outright
        store.publish(&[7], Decision::Skipped);

        let s = store.stats();
        assert_eq!(s.disk_entries, 1);
        assert_eq!(s.fresh_entries, 1);
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.published, 1);

        // export: fresh first, then carried disk entries
        let exported = store.export();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0], (vec![9u64, 9].into(), Decision::Unknown));
        assert_eq!(exported[1], (key_a, Decision::Const(true)));
    }
}
