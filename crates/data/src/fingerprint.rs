//! Canonical completion fingerprints and the hash-range partition of their
//! space.
//!
//! Distinct-completion counting identifies a completion by its **canonical
//! fingerprint** ([`CompletionKey`]): the completion's facts as
//! `(relation index, tuple)` pairs, sorted and deduplicated. Two valuations
//! induce the same completion iff they produce the same fingerprint (set
//! semantics make the sorted, deduplicated fact list a canonical form), so a
//! set of fingerprints counts distinct completions without ever
//! materialising a [`Database`] — and the lexicographic
//! order on fingerprints is a *total, stable* canonical order on
//! completions, the order the streaming enumerator of `incdb-stream` pages
//! through. Counters whose keys never leave the walk drop the ground block
//! every completion shares and key on the rest
//! ([`Grounding::residual_key_into`](crate::Grounding::residual_key_into)).
//!
//! On top of the key, [`fingerprint_hash`] maps every fingerprint to a
//! 64-bit point, and a [`HashRange`] names a contiguous slice of that space.
//! Splitting `[0, 2⁶⁴)` into ranges partitions the *completion* space: every
//! completion lands in exactly one range, so per-range walks of the same
//! search tree count disjoint fingerprint sets whose sizes simply add up.
//! That is the primitive behind hash-range-sharded distinct counting, where
//! resident memory is bounded by the largest shard instead of the whole
//! fingerprint set.
//!
//! The hash is a fixed, explicitly specified function (word-level FNV-1a
//! with a murmur-style finaliser) — **stable across runs, platforms and
//! releases** — because shard partitions and serialized cursors outlive a
//! process. It is *not* keyed: it defends against accidents, not
//! adversaries.

use crate::database::Database;
use crate::value::Constant;

/// The canonical fingerprint of one completion: its facts as
/// `(relation index, tuple)` pairs, sorted and deduplicated. Relation
/// indices follow the lexicographic relation order of the owning
/// [`Grounding`](crate::Grounding) (see
/// [`Grounding::relation_names`](crate::Grounding::relation_names)).
/// The same type holds a residual key
/// ([`Grounding::residual_key_into`](crate::Grounding::residual_key_into)):
/// the fingerprint minus the table's ground block, which tells completions
/// apart but names none on its own.
pub type CompletionKey = Vec<(usize, Vec<Constant>)>;

/// Materialises a canonical fingerprint as a [`Database`], declaring every
/// relation of the schema first (a completion keeps empty relations).
/// `rel_names` must be the lexicographic relation order the key's relation
/// indices were produced against
/// ([`Grounding::relation_names`](crate::Grounding::relation_names)).
pub fn materialize_completion(rel_names: &[String], key: &CompletionKey) -> Database {
    let mut out = Database::new();
    for name in rel_names {
        out.declare_relation(name);
    }
    for (rel, tuple) in key {
        out.add_fact(&rel_names[*rel], tuple.clone())
            .expect("fingerprint tuples respect the relation arity");
    }
    out
}

/// The heap bytes one [`CompletionKey`] holds: its fact slots plus every
/// tuple's constants, counted by allocated capacity. Budget reporting
/// charges resident keys with it; a residual key
/// ([`Grounding::residual_key_into`](crate::Grounding::residual_key_into))
/// stays the same size however many ground facts the table holds.
pub fn key_heap_bytes(key: &CompletionKey) -> usize {
    let slots = key.capacity() * std::mem::size_of::<(usize, Vec<Constant>)>();
    let tuples: usize = key
        .iter()
        .map(|(_, tuple)| tuple.capacity() * std::mem::size_of::<Constant>())
        .sum();
    slots + tuples
}

/// A bounded, reusable buffer of [`CompletionKey`]s in ascending canonical
/// order — the page accumulator of the bounded selection walks
/// (the `PageSink` walks of `incdb-core`) and of the streaming
/// pager built on them.
///
/// The heap replaces the `BTreeSet<CompletionKey>` the selection walks used
/// to fill: a sorted `Vec` gives the same `len`/`last`/insert/`pop_last`
/// protocol, and — the point — **retains its allocations across uses**.
/// Keys displaced from a full page (or cleared between page fills) retire
/// into a spare list instead of being dropped; the next insertion reuses a
/// retired key's buffers via `clone_from`. A long-lived pager (one
/// [`CompletionStream`] draining thousands of pages, or a serving layer's
/// per-worker scratch) therefore stops paying per-candidate heap churn
/// once the first page has warmed the buffers, pinned by
/// [`PageHeap::fresh_keys`].
///
/// [`CompletionStream`]: ../../incdb_stream/struct.CompletionStream.html
#[derive(Debug, Clone, Default)]
pub struct PageHeap {
    /// The held keys, sorted ascending and deduplicated.
    keys: Vec<CompletionKey>,
    /// Retired keys kept for allocation reuse; contents are meaningless.
    spare: Vec<CompletionKey>,
    /// How many keys were ever allocated from scratch (no spare available)
    /// — the allocation-count observable the amortisation tests pin.
    fresh_keys: u64,
}

impl PageHeap {
    /// Creates an empty heap.
    pub fn new() -> PageHeap {
        PageHeap::default()
    }

    /// The number of keys currently held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no key is held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The smallest held key.
    pub fn first(&self) -> Option<&CompletionKey> {
        self.keys.first()
    }

    /// The largest held key.
    pub fn last(&self) -> Option<&CompletionKey> {
        self.keys.last()
    }

    /// The held keys in ascending canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &CompletionKey> {
        self.keys.iter()
    }

    /// The held keys as one ascending slice.
    pub fn as_slice(&self) -> &[CompletionKey] {
        &self.keys
    }

    /// How many keys were allocated from scratch over this heap's lifetime
    /// (insertions that found no retired key to reuse). A warmed heap
    /// serving bounded pages stops advancing this counter: every displaced
    /// key funds a later insertion.
    pub fn fresh_keys(&self) -> u64 {
        self.fresh_keys
    }

    /// Inserts a copy of `key` unless already present, reusing a retired
    /// key's allocations when one is available. Returns `true` if the heap
    /// grew.
    pub fn insert(&mut self, key: &CompletionKey) -> bool {
        match self.keys.binary_search(key) {
            Ok(_) => false,
            Err(at) => {
                let mut slot = match self.spare.pop() {
                    Some(spare) => spare,
                    None => {
                        self.fresh_keys += 1;
                        CompletionKey::new()
                    }
                };
                slot.clone_from(key);
                self.keys.insert(at, slot);
                true
            }
        }
    }

    /// Removes the largest key, retiring its allocations for reuse.
    pub fn pop_last(&mut self) {
        if let Some(key) = self.keys.pop() {
            self.spare.push(key);
        }
    }

    /// The bounded-page admission protocol shared by every selection walk:
    /// offers `key` to a page of at most `cap` keys strictly greater than
    /// `after`, displacing the current maximum when the page is full and
    /// `key` sorts below it. Returns `true` if the key entered the page.
    ///
    /// Pre-existing keys participate in the bound, so several walks (e.g.
    /// task walks over a partition of the search tree) can accumulate into
    /// one heap.
    pub fn admit(
        &mut self,
        key: &CompletionKey,
        after: Option<&CompletionKey>,
        cap: usize,
    ) -> bool {
        let cap = cap.max(1);
        if after.is_some_and(|a| key <= a) {
            return false;
        }
        if self.keys.len() >= cap {
            // A full page only admits the candidate by displacing the
            // current maximum; `>=` also rejects a re-arrival of the
            // maximum itself.
            let max = self.keys.last().expect("cap is at least 1");
            if key >= max {
                return false;
            }
        }
        // `insert` refuses duplicates, so the page only shrinks back when
        // the candidate genuinely displaced the maximum.
        if self.insert(key) {
            if self.keys.len() > cap {
                self.pop_last();
            }
            true
        } else {
            false
        }
    }

    /// Empties the heap, retiring every key's allocations for reuse.
    pub fn clear(&mut self) {
        self.spare.append(&mut self.keys);
    }

    /// Moves the held keys out in ascending order, leaving the heap empty.
    /// The moved keys take their allocations with them (they now belong to
    /// the caller); the heap's own backbone and spare list are retained.
    pub fn drain(&mut self) -> std::vec::Drain<'_, CompletionKey> {
        self.keys.drain(..)
    }
}

impl<'a> IntoIterator for &'a PageHeap {
    type Item = &'a CompletionKey;
    type IntoIter = std::slice::Iter<'a, CompletionKey>;

    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one 64-bit word into a running FNV-1a state.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// The murmur3 / splitmix 64-bit finaliser: avalanches the FNV state so the
/// *high* bits (which [`HashRange`] partitions on) depend on every input
/// word.
#[inline]
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The stable 64-bit hash of a canonical fingerprint.
///
/// Facts are folded in order with their relation index and arity, so the
/// encoding is prefix-free and two different keys collide only by hash
/// accident (probability ≈ 2⁻⁶⁴ per pair). The function is deterministic
/// across runs and platforms — shard assignments and paging cursors may be
/// persisted.
pub fn fingerprint_hash(key: &[(usize, Vec<Constant>)]) -> u64 {
    let mut h = fold(FNV_OFFSET, key.len() as u64);
    for (rel, tuple) in key {
        h = fold(h, *rel as u64);
        h = fold(h, tuple.len() as u64);
        for c in tuple {
            h = fold(h, c.0);
        }
    }
    finalize(h)
}

/// A contiguous, inclusive range `[start, last]` of the 64-bit fingerprint
/// hash space.
///
/// Ranges produced by [`HashRange::full`], [`HashRange::partition`] and
/// [`HashRange::split`] tile the space without gaps or overlaps, so the
/// fingerprints falling in distinct ranges are disjoint sets — the
/// correctness invariant of sharded distinct counting. Bounds are inclusive
/// so that `u64::MAX` is representable without widening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashRange {
    /// Smallest hash in the range.
    pub start: u64,
    /// Largest hash in the range (inclusive).
    pub last: u64,
}

impl HashRange {
    /// The whole hash space `[0, u64::MAX]` — the "one shard" partition.
    pub fn full() -> HashRange {
        HashRange {
            start: 0,
            last: u64::MAX,
        }
    }

    /// Returns `true` if `hash` falls in this range.
    #[inline]
    pub fn contains(&self, hash: u64) -> bool {
        self.start <= hash && hash <= self.last
    }

    /// The number of hash points covered, saturating at `u64::MAX` for the
    /// full range.
    pub fn width(&self) -> u64 {
        (self.last - self.start).saturating_add(1)
    }

    /// Splits the range into two non-empty halves, or `None` if it covers a
    /// single point and cannot shrink further.
    pub fn split(&self) -> Option<(HashRange, HashRange)> {
        if self.start == self.last {
            return None;
        }
        let mid = self.start + (self.last - self.start) / 2;
        Some((
            HashRange {
                start: self.start,
                last: mid,
            },
            HashRange {
                start: mid + 1,
                last: self.last,
            },
        ))
    }

    /// Locates `hash` among `ranges` by binary search, returning the index
    /// of the (unique) range containing it, or `None` when no range does.
    ///
    /// `ranges` must be sorted by `start` and pairwise disjoint — the shape
    /// produced by [`HashRange::partition`], preserved by [`HashRange::split`]
    /// and by removing ranges. This is the O(log n) bucket step that lets a
    /// *single* walk of the search tree feed many per-range accumulators at
    /// once instead of re-walking the tree per range.
    pub fn find(ranges: &[HashRange], hash: u64) -> Option<usize> {
        let i = ranges.partition_point(|r| r.last < hash);
        (i < ranges.len() && ranges[i].contains(hash)).then_some(i)
    }

    /// Partitions the full hash space into `shards` contiguous ranges of
    /// near-equal width (the first `2⁶⁴ mod shards` ranges are one point
    /// wider). With a well-distributed hash, each range receives an
    /// approximately equal share of the fingerprints.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn partition(shards: usize) -> Vec<HashRange> {
        assert!(shards > 0, "a partition needs at least one shard");
        let shards = shards as u128;
        let space = 1u128 << 64;
        (0..shards)
            .map(|i| HashRange {
                start: (space * i / shards) as u64,
                last: ((space * (i + 1) / shards) - 1) as u64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(facts: &[(usize, &[u64])]) -> CompletionKey {
        facts
            .iter()
            .map(|(rel, tuple)| (*rel, tuple.iter().map(|&c| Constant(c)).collect()))
            .collect()
    }

    #[test]
    fn hash_is_stable_and_discriminating() {
        let a = key(&[(0, &[1, 2]), (1, &[3])]);
        // Pinned literal: persisted shard partitions and cursors depend on
        // the hash never changing, so any tweak to the constants or the
        // finaliser must fail this test.
        assert_eq!(fingerprint_hash(&a), 0x219b_d4b3_7e00_318f);
        let b = key(&[(0, &[1, 2]), (1, &[4])]);
        let c = key(&[(0, &[1]), (1, &[2, 3])]);
        let d = key(&[(1, &[1, 2]), (0, &[3])]);
        assert_ne!(fingerprint_hash(&a), fingerprint_hash(&b));
        assert_ne!(fingerprint_hash(&a), fingerprint_hash(&c));
        assert_ne!(fingerprint_hash(&a), fingerprint_hash(&d));
        assert_ne!(fingerprint_hash(&key(&[])), fingerprint_hash(&a));
    }

    #[test]
    fn materialize_declares_all_relations_and_rebuilds_the_facts() {
        let rel_names = vec!["R".to_string(), "S".to_string()];
        let db = materialize_completion(&rel_names, &key(&[(0, &[1, 2]), (1, &[3])]));
        assert!(db.contains("R", &[Constant(1), Constant(2)]));
        assert!(db.contains("S", &[Constant(3)]));
        // An empty fingerprint still declares the schema's relations.
        let empty = materialize_completion(&rel_names, &key(&[]));
        assert_eq!(empty.relation_size("R"), 0);
        assert_eq!(empty.relation_size("S"), 0);
        assert_ne!(db, empty);
    }

    #[test]
    fn partition_tiles_the_space() {
        for shards in [1usize, 2, 3, 7, 64] {
            let ranges = HashRange::partition(shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[shards - 1].last, u64::MAX);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].last + 1, pair[1].start, "gap or overlap");
            }
            // A few probes land in exactly one range each.
            for probe in [0u64, 1, u64::MAX / 3, u64::MAX - 1, u64::MAX] {
                assert_eq!(ranges.iter().filter(|r| r.contains(probe)).count(), 1);
            }
        }
    }

    #[test]
    fn find_buckets_every_probe_into_its_unique_range() {
        for shards in [1usize, 2, 5, 16] {
            let ranges = HashRange::partition(shards);
            for probe in [0u64, 1, 1 << 20, u64::MAX / 7, u64::MAX / 2, u64::MAX] {
                let i = HashRange::find(&ranges, probe).expect("partition tiles the space");
                assert!(ranges[i].contains(probe));
                assert_eq!(ranges.iter().filter(|r| r.contains(probe)).count(), 1);
            }
        }
        // Sorted but gappy range lists answer `None` inside the gaps and in
        // the uncovered tails.
        let gappy = vec![
            HashRange {
                start: 10,
                last: 19,
            },
            HashRange {
                start: 40,
                last: 40,
            },
            HashRange {
                start: 60,
                last: 99,
            },
        ];
        assert_eq!(HashRange::find(&gappy, 9), None);
        assert_eq!(HashRange::find(&gappy, 10), Some(0));
        assert_eq!(HashRange::find(&gappy, 19), Some(0));
        assert_eq!(HashRange::find(&gappy, 20), None);
        assert_eq!(HashRange::find(&gappy, 40), Some(1));
        assert_eq!(HashRange::find(&gappy, 41), None);
        assert_eq!(HashRange::find(&gappy, 99), Some(2));
        assert_eq!(HashRange::find(&gappy, 100), None);
        assert_eq!(HashRange::find(&gappy, u64::MAX), None);
        assert_eq!(HashRange::find(&[], 7), None);
    }

    #[test]
    fn page_heap_admission_matches_the_btreeset_protocol() {
        use std::collections::BTreeSet;
        // Differential check: admitting a pseudo-random candidate stream
        // into a PageHeap reproduces the reference BTreeSet page for every
        // (after, cap) combination.
        let candidates: Vec<CompletionKey> = (0..60u64)
            .map(|i| key(&[(0, &[i * 7919 % 23]), (1, &[i % 5, i % 3])]))
            .collect();
        let afters = [None, Some(key(&[(0, &[4])])), Some(key(&[(2, &[0])]))];
        for after in &afters {
            for cap in [1usize, 3, 8] {
                let mut heap = PageHeap::new();
                let mut reference: BTreeSet<CompletionKey> = BTreeSet::new();
                for c in &candidates {
                    heap.admit(c, after.as_ref(), cap);
                    if after.as_ref().is_none_or(|a| c > a) {
                        reference.insert(c.clone());
                        if reference.len() > cap {
                            reference.pop_last();
                        }
                    }
                }
                let got: Vec<&CompletionKey> = heap.iter().collect();
                let want: Vec<&CompletionKey> = reference.iter().collect();
                assert_eq!(got, want, "after {after:?} cap {cap}");
                assert_eq!(heap.len(), reference.len());
                assert_eq!(heap.last(), reference.last());
                assert_eq!(heap.first(), reference.first());
            }
        }
    }

    #[test]
    fn page_heap_reuses_retired_keys_across_fills() {
        // Capacity-retention pin: once one bounded fill has warmed the
        // buffers, further fills (and the churn inside them) allocate no
        // fresh keys — displaced and cleared keys fund every insertion.
        let candidates: Vec<CompletionKey> = (0..40u64)
            .map(|i| key(&[(0, &[(i * 31) % 40, i])]))
            .collect();
        let mut heap = PageHeap::new();
        for c in &candidates {
            heap.admit(c, None, 8);
        }
        let after_first_fill = heap.fresh_keys();
        // The page bound caps live keys; churn retired the displaced ones.
        assert_eq!(heap.len(), 8);
        assert!(after_first_fill <= candidates.len() as u64);
        for _round in 0..5 {
            heap.clear();
            assert!(heap.is_empty());
            for c in &candidates {
                heap.admit(c, None, 8);
            }
            assert_eq!(heap.len(), 8);
            assert_eq!(
                heap.fresh_keys(),
                after_first_fill,
                "a warmed heap must not allocate fresh keys"
            );
        }
        // Draining hands the keys (and their allocations) to the caller;
        // only then do fresh allocations resume.
        let drained: Vec<CompletionKey> = heap.drain().collect();
        assert_eq!(drained.len(), 8);
        assert!(drained.windows(2).all(|w| w[0] < w[1]), "ascending drain");
    }

    #[test]
    fn split_halves_cover_exactly_the_parent() {
        let (lo, hi) = HashRange::full().split().unwrap();
        assert_eq!(lo.start, 0);
        assert_eq!(lo.last + 1, hi.start);
        assert_eq!(hi.last, u64::MAX);
        let point = HashRange { start: 5, last: 5 };
        assert!(point.split().is_none());
        assert_eq!(point.width(), 1);
        let two = HashRange { start: 8, last: 9 };
        let (a, b) = two.split().unwrap();
        assert_eq!((a.start, a.last, b.start, b.last), (8, 8, 9, 9));
    }

    #[test]
    fn key_heap_bytes_counts_slots_and_tuples() {
        let slot = std::mem::size_of::<(usize, Vec<Constant>)>();
        let constant = std::mem::size_of::<Constant>();
        assert_eq!(key_heap_bytes(&CompletionKey::new()), 0);
        let k = key(&[(0, &[1, 2]), (1, &[3])]);
        assert_eq!(key_heap_bytes(&k), 2 * slot + 3 * constant);
        // A clone allocates exactly its length, so the figure is stable.
        assert_eq!(key_heap_bytes(&k.clone()), key_heap_bytes(&k));
    }
}
