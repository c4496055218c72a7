//! Hash-range-sharded distinct-completion counting with bounded resident
//! memory — now at **one search walk per batch of ranges**, not one per
//! range.
//!
//! The engine's in-memory distinct counter
//! ([`CountingEngine::count_completions`](incdb_core::engine::CountingEngine::count_completions))
//! holds **every** completion's fingerprint at once, so its search speedups
//! hit a memory wall long before a CPU wall. This module trades passes for
//! memory: the fingerprint hash space is partitioned into [`HashRange`]
//! shards, and the backtracking search keeps only the fingerprints whose
//! hash falls in the ranges it is currently serving. Ranges tile the space,
//! so the per-range sets are disjoint and their counts simply add up
//! (merged through [`NatAccumulator`]); resident memory is bounded by the
//! walk's shared budget instead of the whole fingerprint set.
//!
//! Three mechanisms keep the memory bound from costing a full re-walk per
//! range, which is what the previous one-range-per-walk driver paid:
//!
//! * **Single-walk multi-range counting** (`MultiRangeSink`): one search
//!   walk carries a whole sorted batch of ranges, bucketing every
//!   fingerprint into its range by binary search ([`HashRange::find`]) in
//!   `O(log ranges)`. A batch of `K` deferred ranges costs one walk, not
//!   `K`.
//! * **Eviction instead of restart**: when a budgeted walk's resident set
//!   would exceed the budget, the walk **evicts the fattest range's set**
//!   and defers that range to a follow-up walk — the walk itself continues
//!   and finishes every other range. The old driver aborted the whole walk,
//!   split the range and restarted from scratch, wasting the work done on
//!   the still-countable part of the space.
//! * **Closed-form class counting**: the sink counts at the session's
//!   [separation cut](SearchSession::separation_cut) instead of at leaves.
//!   Completions sharing a *dirty part* (the resolved facts that could
//!   collide) form a class whose members are pairwise distinct, so one
//!   memoised dirty-part fingerprint plus a closed-form subtree count
//!   replaces one resident fingerprint **per completion**. The fingerprint
//!   is a residual key ([`Grounding::residual_key_into`]): the resolved
//!   null-hosting dirty facts minus the ground block every class
//!   shares, so a resident key costs O(null occurrences), not a copy of
//!   the ground table ([`ShardedCount::peak_resident_bytes`]). On instances
//!   with no separable nulls the cut sits at the leaves and the sink
//!   degrades to exactly the old per-completion behaviour.
//!
//! Two entry points expose the trade-off:
//!
//! * [`count_completions_budgeted`] — an explicit **memory budget**
//!   (maximum resident fingerprints per walk, shared across the walk's
//!   batch): the driver starts with the full range (one pass, no overhead
//!   when the instance fits) and refines by evicting overweight ranges —
//!   deferred ranges are re-queued **as one sorted batch**, so follow-up
//!   walks stay multi-range and the eviction machinery keeps paying off.
//! * [`count_completions_on`] — the same budgeted count on a session the
//!   caller already holds, walked on the calling thread. The serving
//!   layer answers every `Count` request with it on a pooled session, so
//!   served and offline #Comp share one distinct counter.
//!
//! Both run one per-walk step: walk a batch, fold its live ranges,
//! re-queue its evicted ranges as one sorted batch. The budgeted driver
//! runs its batches on the engine's worker pool ([`TaskQueue::run`]):
//! workers pop batches, and deferred ranges are donated back to the
//! queue, so idle workers immediately pick up the refined remainder of a
//! dense region. Each worker tallies its own counters, summed when the
//! pool returns.
//!
//! Consecutive walks of one worker run on a persistent [`SearchSession`]:
//! the grounding, the compiled residual state and the DFS order are built
//! **once per worker** and rewound — not rebuilt — for every subsequent
//! batch. The [`ShardedCount::sessions_built`] /
//! [`ShardedCount::walks_reused`] counters pin the reuse actually
//! happening; [`count_completions_on`] builds nothing, so its every walk
//! is a reuse.

use std::collections::HashSet;

use incdb_bignum::{BigNat, NatAccumulator};
use incdb_core::engine::{CompletionVisitor, TaskQueue};
use incdb_core::session::{ClassAction, ClassPlan, SearchSession};
use incdb_data::{
    fingerprint_hash, key_heap_bytes, CompletionKey, DataError, Grounding, HashRange,
    IncompleteDatabase,
};
use incdb_query::BooleanQuery;

/// The result of a sharded distinct-completion count, with the memory and
/// pass accounting that the memory-vs-passes trade-off is judged by.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedCount {
    /// The number of distinct completions satisfying the query — always
    /// equal to what the unsharded engine would return.
    pub count: BigNat,
    /// The high-water mark of resident fingerprints in any single walk —
    /// the sum over the walk's whole batch, since the budget is shared.
    /// This never exceeds the budget (each worker runs one walk at a time,
    /// so with `threads` workers the process-wide bound is
    /// `budget × threads`), except in the astronomically unlikely
    /// unsplittable-hash-point case documented at
    /// [`count_completions_budgeted`].
    pub peak_resident_fingerprints: usize,
    /// The high-water mark of the resident class keys' heap bytes
    /// ([`key_heap_bytes`]) in any single walk, sampled with
    /// `peak_resident_fingerprints`. Class keys are residual keys
    /// ([`Grounding::residual_key_into`]), so this figure does not grow
    /// with the table's ground facts.
    pub peak_resident_bytes: usize,
    /// Search-tree walks performed. Each walk serves a whole batch of
    /// ranges, so this is `1 + follow-ups` — the pass count is the price
    /// paid for the memory bound.
    pub passes: usize,
    /// Hash ranges whose fingerprints were actually counted (evicted
    /// attempts excluded — a range deferred `n` times before completing
    /// still counts once): the size of the final refined partition; `1`
    /// means the instance fit in a single range.
    pub counted_shards: usize,
    /// Ranges carried by walks, summed over all walks and including
    /// evicted attempts: `ranges_walked / passes` is the mean batch width,
    /// the single-walk amortisation this module exists for.
    pub ranges_walked: usize,
    /// Range sets discarded mid-walk to respect the budget: whole-range
    /// evictions plus sole-range splits. Zero whenever the budget was
    /// never hit.
    pub evictions: usize,
    /// How many worker walk contexts were created: each is a
    /// [`SearchSession::fork`] off the call's one template session (the
    /// single grounding build + residual-state compilation of the whole
    /// call). At most one per worker that processed a batch (workers that
    /// never got a task fork nothing).
    pub sessions_built: usize,
    /// Walks served by rewinding an already-built session instead of
    /// rebuilding: always `passes - sessions_built`. The reuse the session
    /// layer exists for.
    pub walks_reused: usize,
}

/// One hash range being served by the current walk.
struct ActiveRange {
    range: HashRange,
    /// Memoised class keys (residual keys of the dirty part; of the whole
    /// completion when nothing is separable) whose hash falls in `range`.
    keys: HashSet<CompletionKey>,
    /// Distinct completions credited to this range so far.
    acc: NatAccumulator,
    /// Discarded mid-walk: the range was deferred to a follow-up walk and
    /// this walk must ignore it from now on.
    evicted: bool,
    /// A single hash point denser than the whole budget: counted in full
    /// rather than split forever.
    unbounded: bool,
}

/// Counts the distinct completions of one walk into a whole batch of hash
/// ranges at once, at the session's separation cut.
///
/// Every class node is bucketed into its range by binary search over the
/// sorted batch; unseen classes are memoised and counted in closed form
/// ([`ClassAction::Count`]), seen ones skipped. When a budgeted insert
/// finds the shared resident set full, the fattest range is evicted whole
/// (its keys dropped, its range deferred); a range that overflows the
/// budget all by itself is split and both halves deferred; an unsplittable
/// single hash point is counted in full. The walk only stops early when
/// every range of the batch has been evicted.
struct MultiRangeSink<'a> {
    /// The batch's spans, sorted and disjoint — the [`HashRange::find`]
    /// index, kept parallel to `ranges`.
    spans: Vec<HashRange>,
    ranges: Vec<ActiveRange>,
    /// The session's class key plan ([`SearchSession::class_plan`],
    /// everything that is not provably separable): each class node
    /// resolves only its null-hosting facts into a residual key and looks
    /// them up in the pre-sorted ground block, never copying that block.
    class: &'a ClassPlan,
    /// Maximum resident keys across the whole batch.
    budget: usize,
    /// Current resident keys summed over live (non-evicted) ranges.
    resident: usize,
    /// High-water mark of `resident`, sampled when a key is kept — classes
    /// that count zero completions are removed again and never peak.
    peak: usize,
    /// Current heap bytes of the resident keys, and their high-water mark
    /// sampled with `peak`.
    resident_bytes: usize,
    peak_bytes: usize,
    /// Live (non-evicted) ranges remaining.
    live: usize,
    evictions: usize,
    /// Ranges this walk gave up on, to be re-queued as one sorted batch.
    deferred: Vec<HashRange>,
    scratch: CompletionKey,
    /// Range index of the key inserted by the last `class_node`, so
    /// `class_counted` can credit — or, for zero counts, remove — it.
    pending: Option<usize>,
}

impl<'a> MultiRangeSink<'a> {
    fn new(batch: Vec<HashRange>, budget: usize, class: &'a ClassPlan) -> Self {
        debug_assert!(batch.windows(2).all(|w| w[0].last < w[1].start));
        let ranges: Vec<ActiveRange> = batch
            .iter()
            .map(|&range| ActiveRange {
                range,
                keys: HashSet::new(),
                acc: NatAccumulator::new(),
                evicted: false,
                unbounded: false,
            })
            .collect();
        MultiRangeSink {
            spans: batch,
            live: ranges.len(),
            ranges,
            class,
            budget,
            resident: 0,
            peak: 0,
            resident_bytes: 0,
            peak_bytes: 0,
            evictions: 0,
            deferred: Vec::new(),
            scratch: CompletionKey::new(),
            pending: None,
        }
    }

    /// Frees one resident slot so range `current` can admit a key. Returns
    /// `false` when `current` itself was sacrificed (evicted whole, or
    /// split because it overflows the budget alone) — the caller must skip
    /// the class.
    fn make_room(&mut self, current: usize) -> bool {
        let victim = self
            .ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.evicted && !r.unbounded)
            .max_by_key(|(j, r)| (r.keys.len(), usize::MAX - j))
            .map(|(j, _)| j)
            .expect("the bounded live range `current` is a candidate");
        if victim == current && self.live == 1 {
            // This range overflows the whole budget on its own: no
            // follow-up walk can serve it unsplit, so refine it now.
            let r = &mut self.ranges[current];
            match r.range.split() {
                Some((lo, hi)) => {
                    self.deferred.push(lo);
                    self.deferred.push(hi);
                    self.evict(current);
                    false
                }
                None => {
                    // A single hash point denser than the budget: count it
                    // in full rather than splitting forever (see the docs
                    // of `count_completions_budgeted`).
                    r.unbounded = true;
                    true
                }
            }
        } else {
            let deferred = self.ranges[victim].range;
            self.deferred.push(deferred);
            self.evict(victim);
            victim != current
        }
    }

    /// Drops a range's partial state and removes it from the walk.
    fn evict(&mut self, i: usize) {
        let r = &mut self.ranges[i];
        debug_assert!(!r.evicted);
        self.resident -= r.keys.len();
        self.resident_bytes -= r.keys.iter().map(key_heap_bytes).sum::<usize>();
        r.keys = HashSet::new();
        r.acc = NatAccumulator::new();
        r.evicted = true;
        self.live -= 1;
        self.evictions += 1;
    }
}

impl CompletionVisitor for MultiRangeSink<'_> {
    fn leaf(&mut self, _g: &Grounding) -> bool {
        unreachable!("the class dispatch covers every satisfying leaf");
    }

    fn class_node(&mut self, g: &Grounding, _decided: bool) -> ClassAction {
        g.residual_key_into(self.class.plan(g), &mut self.scratch)
            .expect("every non-separable null is bound at the cut");
        let hash = fingerprint_hash(&self.scratch);
        let Some(i) = HashRange::find(&self.spans, hash) else {
            return ClassAction::Skip;
        };
        if self.ranges[i].evicted || self.ranges[i].keys.contains(&self.scratch) {
            return ClassAction::Skip;
        }
        if !self.ranges[i].unbounded && self.resident >= self.budget {
            // Shared set full: evict before admitting. `make_room` may
            // sacrifice `i` itself, in which case this class is skipped —
            // and once nothing in the batch is live, the rest of the walk
            // has nothing left to observe.
            if !self.make_room(i) {
                return if self.live == 0 {
                    ClassAction::Stop
                } else {
                    ClassAction::Skip
                };
            }
        }
        let key = self.scratch.clone();
        self.resident_bytes += key_heap_bytes(&key);
        self.ranges[i].keys.insert(key);
        self.resident += 1;
        self.pending = Some(i);
        ClassAction::Count
    }

    fn class_counted(&mut self, distinct: &BigNat) -> bool {
        let i = self.pending.take().expect("a count follows an insert");
        if distinct.is_zero() {
            // No satisfying completion in the class: un-memoise it, so
            // only satisfying classes occupy the budget. Re-deriving a
            // zero count on a later encounter is sound.
            let key = self.ranges[i]
                .keys
                .take(&self.scratch)
                .expect("class_node inserted the pending key");
            self.resident -= 1;
            self.resident_bytes -= key_heap_bytes(&key);
        } else {
            self.ranges[i].acc.add_big(distinct);
            self.peak = self.peak.max(self.resident);
            self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
        }
        true
    }
}

/// Counts the distinct completions of `db` satisfying `q` while keeping
/// each walk's resident fingerprint set within `budget` (at least 1),
/// evicting overweight hash ranges to follow-up walks.
///
/// The first walk covers the full range, so instances whose fingerprint
/// set fits the budget pay **no** sharding overhead (a single pass,
/// exactly like the unsharded engine). Dense instances shed their fattest
/// ranges mid-walk — the walk itself finishes every range that fits — and
/// the deferred ranges are re-queued as one sorted batch, repeating until
/// every range has been counted. In the astronomically unlikely event that
/// more than `budget` distinct class fingerprints share one 64-bit hash
/// point (an unsplittable range), that point is counted in full rather
/// than failing — the only case where `peak_resident_fingerprints` may
/// exceed the budget.
///
/// Returns an error if some null of the table has no domain.
pub fn count_completions_budgeted<Q: BooleanQuery + Sync + ?Sized>(
    db: &IncompleteDatabase,
    q: &Q,
    budget: usize,
    threads: usize,
) -> Result<ShardedCount, DataError> {
    run_shards(db, q, budget.max(1), threads)
}

/// Counts the distinct completions satisfying the query of an existing
/// session — such as one leased from a session pool — while keeping each
/// walk's resident fingerprint set within `budget` (at least 1).
///
/// The sequential face of [`count_completions_budgeted`]: the same
/// per-walk step (one `MultiRangeSink` walk over a batch of hash ranges,
/// evicted ranges re-queued as one sorted batch), run on the calling
/// thread until no range is left. Nothing is built: every walk rewinds
/// `session`, so `sessions_built` is 0 and `walks_reused == passes`. A
/// query refuted at the root costs one root evaluation and builds no key
/// plan. Like any walk, it leaves `session` unquiesced: quiesce it
/// ([`SearchSession::quiesce`]) before shelving it.
pub fn count_completions_on<Q: BooleanQuery + ?Sized>(
    session: &mut SearchSession<'_, Q>,
    budget: usize,
) -> ShardedCount {
    let class = session.class_plan();
    let budget = budget.max(1);
    let mut tally = ShardedCount::default();
    let mut batch = vec![HashRange::full()];
    loop {
        tally.walks_reused += 1;
        match walk_batch(session, &class, batch, budget, &mut tally) {
            Some(deferred) => batch = deferred,
            None => return tally,
        }
    }
}

/// The per-walk step of every counter in this module: walks `session` once
/// over `batch`, folds the ranges that stayed live into `tally`, and
/// returns the ranges it evicted as one sorted batch, or `None` when it
/// evicted none.
fn walk_batch<Q: BooleanQuery + ?Sized>(
    session: &mut SearchSession<'_, Q>,
    class: &ClassPlan,
    batch: Vec<HashRange>,
    budget: usize,
    tally: &mut ShardedCount,
) -> Option<Vec<HashRange>> {
    tally.passes += 1;
    tally.ranges_walked += batch.len();
    let mut sink = MultiRangeSink::new(batch, budget, class);
    let completed = session.walk(&mut sink);
    // The walk only stops early once every range has been evicted, so
    // every live range's count is complete either way.
    debug_assert!(completed || sink.live == 0);
    tally.peak_resident_fingerprints = tally.peak_resident_fingerprints.max(sink.peak);
    tally.peak_resident_bytes = tally.peak_resident_bytes.max(sink.peak_bytes);
    tally.evictions += sink.evictions;
    for r in sink.ranges.into_iter().filter(|r| !r.evicted) {
        tally.count += r.acc.into_total();
        tally.counted_shards += 1;
    }
    if sink.deferred.is_empty() {
        return None;
    }
    // One sorted batch, not one task per range: follow-up walks stay
    // multi-range, so a dense region is re-counted with single-walk
    // amortisation too.
    sink.deferred.sort_unstable_by_key(|r| r.start);
    Some(sink.deferred)
}

/// The multi-worker driver of [`count_completions_budgeted`]: starts from
/// the full range, walks every batch of the queue (deferring evicted
/// ranges as new batches) and merges the disjoint per-range counts.
fn run_shards<Q: BooleanQuery + Sync + ?Sized>(
    db: &IncompleteDatabase,
    q: &Q,
    budget: usize,
    threads: usize,
) -> Result<ShardedCount, DataError> {
    // The one-time setup for the whole call: building the template session
    // both validates the instance (missing-domain errors surface here, so
    // worker walks cannot fail) and compiles the query's residual state and
    // separability plan exactly once. Workers fork the template (cloning the
    // compiled state, never re-deriving it) the first time they pop a batch.
    let template = SearchSession::new(db, q)?;
    // One class key plan for the whole call, built on the first class
    // node; fact indices are template-level, so every forked worker
    // session shares it. When no fact is clean it is each worker
    // grounding's own cached full plan instead.
    let class = template.class_plan();
    // Each worker: its persistent walk context — forked on its first batch,
    // rewound, not rebuilt, for every batch after it, never paid by a
    // worker that pops nothing — and its own tally.
    let workers = (0..threads.max(1)).map(|_| (None, ShardedCount::default()));
    let initial = vec![vec![HashRange::full()]];
    let done = TaskQueue::run(initial, workers.collect(), |worker, batch, queue| {
        let (session, tally) = worker;
        if session.is_some() {
            tally.walks_reused += 1;
        } else {
            tally.sessions_built += 1;
        }
        let session = session.get_or_insert_with(|| template.fork());
        if let Some(deferred) = walk_batch(session, &class, batch, budget, tally) {
            queue.donate([deferred]);
        }
    });
    let mut total = ShardedCount::default();
    for (_, tally) in done {
        total.count += tally.count;
        total.peak_resident_fingerprints = total
            .peak_resident_fingerprints
            .max(tally.peak_resident_fingerprints);
        total.peak_resident_bytes = total.peak_resident_bytes.max(tally.peak_resident_bytes);
        total.passes += tally.passes;
        total.counted_shards += tally.counted_shards;
        total.ranges_walked += tally.ranges_walked;
        total.evictions += tally.evictions;
        total.sessions_built += tally.sessions_built;
        total.walks_reused += tally.walks_reused;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdb_core::engine::{BacktrackingEngine, CountingEngine, Tautology};
    use incdb_data::{NullId, Value};
    use incdb_query::Bcq;

    /// The database of Example 2.2 / Figure 1 (3 distinct completions of
    /// `S(x,x)`, 5 in total).
    fn example_2_2() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("S", vec![Value::constant(0), Value::constant(1)])
            .unwrap();
        db.add_fact("S", vec![Value::null(1), Value::constant(0)])
            .unwrap();
        db.add_fact("S", vec![Value::constant(0), Value::null(2)])
            .unwrap();
        db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(2), [0u64, 1]).unwrap();
        db
    }

    /// Dirty pairs (the two `R` facts of each pair unify) plus separable
    /// `S` facts with distinct constant columns: exercises the class
    /// counting path with real closed-form credits.
    fn mixed_instance() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0), Value::null(1)])
            .unwrap();
        db.add_fact("R", vec![Value::null(2), Value::null(3)])
            .unwrap();
        db.add_fact("S", vec![Value::null(4), Value::constant(100)])
            .unwrap();
        db.add_fact("S", vec![Value::null(5), Value::constant(200)])
            .unwrap();
        for n in 0..4u32 {
            db.set_domain(NullId(n), [0u64, 1]).unwrap();
        }
        db.set_domain(NullId(4), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(5), [0u64, 1, 2]).unwrap();
        db
    }

    #[test]
    fn class_counting_agrees_on_separable_instances() {
        // 10 dirty R-parts × 9 separable S-completions = 90 distinct.
        let db = mixed_instance();
        let q = Tautology;
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        for budget in [1usize, 4, 16] {
            let sharded = count_completions_budgeted(&db, &q, budget, 2).unwrap();
            assert_eq!(sharded.count, expected, "budget {budget}");
        }
        // With 10 dirty classes a budget of 4 must evict, yet the resident
        // set stays classes-not-completions small.
        let result = count_completions_budgeted(&db, &q, 4, 1).unwrap();
        assert_eq!(result.count, expected);
        assert!(result.peak_resident_fingerprints <= 4);
        assert!(result.evictions > 0, "10 classes cannot fit a budget of 4");
    }

    #[test]
    fn budget_bounds_the_resident_set() {
        // All 5 completions of Example 2.2 (Tautology query): a budget of
        // 2 must evict and defer until every range fits.
        let db = example_2_2();
        let q = Tautology;
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        let result = count_completions_budgeted(&db, &q, 2, 1).unwrap();
        assert_eq!(result.count, expected);
        assert!(
            result.peak_resident_fingerprints <= 2,
            "peak {} exceeds budget 2",
            result.peak_resident_fingerprints
        );
        assert!(result.counted_shards > 1, "a 5-fingerprint set must shard");
        assert!(result.evictions > 0, "the bound is paid for by evictions");
        assert!(result.passes > 1, "deferred ranges cost follow-up walks");
        assert!(
            result.ranges_walked > result.passes,
            "a follow-up walk carries a multi-range batch"
        );
        // One worker, one setup: every walk after the first reused the
        // session.
        assert_eq!(result.sessions_built, 1);
        assert_eq!(result.walks_reused, result.passes - 1);

        // A roomy budget counts in a single unsharded pass.
        let roomy = count_completions_budgeted(&db, &q, 64, 1).unwrap();
        assert_eq!(roomy.count, expected);
        assert_eq!((roomy.passes, roomy.counted_shards), (1, 1));
        assert_eq!(roomy.evictions, 0);
    }

    #[test]
    fn every_budget_and_thread_count_agrees() {
        let db = mixed_instance();
        let q = Tautology;
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        for budget in [1usize, 2, 3, 7, 100] {
            for threads in [1usize, 3] {
                let result = count_completions_budgeted(&db, &q, budget, threads).unwrap();
                assert_eq!(result.count, expected, "budget {budget} threads {threads}");
                assert!(
                    result.peak_resident_fingerprints <= budget,
                    "budget {budget}: peak {}",
                    result.peak_resident_fingerprints
                );
            }
        }
    }

    #[test]
    fn counts_on_a_held_session_stay_in_budget_and_build_nothing() {
        let q = Tautology;
        for db in [mixed_instance(), example_2_2()] {
            let expected = BacktrackingEngine::sequential()
                .count_all_completions(&db)
                .unwrap();
            let mut session = SearchSession::new(&db, &q).unwrap();
            for budget in 1..=4usize {
                let result = count_completions_on(&mut session, budget);
                assert_eq!(result.count, expected, "budget {budget}");
                assert!(
                    result.peak_resident_fingerprints <= budget,
                    "budget {budget}: peak {}",
                    result.peak_resident_fingerprints
                );
                assert_eq!(result.sessions_built, 0, "budget {budget}");
                assert_eq!(result.walks_reused, result.passes, "budget {budget}");
            }
            // Both instances hold more classes than a budget of 1.
            assert!(count_completions_on(&mut session, 1).evictions > 0);
            // A class walk leaves dirty-null notifications pending; the
            // pool's check-in clears them.
            session.quiesce();
            assert!(session.is_quiescent());
        }
    }

    #[test]
    fn missing_domain_is_an_error_not_a_hang() {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        assert!(count_completions_budgeted(&db, &q, 8, 2).is_err());
    }

    #[test]
    fn empty_and_ground_instances() {
        // No nulls: one completion, whatever the budget.
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::constant(5)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        let sharded = count_completions_budgeted(&db, &q, 1, 2).unwrap();
        assert_eq!(sharded.count, BigNat::one());
        // An empty domain admits no completion at all.
        let mut empty = IncompleteDatabase::new_uniform(Vec::<u64>::new());
        empty.add_fact("R", vec![Value::null(0)]).unwrap();
        let none = count_completions_budgeted(&empty, &q, 4, 2).unwrap();
        assert_eq!(none.count, BigNat::zero());
        assert_eq!(none.peak_resident_fingerprints, 0);
        assert_eq!(none.peak_resident_bytes, 0);
    }
}
