//! Resumable canonical-order completion enumeration — the paging primitive
//! a request-serving layer needs.
//!
//! A [`CompletionStream`] yields the distinct completions of an incomplete
//! database that satisfy a query, **in canonical order** (lexicographic on
//! canonical fingerprints — total, deterministic, identical across runs),
//! each materialised as a [`Database`] exactly once. Instead of holding the
//! full completion set, the stream works page by page: one backtracking
//! selection walk per page collects the `page_size` smallest fingerprints
//! beyond the current [`Cursor`] in a bounded selection buffer, so resident
//! memory is `O(page_size)` fingerprints **regardless of how many
//! completions exist** — the memory-vs-passes trade-off knob of the
//! streaming subsystem (a full drain costs `⌈N / page_size⌉` walks).
//!
//! Three session-layer upgrades cut the per-page cost:
//!
//! * **Persistent walk contexts.** The stream holds a
//!   [`SearchSession`] for as long as it lives: the grounding, the
//!   compiled residual state and the DFS order are built once, and every
//!   page fill rewinds that session instead of rebuilding the setup
//!   ([`CompletionStream::sessions_built`] stays at 1 on the sequential
//!   path no matter how many pages are drained).
//! * **Cursor-pruned walks.** The stream carries a compressed
//!   [`PageSummary`] of what previous selection walks observed: per-prefix
//!   subtree key spans over the top of the search tree, recorded as a side
//!   effect of each walk. Every subsequent walk skips the subtrees whose
//!   recorded span lies provably at or below the cursor (already served)
//!   or provably past the page bound — so late pages stop re-descending
//!   the full tree, and a fully drained stream proves its own exhaustion
//!   from the root span **without a final empty walk**
//!   ([`CompletionStream::fill_walks`] counts the walks that actually
//!   ran). The summary costs `O(page_size)` extra resident keys, counted
//!   by [`CompletionStream::peak_resident`].
//! * **Parallel page fills.** With [`CompletionStream::with_engine`] (or
//!   the [`with_threads`](CompletionStream::with_threads) shorthand) the
//!   selection walk is sharded over the engine's worker pool
//!   ([`TaskQueue::run`]): each worker runs the bounded selection on its
//!   own forked session over seeded and donated subtree prefixes, and the
//!   per-worker bounded heaps merge into the page — same page,
//!   deterministically, at multicore latency. Each worker counts its own
//!   task walks, summed into [`CompletionStream::fill_walks`] the way
//!   [`passes`](CompletionStream::passes) counts page fills.
//!
//! Because a page is determined by `(database, query, cursor, page size)`
//! alone — worker scheduling cannot change its contents — the enumeration
//! is **resumable**: [`CompletionStream::cursor`] after any yield
//! serializes the position ([`Cursor::encode`]), and
//! [`CompletionStream::resume`] continues the exact sequence from a fresh
//! process with no other retained state — precisely keyset pagination over
//! an exponential virtual result set.

use std::collections::VecDeque;

use incdb_core::engine::{BacktrackingEngine, TaskQueue, Tautology};
use incdb_core::session::{Mark, PageSink, PageSummary, SearchSession, StealGate};
use incdb_data::{
    materialize_completion, CompletionKey, DataError, Database, IncompleteDatabase, PageHeap,
};
use incdb_query::BooleanQuery;

use crate::cursor::Cursor;

/// A resumable iterator over the distinct satisfying completions of one
/// incomplete database, in canonical (fingerprint-lexicographic) order.
///
/// ```
/// use incdb_core::engine::Tautology;
/// use incdb_data::{IncompleteDatabase, Value};
/// use incdb_stream::CompletionStream;
///
/// let mut db = IncompleteDatabase::new_uniform([1u64, 2]);
/// db.add_fact("R", vec![Value::null(0)]).unwrap();
/// db.add_fact("R", vec![Value::null(1)]).unwrap();
///
/// // 4 valuations collapse to 3 distinct completions: {1}, {2}, {1,2}.
/// let mut stream = CompletionStream::new(&db, &Tautology, 2).unwrap();
/// let first_two: Vec<_> = stream.by_ref().take(2).collect();
/// assert_eq!(first_two.len(), 2);
///
/// // Pause: the cursor serializes; resume elsewhere with no other state.
/// let ticket = stream.cursor().encode();
/// let resumed = CompletionStream::resume(
///     &db, &Tautology, 2, ticket.parse().unwrap()).unwrap();
/// assert_eq!(resumed.count(), 1); // exactly the one remaining completion
/// ```
pub struct CompletionStream<'a, Q: BooleanQuery + Sync + ?Sized> {
    db: &'a IncompleteDatabase,
    q: &'a Q,
    /// The policy half: worker count, sharding thresholds and tuning knobs
    /// for parallel fills. The default ([`BacktrackingEngine::sequential`])
    /// fills pages with one sequential walk.
    engine: BacktrackingEngine,
    page_size: usize,
    rel_names: Vec<String>,
    /// Position after the last *yielded* completion.
    cursor: Cursor,
    /// Pre-fetched keys, all strictly greater than `cursor`; only refilled
    /// when empty, so `cursor` plus the buffer describe the full state.
    buffer: VecDeque<CompletionKey>,
    /// Set once a page walk returns fewer keys than requested: nothing
    /// beyond the buffer remains.
    exhausted: bool,
    /// The stream's persistent walk context, built at the first fill and
    /// rewound for every one after it.
    session: Option<SearchSession<'a, Q>>,
    /// Persistent forks for parallel fills, grown to the engine's worker
    /// count at the first sharded fill and reused for every one after it.
    workers: Vec<SearchSession<'a, Q>>,
    /// What previous selection walks learned about the top of the search
    /// tree: per-subtree key spans that let later walks skip provably
    /// served (or provably beyond-page) subtrees, and the stream prove
    /// exhaustion without a walk. Built with the session at the first fill.
    summary: Option<PageSummary>,
    /// The page assembly heap, persistent across refills: keys displaced or
    /// cleared go to its spare list and are recycled, so steady-state fills
    /// only allocate for the keys actually shipped to the buffer.
    page: PageHeap,
    /// The sequential fill's observation worksheet, refreshed in place
    /// ([`PageSummary::refresh_worksheet`]) instead of reallocated per page.
    sheet: Vec<Mark>,
    /// Per-worker `(heap, worksheet)` scratch for parallel fills, persistent
    /// across refills like the `workers` forks themselves — the worker heaps
    /// that used to be rebuilt (and reallocated) on every page.
    worker_scratch: Vec<(PageHeap, Vec<Mark>)>,
    passes: usize,
    fill_walks: usize,
    sessions_built: usize,
    peak_resident: usize,
}

/// How many search-tree nodes the cursor summary may track: enough depth to
/// prune usefully even at small page sizes, scaling with the page so the
/// summary's resident keys stay `O(page_size)` (at most `2 ×` this many).
fn summary_cap_nodes(page_size: usize) -> usize {
    (4 * page_size).max(64)
}

impl<'a, Q: BooleanQuery + Sync + ?Sized> CompletionStream<'a, Q> {
    /// Opens a stream over the satisfying completions of `db`, paging
    /// `page_size` (at least 1) completions per search-tree walk.
    ///
    /// Returns an error if some null of the table has no domain.
    pub fn new(db: &'a IncompleteDatabase, q: &'a Q, page_size: usize) -> Result<Self, DataError> {
        Self::resume(db, q, page_size, Cursor::start())
    }

    /// Reopens a stream at a previously saved [`Cursor`]: the iteration
    /// continues with exactly the completions that had not been yielded
    /// when the cursor was taken. `db` and `q` must be the ones the cursor
    /// was produced against — the cursor itself carries no schema.
    ///
    /// Returns an error if some null of the table has no domain.
    pub fn resume(
        db: &'a IncompleteDatabase,
        q: &'a Q,
        page_size: usize,
        cursor: Cursor,
    ) -> Result<Self, DataError> {
        let rel_names = db
            .try_grounding()?
            .relation_names()
            .map(String::from)
            .collect();
        Ok(CompletionStream {
            db,
            q,
            engine: BacktrackingEngine::sequential(),
            page_size: page_size.max(1),
            rel_names,
            cursor,
            buffer: VecDeque::new(),
            exhausted: false,
            session: None,
            workers: Vec::new(),
            summary: None,
            page: PageHeap::new(),
            sheet: Vec::new(),
            worker_scratch: Vec::new(),
            passes: 0,
            fill_walks: 0,
            sessions_built: 0,
            peak_resident: 0,
        })
    }

    /// Replaces the fill policy: page fills shard the selection walk across
    /// the engine's workers whenever its
    /// [`shard_plan`](BacktrackingEngine::shard_plan) says the instance is
    /// worth it (and run sequentially otherwise). The page *contents* are
    /// independent of the policy — only the fill latency changes.
    ///
    /// Builder style; call before iterating (an engine swap mid-stream
    /// drops the already-forked workers, not the cursor position).
    pub fn with_engine(mut self, engine: BacktrackingEngine) -> Self {
        self.engine = engine;
        self.workers.clear();
        self
    }

    /// Shorthand for [`with_engine`](CompletionStream::with_engine) with
    /// `threads` default-tuned workers: parallel page fills on instances
    /// above the engine's default sharding threshold.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_engine(BacktrackingEngine::with_threads(threads))
    }

    /// The resume position: immediately after the last yielded completion.
    /// Serialize it with [`Cursor::encode`] and continue later with
    /// [`CompletionStream::resume`].
    pub fn cursor(&self) -> &Cursor {
        &self.cursor
    }

    /// How many page fills this stream has performed so far — the passes
    /// side of the memory-vs-passes trade-off (one per page, whatever the
    /// fill policy).
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// How many selection walks the fills cost in total: equal to
    /// [`passes`](CompletionStream::passes) for sequential fills, and the
    /// sum of per-worker subtree walks (task pops, including donated
    /// splits) for parallel ones — the accounting that shows where a
    /// parallel fill spent its workers.
    pub fn fill_walks(&self) -> usize {
        self.fill_walks
    }

    /// How many walk contexts this stream has built: `1` after the first
    /// sequential fill however many pages are drained, plus one per
    /// persistent worker fork on the parallel path. Pinned by tests — the
    /// counter that proves pages reuse the session instead of rebuilding
    /// the grounding and recompiling the query.
    pub fn sessions_built(&self) -> usize {
        self.sessions_built
    }

    /// The configured page size: the stream's resident-memory bound, in
    /// fingerprints.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The high-water mark of completion keys this stream has held at once:
    /// the filled page plus the cursor summary's recorded spans (the
    /// pruning index costs `O(page_size)` keys, see [`PageSummary`]). The
    /// memory side of the stream's trade-off, `O(page_size)` regardless of
    /// how many completions exist.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// How many `CompletionKey` allocations the parallel fill scratch has
    /// made from scratch, ever: per-worker heaps persist across refills and
    /// recycle retired keys ([`PageHeap`]'s spare list), so this stays flat
    /// — bounded by `workers × (page_size + 1)` — no matter how many pages
    /// are drained. Pinned by tests; before the scratch became persistent it
    /// grew with every pass.
    pub fn fill_scratch_fresh_keys(&self) -> u64 {
        self.worker_scratch
            .iter()
            .map(|(heap, _)| heap.fresh_keys())
            .sum()
    }

    /// Runs the selection walks for the next page beyond the cursor.
    fn refill(&mut self) {
        debug_assert!(self.buffer.is_empty());
        debug_assert!(self.page.is_empty(), "the previous fill drained fully");
        if self.session.is_none() {
            let session = self
                .engine
                .session(self.db, self.q)
                .expect("domains validated when the stream was opened");
            self.summary = Some(PageSummary::plan(
                session.grounding(),
                session.order(),
                summary_cap_nodes(self.page_size),
            ));
            self.session = Some(session);
            self.sessions_built += 1;
        }
        let after = self.cursor.last_key();
        // Exhaustion shortcut: once the recorded root span lies at or below
        // the cursor, nothing remains — no walk at all for the final page.
        if self
            .summary
            .as_ref()
            .is_some_and(|summary| summary.served(after))
        {
            self.passes += 1;
            self.exhausted = true;
            return;
        }
        let cap = self.page_size;
        // Keys transiently resident during this fill: the merged page for a
        // sequential walk, the per-worker heaps for a parallel one.
        let mut fill_keys = 0usize;
        let prefixes = {
            let session = self.session.as_ref().expect("session built above");
            self.engine.shard_plan(session.grounding(), session.order())
        };
        match prefixes {
            // Sequential fill: one bounded selection walk on the persistent
            // session, pruned by — and recorded into — the cursor summary.
            None => {
                let summary = self.summary.as_ref().expect("built with the session");
                summary.refresh_worksheet(&mut self.sheet);
                let session = self.session.as_mut().expect("session built above");
                session.walk(
                    &mut PageSink::new(after, cap, &mut self.page)
                        .recording(summary, &mut self.sheet),
                );
                self.summary
                    .as_mut()
                    .expect("built with the session")
                    .absorb([self.sheet.as_slice()]);
                self.fill_walks += 1;
            }
            // Parallel fill: shard the selection walk over the engine's
            // work-stealing queue. Each worker accumulates its own bounded
            // heap over the subtree prefixes it pops (donating splits when
            // others starve); any key among the page's true `cap` smallest
            // is seen by whichever worker owns its subtree and cannot be
            // displaced from that worker's heap, so merging the K bounded
            // heaps and trimming to `cap` yields exactly the sequential
            // page. Workers consult the shared summary to skip served
            // subtrees — whole tasks die at the prune check — and record
            // their observations on private worksheets, merged afterwards.
            Some(prefixes) => {
                while self.workers.len() < self.engine.threads() {
                    self.workers
                        .push(self.session.as_ref().expect("session built above").fork());
                    self.sessions_built += 1;
                }
                while self.worker_scratch.len() < self.workers.len() {
                    self.worker_scratch.push((PageHeap::new(), Vec::new()));
                }
                let summary = self.summary.as_ref().expect("built with the session");
                let workers = self.workers.iter_mut().zip(&mut self.worker_scratch);
                let workers = workers.map(|(session, (heap, sheet))| {
                    // Persistent scratch: retire last page's keys into the
                    // spare list, blank the worksheet in place — no
                    // per-refill allocation.
                    heap.clear();
                    summary.refresh_worksheet(sheet);
                    (
                        session,
                        PageSink::new(after, cap, heap).recording(summary, sheet),
                        0,
                    )
                });
                let done = TaskQueue::run(prefixes, workers.collect(), |worker, prefix, queue| {
                    let (session, sink, walks) = worker;
                    session.walk_task(&prefix, Some(&StealGate::new(queue)), sink);
                    *walks += 1;
                });
                self.fill_walks += done.into_iter().map(|(_, _, walks)| walks).sum::<usize>();
                // Merge the bounded worker heaps through the same admission
                // protocol the walks use: order-independent, deduplicating,
                // and never more than `cap` keys resident in the page.
                for (heap, _) in &self.worker_scratch {
                    fill_keys += heap.len();
                    for key in heap {
                        self.page.admit(key, after, cap);
                    }
                }
                self.summary
                    .as_mut()
                    .expect("built with the session")
                    .absorb(self.worker_scratch.iter().map(|(_, s)| s.as_slice()));
            }
        }
        self.passes += 1;
        let resident = fill_keys.max(self.page.len())
            + self.summary.as_ref().map_or(0, PageSummary::resident_keys);
        self.peak_resident = self.peak_resident.max(resident);
        if self.page.len() < self.page_size {
            // The page was not filled: everything beyond the cursor is
            // already in hand.
            self.exhausted = true;
        }
        self.buffer.extend(self.page.drain());
    }
}

impl<Q: BooleanQuery + Sync + ?Sized> CompletionStream<'_, Q> {
    /// Advances the stream by one completion and returns its canonical
    /// fingerprint key, **without materialising** the completion — the
    /// keys-level drain for callers that ship fingerprints (the cursor wire
    /// format already does) and materialise on demand. Interleaves freely
    /// with [`Iterator::next`]: the cursor advances identically either way,
    /// so a drain may mix key peeks and materialised pulls.
    pub fn next_key(&mut self) -> Option<&CompletionKey> {
        if self.buffer.is_empty() && !self.exhausted {
            self.refill();
        }
        let key = self.buffer.pop_front()?;
        self.cursor = Cursor::after(key);
        self.cursor.last_key()
    }
}

impl<Q: BooleanQuery + Sync + ?Sized> Iterator for CompletionStream<'_, Q> {
    type Item = Database;

    fn next(&mut self) -> Option<Database> {
        if self.buffer.is_empty() && !self.exhausted {
            self.refill();
        }
        let key = self.buffer.pop_front()?;
        let completion = materialize_completion(&self.rel_names, &key);
        self.cursor = Cursor::after(key);
        Some(completion)
    }
}

/// Opens a [`CompletionStream`] over **all** completions of `db` (no query
/// filter), paging `page_size` completions per walk.
///
/// Returns an error if some null of the table has no domain.
pub fn all_completions_stream(
    db: &IncompleteDatabase,
    page_size: usize,
) -> Result<CompletionStream<'_, Tautology>, DataError> {
    static TAUTOLOGY: Tautology = Tautology;
    CompletionStream::new(db, &TAUTOLOGY, page_size)
}

/// Serves one page of the canonical completion order from an
/// **already-built** session — the cursor-resume primitive of a
/// session-pooling serving layer: a checked-out [`SearchSession`] replaces
/// the grounding build and query compilation a fresh
/// [`CompletionStream::resume`] would pay, while the page produced is
/// byte-identical (a page is determined by `(database, query, cursor,
/// page size)` alone).
///
/// Collects into `page` (cleared first, allocations recycled) the up-to
/// `page_size` smallest completion keys strictly beyond `cursor`, and
/// returns the advanced cursor: positioned after the page's last key, or
/// `cursor` unchanged when nothing remains. A short page (fewer than
/// `page_size` keys) means the enumeration is exhausted.
///
/// The session is left mid-walk-state like any other completed walk; pool
/// check-in ([`SearchSession::quiesce`]) restores the shelf invariant.
pub fn page_from_session<Q: BooleanQuery + ?Sized>(
    session: &mut SearchSession<'_, Q>,
    cursor: &Cursor,
    page_size: usize,
    page: &mut PageHeap,
) -> Cursor {
    page.clear();
    session.walk(&mut PageSink::new(cursor.last_key(), page_size, page));
    match page.last() {
        Some(key) => Cursor::after(key.clone()),
        None => cursor.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdb_core::engine::CountingEngine;
    use incdb_core::enumerate::all_completions;
    use incdb_data::{NullId, Value};
    use incdb_query::Bcq;

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

    /// A fill policy that forces parallel page fills even on the tiny test
    /// instances (3 workers, shard from the first valuation).
    fn parallel_engine() -> BacktrackingEngine {
        BacktrackingEngine::with_threads(3).with_parallel_threshold(1)
    }

    #[test]
    fn drains_every_distinct_completion_once() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let drained: Vec<Database> = CompletionStream::new(&db, &q, 2).unwrap().collect();
        assert_eq!(
            incdb_bignum::BigNat::from(drained.len()),
            BacktrackingEngine::sequential()
                .count_completions(&db, &q)
                .unwrap()
        );
        // No duplicates: every yielded completion is distinct.
        let mut unique = drained.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), drained.len());
        // The no-filter stream matches the materialising enumerator.
        let all: Vec<Database> = all_completions_stream(&db, 2).unwrap().collect();
        let expected: Vec<Database> = all_completions(&db).unwrap().into_iter().collect();
        assert_eq!(all.len(), expected.len());
        for completion in &all {
            assert!(expected.contains(completion));
        }
    }

    #[test]
    fn page_size_trades_passes_for_memory() {
        let db = example_2_2();
        let mut one_by_one = all_completions_stream(&db, 1).unwrap();
        let n = one_by_one.by_ref().count();
        assert_eq!(n, 5);
        // One walk per completion — the final refill proves exhaustion
        // from the recorded root span instead of walking — on one
        // persistent session: the setup was built exactly once.
        assert_eq!(one_by_one.passes(), n + 1);
        assert_eq!(one_by_one.fill_walks(), n);
        assert_eq!(one_by_one.sessions_built(), 1);
        let mut wide = all_completions_stream(&db, 64).unwrap();
        assert_eq!(wide.by_ref().count(), 5);
        assert_eq!(wide.passes(), 1);
        assert_eq!(wide.page_size(), 64);
        // The resident bound held: a page of keys plus the summary spans.
        assert!(wide.peak_resident() > 0);
        assert!(wide.peak_resident() <= 64 + 2 * super::summary_cap_nodes(64));
    }

    #[test]
    fn pruned_drains_match_and_prove_their_own_exhaustion() {
        // A key-local instance (disjoint single-null facts whose constant
        // columns align DFS order with key order): summary pruning has
        // whole subtrees to retire as pages advance.
        let mut db = IncompleteDatabase::new_non_uniform();
        for i in 0..4u32 {
            db.add_fact(
                "R",
                vec![Value::null(i), Value::constant(100 + u64::from(i))],
            )
            .unwrap();
            db.set_domain(NullId(i), [0u64, 1, 2]).unwrap();
        }
        let expected: Vec<Database> = all_completions(&db).unwrap().into_iter().collect();
        assert_eq!(expected.len(), 81);
        for page_size in [1usize, 7, 16, 100] {
            let mut stream = all_completions_stream(&db, page_size).unwrap();
            let drained: Vec<Database> = stream.by_ref().collect();
            assert_eq!(drained.len(), expected.len(), "page size {page_size}");
            for completion in &drained {
                assert!(expected.contains(completion));
            }
            // Exhaustion came from the summary, not an empty walk: every
            // walk that ran produced a (partial) page. When the drain ends
            // on a full page, the closing refill is walk-free.
            assert_eq!(stream.fill_walks(), 81usize.div_ceil(page_size));
            let closing = usize::from(81 % page_size == 0);
            assert_eq!(stream.passes(), stream.fill_walks() + closing);
        }
    }

    #[test]
    fn parallel_fills_reproduce_the_sequential_pages() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        for page_size in [1usize, 2, 3, 64] {
            let sequential: Vec<Database> =
                CompletionStream::new(&db, &q, page_size).unwrap().collect();
            let mut parallel = CompletionStream::new(&db, &q, page_size)
                .unwrap()
                .with_engine(parallel_engine());
            let drained: Vec<Database> = parallel.by_ref().collect();
            assert_eq!(drained, sequential, "page size {page_size}");
            // The sharded fills really ran: more walks than passes, on the
            // primary session plus its persistent worker forks (built once,
            // not once per page).
            assert!(parallel.fill_walks() >= parallel.passes());
            assert!(
                parallel.sessions_built() <= 1 + parallel_engine().threads(),
                "forks must persist across fills, got {}",
                parallel.sessions_built()
            );
        }
    }

    #[test]
    fn pause_resume_reproduces_the_sequence() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let full: Vec<Database> = CompletionStream::new(&db, &q, 2).unwrap().collect();
        for split in 0..=full.len() {
            let mut head = CompletionStream::new(&db, &q, 2).unwrap();
            let prefix: Vec<Database> = head.by_ref().take(split).collect();
            // Round-trip the cursor through its wire format, as a serving
            // layer would — resuming onto a *parallel* stream must continue
            // the identical sequence.
            let ticket = head.cursor().encode();
            let tail: Vec<Database> =
                CompletionStream::resume(&db, &q, 3, Cursor::decode(&ticket).unwrap())
                    .unwrap()
                    .with_engine(parallel_engine())
                    .collect();
            let mut rejoined = prefix;
            rejoined.extend(tail);
            assert_eq!(rejoined, full, "split at {split}");
        }
    }

    #[test]
    fn parallel_fill_scratch_is_reused_across_refills() {
        // 81 completions at page size 7: a dozen parallel fills. The
        // per-worker heaps persist and recycle their keys, so the number of
        // from-scratch key allocations in the fill scratch is bounded by
        // workers × (page + 1) — flat in the number of passes. Before the
        // scratch became persistent, every pass allocated fresh heaps.
        let mut db = IncompleteDatabase::new_non_uniform();
        for i in 0..4u32 {
            db.add_fact(
                "R",
                vec![Value::null(i), Value::constant(100 + u64::from(i))],
            )
            .unwrap();
            db.set_domain(NullId(i), [0u64, 1, 2]).unwrap();
        }
        let mut stream = all_completions_stream(&db, 7)
            .unwrap()
            .with_engine(parallel_engine());
        assert_eq!(stream.by_ref().count(), 81);
        assert!(stream.passes() >= 81 / 7, "many fills actually ran");
        let bound = (parallel_engine().threads() * (7 + 1)) as u64;
        assert!(
            stream.fill_scratch_fresh_keys() <= bound,
            "fill scratch allocated {} fresh keys across {} passes, bound {}",
            stream.fill_scratch_fresh_keys(),
            stream.passes(),
            bound
        );
    }

    #[test]
    fn pooled_sessions_serve_the_stream_sequence() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        // Reference: the keys-level drain of a fresh stream.
        let mut reference = CompletionStream::new(&db, &q, 2).unwrap();
        let mut expected: Vec<CompletionKey> = Vec::new();
        while let Some(key) = reference.next_key() {
            expected.push(key.clone());
        }
        // A pool-style serving loop: one long-lived session, pages served
        // beyond an advancing wire-format cursor.
        let mut session = BacktrackingEngine::sequential().session(&db, &q).unwrap();
        let mut page = PageHeap::new();
        let mut cursor = Cursor::start();
        let mut got: Vec<CompletionKey> = Vec::new();
        loop {
            let ticket = cursor.encode();
            cursor = page_from_session(
                &mut session,
                &Cursor::decode(&ticket).unwrap(),
                2,
                &mut page,
            );
            let short = page.len() < 2;
            got.extend(page.iter().cloned());
            // The shelf invariant holds again after check-in.
            session.quiesce();
            assert!(session.is_quiescent());
            if short {
                break;
            }
        }
        assert_eq!(got, expected);
        // The final cursor proves exhaustion on the next request.
        assert!(
            page_from_session(&mut session, &cursor, 2, &mut page).last_key() == cursor.last_key()
        );
        assert!(page.is_empty());
    }

    #[test]
    fn missing_domain_is_an_error() {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        assert!(CompletionStream::new(&db, &q, 4).is_err());
    }

    #[test]
    fn unsatisfiable_query_streams_nothing() {
        let db = example_2_2();
        let q: Bcq = "S(x,x), T(x)".parse().unwrap();
        let mut stream = CompletionStream::new(&db, &q, 4).unwrap();
        assert!(stream.next().is_none());
        assert!(stream.cursor().is_start());
    }
}
