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
//! Two session-layer upgrades cut the per-page cost:
//!
//! * **Persistent walk contexts.** The stream holds one
//!   [`SearchSession`] for as long as it lives: the grounding, the
//!   compiled residual state and the DFS order are built once when the
//!   stream opens, and every page fill rewinds that session instead of
//!   rebuilding the setup, however many pages are drained.
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
//!
//! Because a page is determined by `(database, query, cursor, page size)`
//! alone, the enumeration is **resumable**: [`CompletionStream::cursor`]
//! after any yield serializes the position ([`Cursor::encode`]), and
//! [`CompletionStream::resume`] continues the exact sequence from a fresh
//! process with no other retained state — precisely keyset pagination over
//! an exponential virtual result set.

use std::collections::VecDeque;

use incdb_core::engine::Tautology;
use incdb_core::session::{Mark, PageSink, PageSummary, SearchSession};
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
pub struct CompletionStream<'a, Q: BooleanQuery + ?Sized> {
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
    /// The stream's persistent walk context, built when the stream opens
    /// and rewound for every fill.
    session: SearchSession<'a, Q>,
    /// What previous selection walks learned about the top of the search
    /// tree: per-subtree key spans that let later walks skip provably
    /// served (or provably beyond-page) subtrees, and the stream prove
    /// exhaustion without a walk. Planned with the session.
    summary: PageSummary,
    /// The page assembly heap, persistent across refills: keys displaced or
    /// cleared go to its spare list and are recycled, so steady-state fills
    /// only allocate for the keys actually shipped to the buffer.
    page: PageHeap,
    /// The fill's observation worksheet, refreshed in place
    /// ([`PageSummary::refresh_worksheet`]) instead of reallocated per page.
    sheet: Vec<Mark>,
    passes: usize,
    fill_walks: usize,
    peak_resident: usize,
}

/// How many search-tree nodes the cursor summary may track: enough depth to
/// prune usefully even at small page sizes, scaling with the page so the
/// summary's resident keys stay `O(page_size)` (at most `2 ×` this many).
/// Saturates, so any page size is accepted.
fn summary_cap_nodes(page_size: usize) -> usize {
    page_size.saturating_mul(4).max(64)
}

impl<'a, Q: BooleanQuery + ?Sized> CompletionStream<'a, Q> {
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
        let session = SearchSession::new(db, q)?;
        let page_size = page_size.max(1);
        let rel_names = session
            .grounding()
            .relation_names()
            .map(String::from)
            .collect();
        let summary = PageSummary::plan(
            session.grounding(),
            session.order(),
            summary_cap_nodes(page_size),
        );
        Ok(CompletionStream {
            page_size,
            rel_names,
            cursor,
            buffer: VecDeque::new(),
            exhausted: false,
            session,
            summary,
            page: PageHeap::new(),
            sheet: Vec::new(),
            passes: 0,
            fill_walks: 0,
            peak_resident: 0,
        })
    }

    /// The resume position: immediately after the last yielded completion.
    /// Serialize it with [`Cursor::encode`] and continue later with
    /// [`CompletionStream::resume`].
    pub fn cursor(&self) -> &Cursor {
        &self.cursor
    }

    /// How many page fills this stream has performed so far — the passes
    /// side of the memory-vs-passes trade-off (one per page).
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// How many selection walks the fills actually ran: one per
    /// [`pass`](CompletionStream::passes), except a closing fill that
    /// proves exhaustion from the cursor summary and walks nothing.
    pub fn fill_walks(&self) -> usize {
        self.fill_walks
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

    /// Runs the selection walk for the next page beyond the cursor: one
    /// bounded walk on the held session, pruned by — and recorded into —
    /// the cursor summary.
    fn refill(&mut self) {
        debug_assert!(self.buffer.is_empty());
        debug_assert!(self.page.is_empty(), "the previous fill drained fully");
        let after = self.cursor.last_key();
        // Exhaustion shortcut: once the recorded root span lies at or below
        // the cursor, nothing remains — no walk at all for the final page.
        if self.summary.served(after) {
            self.passes += 1;
            self.exhausted = true;
            return;
        }
        self.summary.refresh_worksheet(&mut self.sheet);
        self.session.walk(
            &mut PageSink::new(after, self.page_size, &mut self.page)
                .recording(&self.summary, &mut self.sheet),
        );
        self.summary.absorb(&self.sheet);
        self.fill_walks += 1;
        self.passes += 1;
        let resident = self.page.len() + self.summary.resident_keys();
        self.peak_resident = self.peak_resident.max(resident);
        if self.page.len() < self.page_size {
            // The page was not filled: everything beyond the cursor is
            // already in hand.
            self.exhausted = true;
        }
        self.buffer.extend(self.page.drain());
    }
}

impl<Q: BooleanQuery + ?Sized> CompletionStream<'_, Q> {
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

impl<Q: BooleanQuery + ?Sized> Iterator for CompletionStream<'_, Q> {
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
    use std::cell::Cell;
    use std::collections::BTreeSet;

    use super::*;
    use incdb_core::engine::{BacktrackingEngine, CountingEngine};
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
        // One walk per completion: the final refill proves exhaustion
        // from the recorded root span instead of walking.
        assert_eq!(one_by_one.passes(), n + 1);
        assert_eq!(one_by_one.fill_walks(), n);
        let mut wide = all_completions_stream(&db, 64).unwrap();
        assert_eq!(wide.by_ref().count(), 5);
        assert_eq!(wide.passes(), 1);
        assert_eq!(wide.page_size(), 64);
        // The resident bound held: a page of keys plus the summary spans.
        assert!(wide.peak_resident() > 0);
        assert!(wide.peak_resident() <= 64 + 2 * super::summary_cap_nodes(64));
    }

    #[test]
    fn a_huge_page_size_drains_in_one_page() {
        // The module-doc instance: 4 valuations, 3 distinct completions.
        let mut db = IncompleteDatabase::new_uniform([1u64, 2]);
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        db.add_fact("R", vec![Value::null(1)]).unwrap();
        let mut stream = CompletionStream::new(&db, &Tautology, usize::MAX).unwrap();
        assert_eq!(stream.by_ref().count(), 3);
        assert_eq!(stream.passes(), 1);
        assert_eq!(stream.page_size(), usize::MAX);
    }

    /// A key-local instance of `nulls` disjoint single-null facts over
    /// domain `{0, 1, 2}`, whose constant columns align DFS order with key
    /// order: summary pruning has whole subtrees to retire as pages
    /// advance. `3^nulls` distinct completions.
    fn key_local(nulls: u32) -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        for i in 0..nulls {
            db.add_fact(
                "R",
                vec![Value::null(i), Value::constant(100 + u64::from(i))],
            )
            .unwrap();
            db.set_domain(NullId(i), [0u64, 1, 2]).unwrap();
        }
        db
    }

    #[test]
    fn pruned_drains_match_and_prove_their_own_exhaustion() {
        let db = key_local(4);
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
    fn paged_drains_stay_memory_bounded() {
        // 729 completions drained 8 at a time: the count is the engine's,
        // and the stream never holds more than a page plus the summary
        // spans.
        let db = key_local(6);
        const PAGE: usize = 8;
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        assert_eq!(expected.to_u64(), Some(729), "instance sanity");
        let mut stream = all_completions_stream(&db, PAGE).unwrap();
        let mut drained = 0usize;
        while stream.next_key().is_some() {
            drained += 1;
        }
        assert_eq!(incdb_bignum::BigNat::from(drained), expected);
        let peak = stream.peak_resident();
        assert!(
            peak <= PAGE + 2 * summary_cap_nodes(PAGE),
            "{peak} resident"
        );
        assert!(peak < drained, "{peak} resident");
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
            // layer would — resuming at another page size must continue the
            // identical sequence.
            let ticket = head.cursor().encode();
            let tail: Vec<Database> =
                CompletionStream::resume(&db, &q, 3, Cursor::decode(&ticket).unwrap())
                    .unwrap()
                    .collect();
            let mut rejoined = prefix;
            rejoined.extend(tail);
            assert_eq!(rejoined, full, "split at {split}");
        }
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

    /// A query that is not `Sync`: it counts its model checks in a `Cell`.
    struct CountedChecks<'q> {
        inner: &'q Bcq,
        checks: Cell<usize>,
    }

    impl BooleanQuery for CountedChecks<'_> {
        fn holds(&self, db: &Database) -> bool {
            self.checks.set(self.checks.get() + 1);
            self.inner.holds(db)
        }

        fn signature(&self) -> BTreeSet<String> {
            self.inner.signature()
        }
    }

    #[test]
    fn streams_a_query_that_is_not_sync() {
        let db = example_2_2();
        let bcq: Bcq = "S(x,x)".parse().unwrap();
        let q = CountedChecks {
            inner: &bcq,
            checks: Cell::new(0),
        };
        let drained: Vec<Database> = CompletionStream::new(&db, &q, 2).unwrap().collect();
        let expected: Vec<Database> = CompletionStream::new(&db, &bcq, 2).unwrap().collect();
        assert_eq!(drained, expected);
        assert!(
            q.checks.get() > 0,
            "leaves are model-checked through the Cell"
        );
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
