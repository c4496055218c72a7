//! Differential property suite for the search-session layer: session reuse
//! must be **observationally identical** to building a fresh engine for
//! every walk.
//!
//! * **Budgeted counting on reused sessions** — for random instances,
//!   budgets and worker counts, `count_completions_budgeted` (one
//!   persistent session per worker, rewound across consecutive hash
//!   ranges) returns exactly the unsharded engine's count, while the
//!   `sessions_built` counter pins the acceptance criterion: at most one
//!   grounding/residual-state build per worker per call.
//! * **Page sequences** — the canonical page sequence of a
//!   [`CompletionStream`] is identical across random page sizes: the page
//!   size changes how many fills a drain costs, never its contents.
//! * **Aborted-walk interleavings** — driving one [`SearchSession`]
//!   through an arbitrary interleaving of aborted (stopped mid-tree, as an
//!   over-budget shard walk would) and completed walks never drifts: after
//!   every prefix of the interleaving, counts and page selections still
//!   agree with a fresh engine.

use incdb_core::engine::{BacktrackingEngine, CompletionVisitor, CountingEngine, Tautology};
use incdb_core::session::{PageSink, SearchSession};
use incdb_data::{CompletionKey, Grounding, IncompleteDatabase, NullId, PageHeap, Value};
use incdb_query::Bcq;
use incdb_stream::{count_completions_budgeted, CompletionStream};
use proptest::prelude::*;

const NULL_POOL: u32 = 4;

/// One table position: constants `0..3`, nulls `⊥0..⊥3`.
fn decode_value(code: usize) -> Value {
    if code < 3 {
        Value::constant(code as u64)
    } else {
        Value::null((code - 3) as u32)
    }
}

/// Builds a non-uniform instance from generated specs (same encoding as
/// the stream property suite): `facts` picks a relation (`R` binary, `S`
/// unary) with position codes, `domains` gives every null of the pool a
/// non-empty subset of `{0, 1, 2}` (coded as a 3-bit mask).
fn build_db(facts: &[(usize, (usize, usize))], domains: &[usize]) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    for (i, mask) in domains.iter().enumerate() {
        let values: Vec<u64> = (0..3u64).filter(|b| mask & (1 << b) != 0).collect();
        db.set_domain(NullId(i as u32), values).unwrap();
    }
    for &(rel, (a, b)) in facts {
        match rel {
            0 => db
                .add_fact("R", vec![decode_value(a), decode_value(b)])
                .unwrap(),
            _ => db.add_fact("S", vec![decode_value(a)]).unwrap(),
        };
    }
    db
}

fn queries() -> Vec<Bcq> {
    ["R(x,x)", "R(x,y), S(y)", "S(x)", "R(x,x), T(x)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
}

/// A visitor that aborts the walk after a fixed number of leaves — the
/// shape of an over-budget shard walk.
struct StopAfter {
    seen: usize,
    stop_after: usize,
}

impl CompletionVisitor for StopAfter {
    fn leaf(&mut self, _g: &Grounding) -> bool {
        self.seen += 1;
        self.seen < self.stop_after
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn budgeted_session_reuse_matches_fresh_engine(
        facts in proptest::collection::vec((0usize..2, (0usize..7, 0usize..7)), 1..=5),
        domains in proptest::collection::vec(1usize..8, NULL_POOL as usize..=NULL_POOL as usize),
        budget in 1usize..6,
        threads in 1usize..4,
    ) {
        let db = build_db(&facts, &domains);
        for q in queries() {
            let expected = BacktrackingEngine::sequential()
                .count_completions(&db, &q)
                .unwrap();
            let result = count_completions_budgeted(&db, &q, budget, threads).unwrap();
            prop_assert_eq!(
                &result.count, &expected,
                "query {} budget {} threads {}", q, budget, threads
            );
            // The acceptance criterion: at most one grounding/residual
            // build per worker per call, every other walk a reused rewind.
            prop_assert!(
                result.sessions_built <= threads,
                "{} sessions built for {} workers", result.sessions_built, threads
            );
            prop_assert_eq!(result.walks_reused, result.passes - result.sessions_built);
        }
    }

    #[test]
    fn page_sequences_are_identical_across_page_sizes(
        facts in proptest::collection::vec((0usize..2, (0usize..7, 0usize..7)), 1..=5),
        domains in proptest::collection::vec(1usize..8, NULL_POOL as usize..=NULL_POOL as usize),
        page in 1usize..6,
    ) {
        let db = build_db(&facts, &domains);
        for q in queries() {
            // Reference: page size 3.
            let reference: Vec<_> = CompletionStream::new(&db, &q, 3).unwrap().collect();
            let paged: Vec<_> = CompletionStream::new(&db, &q, page).unwrap().collect();
            prop_assert_eq!(&paged, &reference, "page {}", page);
            let expected = BacktrackingEngine::sequential()
                .count_completions(&db, &q)
                .unwrap();
            prop_assert_eq!(incdb_bignum::BigNat::from(paged.len()), expected);
        }
    }

    #[test]
    fn interleaved_aborted_walks_never_drift(
        facts in proptest::collection::vec((0usize..2, (0usize..7, 0usize..7)), 1..=5),
        domains in proptest::collection::vec(1usize..8, NULL_POOL as usize..=NULL_POOL as usize),
        // Each op: 0 ⇒ aborted walk stopping after `1 + (arg % 3)` leaves,
        // 1 ⇒ full count, 2 ⇒ bounded page selection with cap `1 + arg`.
        ops in proptest::collection::vec((0usize..3, 0usize..4), 1..=8),
    ) {
        let db = build_db(&facts, &domains);
        for q in queries() {
            let fresh = BacktrackingEngine::sequential();
            let expected_count = fresh.count_valuations(&db, &q).unwrap();
            let mut session = SearchSession::new(&db, &q).unwrap();
            for (step, &(op, arg)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        // Aborted walk: the session must come back exact.
                        let mut abort = StopAfter { seen: 0, stop_after: 1 + arg % 3 };
                        session.walk(&mut abort);
                    }
                    1 => {
                        prop_assert_eq!(
                            &session.count(), &expected_count,
                            "count drifted at step {} for {}", step, q
                        );
                    }
                    _ => {
                        let cap = 1 + arg;
                        let mut reused = PageHeap::new();
                        session.walk(&mut PageSink::new(None, cap, &mut reused));
                        let mut pristine = PageHeap::new();
                        SearchSession::new(&db, &q)
                            .unwrap()
                            .walk(&mut PageSink::new(None, cap, &mut pristine));
                        prop_assert_eq!(
                            reused.as_slice(), pristine.as_slice(),
                            "page drifted at step {} cap {} for {}", step, cap, q
                        );
                    }
                }
            }
            // Whatever the interleaving ended on, the session still counts
            // exactly.
            prop_assert_eq!(&session.count(), &expected_count, "final count for {}", q);
        }
    }
}

/// The acceptance criterion as a deterministic pin: on the 129-completion
/// Codd instance (the `stream_properties` acceptance shape), a budgeted
/// run that takes many passes builds at most one session per worker — the
/// remaining walks all rewind.
#[test]
fn acceptance_budgeted_builds_at_most_one_session_per_worker() {
    let mut db = IncompleteDatabase::new_uniform(0u64..3);
    for i in 0..3u32 {
        db.add_fact("R", vec![Value::null(2 * i), Value::null(2 * i + 1)])
            .unwrap();
    }
    let unsharded = BacktrackingEngine::sequential()
        .count_all_completions(&db)
        .unwrap();
    for threads in [1usize, 2, 4] {
        let result = count_completions_budgeted(&db, &Tautology, 32, threads).unwrap();
        assert_eq!(result.count, unsharded, "{threads} threads");
        assert!(
            result.passes > result.sessions_built,
            "a many-pass run must reuse walks ({} passes, {} sessions)",
            result.passes,
            result.sessions_built
        );
        assert!(
            result.sessions_built <= threads,
            "{} sessions built for {threads} workers",
            result.sessions_built
        );
        assert_eq!(result.walks_reused, result.passes - result.sessions_built);
    }
}

/// Long-lived sessions across *heterogeneous* walk kinds: one session
/// serving counts, enumerations and page selections in arbitrary order
/// returns exactly what dedicated fresh engines return.
#[test]
fn one_session_serves_mixed_workloads_exactly() {
    let mut db = IncompleteDatabase::new_non_uniform();
    db.add_fact("S", vec![Value::constant(0), Value::constant(1)])
        .unwrap();
    db.add_fact("S", vec![Value::null(1), Value::constant(0)])
        .unwrap();
    db.add_fact("S", vec![Value::constant(0), Value::null(2)])
        .unwrap();
    db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
    db.set_domain(NullId(2), [0u64, 1]).unwrap();
    let q: Bcq = "S(x,x)".parse().unwrap();

    let fresh = BacktrackingEngine::sequential();
    let mut session = SearchSession::new(&db, &q).unwrap();
    for round in 0..3 {
        assert_eq!(
            session.count(),
            fresh.count_valuations(&db, &q).unwrap(),
            "round {round}"
        );
        // Page through everything via the keyset protocol on the same
        // session, comparing against the stream (which builds its own).
        let mut keys: Vec<CompletionKey> = Vec::new();
        loop {
            let mut page = PageHeap::new();
            session.walk(&mut PageSink::new(keys.last(), 2, &mut page));
            let got = page.len();
            keys.extend(page.drain());
            if got < 2 {
                break;
            }
        }
        let mut stream = CompletionStream::new(&db, &q, 2).unwrap();
        let mut stream_keys = Vec::new();
        while stream.next().is_some() {
            stream_keys.push(stream.cursor().last_key().unwrap().clone());
        }
        assert_eq!(keys, stream_keys, "round {round}");
    }
}
