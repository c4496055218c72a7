//! Property suite for the streaming completion subsystem, pinning the
//! three contracts the ISSUE demands plus the acceptance criterion:
//!
//! * **Shard-merge exactness** — for random instances, queries and shard
//!   counts `K` (and random worker counts), the merged sharded count
//!   equals the unsharded engine's count.
//! * **Pause/resume fidelity** — cutting a [`CompletionStream`] at any
//!   point and resuming from its (wire-round-tripped) cursor reproduces
//!   exactly the canonical sequence, whatever the page sizes.
//! * **Canonical order totality and stability** — the streamed order is
//!   strictly increasing in the canonical fingerprint order (hence total
//!   and duplicate-free) and identical across independent runs.
//! * **Budgeted counting** — an instance whose full fingerprint set
//!   exceeds the budget still counts exactly, with peak resident
//!   fingerprints within the budget.

use incdb_bignum::BigNat;
use incdb_core::engine::{BacktrackingEngine, CountingEngine, NaiveEngine, Tautology};
use incdb_data::{IncompleteDatabase, NullId, Value};
use incdb_query::{Bcq, BooleanQuery};
use incdb_stream::{
    count_completions_budgeted, count_completions_sharded, CompletionStream, Cursor,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NULL_POOL: u32 = 4;

/// One table position: constants `0..3`, nulls `⊥0..⊥3`.
fn decode_value(code: usize) -> Value {
    if code < 3 {
        Value::constant(code as u64)
    } else {
        Value::null((code - 3) as u32)
    }
}

/// Builds a non-uniform instance from generated specs, mirroring the
/// residual property suite: `facts` picks a relation (`R` binary, `S`
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

/// Query shapes covering satisfied/refuted/undecided structure.
fn queries() -> Vec<Bcq> {
    ["R(x,x)", "R(x,y), S(y)", "S(x)", "R(0,x)", "R(x,x), T(x)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_counts_merge_to_the_unsharded_count(
        facts in proptest::collection::vec((0usize..2, (0usize..7, 0usize..7)), 1..=5),
        domains in proptest::collection::vec(1usize..8, NULL_POOL as usize..=NULL_POOL as usize),
        shards in 1usize..12,
        threads in 1usize..4,
    ) {
        let db = build_db(&facts, &domains);
        for q in queries() {
            let expected = BacktrackingEngine::sequential()
                .count_completions(&db, &q)
                .unwrap();
            let sharded = count_completions_sharded(&db, &q, shards, threads).unwrap();
            prop_assert_eq!(
                &sharded.count, &expected,
                "query {} with {} shards / {} threads", q, shards, threads
            );
            // One walk serves a whole contiguous batch of ranges.
            prop_assert_eq!(sharded.passes, threads.min(shards));
            prop_assert_eq!(sharded.ranges_walked, shards);
            prop_assert_eq!(sharded.evictions, 0);
        }
        // The no-filter count shards identically.
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        let sharded = count_completions_sharded(&db, &Tautology, shards, threads).unwrap();
        prop_assert_eq!(&sharded.count, &expected);
    }

    #[test]
    fn budgeted_counts_stay_exact_within_budget(
        facts in proptest::collection::vec((0usize..2, (0usize..7, 0usize..7)), 1..=5),
        domains in proptest::collection::vec(1usize..8, NULL_POOL as usize..=NULL_POOL as usize),
        budget in 1usize..6,
    ) {
        let db = build_db(&facts, &domains);
        let expected = BacktrackingEngine::sequential()
            .count_all_completions(&db)
            .unwrap();
        let result = count_completions_budgeted(&db, &Tautology, budget, 1).unwrap();
        prop_assert_eq!(&result.count, &expected);
        prop_assert!(
            result.peak_resident_fingerprints <= budget,
            "peak {} exceeds budget {}", result.peak_resident_fingerprints, budget
        );
    }

    #[test]
    fn pause_resume_reproduces_the_canonical_sequence(
        facts in proptest::collection::vec((0usize..2, (0usize..7, 0usize..7)), 1..=5),
        domains in proptest::collection::vec(1usize..8, NULL_POOL as usize..=NULL_POOL as usize),
        page in 1usize..5,
        resume_page in 1usize..5,
        cut in 0usize..10,
    ) {
        let db = build_db(&facts, &domains);
        for q in queries() {
            let full: Vec<_> = CompletionStream::new(&db, &q, page).unwrap().collect();
            let cut = cut.min(full.len());
            let mut head = CompletionStream::new(&db, &q, page).unwrap();
            let mut rejoined: Vec<_> = head.by_ref().take(cut).collect();
            // Round-trip the cursor through its wire encoding, as a
            // serving layer would between requests.
            let ticket = head.cursor().encode();
            let resumed = CompletionStream::resume(
                &db, &q, resume_page, Cursor::decode(&ticket).unwrap()
            ).unwrap();
            rejoined.extend(resumed);
            prop_assert_eq!(
                &rejoined, &full,
                "query {} cut at {} (pages {}/{})", q, cut, page, resume_page
            );
        }
    }

    #[test]
    fn canonical_order_is_total_and_stable(
        facts in proptest::collection::vec((0usize..2, (0usize..7, 0usize..7)), 1..=5),
        domains in proptest::collection::vec(1usize..8, NULL_POOL as usize..=NULL_POOL as usize),
        page_a in 1usize..5,
        page_b in 1usize..7,
    ) {
        let db = build_db(&facts, &domains);
        for q in queries() {
            let mut stream = CompletionStream::new(&db, &q, page_a).unwrap();
            let mut keys = Vec::new();
            while stream.next().is_some() {
                keys.push(stream.cursor().last_key().unwrap().clone());
            }
            // Strictly increasing fingerprints: the order is total, stable
            // under re-walks, and free of duplicates.
            prop_assert!(
                keys.windows(2).all(|pair| pair[0] < pair[1]),
                "stream order not strictly increasing for {}", q
            );
            // The count matches the engine: nothing skipped, nothing added.
            let expected = BacktrackingEngine::sequential()
                .count_completions(&db, &q)
                .unwrap();
            prop_assert_eq!(incdb_bignum::BigNat::from(keys.len()), expected);
            // An independent run with a different page size yields the
            // same sequence.
            let mut again = CompletionStream::new(&db, &q, page_b).unwrap();
            let mut replay = Vec::new();
            while again.next().is_some() {
                replay.push(again.cursor().last_key().unwrap().clone());
            }
            prop_assert_eq!(&keys, &replay, "order unstable for {}", q);
        }
    }
}

/// A random instance in which some valuation resolves a null-hosting fact
/// onto a ground fact: every null-hosting fact comes with a ground copy of
/// one of its resolutions, so residual keys (which drop what the ground
/// block already holds) are exercised where they differ most from full
/// keys — including the empty residual key.
fn colliding_instance(rng: &mut StdRng) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    let mut domains = Vec::new();
    for i in 0..NULL_POOL {
        let mask = rng.random_range(1usize..8);
        let values: Vec<u64> = (0..3u64).filter(|b| mask & (1 << b) != 0).collect();
        db.set_domain(NullId(i), values.clone()).unwrap();
        domains.push(values);
    }
    let resolve = |v: Value, rng: &mut StdRng| match v.as_null() {
        Some(n) => {
            let dom = &domains[n.0 as usize];
            Value::constant(dom[rng.random_range(0..dom.len())])
        }
        None => v,
    };
    for _ in 0..rng.random_range(1usize..=3) {
        // The first position always hosts a null.
        let mut fact = vec![Value::null(rng.random_range(0..NULL_POOL))];
        let relation = if rng.random_bool(0.7) {
            fact.push(decode_value(rng.random_range(0usize..7)));
            "R"
        } else {
            "S"
        };
        let ground: Vec<Value> = fact.iter().map(|&v| resolve(v, rng)).collect();
        db.add_fact(relation, fact).unwrap();
        db.add_fact(relation, ground).unwrap();
    }
    db
}

/// Budgeted, sharded and engine distinct counts — all keyed by residual
/// keys — agree with the materialising `NaiveEngine` on instances whose
/// ground facts some valuations resolve onto.
#[test]
fn residual_key_counters_match_the_naive_engine_on_colliding_instances() {
    let mut rng = StdRng::seed_from_u64(0x5e51_d0a1);
    let stealing = BacktrackingEngine::with_threads(2).with_parallel_threshold(1);
    for case in 0..16 {
        let db = colliding_instance(&mut rng);
        for q in queries() {
            let expected = NaiveEngine.count_completions(&db, &q).unwrap();
            check_residual_counters(&db, &q, &expected, &stealing, &format!("case {case} {q}"));
        }
        let expected = NaiveEngine.count_all_completions(&db).unwrap();
        check_residual_counters(
            &db,
            &Tautology,
            &expected,
            &stealing,
            &format!("case {case} all"),
        );
    }
}

/// One instance and query of the residual-key differential.
fn check_residual_counters<Q: BooleanQuery + Sync>(
    db: &IncompleteDatabase,
    q: &Q,
    expected: &BigNat,
    stealing: &BacktrackingEngine,
    at: &str,
) {
    let at = format!("{at} {db:?}");
    let sequential = BacktrackingEngine::sequential();
    assert_eq!(
        &sequential.count_completions(db, q).unwrap(),
        expected,
        "engine {at}"
    );
    assert_eq!(
        &stealing.count_completions(db, q).unwrap(),
        expected,
        "stealing {at}"
    );
    for threads in [1usize, 2] {
        for budget in 1usize..=8 {
            let result = count_completions_budgeted(db, q, budget, threads).unwrap();
            assert_eq!(
                &result.count, expected,
                "budget {budget} threads {threads} {at}"
            );
            assert!(result.peak_resident_fingerprints <= budget, "{at}");
        }
        for shards in [1usize, 3, 7] {
            let result = count_completions_sharded(db, q, shards, threads).unwrap();
            assert_eq!(
                &result.count, expected,
                "{shards} shards threads {threads} {at}"
            );
        }
    }
}

/// The ISSUE's acceptance criterion, as a deterministic test: a distinct-
/// completion instance whose full fingerprint set exceeds the configured
/// budget completes under sharding with peak resident fingerprints within
/// the budget and the unsharded engine's exact count. (The matching
/// `stream_sharded_comp` bench row records the same run's timings in
/// `BENCH_engine.json`.)
#[test]
fn acceptance_budgeted_count_on_an_oversized_instance() {
    // A uniform Codd table of fresh-null binary facts (the Proposition
    // 4.5(b) hard shape): 3^6 = 729 valuations whose fact sets collapse to
    // every non-empty set of ≤ 3 of the 9 possible pairs — 9 + 36 + 84 =
    // 129 distinct completions, far beyond the budget.
    let mut db = IncompleteDatabase::new_uniform(0u64..3);
    for i in 0..3u32 {
        db.add_fact("R", vec![Value::null(2 * i), Value::null(2 * i + 1)])
            .unwrap();
    }
    let budget = 32;
    let unsharded = BacktrackingEngine::sequential()
        .count_all_completions(&db)
        .unwrap();
    assert_eq!(unsharded.to_u64(), Some(129), "instance sanity");
    let total = unsharded.to_u64().unwrap() as usize;
    assert!(
        total > budget,
        "the full fingerprint set must exceed the budget"
    );

    let result = count_completions_budgeted(&db, &Tautology, budget, 1).unwrap();
    assert_eq!(result.count, unsharded, "sharded count must stay exact");
    assert!(
        result.peak_resident_fingerprints <= budget,
        "peak resident fingerprints {} exceed the budget {budget}",
        result.peak_resident_fingerprints
    );
    assert!(
        result.counted_shards >= total / budget,
        "{} shards cannot each hold ≤ {budget} of {total} fingerprints",
        result.counted_shards
    );
    // Two workers keep the per-walk bound; the sum of counted shards is
    // scheduling-independent.
    let parallel = count_completions_budgeted(&db, &Tautology, budget, 2).unwrap();
    assert_eq!(parallel.count, unsharded);
    assert!(parallel.peak_resident_fingerprints <= budget);
}

/// The closed-form page generation of the selection walks must survive
/// tuples that *move* within the key as their nulls step (first-column
/// nulls over one shared domain, so the two clean `R` tuples interleave
/// and bubble across each other) and two separable nulls sharing one
/// clean fact. The generated sequence must stay strictly sorted and
/// reach the engine's exact distinct count at every page size, in both
/// walk modes.
#[test]
fn generated_pages_handle_reordering_and_shared_fact_tuples() {
    let mut db = IncompleteDatabase::new_uniform(0u64..4);
    // Non-unifiable (second columns differ constantly), hence clean.
    db.add_fact("R", vec![Value::null(0), Value::constant(1)])
        .unwrap();
    db.add_fact("R", vec![Value::null(1), Value::constant(2)])
        .unwrap();
    db.add_fact("S", vec![Value::null(2), Value::null(3)])
        .unwrap();
    let expected = BacktrackingEngine::sequential()
        .count_all_completions(&db)
        .unwrap();
    assert_eq!(expected.to_u64(), Some(256), "instance sanity: 4⁴ distinct");
    for threads in [1usize, 2] {
        for page in [1usize, 3, 7, 64] {
            let mut stream = CompletionStream::new(&db, &Tautology, page)
                .unwrap()
                .with_threads(threads);
            let mut keys = Vec::new();
            while let Some(k) = stream.next_key() {
                keys.push(k.clone());
            }
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "page {page} threads {threads}: sequence not strictly sorted"
            );
            assert_eq!(
                incdb_bignum::BigNat::from(keys.len() as u64),
                expected,
                "page {page} threads {threads}: wrong completion count"
            );
        }
    }
}
