//! Large-instance smoke: the bulk-execution layer at 10⁵ ground facts,
//! run in release mode by CI (`cargo test --release -q -p incdb-bench
//! --test large_instance`) where the `debug_assert` oracles inside the
//! block scan and the merge dispatch are compiled out and the fast paths
//! run for real. Debug runs shrink the instance so the inline oracles
//! (which re-run the per-row reference on every call) stay affordable.
//!
//! Each test is time-bounded with a deliberately loose ceiling: the point
//! is to catch accidental complexity blow-ups (quadratic scans, lost
//! routing) that turn seconds into minutes, not to re-measure the bench.

use std::time::{Duration, Instant};

use incdb_bench::{bounded_stream_large_instance, large_ground_instance, merge_join_instance};
use incdb_bignum::BigNat;
use incdb_core::engine::{BacktrackingEngine, CountingEngine, Tautology};
use incdb_query::{Bcq, FromScratch};
use incdb_stream::count_completions_budgeted;

/// 10⁵ ground facts in release, shrunk 5× under the debug oracles.
const FACTS: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    100_000
};

const TIME_CEILING: Duration = Duration::from_secs(90);

#[test]
fn large_instance_count_stays_exact_and_bounded() {
    let start = Instant::now();
    let db = large_ground_instance(FACTS, 99);
    let q: Bcq = "R(x,x)".parse().unwrap();
    let incremental = BacktrackingEngine::sequential()
        .count_valuations(&db, &q)
        .unwrap();
    let scratch = BacktrackingEngine::sequential()
        .count_valuations(&db, &FromScratch(&q))
        .unwrap();
    assert_eq!(
        incremental, scratch,
        "incremental and from-scratch engines disagree on the skewed instance"
    );
    // The two-null cycle satisfies R(x,x) exactly when ⊥0 = ⊥1: 2 of the
    // 4 valuations, however wide the ground table.
    assert_eq!(incremental, BigNat::from(2u64));
    assert!(
        start.elapsed() < TIME_CEILING,
        "large-instance valuation count took {:?} (ceiling {TIME_CEILING:?})",
        start.elapsed()
    );
}

/// The bounded-streaming smoke: a 10⁵-fact instance counted exactly under a
/// budget far below its 45 completion classes. An unbounded
/// all-fingerprints run would hold 45 keys *and* enumerate the separable
/// suffix leaf by leaf; the budgeted counter holds at most `BUDGET` keys at
/// a time (multiple walks, evictions) and credits every class's separable
/// subtree in closed form. Class keys are residual keys — the resolved
/// dirty facts minus the ground block — so their resident bytes must not
/// grow with the ground table: the peak at 10⁵ facts equals the peak at
/// 10³.
#[test]
fn large_instance_budgeted_streaming_counts_in_closed_form() {
    const BUDGET: usize = 12;
    const SEPARABLE: u32 = 4;
    let start = Instant::now();
    let db = bounded_stream_large_instance(FACTS, SEPARABLE);
    // Analytic: 45 distinct dirty R-parts × 3⁴ separable completions.
    let expected = BigNat::from(45u64 * 3u64.pow(SEPARABLE));
    let result = count_completions_budgeted(&db, &Tautology, BUDGET, 1).unwrap();
    assert_eq!(result.count, expected, "budgeted count must stay exact");
    assert!(
        result.peak_resident_fingerprints <= BUDGET,
        "peak resident fingerprints {} exceed the budget {BUDGET}",
        result.peak_resident_fingerprints
    );
    // 45 classes against a budget of 12: the bound must actually bind.
    assert!(
        result.passes > 1,
        "a 12-key budget cannot serve 45 classes in one walk"
    );
    assert!(
        result.evictions > 0,
        "overflowing walks must evict, not grow past the budget"
    );
    let small = count_completions_budgeted(
        &bounded_stream_large_instance(1_000, SEPARABLE),
        &Tautology,
        BUDGET,
        1,
    )
    .unwrap();
    assert_eq!(small.count, expected);
    assert!(result.peak_resident_bytes > 0);
    assert_eq!(
        result.peak_resident_bytes, small.peak_resident_bytes,
        "resident class-key bytes grow with the ground table"
    );
    assert!(
        start.elapsed() < TIME_CEILING,
        "large-instance budgeted streaming count took {:?} (ceiling {TIME_CEILING:?})",
        start.elapsed()
    );
}

#[test]
fn large_instance_merge_join_agrees_across_the_crossover() {
    let start = Instant::now();
    let r_facts = FACTS / 2;
    let db = merge_join_instance(32, r_facts - 33, r_facts);
    let q: Bcq = "R(0, x), S(x, y)".parse().unwrap();
    // Both join sides sit far above the default crossover, so the
    // incremental evaluator merges; the from-scratch reference decides
    // each node by a partial-homomorphism search with no join routing.
    let merged = BacktrackingEngine::sequential()
        .count_valuations(&db, &q)
        .unwrap();
    let scratch = BacktrackingEngine::sequential()
        .count_valuations(&db, &FromScratch(&q))
        .unwrap();
    assert_eq!(
        merged, scratch,
        "the merge join and the from-scratch search disagree on the disjoint-key instance"
    );
    // The key sets are disjoint in every completion: no valuation
    // satisfies the join.
    assert_eq!(merged, BigNat::zero());
    assert!(
        start.elapsed() < TIME_CEILING,
        "large-instance merge-join count took {:?} (ceiling {TIME_CEILING:?})",
        start.elapsed()
    );
}
