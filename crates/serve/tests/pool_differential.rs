//! Differential property suite for the keyed session pool: a pooled
//! session must be **observationally identical** to a freshly built one,
//! under arbitrary multi-threaded interleavings of check-out / walk /
//! abort / check-in.
//!
//! Several worker threads share one [`SessionPool`] over a fixed database
//! and query catalog. Each worker runs a seeded random schedule of
//! operations — valuation counts, page drains from random cursors,
//! aborted enumeration walks — on checked-out sessions, comparing every
//! response against a reference computed once from fresh sessions:
//! counts equal, page key sequences equal, and resumed cursors
//! **byte-identical** through the wire format. The interleavings are
//! adversarial for the pool (sessions hop between threads in whatever
//! order the scheduler produces), while every individual answer is
//! deterministic — which is exactly the property under test.

use std::sync::Mutex;
use std::thread;

use incdb_bignum::BigNat;
use incdb_core::engine::{BacktrackingEngine, CompletionVisitor};
use incdb_data::{CompletionKey, Grounding, IncompleteDatabase, NullId, PageHeap, Value};
use incdb_query::Bcq;
use incdb_serve::SessionPool;
use incdb_stream::{page_from_session, Cursor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: usize = 4;
const OPS_PER_WORKER: usize = 60;

/// A visitor that aborts the walk after a few leaves — the shape of an
/// over-budget walk a serving layer cancels mid-flight.
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

fn build_db() -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    db.add_fact("S", vec![Value::constant(0), Value::constant(1)])
        .unwrap();
    db.add_fact("S", vec![Value::null(1), Value::constant(0)])
        .unwrap();
    db.add_fact("S", vec![Value::constant(0), Value::null(2)])
        .unwrap();
    db.add_fact("R", vec![Value::null(3), Value::constant(10)])
        .unwrap();
    db.add_fact("R", vec![Value::null(4), Value::constant(20)])
        .unwrap();
    db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
    db.set_domain(NullId(2), [0u64, 1]).unwrap();
    db.set_domain(NullId(3), [0u64, 1, 2]).unwrap();
    db.set_domain(NullId(4), [0u64, 1]).unwrap();
    db
}

/// The per-query reference, computed from fresh sessions only.
struct Reference {
    count: BigNat,
    /// Every completion key in canonical order.
    keys: Vec<CompletionKey>,
}

fn reference_for(db: &IncompleteDatabase, q: &Bcq) -> Reference {
    let engine = BacktrackingEngine::sequential();
    let count = engine.session(db, q).unwrap().count();
    let mut keys = Vec::new();
    let mut session = engine.session(db, q).unwrap();
    let mut page = PageHeap::new();
    let mut cursor = Cursor::start();
    loop {
        cursor = page_from_session(&mut session, &cursor, 3, &mut page);
        let short = page.len() < 3;
        keys.extend(page.iter().cloned());
        if short {
            break;
        }
    }
    Reference { count, keys }
}

/// The expected page (and resume cursor) for `page_size` keys after
/// position `pos` of the reference order, straight from the key list.
fn expected_page(
    reference: &Reference,
    pos: usize,
    page_size: usize,
) -> (Vec<CompletionKey>, Cursor) {
    let end = (pos + page_size).min(reference.keys.len());
    let keys: Vec<CompletionKey> = reference.keys[pos..end].to_vec();
    let cursor = match keys.last() {
        Some(last) => Cursor::after(last.clone()),
        None => match pos.checked_sub(1).and_then(|p| reference.keys.get(p)) {
            Some(prev) => Cursor::after(prev.clone()),
            None => Cursor::start(),
        },
    };
    (keys, cursor)
}

#[test]
fn pooled_sessions_are_indistinguishable_from_fresh_ones() {
    let db = build_db();
    // Four catalog entries, two of which share a cache key (renamed
    // variables) so threads contend for the same shelf.
    let queries: Vec<Bcq> = vec![
        "S(x,x)".parse().unwrap(),
        "S(y,y)".parse().unwrap(),
        "R(x,y)".parse().unwrap(),
        "S(x,y), R(y,z)".parse().unwrap(),
    ];
    let references: Vec<Reference> = queries.iter().map(|q| reference_for(&db, q)).collect();
    assert!(references.iter().any(|r| !r.keys.is_empty()));

    let pool: SessionPool<'_, Bcq> = SessionPool::new();
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for worker in 0..WORKERS {
            let (pool, db, queries, references, failures) =
                (&pool, &db, &queries, &references, &failures);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE + worker as u64);
                let mut heap = PageHeap::new();
                for op in 0..OPS_PER_WORKER {
                    let qi = rng.random_range(0..queries.len());
                    let q = &queries[qi];
                    let reference = &references[qi];
                    let mut lease = pool.check_out(db, q).unwrap();
                    let fail = |msg: String| {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("worker {worker} op {op} query {qi}: {msg}"));
                    };
                    match rng.random_range(0u32..4) {
                        // Count: must match the fresh-session count.
                        0 => {
                            let got = lease.session.count();
                            if got != reference.count {
                                fail(format!("count {got:?} != {:?}", reference.count));
                            }
                        }
                        // Aborted walk, then a count on the same session:
                        // the abort must leave no trace.
                        1 => {
                            let mut abort = StopAfter {
                                seen: 0,
                                stop_after: 1 + rng.random_range(0usize..3),
                            };
                            lease.session.walk(&mut abort);
                            let got = lease.session.count();
                            if got != reference.count {
                                fail(format!("post-abort count {got:?}"));
                            }
                        }
                        // A page from a random resume position: keys and
                        // the re-encoded cursor must be byte-identical to
                        // the fresh-session expectation.
                        _ => {
                            let pos = rng.random_range(0..=reference.keys.len());
                            let page_size = 1 + rng.random_range(0usize..4);
                            let (expected_keys, expected_cursor) =
                                expected_page(reference, pos, page_size);
                            let cursor = match pos.checked_sub(1) {
                                Some(p) => Cursor::after(reference.keys[p].clone()),
                                None => Cursor::start(),
                            };
                            // Round-trip the cursor through the wire
                            // format, as a remote client would.
                            let cursor = Cursor::decode(&cursor.encode()).unwrap();
                            let next = page_from_session(
                                &mut lease.session,
                                &cursor,
                                page_size,
                                &mut heap,
                            );
                            let got: Vec<CompletionKey> = heap.iter().cloned().collect();
                            if got != expected_keys {
                                fail(format!(
                                    "page at {pos} size {page_size}: {} keys != {} expected",
                                    got.len(),
                                    expected_keys.len()
                                ));
                            }
                            if next.encode() != expected_cursor.encode() {
                                fail(format!(
                                    "cursor {:?} != {:?}",
                                    next.encode(),
                                    expected_cursor.encode()
                                ));
                            }
                        }
                    }
                    pool.check_in(lease);
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    // The schedule really exercised the pool: with 4 workers × 60 ops over
    // 3 distinct cache keys, reuse dominates builds.
    let stats = pool.stats();
    assert_eq!(stats.uncacheable, 0);
    assert_eq!(
        stats.built + stats.reused,
        (WORKERS * OPS_PER_WORKER) as u64
    );
    assert!(
        stats.reused > stats.built,
        "pool should mostly reuse: built {} reused {}",
        stats.built,
        stats.reused
    );
    assert!(stats.hit_rate() > 0.5);
}
