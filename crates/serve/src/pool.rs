//! The keyed session pool: quiescent [`SearchSession`]s shelved by
//! `(database revision, canonical query key)` and handed back out instead
//! of being rebuilt.
//!
//! Building a session pays for a grounding construction plus a residual
//! state compilation; a pooled checkout pays for a
//! [`rewind`](SearchSession::rewind). The pool is only allowed to confuse
//! the two when it is provably safe, which is exactly what the key
//! encodes:
//!
//! * the **revision** half ([`IncompleteDatabase::revision`]) pins the
//!   data: any completion-affecting mutation bumps it, so a session built
//!   at revision `r` is never reused at revision `r' ≠ r`;
//! * the **query** half ([`BooleanQuery::cache_key`]) pins the semantics:
//!   two queries share a key only when they are semantically identical
//!   over every database. Queries that cannot name themselves
//!   (`cache_key() == None`) are served with fresh sessions every time —
//!   correct, just never amortised.
//!
//! Check-in runs the session's [`quiesce`](SearchSession::quiesce)
//! contract, so a shelved session is indistinguishable from a freshly
//! built one at its next checkout.
//!
//! ## Write-path maintenance
//!
//! When the database moves past a shelf, its stale sessions are
//! **advanced through the database's delta log**
//! ([`SearchSession::advance_to`]): the grounding arena is spliced and the
//! residual slabs are patched in `O(delta)`, in place of the full
//! grounding construction and residual compilation a rebuild pays. Writers
//! call [`SessionPool::maintain`] after a mutation to sweep every shelf
//! eagerly; checkouts that find a stale shelf first patch on the spot.
//! Sessions whose gap the bounded log no longer covers (or that a
//! structural write — new relation, domain change — interrupted) are
//! dropped and counted in [`PoolStats::rebuilt_gap`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use incdb_core::engine::BacktrackingEngine;
use incdb_core::session::SearchSession;
use incdb_data::{DataError, IncompleteDatabase};
use incdb_query::BooleanQuery;

/// How many quiescent sessions one `(revision, query)` shelf retains;
/// check-ins beyond this depth drop the session instead. Bounds pool
/// memory at `SHELF_DEPTH ×` live keys without turning hot keys away — a
/// shelf only grows this deep when that many requests for one key were
/// genuinely in flight at once.
const SHELF_DEPTH: usize = 8;

/// What the pool does with shelves the database has moved past. There is
/// one policy; the type remains only because the repository benchmark
/// (`perfbench`) names it in its [`SessionPool::with_policy`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenancePolicy {
    /// Advance stale sessions through the database's bounded delta log
    /// ([`SearchSession::advance_to`]) — `O(delta)` per session — both on
    /// checkout and in the [`SessionPool::maintain`] sweep. Sessions the
    /// log can no longer cover are dropped ([`PoolStats::rebuilt_gap`]).
    #[default]
    PatchForward,
}

/// The sealed shelf key. The **only** constructor runs
/// [`BooleanQuery::cache_key`], so the type system guarantees no shelf is
/// ever keyed by anything else — in particular not by
/// `Bcq::canonical_form`, which also renames *relations* and therefore
/// merges semantically distinct queries (pooling on it would serve one
/// query's sessions as another's answers).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PoolKey(String);

impl PoolKey {
    /// The shelf key of `q`, `None` when the query cannot name itself.
    fn of<Q: BooleanQuery + ?Sized>(q: &Q) -> Option<PoolKey> {
        q.cache_key().map(PoolKey)
    }
}

/// One cache shelf: the sessions available for a single canonical query
/// key, all built against the same database revision.
struct Shelf<'q, Q: BooleanQuery + ?Sized> {
    revision: u64,
    sessions: Vec<SearchSession<'q, Q>>,
}

/// Counters describing how the pool has been serving (all monotone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Sessions built from scratch (pool misses plus uncacheable queries).
    pub built: u64,
    /// Checkouts served from a shelf — each one is a grounding build and a
    /// residual-state compilation that did not happen.
    pub reused: u64,
    /// Shelved sessions dropped because the database moved past them.
    pub invalidated: u64,
    /// Sessions built for queries with no [`BooleanQuery::cache_key`]:
    /// served fresh, never shelved. A subset of `built`.
    pub uncacheable: u64,
    /// Stale sessions advanced in place through the delta log
    /// ([`SearchSession::advance_to`]) — each one is a grounding build and
    /// a residual compilation that did not happen.
    pub patched: u64,
    /// Stale sessions dropped because patching was impossible (delta log
    /// truncated, or interrupted by a structural write) — the gap forced a
    /// rebuild. Also counted in `invalidated`.
    pub rebuilt_gap: u64,
}

impl PoolStats {
    /// The fraction of cacheable checkouts served from a shelf, in
    /// `[0, 1]`; `0` before any cacheable checkout.
    pub fn hit_rate(&self) -> f64 {
        let cacheable = self.built + self.reused - self.uncacheable;
        if cacheable == 0 {
            0.0
        } else {
            self.reused as f64 / cacheable as f64
        }
    }
}

/// A checked-out session plus the bookkeeping its check-in needs. Obtain
/// with [`SessionPool::check_out`], walk `session` freely (counts, pages,
/// aborted walks — anything), then return it with
/// [`SessionPool::check_in`]; dropping the lease instead is safe and
/// simply forfeits the reuse.
pub struct Lease<'q, Q: BooleanQuery + ?Sized> {
    /// The session itself, ready to walk.
    pub session: SearchSession<'q, Q>,
    /// The shelf key, `None` for uncacheable queries.
    key: Option<PoolKey>,
    /// The database revision the session was built against.
    revision: u64,
    /// Whether the checkout was served from a shelf.
    reused: bool,
    /// Whether the checkout advanced a stale shelved session through the
    /// delta log instead of finding a current one.
    patched: bool,
}

impl<Q: BooleanQuery + ?Sized> Lease<'_, Q> {
    /// Whether this checkout reused a shelved session (`false`: it was
    /// built from scratch).
    pub fn was_reused(&self) -> bool {
        self.reused
    }

    /// Whether this checkout patched a stale shelved session forward
    /// through the delta log (implies [`was_reused`](Lease::was_reused)).
    pub fn was_patched(&self) -> bool {
        self.patched
    }

    /// The database revision the session snapshots.
    pub fn revision(&self) -> u64 {
        self.revision
    }
}

/// A keyed pool of quiescent [`SearchSession`]s (see the [module
/// docs](self)). Thread-safe: checkouts and check-ins from any number of
/// front-end workers interleave freely.
pub struct SessionPool<'q, Q: BooleanQuery + ?Sized> {
    shelves: Mutex<HashMap<PoolKey, Shelf<'q, Q>>>,
    built: AtomicU64,
    reused: AtomicU64,
    invalidated: AtomicU64,
    uncacheable: AtomicU64,
    patched: AtomicU64,
    rebuilt_gap: AtomicU64,
}

impl<'q, Q: BooleanQuery + ?Sized> SessionPool<'q, Q> {
    /// An empty pool. Fresh sessions are built with
    /// [`SearchSession::new`]: a session depends on the database and the
    /// query alone.
    pub fn new() -> Self {
        SessionPool {
            shelves: Mutex::new(HashMap::new()),
            built: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
            patched: AtomicU64::new(0),
            rebuilt_gap: AtomicU64::new(0),
        }
    }

    /// The same pool as [`new`](SessionPool::new): neither argument
    /// changes the sessions it builds or how it maintains them. The
    /// signature remains only because the repository benchmark
    /// (`perfbench`) calls it.
    pub fn with_policy(_engine: BacktrackingEngine, _policy: MaintenancePolicy) -> Self {
        Self::new()
    }

    /// Checks out a session for `q` over `db`: from the shelf keyed
    /// `(db.revision(), q.cache_key())` when one is waiting, built from
    /// scratch otherwise. The caller must hold `db` stable (e.g. a read
    /// lock) across the call so the revision it reads is the data the
    /// session snapshots.
    ///
    /// Returns an error only when a fresh build fails validation (some
    /// null has no domain).
    pub fn check_out(&self, db: &IncompleteDatabase, q: &'q Q) -> Result<Lease<'q, Q>, DataError> {
        let revision = db.revision();
        let key = PoolKey::of(q);
        if let Some(k) = &key {
            let mut shelves = self.shelves.lock().expect("pool lock poisoned");
            if let Some(shelf) = shelves.get_mut(k) {
                if shelf.revision == revision {
                    if let Some(session) = shelf.sessions.pop() {
                        self.reused.fetch_add(1, Ordering::Relaxed);
                        return Ok(Lease {
                            session,
                            key,
                            revision,
                            reused: true,
                            patched: false,
                        });
                    }
                } else if shelf.revision < revision {
                    // Advance one shelved session through the delta log
                    // and serve it. Shelf-mates stay behind at the old
                    // revision for later checkouts (or the maintain
                    // sweep) to advance.
                    if let Some(mut session) = shelf.sessions.pop() {
                        if session.advance_to(db, shelf.revision) {
                            self.reused.fetch_add(1, Ordering::Relaxed);
                            self.patched.fetch_add(1, Ordering::Relaxed);
                            return Ok(Lease {
                                session,
                                key,
                                revision,
                                reused: true,
                                patched: true,
                            });
                        }
                        // advance_to is deterministic in (db, shelf
                        // revision): if this session cannot patch, none
                        // of its shelf-mates can either.
                        let dropped = shelf.sessions.len() as u64 + 1;
                        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
                        self.rebuilt_gap.fetch_add(dropped, Ordering::Relaxed);
                        shelves.remove(k);
                    }
                } else {
                    // The database is *behind* the shelf: no delta log
                    // runs backwards, so every session on it is stale.
                    self.invalidated
                        .fetch_add(shelf.sessions.len() as u64, Ordering::Relaxed);
                    shelves.remove(k);
                }
            }
        }
        let session = SearchSession::new(db, q)?;
        self.built.fetch_add(1, Ordering::Relaxed);
        // Counted with `built`, never before it: a failed build counts
        // neither, so `uncacheable <= built` and `hit_rate` cannot underflow.
        if key.is_none() {
            self.uncacheable.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Lease {
            session,
            key,
            revision,
            reused: false,
            patched: false,
        })
    }

    /// Returns a lease to the pool. The session is
    /// [`quiesce`](SearchSession::quiesce)d — whatever walks (completed or
    /// aborted) it served — and shelved for the next checkout of the same
    /// `(revision, query)` key. Uncacheable leases, leases whose revision
    /// no longer matches their shelf, and check-ins beyond the shelf depth
    /// are dropped instead.
    pub fn check_in(&self, lease: Lease<'q, Q>) {
        let Lease {
            mut session,
            key,
            revision,
            ..
        } = lease;
        let Some(key) = key else {
            return;
        };
        session.quiesce();
        let mut shelves = self.shelves.lock().expect("pool lock poisoned");
        let shelf = shelves.entry(key).or_insert_with(|| Shelf {
            revision,
            sessions: Vec::new(),
        });
        if shelf.revision != revision {
            if shelf.revision < revision {
                // This lease saw newer data than the shelf: the shelf is
                // stale, the lease is the shelf's future.
                self.invalidated
                    .fetch_add(shelf.sessions.len() as u64, Ordering::Relaxed);
                shelf.sessions.clear();
                shelf.revision = revision;
            } else {
                // The shelf moved on while this lease was out: the lease
                // itself is the stale party.
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if shelf.sessions.len() < SHELF_DEPTH {
            shelf.sessions.push(session);
        }
    }

    /// The eager write-path sweep: advances **every** shelved session to
    /// `db`'s current revision through the delta log, dropping the
    /// sessions that cannot be patched (truncated log, structural writes).
    /// Writers call this right after a mutation, holding `db` stable (e.g.
    /// a read lock re-acquired after the write), so shelves are current
    /// again before the next read lands. Returns `(patched, dropped)`
    /// session counts. Unlike the checkout-time patch — which advances
    /// only the session it is about to serve — the sweep leaves no stale
    /// shelf behind, so subsequent checkouts are pure hits.
    pub fn maintain(&self, db: &IncompleteDatabase) -> (u64, u64) {
        let revision = db.revision();
        let mut shelves = self.shelves.lock().expect("pool lock poisoned");
        let mut patched = 0u64;
        let mut dropped = 0u64;
        shelves.retain(|_, shelf| {
            if shelf.revision != revision {
                shelf.sessions.retain_mut(|session| {
                    if session.advance_to(db, shelf.revision) {
                        patched += 1;
                        true
                    } else {
                        dropped += 1;
                        false
                    }
                });
                shelf.revision = revision;
            }
            !shelf.sessions.is_empty()
        });
        self.patched.fetch_add(patched, Ordering::Relaxed);
        self.rebuilt_gap.fetch_add(dropped, Ordering::Relaxed);
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        (patched, dropped)
    }

    /// How many sessions are currently shelved (across every key).
    pub fn shelved(&self) -> usize {
        self.shelves
            .lock()
            .expect("pool lock poisoned")
            .values()
            .map(|shelf| shelf.sessions.len())
            .sum()
    }

    /// A snapshot of the pool's lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            built: self.built.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            patched: self.patched.load(Ordering::Relaxed),
            rebuilt_gap: self.rebuilt_gap.load(Ordering::Relaxed),
        }
    }
}

impl<Q: BooleanQuery + ?Sized> Default for SessionPool<'_, Q> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdb_bignum::BigNat;
    use incdb_data::{NullId, Value};
    use incdb_query::Bcq;

    fn example_db() -> IncompleteDatabase {
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
    fn checkout_reuses_only_matching_revision_and_key() {
        let db = example_db();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let renamed: Bcq = "S(y,y)".parse().unwrap();
        let other: Bcq = "S(x,y)".parse().unwrap();
        let pool: SessionPool<'_, Bcq> = SessionPool::new();

        let lease = pool.check_out(&db, &q).unwrap();
        assert!(!lease.was_reused());
        pool.check_in(lease);
        assert_eq!(pool.shelved(), 1);

        // Same key under a different variable naming: a hit.
        let lease = pool.check_out(&db, &renamed).unwrap();
        assert!(lease.was_reused());
        assert!(
            lease.session.is_quiescent(),
            "shelved sessions come back quiescent"
        );
        pool.check_in(lease);

        // A different query: a miss, served fresh.
        let lease = pool.check_out(&db, &other).unwrap();
        assert!(!lease.was_reused());
        pool.check_in(lease);

        let stats = pool.stats();
        assert_eq!((stats.built, stats.reused), (2, 1));
    }

    #[test]
    fn writes_invalidate_shelved_sessions() {
        let mut db = example_db();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let pool: SessionPool<'_, Bcq> = SessionPool::new();
        let lease = pool.check_out(&db, &q).unwrap();
        let count_before = {
            let mut lease = lease;
            let c = lease.session.count();
            pool.check_in(lease);
            c
        };

        // Mutate across a structural write (the new relation `T` seals the
        // delta log): the revision moves and no patch can cover the gap, so
        // the maintain sweep drops the shelf instead of advancing it.
        db.add_fact("T", vec![Value::constant(0)]).unwrap();
        db.add_fact("S", vec![Value::constant(5), Value::constant(5)])
            .unwrap();
        assert_eq!(pool.maintain(&db), (0, 1));
        assert_eq!(pool.shelved(), 0);

        let mut lease = pool.check_out(&db, &q).unwrap();
        assert!(!lease.was_reused(), "stale sessions must not be reused");
        // The rebuilt session sees the new fact: S(5,5) satisfies S(x,x)
        // in every completion, so the count strictly grows.
        assert!(lease.session.count() > count_before);
        assert!(lease.session.count() > BigNat::zero());
        pool.check_in(lease);

        let stats = pool.stats();
        assert_eq!((stats.invalidated, stats.rebuilt_gap), (1, 1));
        assert_eq!(stats.built, 2);
    }

    #[test]
    fn checkout_patches_stale_shelves_forward() {
        let mut db = example_db();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let pool: SessionPool<'_, Bcq> = SessionPool::new();
        let mut lease = pool.check_out(&db, &q).unwrap();
        let before = lease.session.count();
        pool.check_in(lease);

        // The write moves the revision; the default patch-forward pool
        // advances the shelved session instead of rebuilding.
        db.add_fact("S", vec![Value::constant(5), Value::constant(5)])
            .unwrap();
        let mut lease = pool.check_out(&db, &q).unwrap();
        assert!(lease.was_reused(), "patched checkouts count as reuse");
        assert!(lease.was_patched());
        let patched_count = lease.session.count();
        assert!(patched_count > before, "S(5,5) satisfies S(x,x) everywhere");
        let fresh_count = SearchSession::new(&db, &q).unwrap().count();
        assert_eq!(patched_count, fresh_count, "patched ≡ fresh");
        pool.check_in(lease);

        let stats = pool.stats();
        assert_eq!((stats.built, stats.reused), (1, 1));
        assert_eq!((stats.patched, stats.rebuilt_gap), (1, 0));
        assert_eq!(stats.invalidated, 0, "nothing was thrown away");
    }

    #[test]
    fn maintain_sweeps_every_stale_shelf_current() {
        let mut db = example_db();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let pool: SessionPool<'_, Bcq> = SessionPool::new();
        let a = pool.check_out(&db, &q).unwrap();
        let b = pool.check_out(&db, &q).unwrap();
        pool.check_in(a);
        pool.check_in(b);
        assert_eq!(pool.shelved(), 2);

        db.add_fact("S", vec![Value::constant(6), Value::constant(6)])
            .unwrap();
        // The eager write-path sweep patches both shelved sessions…
        assert_eq!(pool.maintain(&db), (2, 0));
        assert_eq!(pool.shelved(), 2);
        // …so the next checkout is a pure hit, no patch needed.
        let lease = pool.check_out(&db, &q).unwrap();
        assert!(lease.was_reused() && !lease.was_patched());
        let stats = pool.stats();
        assert_eq!((stats.patched, stats.rebuilt_gap), (2, 0));
    }

    #[test]
    fn unpatchable_gaps_fall_back_to_rebuild() {
        let mut db = example_db();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let pool: SessionPool<'_, Bcq> = SessionPool::new();
        let lease = pool.check_out(&db, &q).unwrap();
        pool.check_in(lease);

        // A structural write (new relation) is a delta-log barrier: the
        // shelved session's gap is no longer coverable.
        db.add_fact("T", vec![Value::constant(0)]).unwrap();
        let lease = pool.check_out(&db, &q).unwrap();
        assert!(!lease.was_reused(), "barrier gaps force a rebuild");
        pool.check_in(lease);
        let stats = pool.stats();
        assert_eq!((stats.built, stats.patched, stats.rebuilt_gap), (2, 0, 1));
        assert_eq!(stats.invalidated, 1, "gap drops count as invalidations");
    }

    #[test]
    fn pool_keys_are_cache_keys_not_canonical_forms() {
        let mut db = example_db();
        db.add_fact("T", vec![Value::constant(0), Value::constant(0)])
            .unwrap();
        let s: Bcq = "S(x,x)".parse().unwrap();
        let t: Bcq = "T(y,y)".parse().unwrap();
        // canonical_form also renames relations, so these two collide
        // there — but their cache keys (and answers!) differ. The sealed
        // PoolKey type only ever holds cache keys, so the shelves must
        // stay apart.
        assert_eq!(s.canonical_form(), t.canonical_form());
        assert_ne!(s.cache_key(), t.cache_key());
        let pool: SessionPool<'_, Bcq> = SessionPool::new();
        let lease = pool.check_out(&db, &s).unwrap();
        pool.check_in(lease);
        let lease = pool.check_out(&db, &t).unwrap();
        assert!(
            !lease.was_reused(),
            "canonical-form twins must not share a shelf"
        );
        pool.check_in(lease);
        assert_eq!(pool.shelved(), 2);
        assert_eq!(pool.stats().built, 2);
    }

    /// A query type that cannot name itself.
    struct Opaque;
    impl BooleanQuery for Opaque {
        fn holds(&self, _db: &incdb_data::Database) -> bool {
            true
        }
        fn signature(&self) -> std::collections::BTreeSet<String> {
            std::collections::BTreeSet::new()
        }
    }

    #[test]
    fn uncacheable_queries_are_served_fresh_every_time() {
        let db = example_db();
        let q = Opaque;
        let pool: SessionPool<'_, Opaque> = SessionPool::new();
        for _ in 0..3 {
            let lease = pool.check_out(&db, &q).unwrap();
            assert!(!lease.was_reused());
            pool.check_in(lease);
        }
        assert_eq!(pool.shelved(), 0, "uncacheable leases are never shelved");
        let stats = pool.stats();
        assert_eq!((stats.built, stats.uncacheable), (3, 3));
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn failed_uncacheable_builds_keep_the_hit_rate_defined() {
        // A null with no domain fails the build: it counts neither as built
        // nor as uncacheable, so `hit_rate` cannot underflow.
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("S", vec![Value::null(1)]).unwrap();
        let pool: SessionPool<'_, Opaque> = SessionPool::new();
        assert!(pool.check_out(&db, &Opaque).is_err());
        let stats = pool.stats();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!((stats.built, stats.uncacheable), (0, 0));
    }
}
