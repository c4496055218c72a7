//! The thread-per-core front-end: a [`ServeNode`] owns one incomplete
//! database behind a read/write lock, a catalog of prepared queries, a
//! tenant table, and a [`SessionPool`] — and multiplexes batches of
//! [`Request`]s across worker threads.
//!
//! Read requests ([`Request::Count`], [`Request::Page`],
//! [`Request::CursorResume`]) check a session out of the pool under the
//! read lock, drop the lock (the session snapshots the data, so walks
//! never block writers), walk, and check the session back in. Writes take
//! the write lock, mutate (bumping
//! [`IncompleteDatabase::revision`]), and purge the pool's now-stale
//! shelves. Every reply carries [`RequestMetrics`]: queue wait, walk time,
//! and whether the pool had to build a session.
//!
//! Memory discipline is per tenant: a [`Tenant`]'s
//! [`StreamOptions::fingerprint_budget`] clamps the page size of every
//! walk serving it — pages and counting drains alike stay within
//! `O(budget)` resident fingerprints, the serving-layer face of the
//! streaming subsystem's memory-vs-passes trade-off.

use std::panic::{self, AssertUnwindSafe};
use std::sync::RwLock;
use std::thread;
use std::time::Instant;

use incdb_bignum::BigNat;
use incdb_core::engine::{BacktrackingEngine, TaskQueue};
use incdb_data::{CompletionKey, IncompleteDatabase, PageHeap, Value};
use incdb_query::BooleanQuery;
use incdb_stream::stream::page_from_session;
use incdb_stream::{Cursor, StreamOptions};

use crate::pool::{MaintenancePolicy, SessionPool};

/// A client class with its own memory discipline.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name, echoed in errors.
    pub name: String,
    /// The tenant's streaming options. `fingerprint_budget` bounds the
    /// resident fingerprints of any walk run on this tenant's behalf by
    /// clamping page sizes; `threads` is not consulted here — the node's
    /// thread-per-core front-end supplies the parallelism.
    pub options: StreamOptions,
    /// Hard page-size ceiling, applied after the budget clamp.
    pub max_page_size: usize,
}

impl Tenant {
    /// A tenant with no fingerprint budget and the given page ceiling.
    pub fn new(name: impl Into<String>, max_page_size: usize) -> Tenant {
        Tenant {
            name: name.into(),
            options: StreamOptions::default(),
            max_page_size: max_page_size.max(1),
        }
    }

    /// Builder-style fingerprint budget.
    pub fn with_budget(mut self, budget: usize) -> Tenant {
        self.options.fingerprint_budget = Some(budget.max(1));
        self
    }

    /// The page size actually served for a request of `requested`: at
    /// least 1, at most the tenant ceiling, at most the fingerprint
    /// budget.
    pub fn clamp_page(&self, requested: usize) -> usize {
        let mut page = requested.clamp(1, self.max_page_size);
        if let Some(budget) = self.options.fingerprint_budget {
            page = page.min(budget.max(1));
        }
        page
    }
}

/// One client request. Queries and tenants are referenced by index into
/// the node's catalogs — the serving layer's "prepared statement"
/// discipline, which is also what lets pooled sessions borrow the query
/// for as long as the node lives.
#[derive(Debug, Clone)]
pub enum Request {
    /// How many distinct completions satisfy the query? Served by paging
    /// the canonical order on a pooled session, so resident memory stays
    /// within the tenant's clamp whatever the true count is.
    Count { tenant: usize, query: usize },
    /// The first `page_size` completions in canonical order.
    Page {
        tenant: usize,
        query: usize,
        page_size: usize,
    },
    /// The next `page_size` completions after a wire-format cursor
    /// previously returned in [`Outcome::Page`].
    CursorResume {
        tenant: usize,
        query: usize,
        page_size: usize,
        cursor: String,
    },
    /// Inserts a fact, bumping the database revision and running the
    /// pool's maintenance sweep — under the default
    /// [`MaintenancePolicy::PatchForward`] every shelved session is
    /// advanced through the delta log rather than rebuilt.
    Write { relation: String, fact: Vec<Value> },
}

/// What a request produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The distinct-completion count of a [`Request::Count`].
    Count(BigNat),
    /// One served page: the completion keys in canonical order, the
    /// encoded cursor to resume after them, and whether the enumeration
    /// is exhausted (a short page).
    Page {
        keys: Vec<CompletionKey>,
        cursor: String,
        exhausted: bool,
    },
    /// A write landed; `revision` is the database epoch after it.
    Wrote { revision: u64 },
    /// The request was malformed (unknown tenant/query index, undecodable
    /// cursor, arity mismatch, …). The batch keeps going.
    Error(String),
}

/// Per-request accounting, returned with every reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMetrics {
    /// Nanoseconds between enqueue and a worker picking the request up.
    pub queue_wait_ns: u64,
    /// Nanoseconds spent walking (page fills, counting drains); zero for
    /// writes and errors.
    pub walk_ns: u64,
    /// Nanoseconds from a worker picking the request up to its reply being
    /// ready — checkout (including any session build), walk, check-in, and
    /// for writes the locked mutation. `queue_wait_ns + service_ns` is the
    /// request's end-to-end latency from batch submission.
    pub service_ns: u64,
    /// Nanoseconds the pool checkout took — the session acquisition cost.
    /// For a shelf hit this is a pop; for a patched checkout it is the
    /// delta patch; for a miss it is the full build. Comparing this figure
    /// across `session_built` / `session_patched` is the per-request
    /// patch-vs-build ledger. Zero for writes and errors.
    pub checkout_ns: u64,
    /// Whether serving this request built a session from scratch (`false`
    /// when the pool had one shelved, and for writes/errors).
    pub session_built: bool,
    /// Whether serving this request advanced a stale shelved session
    /// through the delta log instead of rebuilding it.
    pub session_patched: bool,
}

/// The reply to one [`Request`], tagged with its index in the submitted
/// batch (replies are returned sorted by it).
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index of the request in the batch passed to [`ServeNode::serve`].
    pub request: usize,
    /// What happened.
    pub outcome: Outcome,
    /// Where the time went.
    pub metrics: RequestMetrics,
}

/// A serving node: one database, a prepared-query catalog, a tenant
/// table, and the session pool that makes repeat traffic cheap. See the
/// [module docs](self).
pub struct ServeNode<'q, Q: BooleanQuery + Sync + ?Sized> {
    db: RwLock<IncompleteDatabase>,
    queries: Vec<&'q Q>,
    tenants: Vec<Tenant>,
    pool: SessionPool<'q, Q>,
}

impl<'q, Q: BooleanQuery + Sync + ?Sized> ServeNode<'q, Q> {
    /// A node serving `db` for the given prepared queries and tenants,
    /// with the default patch-forward session maintenance.
    pub fn new(db: IncompleteDatabase, queries: Vec<&'q Q>, tenants: Vec<Tenant>) -> Self {
        Self::with_maintenance(db, queries, tenants, MaintenancePolicy::default())
    }

    /// A node whose session pool maintains stale shelves under the given
    /// [`MaintenancePolicy`] — [`MaintenancePolicy::DropAndRebuild`] is
    /// the measurable rebuild baseline.
    pub fn with_maintenance(
        db: IncompleteDatabase,
        queries: Vec<&'q Q>,
        tenants: Vec<Tenant>,
        policy: MaintenancePolicy,
    ) -> Self {
        ServeNode {
            db: RwLock::new(db),
            queries,
            tenants,
            pool: SessionPool::with_policy(BacktrackingEngine::sequential(), policy),
        }
    }

    /// The session pool (for stats and tests).
    pub fn pool(&self) -> &SessionPool<'q, Q> {
        &self.pool
    }

    /// The database's current mutation epoch.
    pub fn revision(&self) -> u64 {
        self.db.read().expect("db lock poisoned").revision()
    }

    /// A clone of the current database state (differential tests compare
    /// served answers against fresh computations over this).
    pub fn snapshot(&self) -> IncompleteDatabase {
        self.db.read().expect("db lock poisoned").clone()
    }

    /// Serves a batch on one worker per available core.
    pub fn serve(&self, requests: Vec<Request>) -> Vec<Reply> {
        let workers = thread::available_parallelism().map_or(4, |n| n.get());
        self.serve_with_workers(requests, workers)
    }

    /// Serves a batch of requests on up to `workers` workers pulling from a
    /// shared queue, returning one reply per request (sorted by request
    /// index). Requests run concurrently; each individual reply is
    /// computed against the database revision current when its worker
    /// picked it up. The pool never has more workers than requests, and a
    /// pool of one serves on the calling thread.
    pub fn serve_with_workers(&self, requests: Vec<Request>, workers: usize) -> Vec<Reply> {
        let enqueued = Instant::now();
        // One page heap per worker, reused across every request it serves —
        // the same allocation-recycling discipline the stream's fill
        // scratch uses — and the worker's replies.
        let workers = workers.min(requests.len()).max(1);
        let workers = (0..workers)
            .map(|_| (PageHeap::new(), Vec::new()))
            .collect();
        let tasks = requests.into_iter().enumerate().collect();
        let done = TaskQueue::run(tasks, workers, |(heap, replies), (idx, request), _| {
            let queue_wait_ns = enqueued.elapsed().as_nanos() as u64;
            // A panicking request becomes its own `Error` reply and the rest
            // of the batch is served: a dropped lease only forfeits reuse,
            // and every page fill clears the heap first.
            let served = panic::catch_unwind(AssertUnwindSafe(|| {
                self.handle(idx, request, queue_wait_ns, heap)
            }));
            replies.push(served.unwrap_or_else(|payload| {
                let msg = (payload.downcast_ref::<&str>().copied())
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string payload");
                Reply {
                    request: idx,
                    outcome: Outcome::Error(format!("request {idx}: panicked: {msg}")),
                    metrics: RequestMetrics {
                        queue_wait_ns,
                        ..RequestMetrics::default()
                    },
                }
            }));
        });
        let mut out: Vec<Reply> = done.into_iter().flat_map(|(_, replies)| replies).collect();
        out.sort_by_key(|reply| reply.request);
        out
    }

    /// Serves one request (see [`serve`](ServeNode::serve) for the
    /// concurrency contract).
    fn handle(
        &self,
        idx: usize,
        request: Request,
        queue_wait_ns: u64,
        heap: &mut PageHeap,
    ) -> Reply {
        let mut metrics = RequestMetrics {
            queue_wait_ns,
            ..RequestMetrics::default()
        };
        let picked_up = Instant::now();
        let outcome = match request {
            Request::Count { tenant, query } => {
                self.read_request(tenant, query, |t, lease, checkout_ns| {
                    metrics.checkout_ns = checkout_ns;
                    metrics.session_built = !lease.was_reused();
                    metrics.session_patched = lease.was_patched();
                    let page = t.clamp_page(t.max_page_size);
                    let started = Instant::now();
                    let mut cursor = Cursor::start();
                    let mut count = 0u64;
                    loop {
                        cursor = page_from_session(&mut lease.session, &cursor, page, heap);
                        count += heap.len() as u64;
                        if heap.len() < page {
                            break;
                        }
                    }
                    metrics.walk_ns = started.elapsed().as_nanos() as u64;
                    Outcome::Count(BigNat::from(count))
                })
            }
            Request::Page {
                tenant,
                query,
                page_size,
            } => self.page_request(
                tenant,
                query,
                page_size,
                Cursor::start(),
                &mut metrics,
                heap,
            ),
            Request::CursorResume {
                tenant,
                query,
                page_size,
                cursor,
            } => match Cursor::decode(&cursor) {
                Ok(cursor) => {
                    self.page_request(tenant, query, page_size, cursor, &mut metrics, heap)
                }
                Err(err) => Outcome::Error(format!("request {idx}: bad cursor: {err}")),
            },
            Request::Write { relation, fact } => {
                let revision = {
                    let mut db = self.db.write().expect("db lock poisoned");
                    if let Err(err) = db.add_fact(&relation, fact) {
                        drop(db);
                        metrics.service_ns = picked_up.elapsed().as_nanos() as u64;
                        return Reply {
                            request: idx,
                            outcome: Outcome::Error(format!("request {idx}: write failed: {err}")),
                            metrics,
                        };
                    }
                    db.revision()
                };
                // Eager maintenance, before the next read lands: under
                // patch-forward every shelved session is advanced through
                // the delta log; under drop-and-rebuild stale shelves free
                // their memory now, not at their next unlucky checkout.
                {
                    let db = self.db.read().expect("db lock poisoned");
                    self.pool.maintain(&db);
                }
                Outcome::Wrote { revision }
            }
        };
        metrics.service_ns = picked_up.elapsed().as_nanos() as u64;
        Reply {
            request: idx,
            outcome,
            metrics,
        }
    }

    /// One served page beyond `cursor`.
    fn page_request(
        &self,
        tenant: usize,
        query: usize,
        page_size: usize,
        cursor: Cursor,
        metrics: &mut RequestMetrics,
        heap: &mut PageHeap,
    ) -> Outcome {
        self.read_request(tenant, query, |t, lease, checkout_ns| {
            metrics.checkout_ns = checkout_ns;
            metrics.session_built = !lease.was_reused();
            metrics.session_patched = lease.was_patched();
            let page = t.clamp_page(page_size);
            let started = Instant::now();
            let next = page_from_session(&mut lease.session, &cursor, page, heap);
            metrics.walk_ns = started.elapsed().as_nanos() as u64;
            Outcome::Page {
                keys: heap.iter().cloned().collect(),
                cursor: next.encode(),
                exhausted: heap.len() < page,
            }
        })
    }

    /// The shared read-path skeleton: validate indices, check a session
    /// out under the read lock (timing the checkout — pop, patch, or full
    /// build), release the lock, run `body`, check the session back in.
    fn read_request(
        &self,
        tenant: usize,
        query: usize,
        body: impl FnOnce(&Tenant, &mut crate::pool::Lease<'q, Q>, u64) -> Outcome,
    ) -> Outcome {
        let Some(tenant) = self.tenants.get(tenant) else {
            return Outcome::Error(format!("unknown tenant index {tenant}"));
        };
        let Some(&query) = self.queries.get(query) else {
            return Outcome::Error(format!(
                "unknown query index {query} (tenant {})",
                tenant.name
            ));
        };
        let checkout = Instant::now();
        let lease = {
            let db = self.db.read().expect("db lock poisoned");
            self.pool.check_out(&db, query)
        };
        let checkout_ns = checkout.elapsed().as_nanos() as u64;
        let mut lease = match lease {
            Ok(lease) => lease,
            Err(err) => {
                return Outcome::Error(format!(
                    "session build failed for tenant {}: {err}",
                    tenant.name
                ))
            }
        };
        let outcome = body(tenant, &mut lease, checkout_ns);
        self.pool.check_in(lease);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdb_query::Bcq;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn more_workers_than_requests_still_reply_in_request_order() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        let node = ServeNode::new(db, vec![&q], vec![Tenant::new("t", 4)]);
        let requests = vec![
            Request::Count {
                tenant: 0,
                query: 0,
            },
            Request::Page {
                tenant: 0,
                query: 0,
                page_size: 1,
            },
            Request::Count {
                tenant: 9,
                query: 0,
            },
        ];
        let replies = node.serve_with_workers(requests, 8);
        let order: Vec<usize> = replies.iter().map(|reply| reply.request).collect();
        assert_eq!(order, [0, 1, 2]);
        assert_eq!(replies[0].outcome, Outcome::Count(BigNat::from(2u64)));
        assert!(matches!(replies[1].outcome, Outcome::Page { .. }));
        assert!(matches!(replies[2].outcome, Outcome::Error(_)));
        assert!(node.serve_with_workers(Vec::new(), 8).is_empty());
    }

    /// `R(x)`, except that a query built armed panics the first time it is
    /// model-checked.
    struct PanicsOnce {
        inner: Bcq,
        armed: AtomicBool,
    }

    impl BooleanQuery for PanicsOnce {
        fn holds(&self, db: &incdb_data::Database) -> bool {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("armed query");
            }
            self.inner.holds(db)
        }
        fn signature(&self) -> std::collections::BTreeSet<String> {
            self.inner.signature()
        }
    }

    #[test]
    fn a_panicking_request_fails_alone() {
        for workers in [1, 2] {
            let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
            db.add_fact("R", vec![Value::null(0)]).unwrap();
            let query = |armed| PanicsOnce {
                inner: "R(x)".parse().unwrap(),
                armed: AtomicBool::new(armed),
            };
            let (bad, good) = (query(true), query(false));
            let node = ServeNode::new(db, vec![&bad, &good], vec![Tenant::new("t", 4)]);
            let count = |tenant, query| Request::Count { tenant, query };
            let replies =
                node.serve_with_workers(vec![count(0, 0), count(0, 1), count(9, 1)], workers);
            let order: Vec<usize> = replies.iter().map(|reply| reply.request).collect();
            assert_eq!(order, [0, 1, 2], "{workers} workers");
            match &replies[0].outcome {
                Outcome::Error(msg) => assert!(msg.contains("panicked: armed query"), "{msg}"),
                other => panic!("expected an error, got {other:?}"),
            }
            assert_eq!(replies[1].outcome, Outcome::Count(BigNat::from(2u64)));
            match &replies[2].outcome {
                Outcome::Error(msg) => assert!(!msg.contains("panicked"), "{msg}"),
                other => panic!("expected an error, got {other:?}"),
            }
        }
    }
}
