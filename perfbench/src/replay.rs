//! The traced replay of the serve front-end.
//!
//! [`Replica::handle`] serves a [`Request`] by calling the public functions
//! `ServeNode::handle` calls, in the same order, with a span around each:
//! the database `RwLock` (held by the replica, as the node holds its own),
//! [`SessionPool::check_out`], [`page_from_session`] (repeatedly for a
//! `Count`), the reply-key clone, [`Cursor::encode`] / [`Cursor::decode`]
//! and [`SessionPool::check_in`]; a write calls `add_fact` and then
//! [`SessionPool::maintain`]. Its outcomes must equal the node's for the
//! same request sequence, byte for byte — a self-test pins that — so when
//! the node changes and the replay does not, the test (and the traced
//! run's `trace.overhead_share`) says so.

use std::sync::RwLock;

use incdb_bignum::BigNat;
use incdb_core::engine::BacktrackingEngine;
use incdb_data::{CompletionKey, IncompleteDatabase, PageHeap};
use incdb_query::Bcq;
use incdb_serve::{MaintenancePolicy, Outcome, Request, SessionPool, Tenant};
use incdb_stream::{page_from_session, Cursor};

use crate::trace::Tracer;

/// The node names a failed request by its index in the submitted batch;
/// the benchmark submits every request as a batch of one.
const BATCH_INDEX: usize = 0;

/// Per-thread counters the spans alone do not carry.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub count_requests: u64,
    pub count_walks: u64,
    pub maintain_patched: u64,
    pub maintain_dropped: u64,
    pub key_clones: u64,
    pub key_bytes: u64,
    pub encodes: u64,
    pub cursor_bytes: u64,
}

impl ReplayCounts {
    pub fn merge(&mut self, o: ReplayCounts) {
        self.count_requests += o.count_requests;
        self.count_walks += o.count_walks;
        self.maintain_patched += o.maintain_patched;
        self.maintain_dropped += o.maintain_dropped;
        self.key_clones += o.key_clones;
        self.key_bytes += o.key_bytes;
        self.encodes += o.encodes;
        self.cursor_bytes += o.cursor_bytes;
    }
}

/// Heap bytes of one completion key: the tuple vector plus each tuple's
/// constants.
pub fn key_bytes(key: &CompletionKey) -> u64 {
    let outer = std::mem::size_of_val(key.as_slice());
    let inner: usize = key
        .iter()
        .map(|(_, tuple)| std::mem::size_of_val(tuple.as_slice()))
        .sum();
    (outer + inner) as u64
}

/// The replayed front-end: the same database lock, catalog, tenant table
/// and session pool a `ServeNode` holds.
pub struct Replica<'q> {
    db: RwLock<IncompleteDatabase>,
    queries: Vec<&'q Bcq>,
    tenants: Vec<Tenant>,
    pool: SessionPool<'q, Bcq>,
}

/// Where a read request starts paging.
enum Start {
    Count,
    Page(usize, Cursor),
}

impl<'q> Replica<'q> {
    /// A replica with the node's default pool: sequential engine,
    /// patch-forward maintenance.
    pub fn new(db: IncompleteDatabase, queries: Vec<&'q Bcq>, tenants: Vec<Tenant>) -> Self {
        Replica {
            db: RwLock::new(db),
            queries,
            tenants,
            pool: SessionPool::with_policy(
                BacktrackingEngine::sequential(),
                MaintenancePolicy::PatchForward,
            ),
        }
    }

    pub fn pool(&self) -> &SessionPool<'q, Bcq> {
        &self.pool
    }

    /// Serves request `req` (its id in the spans).
    pub fn handle(
        &self,
        req: u64,
        request: Request,
        heap: &mut PageHeap,
        t: &mut Tracer,
        counts: &mut ReplayCounts,
    ) -> Outcome {
        let root = t.enter("serve.request", req);
        let outcome = match request {
            Request::Count { tenant, query } => {
                self.read(req, tenant, query, Start::Count, heap, t, counts)
            }
            Request::Page {
                tenant,
                query,
                page_size,
            } => self.read(
                req,
                tenant,
                query,
                Start::Page(page_size, Cursor::start()),
                heap,
                t,
                counts,
            ),
            Request::CursorResume {
                tenant,
                query,
                page_size,
                cursor,
            } => match t.time("stream.cursor_decode", req, || Cursor::decode(&cursor)) {
                Ok(cursor) => self.read(
                    req,
                    tenant,
                    query,
                    Start::Page(page_size, cursor),
                    heap,
                    t,
                    counts,
                ),
                Err(err) => Outcome::Error(format!("request {BATCH_INDEX}: bad cursor: {err}")),
            },
            Request::Write { relation, fact } => {
                let lock = t.enter("serve.lock_wait", req);
                let mut db = self.db.write().expect("db lock poisoned");
                t.exit(lock);
                let written = t.time("data.write", req, || db.add_fact(&relation, fact));
                let revision = db.revision();
                drop(db);
                match written {
                    Err(err) => {
                        Outcome::Error(format!("request {BATCH_INDEX}: write failed: {err}"))
                    }
                    Ok(()) => {
                        let lock = t.enter("serve.lock_wait", req);
                        let db = self.db.read().expect("db lock poisoned");
                        t.exit(lock);
                        let (patched, dropped) =
                            t.time("serve.maintain", req, || self.pool.maintain(&db));
                        counts.maintain_patched += patched;
                        counts.maintain_dropped += dropped;
                        Outcome::Wrote { revision }
                    }
                }
            }
        };
        t.exit(root);
        outcome
    }

    /// The read-path skeleton of the node: validate indices, check out
    /// under the read lock, walk, build the reply, check in.
    #[allow(clippy::too_many_arguments)]
    fn read(
        &self,
        req: u64,
        tenant: usize,
        query: usize,
        start: Start,
        heap: &mut PageHeap,
        t: &mut Tracer,
        counts: &mut ReplayCounts,
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
        let lock = t.enter("serve.lock_wait", req);
        let db = self.db.read().expect("db lock poisoned");
        t.exit(lock);
        let checkout = t.enter("serve.checkout", req);
        let lease = self.pool.check_out(&db, query);
        t.exit(checkout);
        drop(db);
        let mut lease = match lease {
            Ok(lease) => lease,
            Err(err) => {
                return Outcome::Error(format!(
                    "session build failed for tenant {}: {err}",
                    tenant.name
                ))
            }
        };
        t.rename(
            checkout,
            if lease.was_patched() {
                "serve.checkout_patch"
            } else if lease.was_reused() {
                "serve.checkout_pop"
            } else {
                "serve.checkout_build"
            },
        );
        let outcome = match start {
            Start::Count => {
                let page = tenant.clamp_page(tenant.max_page_size);
                let mut cursor = Cursor::start();
                let mut count = 0u64;
                counts.count_requests += 1;
                loop {
                    cursor = t.time("core.walk", req, || {
                        page_from_session(&mut lease.session, &cursor, page, heap)
                    });
                    counts.count_walks += 1;
                    count += heap.len() as u64;
                    if heap.len() < page {
                        break;
                    }
                }
                Outcome::Count(BigNat::from(count))
            }
            Start::Page(page_size, cursor) => {
                let page = tenant.clamp_page(page_size);
                let next = t.time("core.walk", req, || {
                    page_from_session(&mut lease.session, &cursor, page, heap)
                });
                let keys: Vec<CompletionKey> =
                    t.time("data.key_clone", req, || heap.iter().cloned().collect());
                counts.key_clones += 1;
                counts.key_bytes += keys.iter().map(key_bytes).sum::<u64>();
                let cursor = t.time("stream.cursor_encode", req, || next.encode());
                counts.encodes += 1;
                counts.cursor_bytes += cursor.len() as u64;
                Outcome::Page {
                    keys,
                    cursor,
                    exhausted: heap.len() < page,
                }
            }
        };
        t.time("serve.checkin", req, || self.pool.check_in(lease));
        outcome
    }
}
