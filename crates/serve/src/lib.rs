//! # incdb-serve
//!
//! The serving layer of the `incdb` workspace: many concurrent clients,
//! one incomplete database, sub-rebuild latency on repeat traffic.
//!
//! Everything below sits on one observation: a
//! [`SearchSession`](incdb_core::session::SearchSession) is expensive to
//! build (grounding construction plus residual-state compilation) but
//! cheap to reuse (a rewind), and its answers are fully determined by the
//! database contents and the query semantics. So sessions are **pooled**,
//! keyed by exactly the pair that determines their answers:
//!
//! * [`IncompleteDatabase::revision`](incdb_data::IncompleteDatabase::revision)
//!   — a monotone mutation epoch bumped by every completion-affecting
//!   write, making "has the data changed?" a single integer compare;
//! * [`BooleanQuery::cache_key`](incdb_query::BooleanQuery::cache_key) —
//!   a canonical query fingerprint under which two queries collide only
//!   when they are semantically identical (bound-variable names are
//!   canonicalised; relation symbols are not).
//!
//! The [`SessionPool`] shelves quiescent sessions under that key,
//! checking the [`quiesce`](incdb_core::session::SearchSession::quiesce)
//! contract on the way in. Writes bump the revision and run the pool's
//! [`maintain`](SessionPool::maintain) sweep: stale sessions are
//! **patched forward** through the database's bounded delta log
//! ([`SearchSession::advance_to`](incdb_core::session::SearchSession::advance_to))
//! in `O(delta)`, and dropped for a rebuild only when the log can no
//! longer cover the gap. The [`ServeNode`] is the thread-per-core
//! front-end over it: batches of [`Request`]s (counts, pages, cursor
//! resumes, writes) fan out across workers, each reply carrying
//! [`RequestMetrics`] (queue wait, walk time, built-vs-patched-vs-reused)
//! and each tenant held to its own fingerprint budget
//! ([`Tenant::fingerprint_budget`]).
//!
//! ## Example
//!
//! ```
//! use incdb_query::Bcq;
//! use incdb_data::{IncompleteDatabase, Value};
//! use incdb_serve::{Outcome, Request, ServeNode, Tenant};
//!
//! let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
//! db.add_fact("R", vec![Value::null(0)]).unwrap();
//! db.add_fact("R", vec![Value::null(1)]).unwrap();
//! let q: Bcq = "R(x)".parse().unwrap();
//!
//! let node = ServeNode::new(db, vec![&q], vec![Tenant::new("acme", 64)]);
//! let counts = node.serve_with_workers(vec![Request::Count { tenant: 0, query: 0 }], 1);
//! let pages = node.serve_with_workers(
//!     vec![Request::Page { tenant: 0, query: 0, page_size: 2 }],
//!     1,
//! );
//! // 3 distinct completions: {R(0)}, {R(1)}, {R(0), R(1)}.
//! assert!(matches!(&counts[0].outcome, Outcome::Count(n) if n.to_u64() == Some(3)));
//! assert!(matches!(&pages[0].outcome, Outcome::Page { keys, .. } if keys.len() == 2));
//! // The second request reused the first one's pooled session.
//! assert_eq!(node.pool().stats().built, 1);
//! assert_eq!(node.pool().stats().reused, 1);
//! ```

pub mod node;
pub mod pool;

pub use node::{Outcome, Reply, Request, RequestMetrics, ServeNode, Tenant};
pub use pool::{Lease, MaintenancePolicy, PoolStats, SessionPool};
