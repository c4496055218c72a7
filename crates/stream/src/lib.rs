//! # incdb-stream
//!
//! The streaming completion subsystem of the `incdb` workspace: distinct-
//! completion counting and enumeration whose **resident memory is bounded
//! by a knob**, not by the size of the completion space.
//!
//! The backtracking engine of `incdb-core` prunes the valuation tree hard,
//! but its distinct-completion counter still holds every canonical
//! fingerprint in one in-memory set — on large completion spaces the
//! memory wall arrives long before the CPU wall. This crate removes that
//! wall with two pillars, both sinks of the session's one search walk
//! ([`incdb_core::session::SearchSession::walk`], which reuses the full
//! incremental-residual pruning stack):
//!
//! * **Sharded distinct counting** ([`shard`]). The 64-bit fingerprint hash
//!   space ([`incdb_data::fingerprint_hash`]) is partitioned into
//!   [`incdb_data::HashRange`]s; each walk counts only the fingerprints of
//!   the ranges it carries, and the disjoint range counts are summed. These
//!   fingerprints never leave the walk, so they are residual keys
//!   ([`Grounding::residual_key_into`](incdb_data::Grounding::residual_key_into)):
//!   a completion's resolved null-hosting facts minus the table's ground
//!   block, whose size ([`ShardedCount::peak_resident_bytes`]) does not
//!   grow with the ground table. The budgeted driver
//!   ([`count_completions_budgeted`]) starts unsharded and adaptively
//!   splits exactly the hash ranges that overflow the budget, with shards
//!   scheduled on the engine's worker pool
//!   ([`TaskQueue::run`](incdb_core::engine::TaskQueue::run)). Each worker
//!   drives all its walks on **one persistent
//!   [`SearchSession`](incdb_core::session::SearchSession)** — consecutive
//!   ranges cost a rewind, not a grounding rebuild plus a residual-state
//!   recompilation (pinned by [`ShardedCount::sessions_built`] /
//!   [`ShardedCount::walks_reused`]). [`count_completions_on`] runs the
//!   same budgeted count on a session the caller already holds — the
//!   serving layer's pooled sessions.
//! * **Resumable canonical-order enumeration** ([`stream`]). A
//!   [`CompletionStream`] yields distinct completions in the canonical
//!   fingerprint-lexicographic order of full canonical keys
//!   ([`Grounding::key_into`](incdb_data::Grounding::key_into)), one
//!   `page_size`-bounded selection walk per page, with a serializable
//!   keyset [`Cursor`] ([`cursor`]) — pause, persist the cursor string,
//!   and resume the exact sequence in a fresh process. The paging primitive a request-serving layer needs.
//!   The stream holds its session across pages.
//!
//! The [`solver`] module exposes the memory-budget routing knob
//! ([`StreamOptions`]): closed forms keep priority, unbudgeted requests run
//! the ordinary engine, and a binding budget routes to sharded counting
//! (reported as [`Method::HashShardedSearch`]).
//!
//! ## Example
//!
//! ```
//! use incdb_data::{IncompleteDatabase, Value};
//! use incdb_stream::{all_completions_stream, count_completions_budgeted, Cursor};
//! use incdb_core::engine::Tautology;
//!
//! let mut db = IncompleteDatabase::new_uniform([1u64, 2, 3]);
//! db.add_fact("R", vec![Value::null(0)]).unwrap();
//! db.add_fact("R", vec![Value::null(1)]).unwrap();
//! // 9 valuations, 6 distinct completions.
//!
//! // Count with at most 2 resident fingerprints per walk.
//! let sharded = count_completions_budgeted(&db, &Tautology, 2, 1).unwrap();
//! assert_eq!(sharded.count.to_u64(), Some(6));
//! assert!(sharded.peak_resident_fingerprints <= 2);
//!
//! // Page through the same completions in canonical order.
//! let page: Vec<_> = all_completions_stream(&db, 4).unwrap().take(4).collect();
//! assert_eq!(page.len(), 4);
//! ```
//!
//! [`Method::HashShardedSearch`]: incdb_core::solver::Method::HashShardedSearch

pub mod cursor;
pub mod shard;
pub mod solver;
pub mod stream;

pub use cursor::{Cursor, CursorDecodeError};
pub use shard::{count_completions_budgeted, count_completions_on, ShardedCount};
pub use solver::StreamOptions;
pub use stream::{all_completions_stream, page_from_session, CompletionStream};
