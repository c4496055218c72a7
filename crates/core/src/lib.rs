//! # incdb-core
//!
//! The primary contribution of the `incdb` workspace: counting the
//! valuations and completions of an incomplete database that satisfy a
//! Boolean query, following *Counting Problems over Incomplete Databases*
//! (Arenas, Barceló & Monet, PODS 2020).
//!
//! The crate provides, for the problems `#Val(q)` and `#Comp(q)` in each of
//! the four settings (naïve/Codd table × non-uniform/uniform domain):
//!
//! * [`engine`] — the backtracking counting engine shared by every exact
//!   consumer: DFS over an in-place [`incdb_data::Grounding`] with
//!   residual-query pruning, closed-form subtree counts and parallel
//!   sharding ([`engine::BacktrackingEngine`]), plus the seed
//!   materialise-everything loop kept as [`engine::NaiveEngine`] for
//!   differential testing;
//! * [`session`] — the persistent walk context under the engine
//!   ([`session::SearchSession`]): the built grounding, compiled residual
//!   state and search plan, reused across consecutive walks (count /
//!   enumerate / page) at reset cost instead of rebuild cost;
//! * [`enumerate`] — the exhaustive entry points, now thin wrappers over the
//!   engine (exponential worst case; the only exact option in the #P-hard
//!   cells of Table 1);
//! * [`algorithms`] — the polynomial-time algorithms behind every tractable
//!   cell of Table 1:
//!   * [`algorithms::val_nonuniform`] — Theorem 3.6,
//!   * [`algorithms::val_codd`] — Theorem 3.7,
//!   * [`algorithms::val_uniform`] — Theorem 3.9 / Proposition A.14,
//!   * [`algorithms::comp_uniform`] — Theorem 4.6 / Appendix B.6;
//! * [`classify`](mod@classify) — the dichotomy classifier reproducing Table 1 and the
//!   approximability results of Section 5;
//! * [`solver`] — a façade that inspects the query and the database, routes
//!   to the best applicable algorithm and reports which one was used;
//! * [`completion_check`] — the polynomial-time completion-identity test of
//!   Lemma B.2 for Codd tables;
//! * [`generator`] — random incomplete-database generators used by tests,
//!   property tests and benchmarks.
//!
//! ## Quick example (Example 2.2 / Figure 1 of the paper)
//!
//! ```
//! use incdb_core::solver::{count_completions, count_valuations};
//! use incdb_data::{IncompleteDatabase, NullId, Value};
//! use incdb_query::Bcq;
//!
//! let mut db = IncompleteDatabase::new_non_uniform();
//! db.add_fact("S", vec![Value::constant(0), Value::constant(1)]).unwrap();
//! db.add_fact("S", vec![Value::null(1), Value::constant(0)]).unwrap();
//! db.add_fact("S", vec![Value::constant(0), Value::null(2)]).unwrap();
//! db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
//! db.set_domain(NullId(2), [0u64, 1]).unwrap();
//!
//! let q: Bcq = "S(x,x)".parse().unwrap();
//! assert_eq!(count_valuations(&db, &q).unwrap().value.to_u64(), Some(4));
//! assert_eq!(count_completions(&db, &q).unwrap().value.to_u64(), Some(3));
//! ```

pub mod algorithms;
pub mod classify;
pub mod completion_check;
pub mod engine;
pub mod enumerate;
pub mod generator;
pub mod problem;
pub mod session;
pub mod solver;

pub use classify::{classify, classify_approx, ApproxStatus, ClassifyError, Complexity};
pub use completion_check::is_possible_completion_of_codd;
pub use engine::{BacktrackingEngine, CompletionVisitor, CountingEngine, NaiveEngine, Tautology};
pub use problem::{CountingProblem, DomainKind, Setting, TableKind};
pub use session::{
    ClassAction, ClassPlan, CollectKeys, CountValuations, Mark, PageSink, PageSummary,
    SearchSession, StealGate,
};
pub use solver::{count_completions, count_valuations, CountOutcome, Method, SolveError};
