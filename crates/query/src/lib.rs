//! # incdb-query
//!
//! Boolean queries over relational databases, as used by
//! *Counting Problems over Incomplete Databases* (Arenas, Barceló & Monet,
//! PODS 2020):
//!
//! * [`Bcq`] — Boolean conjunctive queries `∃x̄ (R₁(x̄₁) ∧ … ∧ R_m(x̄_m))`,
//!   together with the self-join-free check ([`Bcq::is_self_join_free`]),
//! * [`Ucq`] — unions of Boolean conjunctive queries (needed by the FPRAS of
//!   Section 5.1),
//! * [`NegatedBcq`] — negations of BCQs (Section 6, Theorem 6.3),
//! * homomorphism-based model checking ([`homomorphism`]),
//! * the **pattern** pre-order of Definition 3.1 ([`patterns`]), both as a
//!   generic decision procedure and as closed-form detectors for the six
//!   patterns of Table 1,
//! * the connectivity-graph analysis of Appendix A.3 ([`connectivity`]),
//!   used by the tractable uniform-valuation-counting algorithm,
//! * incremental residual evaluation ([`residual`]) and its from-scratch
//!   reference ([`FromScratch`]).
//!
//! ## Query syntax
//!
//! Queries can be built programmatically or parsed from a compact textual
//! form where atoms are separated by `,` (or `&`), identifiers are variables
//! and integer literals are constants:
//!
//! ```
//! use incdb_query::Bcq;
//! let q: Bcq = "R(x, y), S(y, z)".parse().unwrap();
//! assert!(q.is_self_join_free());
//! assert_eq!(q.atoms().len(), 2);
//! assert_eq!(q.variables().len(), 3);
//! ```

pub mod atom;
pub mod bcq;
pub mod connectivity;
pub mod error;
pub mod homomorphism;
pub mod patterns;
pub mod residual;
pub mod ucq;

pub use atom::{Atom, Term, Variable};
pub use bcq::Bcq;
pub use connectivity::{BasicSingletonDecomposition, ConnectivityGraph};
pub use error::QueryParseError;
pub use homomorphism::{
    all_homomorphisms, find_homomorphism, find_partial_homomorphism, Homomorphism, PartialMatch,
};
pub use patterns::{is_pattern_of, KnownPattern};
pub use residual::{
    BcqResidual, NegatedBcqResidual, ResidualState, UcqResidual, DEFAULT_MERGE_JOIN_MIN_ROWS,
};
pub use ucq::{NegatedBcq, Ucq};

use incdb_data::{Database, Grounding};

/// The outcome of evaluating a Boolean query on a *partially* grounded
/// incomplete database (a [`Grounding`] with some nulls still unbound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartialOutcome {
    /// Every completion of the remaining nulls satisfies the query.
    Satisfied,
    /// No completion of the remaining nulls satisfies the query.
    Refuted,
    /// The current bindings do not decide the query.
    Unknown,
}

impl PartialOutcome {
    /// The outcome of the negated query.
    pub fn negate(self) -> PartialOutcome {
        match self {
            PartialOutcome::Satisfied => PartialOutcome::Refuted,
            PartialOutcome::Refuted => PartialOutcome::Satisfied,
            PartialOutcome::Unknown => PartialOutcome::Unknown,
        }
    }

    /// Returns `true` if the query is decided either way.
    pub fn is_decided(self) -> bool {
        !matches!(self, PartialOutcome::Unknown)
    }
}

/// A Boolean query: something a complete database satisfies or not.
pub trait BooleanQuery {
    /// Model checking: does `db ⊨ q` hold?
    fn holds(&self, db: &Database) -> bool;

    /// The set of relation symbols mentioned by the query (`sig(q)`).
    fn signature(&self) -> std::collections::BTreeSet<String>;

    /// Residual model checking on a partially grounded database: decides the
    /// query for the *whole subtree* of completions below the current
    /// bindings whenever it can, letting exhaustive counters prune.
    ///
    /// The default implementation never decides; query types that can do
    /// better ([`Bcq`], [`Ucq`], [`NegatedBcq`]) override it. Implementations
    /// must be **sound**: `Satisfied`/`Refuted` may only be returned when the
    /// query holds/fails in every completion of the unbound nulls.
    fn holds_partial(&self, _grounding: &Grounding) -> PartialOutcome {
        PartialOutcome::Unknown
    }

    /// Builds a stateful incremental evaluator of this query over the given
    /// grounding (see [`residual::ResidualState`]), or `None` if the query
    /// type has no incremental evaluation (or is wrapped in [`FromScratch`])
    /// — callers then fall back to
    /// [`holds_partial`](BooleanQuery::holds_partial) per node.
    ///
    /// The state snapshots the grounding's *current* assignment; the caller
    /// must afterwards forward every change by draining the grounding's
    /// dirty-null channel ([`Grounding::drain_dirty_into`]) into
    /// [`ResidualState::apply`]. Implementations must keep
    /// [`ResidualState::outcome`] in exact agreement with `holds_partial`.
    fn residual_state(&self, _grounding: &Grounding) -> Option<Box<dyn ResidualState>> {
        None
    }

    /// A canonical cache key for this query, or `None` when the query type
    /// cannot name itself — uncacheable queries are still served, they just
    /// never share pooled walk state.
    ///
    /// Soundness contract: two queries may return the **same** key only if
    /// they are semantically identical over every database. Keys must
    /// therefore keep relation symbols verbatim (renaming `A(x)` and `B(x)`
    /// to a common form would make distinct queries collide) and may only
    /// canonicalise what provably does not change meaning, such as bound
    /// variable names. Session pools key shelved sessions by
    /// `(database revision, cache_key)`.
    fn cache_key(&self) -> Option<String> {
        None
    }
}

/// Evaluates the wrapped query **from scratch** at every search node: it
/// forwards [`holds`](BooleanQuery::holds),
/// [`holds_partial`](BooleanQuery::holds_partial) and
/// [`signature`](BooleanQuery::signature), but never builds a
/// [`ResidualState`], so a search over it re-runs `holds_partial` per node
/// instead of syncing an incremental evaluator.
///
/// This is the reference the incremental evaluation is tested and
/// benchmarked against: the same search with the same pruning, and a
/// per-node test that shares no state across nodes.
///
/// ```
/// use incdb_data::{IncompleteDatabase, Value};
/// use incdb_query::{Bcq, BooleanQuery, FromScratch, PartialOutcome};
///
/// let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
/// db.add_fact("R", vec![Value::null(0), Value::constant(1)]).unwrap();
/// let q: Bcq = "R(x,x)".parse().unwrap();
/// let g = db.try_grounding().unwrap();
/// assert!(q.residual_state(&g).is_some());
/// assert!(FromScratch(&q).residual_state(&g).is_none());
/// assert_eq!(FromScratch(&q).holds_partial(&g), PartialOutcome::Unknown);
/// ```
#[derive(Debug)]
pub struct FromScratch<'a, Q: ?Sized>(pub &'a Q);

impl<Q: BooleanQuery + ?Sized> BooleanQuery for FromScratch<'_, Q> {
    fn holds(&self, db: &Database) -> bool {
        self.0.holds(db)
    }

    fn signature(&self) -> std::collections::BTreeSet<String> {
        self.0.signature()
    }

    fn holds_partial(&self, grounding: &Grounding) -> PartialOutcome {
        self.0.holds_partial(grounding)
    }
}
