//! The solver façade: routes a counting request to the best applicable
//! algorithm (closed form when a tractable cell of Table 1 applies,
//! exhaustive enumeration otherwise) and reports which algorithm was used.

use std::fmt;

use incdb_bignum::BigNat;
use incdb_data::{DataError, IncompleteDatabase};
use incdb_query::Bcq;

use crate::algorithms::{comp_uniform, val_codd, val_nonuniform, val_uniform, AlgorithmError};
use crate::enumerate;

/// The algorithm actually used to answer a counting request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Theorem 3.6: every variable occurs once — product of domain sizes.
    SingleOccurrenceProduct,
    /// Theorem 3.7: per-atom factorisation over a Codd table.
    CoddFactorisation,
    /// Theorem 3.9 / Proposition A.14: uniform inclusion–exclusion DP.
    UniformInclusionExclusion,
    /// Theorem 4.6 / Appendix B.6: uniform unary completion counting.
    UniformUnaryCompletions,
    /// Fully separable instance: every null occurs exactly once and no two
    /// facts of the table can resolve to the same tuple under any
    /// assignment, so distinct valuations yield pairwise distinct
    /// completions and query-free `#Comp` collapses to the product of the
    /// null domain sizes. Detected by the static separability analysis
    /// ([`incdb_data::Separability`]); never applicable under a query
    /// filter, where only the satisfying subset of completions counts —
    /// filtered counting still searches.
    SeparableProduct,
    /// The backtracking counting engine ([`crate::engine`]): exhaustive
    /// search with residual-query pruning, closed-form subtree counts and
    /// parallel sharding — still exponential in the worst case, as it must
    /// be inside the #P-hard cells.
    BacktrackingSearch,
    /// Hash-range-sharded streaming search (the `incdb-stream` crate): the
    /// same backtracking walk repeated once per shard of the fingerprint
    /// hash space, so distinct-completion counting keeps its peak resident
    /// fingerprint set within a memory budget at the price of extra passes.
    /// Routed to by `incdb-stream`'s budgeted solver when the budget
    /// actually forced sharding; `incdb-core` itself never returns it.
    HashShardedSearch,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Method::SingleOccurrenceProduct => "Theorem 3.6 closed form",
            Method::CoddFactorisation => "Theorem 3.7 Codd factorisation",
            Method::UniformInclusionExclusion => "Theorem 3.9 inclusion–exclusion",
            Method::UniformUnaryCompletions => "Theorem 4.6 unary completion counting",
            Method::SeparableProduct => "separable domain product",
            Method::BacktrackingSearch => "backtracking search",
            Method::HashShardedSearch => "hash-sharded streaming search",
        };
        write!(f, "{name}")
    }
}

/// The result of a counting request: the exact value and the method used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountOutcome {
    /// The exact count.
    pub value: BigNat,
    /// The algorithm that produced it.
    pub method: Method,
}

/// Errors returned by the solver façade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// A data-level problem (missing domain, arity mismatch, …).
    Data(DataError),
    /// An internal algorithm rejected an instance the façade routed to it.
    Algorithm(AlgorithmError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Data(e) => write!(f, "{e}"),
            SolveError::Algorithm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<DataError> for SolveError {
    fn from(e: DataError) -> Self {
        SolveError::Data(e)
    }
}

impl From<AlgorithmError> for SolveError {
    fn from(e: AlgorithmError) -> Self {
        match e {
            AlgorithmError::Data(d) => SolveError::Data(d),
            other => SolveError::Algorithm(other),
        }
    }
}

/// Computes `#Val(q)(db)`: the number of valuations of `db` whose completion
/// satisfies `q`. Routes to the tractable algorithms of Section 3 whenever
/// they apply, at every instance size, and falls back to exhaustive
/// enumeration otherwise.
pub fn count_valuations(db: &IncompleteDatabase, q: &Bcq) -> Result<CountOutcome, SolveError> {
    db.validate()?;
    if val_nonuniform::applies_to(q) {
        let value = val_nonuniform::count_valuations(db, q)?;
        return Ok(CountOutcome {
            value,
            method: Method::SingleOccurrenceProduct,
        });
    }
    if db.is_codd() && val_codd::applies_to_query(q) {
        let value = val_codd::count_valuations(db, q)?;
        return Ok(CountOutcome {
            value,
            method: Method::CoddFactorisation,
        });
    }
    if db.is_uniform() && val_uniform::applies_to_query(q) {
        let value = val_uniform::count_valuations(db, q)?;
        return Ok(CountOutcome {
            value,
            method: Method::UniformInclusionExclusion,
        });
    }
    let value = enumerate::count_valuations_brute(db, q)?;
    Ok(CountOutcome {
        value,
        method: Method::BacktrackingSearch,
    })
}

/// Tries the polynomial-time completion-counting route: the Theorem 4.6
/// algorithm, applicable when the database is uniform with a unary schema
/// (and, with a query, when the query shape qualifies). `None` asks for
/// `#Comp` of every completion (no query filter).
///
/// Returns `Ok(None)` when no closed form applies and the caller must
/// search — either the engine's in-memory fingerprint walk
/// ([`Method::BacktrackingSearch`]) or, under a memory budget, the
/// `incdb-stream` crate's hash-range-sharded walk
/// ([`Method::HashShardedSearch`]). Exposed so that external routers (the
/// budgeted solver of `incdb-stream`) can reuse this decision *before*
/// committing to a search, instead of discovering after an exponential walk
/// that a closed form existed. Assumes `db` was already validated.
pub fn completion_closed_form(
    db: &IncompleteDatabase,
    q: Option<&Bcq>,
) -> Result<Option<CountOutcome>, SolveError> {
    let db_is_unary = db
        .relation_names()
        .all(|r| db.arity(r).is_none_or(|a| a == 1));
    if db.is_uniform() && db_is_unary {
        let value = match q {
            Some(q) if comp_uniform::applies_to_query(q) => {
                Some(comp_uniform::count_completions(db, q)?)
            }
            Some(_) => None,
            None => Some(comp_uniform::count_all_completions(db)?),
        };
        if let Some(value) = value {
            return Ok(Some(CountOutcome {
                value,
                method: Method::UniformUnaryCompletions,
            }));
        }
    }
    // Query-free counting over a fully separable table: when every null
    // occurs exactly once and the static analysis proves no two facts can
    // ever resolve to the same tuple, distinct valuations yield pairwise
    // distinct completions, so #Comp is exactly the valuation count — the
    // product of the null domain sizes — with no search and no fingerprint
    // set. Only sound without a query, where every completion counts.
    if q.is_none() {
        let g = db.try_grounding()?;
        let sep = g.separability();
        if sep.any() && sep.complete() && sep.separable_count() == g.null_count() {
            return Ok(Some(CountOutcome {
                value: db.valuation_count(),
                method: Method::SeparableProduct,
            }));
        }
    }
    Ok(None)
}

/// Computes `#Comp(q)(db)`: the number of distinct completions of `db`
/// satisfying `q`. Routes to the Theorem 4.6 algorithm when the database is
/// uniform with a unary schema, and falls back to enumeration otherwise —
/// which is the best that can be done in general, since counting completions
/// is #P-hard for *every* self-join-free BCQ over non-uniform databases
/// (Theorem 4.3). The closed form is tried first at every size: it beats
/// distinct-completion search even on tiny instances (the `tiny_comp_all`
/// row of `cargo bench --bench engine`).
pub fn count_completions(db: &IncompleteDatabase, q: &Bcq) -> Result<CountOutcome, SolveError> {
    db.validate()?;
    if let Some(outcome) = completion_closed_form(db, Some(q))? {
        return Ok(outcome);
    }
    let value = enumerate::count_completions_brute(db, q)?;
    Ok(CountOutcome {
        value,
        method: Method::BacktrackingSearch,
    })
}

/// Computes the number of *all* distinct completions of `db` (no query),
/// using the Theorem 4.6 machinery when possible.
pub fn count_all_completions(db: &IncompleteDatabase) -> Result<CountOutcome, SolveError> {
    db.validate()?;
    if let Some(outcome) = completion_closed_form(db, None)? {
        return Ok(outcome);
    }
    let value = enumerate::count_all_completions_brute(db)?;
    Ok(CountOutcome {
        value,
        method: Method::BacktrackingSearch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{random_database_for_query, GeneratorConfig};
    use incdb_data::{NullId, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(s: &str) -> Bcq {
        s.parse().unwrap()
    }

    #[test]
    fn routing_for_valuations() {
        // Single-occurrence query: closed form.
        let mut db = IncompleteDatabase::new_uniform(0u64..3);
        db.add_fact("R", vec![Value::null(0), Value::null(1)])
            .unwrap();
        let outcome = count_valuations(&db, &q("R(x,y)")).unwrap();
        assert_eq!(outcome.method, Method::SingleOccurrenceProduct);
        assert_eq!(outcome.value.to_u64(), Some(9));

        // Codd table + R(x,x): Codd factorisation.
        let outcome = count_valuations(&db, &q("R(x,x)")).unwrap();
        assert_eq!(outcome.method, Method::CoddFactorisation);
        assert_eq!(outcome.value.to_u64(), Some(3));

        // Uniform naïve table + R(x) ∧ S(x): inclusion–exclusion.
        let mut db2 = IncompleteDatabase::new_uniform(0u64..2);
        for i in 0..7 {
            db2.add_fact("R", vec![Value::null(i)]).unwrap();
            db2.add_fact("S", vec![Value::null(i + 7)]).unwrap();
        }
        db2.add_fact("S", vec![Value::null(0)]).unwrap();
        let outcome = count_valuations(&db2, &q("R(x), S(x)")).unwrap();
        assert_eq!(outcome.method, Method::UniformInclusionExclusion);

        // Hard pattern on a naïve non-uniform table: backtracking search.
        let mut db3 = IncompleteDatabase::new_non_uniform();
        db3.add_fact("R", vec![Value::null(0), Value::null(0)])
            .unwrap();
        db3.add_fact("S", vec![Value::null(0)]).unwrap();
        db3.set_domain(NullId(0), [0u64, 1]).unwrap();
        let outcome = count_valuations(&db3, &q("R(x,y), S(x)")).unwrap();
        assert_eq!(outcome.method, Method::BacktrackingSearch);
    }

    #[test]
    fn routing_for_completions() {
        let mut db = IncompleteDatabase::new_uniform(0u64..3);
        for i in 0..4 {
            db.add_fact("R", vec![Value::null(i)]).unwrap();
            db.add_fact("S", vec![Value::null(4 + i)]).unwrap();
        }
        let outcome = count_completions(&db, &q("R(x), S(x)")).unwrap();
        assert_eq!(outcome.method, Method::UniformUnaryCompletions);

        let outcome = count_all_completions(&db).unwrap();
        assert_eq!(outcome.method, Method::UniformUnaryCompletions);

        // Binary relation: backtracking search.
        let mut db2 = IncompleteDatabase::new_uniform(0u64..2);
        db2.add_fact("R", vec![Value::null(0), Value::null(1)])
            .unwrap();
        let outcome = count_completions(&db2, &q("R(x,y)")).unwrap();
        assert_eq!(outcome.method, Method::BacktrackingSearch);
    }

    #[test]
    fn fully_separable_instances_count_all_completions_in_closed_form() {
        // Binary facts with pairwise non-unifiable tuples (distinct second
        // columns): every null is separable, so the query-free count is
        // the domain product — no search, no fingerprint set.
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0), Value::constant(10)])
            .unwrap();
        db.add_fact("R", vec![Value::null(1), Value::constant(20)])
            .unwrap();
        db.add_fact("R", vec![Value::constant(7), Value::constant(30)])
            .unwrap();
        db.set_domain(NullId(0), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(1), [0u64, 1, 2, 3]).unwrap();
        let outcome = count_all_completions(&db).unwrap();
        assert_eq!(outcome.method, Method::SeparableProduct);
        assert_eq!(outcome.value.to_u64(), Some(12));
        assert_eq!(
            outcome.value,
            enumerate::count_all_completions_brute(&db).unwrap()
        );

        // A query filter disables the product: only satisfying completions
        // count, so the solver must search.
        let filtered = count_completions(&db, &q("R(x,y)")).unwrap();
        assert_eq!(filtered.method, Method::BacktrackingSearch);

        // A unifiable pair poisons separability and sends the query-free
        // count back to search too: R(⊥2,10) can collide with R(⊥0,10).
        db.add_fact("R", vec![Value::null(2), Value::constant(10)])
            .unwrap();
        db.set_domain(NullId(2), [0u64, 1]).unwrap();
        let outcome = count_all_completions(&db).unwrap();
        assert_eq!(outcome.method, Method::BacktrackingSearch);
        assert_eq!(
            outcome.value,
            enumerate::count_all_completions_brute(&db).unwrap()
        );
    }

    #[test]
    fn tiny_instances_keep_the_closed_form_routing() {
        // The closed forms route at every size: even a 4-valuation
        // instance goes to the Theorem 3.9 / 4.6 algorithms, with the
        // values the engine finds.
        let mut db = IncompleteDatabase::new_uniform(0u64..2);
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        db.add_fact("S", vec![Value::null(0)]).unwrap();
        db.add_fact("S", vec![Value::null(1)]).unwrap();

        let vals = count_valuations(&db, &q("R(x), S(x)")).unwrap();
        assert_eq!(vals.method, Method::UniformInclusionExclusion);
        assert_eq!(
            vals.value,
            enumerate::count_valuations_brute(&db, &q("R(x), S(x)")).unwrap()
        );

        // Completion counting keeps its closed form even when tiny: the
        // Theorem 4.6 counter beats distinct-completion search at every
        // size (see the tiny_comp_all bench row).
        let comps = count_completions(&db, &q("R(x), S(x)")).unwrap();
        assert_eq!(comps.method, Method::UniformUnaryCompletions);
        let all = count_all_completions(&db).unwrap();
        assert_eq!(all.method, Method::UniformUnaryCompletions);

        // Closed forms with linear setup keep their routing even when tiny.
        let mut codd = IncompleteDatabase::new_uniform(0u64..2);
        codd.add_fact("R", vec![Value::null(0), Value::null(1)])
            .unwrap();
        let outcome = count_valuations(&codd, &q("R(x,x)")).unwrap();
        assert_eq!(outcome.method, Method::CoddFactorisation);
    }

    #[test]
    fn closed_forms_agree_with_enumeration_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(2024);
        let val_queries = [
            "R(x,y), S(z)",
            "R(x,x)",
            "R(x), S(x)",
            "R(x), S(x), T(x)",
            "R(x,y), S(y), T(w)",
        ];
        for text in val_queries {
            let query = q(text);
            for codd in [true, false] {
                for uniform in [true, false] {
                    let config = GeneratorConfig {
                        facts_per_relation: 2,
                        domain_size: 2,
                        codd,
                        uniform,
                        constant_pool: 3,
                        null_probability: 0.7,
                        null_pool: 3,
                    };
                    let db = random_database_for_query(&query, &config, &mut rng);
                    let fast = count_valuations(&db, &query).unwrap();
                    let brute = enumerate::count_valuations_brute(&db, &query).unwrap();
                    assert_eq!(
                        fast.value, brute,
                        "{text} codd={codd} uniform={uniform} via {} on {db:?}",
                        fast.method
                    );
                }
            }
        }
        let comp_queries = ["R(x), S(x)", "R(x), S(y)", "R(x), S(x), T(x)"];
        for text in comp_queries {
            let query = q(text);
            for codd in [true, false] {
                let config = GeneratorConfig {
                    facts_per_relation: 2,
                    domain_size: 2,
                    codd,
                    uniform: true,
                    constant_pool: 3,
                    null_probability: 0.7,
                    null_pool: 3,
                };
                let db = random_database_for_query(&query, &config, &mut rng);
                let fast = count_completions(&db, &query).unwrap();
                let brute = enumerate::count_completions_brute(&db, &query).unwrap();
                assert_eq!(fast.value, brute, "{text} codd={codd} on {db:?}");
            }
        }
    }

    #[test]
    fn invariants_completions_at_most_valuations() {
        let mut rng = StdRng::seed_from_u64(7);
        let query = q("R(x,x), S(x)");
        for _ in 0..10 {
            let config = GeneratorConfig {
                facts_per_relation: 2,
                domain_size: 2,
                codd: false,
                uniform: true,
                ..Default::default()
            };
            let db = random_database_for_query(&query, &config, &mut rng);
            let vals = count_valuations(&db, &query).unwrap().value;
            let comps = count_completions(&db, &query).unwrap().value;
            assert!(comps <= vals);
            assert!(vals <= db.valuation_count());
        }
    }

    #[test]
    fn missing_domain_propagates() {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        assert!(matches!(
            count_valuations(&db, &q("R(x)")),
            Err(SolveError::Data(_))
        ));
        assert!(matches!(
            count_completions(&db, &q("R(x)")),
            Err(SolveError::Data(_))
        ));
    }

    #[test]
    fn method_display() {
        assert_eq!(
            Method::BacktrackingSearch.to_string(),
            "backtracking search"
        );
        assert_eq!(
            Method::HashShardedSearch.to_string(),
            "hash-sharded streaming search"
        );
        assert_eq!(
            Method::SeparableProduct.to_string(),
            "separable domain product"
        );
        assert!(Method::UniformInclusionExclusion
            .to_string()
            .contains("3.9"));
    }
}
