//! Exact counting over the full valuation space — thin wrappers over the
//! backtracking [`CountingEngine`].
//!
//! These entry points work for every query and every incomplete database and
//! remain worst-case proportional to the number of valuations
//! `∏_⊥ |dom(⊥)|`; inside the #P-hard cells of Table 1 that is the best any
//! exact method can promise (that hardness is, after all, the paper's main
//! message). Since the engine refactor they share the
//! [`crate::engine::BacktrackingEngine`] — in-place grounding,
//! residual-query pruning, closed-form subtree counts and parallel sharding
//! — instead of materialising a fresh [`Database`] per valuation. The
//! original materialise-everything loop survives as
//! [`crate::engine::NaiveEngine`] for differential testing and benchmarking.

use std::collections::BTreeSet;

use incdb_bignum::BigNat;
use incdb_data::{
    materialize_completion, CompletionKey, DataError, Database, Grounding, IncompleteDatabase,
};
use incdb_query::BooleanQuery;

use crate::engine::{BacktrackingEngine, CountingEngine, Tautology};
use crate::session::{CompletionVisitor, SearchSession};

/// Counts the valuations `ν` of `db` such that `ν(db) ⊨ q`, searching the
/// whole valuation tree (with pruning).
///
/// Returns an error if some null of the table has no domain.
pub fn count_valuations_brute<Q: BooleanQuery + Sync + ?Sized>(
    db: &IncompleteDatabase,
    q: &Q,
) -> Result<BigNat, DataError> {
    BacktrackingEngine::default().count_valuations(db, q)
}

/// Counts the **distinct** completions `ν(db)` such that `ν(db) ⊨ q`,
/// deduplicating via canonical completion fingerprints.
pub fn count_completions_brute<Q: BooleanQuery + Sync + ?Sized>(
    db: &IncompleteDatabase,
    q: &Q,
) -> Result<BigNat, DataError> {
    BacktrackingEngine::default().count_completions(db, q)
}

/// Enumerates the set of **all** distinct completions of `db`
/// (no query filter), materialised as [`Database`] values. Exponential by
/// nature; intended for small instances and tests. One search session walks
/// every leaf ([`SearchSession::walk`]) and dedups by canonical completion key
/// ([`Grounding::key_into`] over [`Grounding::full_key_plan`]), so each
/// distinct completion is materialised exactly once — duplicate valuations
/// cost a key comparison, not a [`Database`] clone. Counting callers
/// should prefer [`count_all_completions_brute`], which never materialises
/// at all, and callers that want paging or bounded memory should use the
/// `incdb-stream` crate's `CompletionStream` / sharded counters.
pub fn all_completions(db: &IncompleteDatabase) -> Result<BTreeSet<Database>, DataError> {
    struct DistinctKeys {
        keys: BTreeSet<CompletionKey>,
        scratch: CompletionKey,
    }
    impl CompletionVisitor for DistinctKeys {
        fn leaf(&mut self, g: &Grounding) -> bool {
            g.key_into(g.full_key_plan(), &mut self.scratch)
                .expect("every null is bound at a leaf");
            if !self.keys.contains(&self.scratch) {
                self.keys.insert(self.scratch.clone());
            }
            true
        }
    }
    let mut sink = DistinctKeys {
        keys: BTreeSet::new(),
        scratch: CompletionKey::new(),
    };
    let mut session = SearchSession::new(db, &Tautology)?;
    session.walk(&mut sink);
    // Materialise each distinct fingerprint exactly once, declaring every
    // relation of the table (a completion keeps empty relations).
    let rel_names: Vec<String> = session
        .grounding()
        .relation_names()
        .map(String::from)
        .collect();
    Ok(sink
        .keys
        .into_iter()
        .map(|key| materialize_completion(&rel_names, &key))
        .collect())
}

/// Counts all distinct completions of `db` (no query filter).
pub fn count_all_completions_brute(db: &IncompleteDatabase) -> Result<BigNat, DataError> {
    BacktrackingEngine::default().count_all_completions(db)
}

/// The total number of valuations of `db` together with the number of
/// satisfying ones — handy for computing the "support" of a query, i.e. the
/// fraction of valuations under which it holds (the quantity `µ` of
/// Libkin's work discussed in Section 7).
pub fn valuation_support<Q: BooleanQuery + Sync + ?Sized>(
    db: &IncompleteDatabase,
    q: &Q,
) -> Result<(BigNat, BigNat), DataError> {
    let satisfying = count_valuations_brute(db, q)?;
    Ok((satisfying, db.valuation_count()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdb_data::{NullId, Value};
    use incdb_query::{Bcq, NegatedBcq, Ucq};

    fn c(id: u64) -> Value {
        Value::constant(id)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// The database of Example 2.2 / Figure 1.
    fn example_2_2() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("S", vec![c(0), c(1)]).unwrap(); // S(a,b)
        db.add_fact("S", vec![n(1), c(0)]).unwrap(); // S(⊥1,a)
        db.add_fact("S", vec![c(0), n(2)]).unwrap(); // S(a,⊥2)
        db.set_domain(NullId(1), [0u64, 1, 2]).unwrap(); // {a,b,c}
        db.set_domain(NullId(2), [0u64, 1]).unwrap(); // {a,b}
        db
    }

    #[test]
    fn figure_1_counts() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        assert_eq!(count_valuations_brute(&db, &q).unwrap(), BigNat::from(4u64));
        assert_eq!(
            count_completions_brute(&db, &q).unwrap(),
            BigNat::from(3u64)
        );
        // Six valuations in total, five distinct completions.
        assert_eq!(db.valuation_count(), BigNat::from(6u64));
        assert_eq!(all_completions(&db).unwrap().len(), 5);
    }

    #[test]
    fn support_fraction() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let (sat, total) = valuation_support(&db, &q).unwrap();
        assert_eq!(sat, BigNat::from(4u64));
        assert_eq!(total, BigNat::from(6u64));
    }

    #[test]
    fn negated_query_counts_complement() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let neg = NegatedBcq::new(q.clone());
        let pos = count_valuations_brute(&db, &q).unwrap();
        let negc = count_valuations_brute(&db, &neg).unwrap();
        assert_eq!(pos + negc, db.valuation_count());
    }

    #[test]
    fn union_counts_at_least_each_disjunct() {
        let db = example_2_2();
        let u: Ucq = "S(x,x) | S(x,y)".parse().unwrap();
        // S(x,y) holds in every completion (the table is non-empty), so the
        // union holds for all 6 valuations.
        assert_eq!(count_valuations_brute(&db, &u).unwrap(), BigNat::from(6u64));
    }

    #[test]
    fn empty_domain_means_zero_valuations() {
        let mut db = IncompleteDatabase::new_uniform(Vec::<u64>::new());
        db.add_fact("R", vec![n(0)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        assert_eq!(count_valuations_brute(&db, &q).unwrap(), BigNat::zero());
        assert_eq!(count_completions_brute(&db, &q).unwrap(), BigNat::zero());
        assert_eq!(count_all_completions_brute(&db).unwrap(), BigNat::zero());
    }

    #[test]
    fn no_nulls_is_a_single_completion() {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![c(5)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        assert_eq!(count_valuations_brute(&db, &q).unwrap(), BigNat::one());
        assert_eq!(count_completions_brute(&db, &q).unwrap(), BigNat::one());
        let q2: Bcq = "R(x), T(x)".parse().unwrap();
        assert_eq!(count_valuations_brute(&db, &q2).unwrap(), BigNat::zero());
    }

    #[test]
    fn missing_domain_is_an_error() {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![n(0)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        assert!(count_valuations_brute(&db, &q).is_err());
        assert!(count_completions_brute(&db, &q).is_err());
    }

    #[test]
    fn completions_collapse_valuations() {
        // Two nulls with the same domain in a single unary relation: 4
        // valuations but only 3 distinct completions ({1},{2},{1,2}).
        let mut db = IncompleteDatabase::new_uniform([1u64, 2]);
        db.add_fact("R", vec![n(0)]).unwrap();
        db.add_fact("R", vec![n(1)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        assert_eq!(count_valuations_brute(&db, &q).unwrap(), BigNat::from(4u64));
        assert_eq!(
            count_completions_brute(&db, &q).unwrap(),
            BigNat::from(3u64)
        );
    }
}
