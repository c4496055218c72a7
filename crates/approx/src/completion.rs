//! A heuristic estimator for the number of completions.
//!
//! Section 5.2 of the paper shows that `#Comp(q)` admits no FPRAS unless
//! NP = RP — already for a single unary relation in the non-uniform setting
//! (Theorem 5.5) and for a single binary relation in the uniform setting
//! (Proposition 5.6). The estimator below therefore comes with **no
//! guarantee**: it samples valuations, counts the distinct completions it
//! observes, and applies a collision-based (Good–Turing style) correction.
//! The experiment harness uses it to *illustrate* the negative result: its
//! error grows quickly on the very instances the paper builds.

use std::collections::BTreeMap;

use rand::Rng;

use incdb_core::engine::holds_under_current;
use incdb_data::{CompletionKey, Database, IncompleteDatabase};
use incdb_query::BooleanQuery;

use crate::fpras::ApproxError;
use crate::monte_carlo::sample_into_grounding;

/// The outcome of the heuristic completion estimation.
#[derive(Debug, Clone)]
pub struct CompletionEstimate {
    /// Number of distinct completions observed among the samples
    /// (a certified lower bound on the true count).
    pub distinct_observed: usize,
    /// The heuristic estimate (Chao1-style correction using the numbers of
    /// completions seen exactly once and exactly twice).
    pub estimate: f64,
    /// Number of valuations sampled.
    pub samples: usize,
}

/// Estimates the number of distinct completions of `db` satisfying `q` by
/// sampling `samples` valuations. **No approximation guarantee** — see the
/// module documentation.
pub fn completion_estimator<Q: BooleanQuery + ?Sized, R: Rng + ?Sized>(
    db: &IncompleteDatabase,
    q: &Q,
    samples: usize,
    rng: &mut R,
) -> Result<CompletionEstimate, ApproxError> {
    db.validate()?;
    let mut g = db.try_grounding()?;
    let mut scratch = Database::new();
    if g.null_count() == 0 {
        let hit = holds_under_current(&g, q, &mut scratch)?;
        return Ok(CompletionEstimate {
            distinct_observed: usize::from(hit),
            estimate: if hit { 1.0 } else { 0.0 },
            samples: 0,
        });
    }
    let samples = samples.max(1);
    // Completions are identified by their residual keys (the resolved
    // null-hosting facts minus the ground block every completion holds),
    // so the sampling loop neither materialises a `Database` nor copies
    // the ground table per sample.
    let mut seen: BTreeMap<CompletionKey, usize> = BTreeMap::new();
    for _ in 0..samples {
        sample_into_grounding(&mut g, rng);
        if holds_under_current(&g, q, &mut scratch)? {
            let mut key = CompletionKey::new();
            g.residual_key_into(g.full_key_plan(), &mut key)?;
            *seen.entry(key).or_insert(0) += 1;
        }
    }
    let distinct = seen.len();
    let singletons = seen.values().filter(|&&c| c == 1).count() as f64;
    let doubletons = seen.values().filter(|&&c| c == 2).count() as f64;
    // Chao1 estimator: distinct + f1² / (2 f2), with the usual correction
    // when no doubletons were observed.
    let correction = if doubletons > 0.0 {
        singletons * singletons / (2.0 * doubletons)
    } else {
        singletons * (singletons - 1.0) / 2.0
    };
    Ok(CompletionEstimate {
        distinct_observed: distinct,
        estimate: distinct as f64 + correction.max(0.0),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdb_core::enumerate::count_completions_brute;
    use incdb_data::Value;
    use incdb_query::Bcq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(id: u32) -> Value {
        Value::null(id)
    }

    #[test]
    fn lower_bound_property() {
        let mut db = IncompleteDatabase::new_uniform(0u64..3);
        db.add_fact("R", vec![n(0), n(1)]).unwrap();
        db.add_fact("R", vec![n(1), n(2)]).unwrap();
        let q: Bcq = "R(x,y)".parse().unwrap();
        let exact = count_completions_brute(&db, &q).unwrap().to_u64().unwrap() as usize;
        let mut rng = StdRng::seed_from_u64(5);
        let result = completion_estimator(&db, &q, 2000, &mut rng).unwrap();
        assert!(result.distinct_observed <= exact);
        // With 2000 samples over 27 valuations the observation is exhaustive.
        assert_eq!(result.distinct_observed, exact);
    }

    #[test]
    fn ground_database() {
        let mut db = IncompleteDatabase::new_uniform(0u64..3);
        db.add_fact("R", vec![Value::constant(1)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let result = completion_estimator(&db, &q, 10, &mut rng).unwrap();
        assert_eq!(result.distinct_observed, 1);
        assert_eq!(result.estimate, 1.0);
    }

    #[test]
    fn unsatisfiable_query() {
        let mut db = IncompleteDatabase::new_uniform(0u64..2);
        db.add_fact("R", vec![n(0)]).unwrap();
        let q: Bcq = "R(x), S(x)".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let result = completion_estimator(&db, &q, 100, &mut rng).unwrap();
        assert_eq!(result.distinct_observed, 0);
        assert_eq!(result.estimate, 0.0);
    }
}
