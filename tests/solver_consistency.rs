//! Cross-crate consistency: the solver façade, the brute-force enumerators,
//! the FPRAS and the classifier must tell one coherent story on randomly
//! generated instances.

use incdb::core::enumerate::{count_completions_brute, count_valuations_brute};
use incdb::core::generator::{random_database_for_query, GeneratorConfig};
use incdb::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn queries() -> Vec<Bcq> {
    [
        "R(x,y), S(z)",
        "R(x,x)",
        "R(x), S(x)",
        "R(x), S(x), T(x)",
        "R(x), S(x,y), T(y)",
        "R(x,y), S(x,y)",
        "R(x,y), S(y,z)",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

#[test]
fn solver_matches_enumeration_everywhere() {
    let mut rng = StdRng::seed_from_u64(99);
    for query in queries() {
        for codd in [false, true] {
            for uniform in [false, true] {
                let config = GeneratorConfig {
                    facts_per_relation: 2,
                    domain_size: 2,
                    constant_pool: 3,
                    null_probability: 0.6,
                    codd,
                    uniform,
                    null_pool: 3,
                };
                let db = random_database_for_query(&query, &config, &mut rng);
                let vals = count_valuations(&db, &query).unwrap().value;
                let comps = count_completions(&db, &query).unwrap().value;
                assert_eq!(
                    vals,
                    count_valuations_brute(&db, &query).unwrap(),
                    "{query} {db:?}"
                );
                assert_eq!(
                    comps,
                    count_completions_brute(&db, &query).unwrap(),
                    "{query} {db:?}"
                );
                // Structural invariants of the two counting problems.
                assert!(comps <= vals, "{query} {db:?}");
                assert!(vals <= db.valuation_count(), "{query} {db:?}");
            }
        }
    }
}

#[test]
fn tractable_cells_route_to_closed_forms() {
    // When the classifier says FP for the database's own setting, the solver
    // must not fall back to backtracking search for counting valuations, at
    // any instance size.
    use incdb::core::Method;
    let mut rng = StdRng::seed_from_u64(5);
    for query in queries() {
        for codd in [false, true] {
            for uniform in [false, true] {
                let config = GeneratorConfig {
                    facts_per_relation: 2,
                    domain_size: 3,
                    constant_pool: 3,
                    null_probability: 0.7,
                    codd,
                    uniform,
                    null_pool: 3,
                };
                let db = random_database_for_query(&query, &config, &mut rng);
                let setting = Setting::of(&db);
                let complexity = classify(&query, CountingProblem::Valuations, setting).unwrap();
                let outcome = count_valuations(&db, &query).unwrap();
                if complexity == Complexity::Fp {
                    assert_ne!(
                        outcome.method,
                        Method::BacktrackingSearch,
                        "classifier says FP but the solver fell back to search: {query} on {setting}"
                    );
                }
            }
        }
    }
}

#[test]
fn fpras_tracks_exact_counts_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(123);
    let query: Bcq = "R(x,x)".parse().unwrap();
    let ucq: Ucq = query.clone().into();
    let mut within = 0usize;
    let runs = 10usize;
    for _ in 0..runs {
        let config = GeneratorConfig {
            facts_per_relation: 3,
            domain_size: 2,
            constant_pool: 2,
            null_probability: 0.9,
            codd: false,
            uniform: true,
            null_pool: 4,
        };
        let db = random_database_for_query(&query, &config, &mut rng);
        let exact = count_valuations_brute(&db, &query).unwrap().to_f64();
        let estimate = karp_luby_valuations(&db, &ucq, 0.2, &mut rng)
            .unwrap()
            .estimate;
        let ok = if exact == 0.0 {
            estimate == 0.0
        } else {
            (estimate - exact).abs() / exact <= 0.2
        };
        if ok {
            within += 1;
        }
    }
    // The FPRAS guarantee is ≥ 3/4 per run; requiring 7/10 keeps the test
    // deterministic under the fixed seed while still being meaningful.
    assert!(
        within >= 7,
        "only {within}/{runs} runs within the error bound"
    );
}

#[test]
fn approx_classification_consistent_with_exact_classification() {
    for query in queries() {
        for problem in [CountingProblem::Valuations, CountingProblem::Completions] {
            for setting in Setting::ALL {
                let exact = classify(&query, problem, setting).unwrap();
                let approx = classify_approx(&query, problem, setting).unwrap();
                if exact == Complexity::Fp {
                    assert_eq!(
                        approx,
                        ApproxStatus::ExactFp,
                        "{query} {problem:?} {setting}"
                    );
                }
                if problem == CountingProblem::Valuations && exact != Complexity::Fp {
                    assert_eq!(approx, ApproxStatus::Fpras, "{query} {setting}");
                }
            }
        }
    }
}
