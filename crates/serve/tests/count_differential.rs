//! Differential suite for served counts: every `Request::Count` reply
//! must equal the materialising `NaiveEngine`'s distinct-completion count,
//! whatever the tenant's budget.
//!
//! A served count is one budgeted residual-key distinct count on the
//! leased session, so the suite covers the shapes where residual keys and
//! eviction can go wrong:
//!
//! * **colliding** instances, where a null-hosting fact can resolve onto a
//!   ground fact of its relation (the residual key must drop it);
//! * **separable** instances, whose class key plan covers only the
//!   non-clean facts and whose classes are counted in closed form;
//! * a **root-refuted** query, answered by one root evaluation;
//! * a **stale plan**: a write that adds a ground fact equal to one
//!   resolution of a null-hosting fact, counted through a session patched
//!   forward across it, which must re-key on the new fact set.
//!
//! Tenants with budgets 1, 2 and 3 force evictions and follow-up walks;
//! an unbudgeted tenant counts in one pass.

use incdb_bignum::BigNat;
use incdb_core::engine::{BacktrackingEngine, CountingEngine, NaiveEngine};
use incdb_data::{IncompleteDatabase, NullId, Value};
use incdb_query::Bcq;
use incdb_serve::{Outcome, Request, ServeNode, SessionPool, Tenant};
use incdb_stream::count_completions_on;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NULL_POOL: u32 = 4;

/// Budgets 1, 2 and 3, then a tenant whose only clamp is a ceiling no
/// test instance reaches.
fn tenants() -> Vec<Tenant> {
    let mut tenants: Vec<Tenant> = (1..=3)
        .map(|b| Tenant::new(format!("budget-{b}"), 64).with_budget(b))
        .collect();
    tenants.push(Tenant::new("open", 1 << 20));
    tenants
}

/// Serves a count of every query for every tenant, twice (a build, then
/// a pooled pop), and checks each against the naive engine.
fn assert_served_counts_match(db: &IncompleteDatabase, queries: &[Bcq], label: &str) {
    let expected: Vec<BigNat> = queries
        .iter()
        .map(|q| NaiveEngine.count_completions(db, q).unwrap())
        .collect();
    let tenants = tenants();
    let node = ServeNode::new(db.clone(), queries.iter().collect(), tenants.clone());
    let shapes: Vec<(usize, usize)> = (0..2)
        .flat_map(|_| {
            (0..tenants.len())
                .flat_map(|tenant| (0..queries.len()).map(move |query| (tenant, query)))
        })
        .collect();
    let requests: Vec<Request> = shapes
        .iter()
        .map(|&(tenant, query)| Request::Count { tenant, query })
        .collect();
    for workers in [1, 2] {
        for (reply, &(tenant, query)) in node
            .serve_with_workers(requests.clone(), workers)
            .iter()
            .zip(&shapes)
        {
            assert_eq!(
                reply.outcome,
                Outcome::Count(expected[query].clone()),
                "{label}: tenant {} query {} ({workers} workers)",
                tenants[tenant].name,
                queries[query]
            );
        }
    }
}

fn parse(queries: &[&str]) -> Vec<Bcq> {
    queries.iter().map(|q| q.parse().unwrap()).collect()
}

/// Random null domains over `{0, 1, 2}`, one per null of the pool.
fn random_domains(db: &mut IncompleteDatabase, rng: &mut StdRng) -> Vec<Vec<u64>> {
    (0..NULL_POOL)
        .map(|i| {
            let mask = rng.random_range(1usize..8);
            let values: Vec<u64> = (0..3u64).filter(|b| mask & (1 << b) != 0).collect();
            db.set_domain(NullId(i), values.clone()).unwrap();
            values
        })
        .collect()
}

/// Null-hosting facts, each next to a ground fact equal to one of its
/// resolutions: valuations that resolve onto the ground fact collapse it.
fn colliding_instance(rng: &mut StdRng) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    let domains = random_domains(&mut db, rng);
    for _ in 0..rng.random_range(1usize..=3) {
        let null = rng.random_range(0..NULL_POOL);
        let dom = &domains[null as usize];
        let resolved = Value::constant(dom[rng.random_range(0..dom.len())]);
        let (relation, fact, ground) = if rng.random_bool(0.7) {
            let other = Value::constant(rng.random_range(0u64..3));
            ("R", vec![Value::null(null), other], vec![resolved, other])
        } else {
            ("S", vec![Value::null(null)], vec![resolved])
        };
        db.add_fact(relation, fact).unwrap();
        db.add_fact(relation, ground).unwrap();
    }
    db.declare_relation("S");
    db
}

/// Dirty `R` facts that unify with each other, plus clean `S` facts (each
/// with its own constant column, so no two can coincide) hosting
/// separable nulls.
fn separable_instance(rng: &mut StdRng) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    random_domains(&mut db, rng);
    db.add_fact("R", vec![Value::null(0), Value::constant(5)])
        .unwrap();
    db.add_fact("R", vec![Value::null(1), Value::constant(5)])
        .unwrap();
    if rng.random_bool(0.5) {
        db.add_fact("R", vec![Value::constant(1), Value::constant(5)])
            .unwrap();
    }
    for (null, column) in [(2u32, 100u64), (3, 200)] {
        db.add_fact("S", vec![Value::null(null), Value::constant(column)])
            .unwrap();
    }
    db
}

#[test]
fn served_counts_match_the_naive_engine_on_colliding_instances() {
    let mut rng = StdRng::seed_from_u64(0xC0_11DE);
    let queries = parse(&["R(x,y)", "R(x,x)", "S(x)", "R(x,y), S(x)"]);
    for case in 0..12 {
        let db = colliding_instance(&mut rng);
        assert_served_counts_match(&db, &queries, &format!("colliding case {case}"));
    }
}

#[test]
fn served_counts_match_the_naive_engine_on_separable_instances() {
    let mut rng = StdRng::seed_from_u64(0x5E9A_2AB1);
    let queries = parse(&["R(x,y)", "S(x,y)", "R(x,5), S(x,y)", "R(1,x)"]);
    for case in 0..12 {
        let db = separable_instance(&mut rng);
        // The class plan is not the full plan: separable nulls exist.
        let session = BacktrackingEngine::sequential()
            .session(&db, &queries[0])
            .unwrap();
        assert!(
            session.separation_cut() < session.order().len(),
            "separable case {case}: no separable null"
        );
        assert_served_counts_match(&db, &queries, &format!("separable case {case}"));
    }
}

#[test]
fn root_refuted_counts_are_zero_on_one_pooled_session() {
    let mut rng = StdRng::seed_from_u64(0x02EF_07ED);
    let mut db = separable_instance(&mut rng);
    db.declare_relation("T");
    let queries = parse(&["R(x,x), T(x)"]);
    assert_served_counts_match(&db, &queries, "root-refuted");
    let node = ServeNode::new(db, queries.iter().collect(), tenants());
    let replies = node.serve_with_workers(
        (0..4)
            .map(|tenant| Request::Count { tenant, query: 0 })
            .collect(),
        1,
    );
    for reply in &replies {
        assert_eq!(reply.outcome, Outcome::Count(BigNat::zero()));
    }
    assert_eq!(
        (node.pool().stats().built, node.pool().stats().reused),
        (1, 3)
    );
}

/// `R(⊥0,5), R(⊥1,5)` (dirty, domains `{0,1,2}`) and a clean `S(⊥2,100)`:
/// 4 distinct `R` parts × 3 separable `S` values once `R(0,5)` is ground.
fn stale_plan_instance() -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    db.add_fact("R", vec![Value::null(0), Value::constant(5)])
        .unwrap();
    db.add_fact("R", vec![Value::null(1), Value::constant(5)])
        .unwrap();
    db.add_fact("S", vec![Value::null(2), Value::constant(100)])
        .unwrap();
    for n in 0..3 {
        db.set_domain(NullId(n), [0u64, 1, 2]).unwrap();
    }
    db
}

/// The written ground fact `R(0,5)` equals one resolution of both
/// null-hosting `R` facts. It joins the class plan's ground block and
/// shifts every fact index after it, so a patched session that kept its
/// old class plan would key classes on the wrong facts.
#[test]
fn patched_sessions_count_on_the_new_class_plan() {
    let q: Bcq = "R(x,y)".parse().unwrap();
    let mut db = stale_plan_instance();
    let pool = SessionPool::new();
    for budget in [1usize, 2, 3, 64] {
        let mut lease = pool.check_out(&db, &q).unwrap();
        let before = count_completions_on(&mut lease.session, budget);
        assert_eq!(
            before.count,
            NaiveEngine.count_completions(&db, &q).unwrap()
        );
        pool.check_in(lease);
    }
    db.add_fact("R", vec![Value::constant(0), Value::constant(5)])
        .unwrap();
    let expected = NaiveEngine.count_completions(&db, &q).unwrap();
    assert_eq!(expected, BigNat::from(12u64), "instance sanity");
    for budget in [1usize, 2, 3, 64] {
        let mut lease = pool.check_out(&db, &q).unwrap();
        if budget == 1 {
            assert!(lease.was_patched(), "the first checkout patches forward");
        }
        let after = count_completions_on(&mut lease.session, budget);
        assert_eq!(after.count, expected, "budget {budget}");
        assert!(after.peak_resident_fingerprints <= budget);
        pool.check_in(lease);
    }
    assert_eq!(
        pool.stats().built,
        1,
        "every later count ran on the patched session"
    );

    // The same through the node: the write's maintenance sweep patches
    // the shelved session, and the next count pops it.
    let node = ServeNode::new(stale_plan_instance(), vec![&q], tenants());
    let count = |tenant| Request::Count { tenant, query: 0 };
    node.serve_with_workers(vec![count(0), count(3)], 1);
    let write = Request::Write {
        relation: "R".into(),
        fact: vec![Value::constant(0), Value::constant(5)],
    };
    node.serve_with_workers(vec![write], 1);
    assert!(
        node.pool().stats().patched >= 1,
        "the write patched the shelf"
    );
    for reply in node.serve_with_workers((0..4).map(count).collect(), 1) {
        assert_eq!(reply.outcome, Outcome::Count(expected.clone()));
        assert!(!reply.metrics.session_built);
    }
}
