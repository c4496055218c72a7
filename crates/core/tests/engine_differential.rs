//! Differential tests: the backtracking engine must agree with the seed
//! brute-force implementation ([`NaiveEngine`], the exact loop the workspace
//! shipped with) on randomly generated instances, across every setting of
//! Table 1 (naïve/Codd table × uniform/non-uniform domains), for valuations
//! *and* completions, sequentially *and* sharded, for BCQs, unions and
//! negations.

use std::collections::{BTreeSet, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use incdb_bignum::BigNat;
use incdb_core::engine::{BacktrackingEngine, CountingEngine, NaiveEngine, Tautology};
use incdb_core::generator::{random_database_for_query, GeneratorConfig};
use incdb_core::session::{
    ClassAction, ClassPlan, CollectKeys, CompletionVisitor, CountValuations, PageSink, PageSummary,
    SearchSession,
};
use incdb_data::{CompletionKey, Constant, Database, Grounding, IncompleteDatabase, PageHeap};
use incdb_query::{Bcq, BooleanQuery, FromScratch, NegatedBcq, Ucq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engines() -> Vec<(&'static str, BacktrackingEngine)> {
    vec![
        ("sequential", BacktrackingEngine::sequential()),
        // Work-steal even the tiny random instances over several workers.
        (
            "stealing",
            BacktrackingEngine::with_threads(4).with_parallel_threshold(1),
        ),
    ]
}

/// Runs `check` on `q` itself (incremental residual evaluation) and on
/// [`FromScratch`] of it (`holds_partial` re-run at every node), naming
/// the mode for failure messages.
fn each_mode<Q: BooleanQuery + Sync>(
    q: &Q,
    mut check: impl FnMut(&str, &(dyn BooleanQuery + Sync)),
) {
    check("incremental", q);
    check("scratch", &FromScratch(q));
}

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

fn config(codd: bool, uniform: bool) -> GeneratorConfig {
    GeneratorConfig {
        facts_per_relation: 2,
        domain_size: 2,
        constant_pool: 3,
        null_probability: 0.7,
        codd,
        uniform,
        null_pool: 3,
    }
}

#[test]
fn engine_matches_seed_brute_force_on_bcqs() {
    let mut rng = StdRng::seed_from_u64(2020);
    for query in queries() {
        for codd in [false, true] {
            for uniform in [false, true] {
                let db = random_database_for_query(&query, &config(codd, uniform), &mut rng);
                let expected_vals = NaiveEngine.count_valuations(&db, &query).unwrap();
                let expected_comps = NaiveEngine.count_completions(&db, &query).unwrap();
                for (name, engine) in engines() {
                    each_mode(&query, |mode, q| {
                        assert_eq!(
                            engine.count_valuations(&db, q).unwrap(),
                            expected_vals,
                            "#Val mismatch [{name}/{mode}] {query} codd={codd} uniform={uniform} {db:?}"
                        );
                        assert_eq!(
                            engine.count_completions(&db, q).unwrap(),
                            expected_comps,
                            "#Comp mismatch [{name}/{mode}] {query} codd={codd} uniform={uniform} {db:?}"
                        );
                    });
                }
            }
        }
    }
}

#[test]
fn engine_matches_seed_brute_force_on_unions_and_negations() {
    let mut rng = StdRng::seed_from_u64(51);
    let unions: Vec<Ucq> = [
        "R(x,x) | S(x)",
        "R(x), S(x) | R(y), T(y)",
        "R(x,y), S(y,x) | T(z)",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    for u in &unions {
        // Generate over the union's full signature via a flattened BCQ.
        let all_atoms: Vec<_> = u
            .disjuncts()
            .iter()
            .flat_map(|d| d.atoms().iter().cloned())
            .collect();
        let schema = Bcq::new(all_atoms).unwrap();
        for codd in [false, true] {
            for uniform in [false, true] {
                let db = random_database_for_query(&schema, &config(codd, uniform), &mut rng);
                let expected = NaiveEngine.count_valuations(&db, u).unwrap();
                for (name, engine) in engines() {
                    each_mode(u, |mode, q| {
                        assert_eq!(
                            engine.count_valuations(&db, q).unwrap(),
                            expected,
                            "#Val mismatch [{name}/{mode}] {u} codd={codd} uniform={uniform} {db:?}"
                        );
                    });
                }
            }
        }
    }
    for query in queries() {
        let neg = NegatedBcq::new(query.clone());
        let db = random_database_for_query(&query, &config(false, true), &mut rng);
        let expected_vals = NaiveEngine.count_valuations(&db, &neg).unwrap();
        let expected_comps = NaiveEngine.count_completions(&db, &neg).unwrap();
        for (name, engine) in engines() {
            each_mode(&neg, |mode, q| {
                assert_eq!(
                    engine.count_valuations(&db, q).unwrap(),
                    expected_vals,
                    "¬#Val mismatch [{name}/{mode}] {neg} {db:?}"
                );
                assert_eq!(
                    engine.count_completions(&db, q).unwrap(),
                    expected_comps,
                    "¬#Comp mismatch [{name}/{mode}] {neg} {db:?}"
                );
            });
        }
    }
}

#[test]
fn engine_matches_seed_brute_force_on_all_completions() {
    let mut rng = StdRng::seed_from_u64(77);
    let schema: Bcq = "R(x,y), S(y)".parse().unwrap();
    for codd in [false, true] {
        for uniform in [false, true] {
            let db = random_database_for_query(&schema, &config(codd, uniform), &mut rng);
            let expected = NaiveEngine.count_all_completions(&db).unwrap();
            for (name, engine) in engines() {
                assert_eq!(
                    engine.count_all_completions(&db).unwrap(),
                    expected,
                    "#Comp(all) mismatch [{name}] codd={codd} uniform={uniform} {db:?}"
                );
                assert_eq!(
                    engine
                        .count_completions(&db, &FromScratch(&Tautology))
                        .unwrap(),
                    expected,
                    "#Comp(all) mismatch [{name}/scratch] codd={codd} uniform={uniform} {db:?}"
                );
            }
        }
    }
}

#[test]
fn work_stealing_matches_sequential_on_skewed_instances() {
    // The scheduler stress shape: a two-value gate null in front of an
    // R(x,x) cycle, so one half of the prefix space refutes at the root
    // while the other holds nearly all the work — exactly the imbalance
    // split-on-steal exists for. Counts must not depend on how tasks get
    // donated between workers.
    use incdb_data::{NullId, Value};
    for cycle in [4u32, 6, 8] {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.set_domain(NullId(cycle), [0u64, 1]).unwrap();
        db.add_fact("S", vec![Value::null(cycle)]).unwrap();
        for i in 0..cycle {
            let j = (i + 1) % cycle;
            db.set_domain(NullId(i), [0u64, 1, 2]).unwrap();
            db.add_fact("R", vec![Value::null(i), Value::null(j)])
                .unwrap();
        }
        let q: Bcq = "S(0), R(x,x)".parse().unwrap();
        let expected_vals = BacktrackingEngine::sequential()
            .count_valuations(&db, &q)
            .unwrap();
        let expected_comps = BacktrackingEngine::sequential()
            .count_completions(&db, &q)
            .unwrap();
        assert_eq!(
            NaiveEngine.count_valuations(&db, &q).unwrap(),
            expected_vals,
            "cycle={cycle}"
        );
        for threads in [2usize, 4, 8] {
            let stealing = BacktrackingEngine::with_threads(threads).with_parallel_threshold(1);
            assert_eq!(
                stealing.count_valuations(&db, &q).unwrap(),
                expected_vals,
                "valuations cycle={cycle} threads={threads}"
            );
            assert_eq!(
                stealing.count_completions(&db, &q).unwrap(),
                expected_comps,
                "completions cycle={cycle} threads={threads}"
            );
        }
    }
}

/// Cleared to arm [`PanicsOnce`]; set by the one `holds` call that panics.
static PANICKED: AtomicBool = AtomicBool::new(false);

/// Holds in every database, except that the first `holds` call after arming
/// panics. It has no residual evaluation, so every walk reaches `holds`.
struct PanicsOnce;

impl BooleanQuery for PanicsOnce {
    fn holds(&self, _db: &Database) -> bool {
        assert!(
            PANICKED.swap(true, Ordering::SeqCst),
            "the armed holds call"
        );
        true
    }

    fn signature(&self) -> BTreeSet<String> {
        BTreeSet::from(["R".to_string()])
    }
}

#[test]
fn a_panicking_task_reaches_the_caller_on_every_parallel_path() {
    // A worker whose task unwinds must still finish it: otherwise the other
    // workers wait for that task forever and the call never returns. Each
    // call runs on its own thread so a hang fails the test after a bounded
    // wait instead of hanging it.
    use incdb_data::Value;
    let mut db = IncompleteDatabase::new_uniform([0u64, 1, 2]);
    for i in 0..4 {
        db.add_fact("R", vec![Value::null(i)]).unwrap();
    }
    fn engine() -> BacktrackingEngine {
        BacktrackingEngine::with_threads(2).with_parallel_threshold(1)
    }
    type Call = fn(&IncompleteDatabase);
    let paths: [(&str, Call); 3] = [
        ("engine", |db| {
            let _ = engine().count_valuations(db, &PanicsOnce);
        }),
        ("page fill", |db| {
            let stream = incdb_stream::CompletionStream::new(db, &PanicsOnce, 4).unwrap();
            let _ = stream.with_engine(engine()).count();
        }),
        ("shards", |db| {
            let _ = incdb_stream::count_completions_sharded(db, &PanicsOnce, 4, 2);
        }),
    ];
    for (path, call) in paths {
        PANICKED.store(false, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        let db = db.clone();
        let caller = thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| call(&db)));
            tx.send(outcome.is_err()).unwrap();
        });
        // On a timeout the caller thread is left behind: it can never end.
        let panicked = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| {
                panic!("{path}: no result after 30 s, a worker waits on the unwound task")
            });
        caller.join().unwrap();
        assert!(panicked, "{path}: the panic reaches the caller");
    }
}

#[test]
fn missing_domain_is_an_error_on_every_path() {
    // A null with no domain must surface as Err — never a panic — through
    // the engine, the wrappers and both counting modes.
    let mut db = IncompleteDatabase::new_non_uniform();
    db.add_fact("R", vec![incdb_data::Value::null(0)]).unwrap();
    let q: Bcq = "R(x)".parse().unwrap();
    for (name, engine) in engines() {
        each_mode(&q, |mode, q| {
            assert!(
                engine.count_valuations(&db, q).is_err(),
                "[{name}/{mode}] valuations"
            );
            assert!(
                engine.count_completions(&db, q).is_err(),
                "[{name}/{mode}] completions"
            );
        });
        assert!(
            engine.count_all_completions(&db).is_err(),
            "[{name}] all completions"
        );
    }
    assert!(incdb_core::enumerate::count_valuations_brute(&db, &q).is_err());
    assert!(incdb_core::enumerate::count_completions_brute(&db, &q).is_err());
    assert!(incdb_core::enumerate::count_all_completions_brute(&db).is_err());
    assert!(incdb_core::enumerate::all_completions(&db).is_err());
}

/// The class-counting sink: memoises each completion class (the residual
/// key of the dirty facts at the separation cut) and counts it in closed
/// form. Task walks that start below the cut never see a class node, so
/// their leaves are deduplicated by the residual key of the whole
/// completion instead.
struct ClassCount {
    class: ClassPlan,
    classes: HashSet<CompletionKey>,
    leaves: HashSet<CompletionKey>,
    scratch: CompletionKey,
    total: BigNat,
}

impl ClassCount {
    fn new(session: &SearchSession<'_, Bcq>) -> Self {
        ClassCount {
            class: session.class_plan(),
            classes: HashSet::new(),
            leaves: HashSet::new(),
            scratch: CompletionKey::new(),
            total: BigNat::zero(),
        }
    }

    fn distinct(&self) -> BigNat {
        &self.total + &BigNat::from(self.leaves.len())
    }
}

impl CompletionVisitor for ClassCount {
    fn leaf(&mut self, g: &Grounding) -> bool {
        let mut key = CompletionKey::new();
        g.residual_key_into(g.full_key_plan(), &mut key).unwrap();
        self.leaves.insert(key);
        true
    }

    fn class_node(&mut self, g: &Grounding, _decided: bool) -> ClassAction {
        g.residual_key_into(self.class.plan(g), &mut self.scratch)
            .unwrap();
        if self.classes.insert(self.scratch.clone()) {
            ClassAction::Count
        } else {
            ClassAction::Skip
        }
    }

    fn class_counted(&mut self, distinct: &BigNat) -> bool {
        self.total = &self.total + distinct;
        true
    }
}

/// Collects the canonical key of every satisfying leaf, deduplicated and
/// sorted: the reference a full page drain must reproduce.
#[derive(Default)]
struct CanonicalLeaves {
    keys: BTreeSet<CompletionKey>,
}

impl CompletionVisitor for CanonicalLeaves {
    fn leaf(&mut self, g: &Grounding) -> bool {
        let mut key = CompletionKey::new();
        g.key_into(g.full_key_plan(), &mut key).unwrap();
        self.keys.insert(key);
        true
    }
}

/// Drains every page of the canonical completion order, `size` keys per
/// page. Each page is filled by a root walk when `tasks` is `None`, and by
/// one task walk per prefix otherwise; with `summary_cap` the walks prune
/// by and record into a carried page summary.
fn drain_pages(
    session: &mut SearchSession<'_, Bcq>,
    size: usize,
    summary_cap: Option<usize>,
    tasks: Option<&[Vec<Constant>]>,
) -> Vec<CompletionKey> {
    let mut summary =
        summary_cap.map(|cap| PageSummary::plan(session.grounding(), session.order(), cap));
    let mut keys: Vec<CompletionKey> = Vec::new();
    loop {
        if summary.as_ref().is_some_and(|s| s.served(keys.last())) {
            return keys;
        }
        let mut page = PageHeap::new();
        let mut sheet = summary.as_ref().map_or(Vec::new(), PageSummary::worksheet);
        let mut sink = PageSink::new(keys.last(), size, &mut page);
        if let Some(s) = &summary {
            sink = sink.recording(s, &mut sheet);
        }
        match tasks {
            None => assert!(session.walk(&mut sink)),
            Some(prefixes) => {
                for prefix in prefixes {
                    assert!(session.walk_task(prefix, None, &mut sink));
                }
            }
        }
        if let Some(s) = &mut summary {
            s.absorb([sheet.as_slice()]);
        }
        let done = page.len() < size;
        keys.extend(page.drain());
        if done {
            return keys;
        }
    }
}

#[test]
fn every_sink_of_the_one_walk_matches_the_seed_and_composes_over_tasks() {
    let mut rng = StdRng::seed_from_u64(1512);
    let planner = BacktrackingEngine::with_threads(4).with_parallel_threshold(1);
    let mut sharded = 0usize;
    for query in queries() {
        for codd in [false, true] {
            for uniform in [false, true] {
                let db = random_database_for_query(&query, &config(codd, uniform), &mut rng);
                let at = format!("{query} codd={codd} uniform={uniform} {db:?}");
                let expected_vals = NaiveEngine.count_valuations(&db, &query).unwrap();
                let expected_comps = NaiveEngine.count_completions(&db, &query).unwrap();
                let mut session = SearchSession::new(&db, &query).unwrap();

                // 1. The count sink is #Val.
                let mut count = CountValuations::default();
                assert!(session.walk(&mut count));
                let vals = count.into_total();
                assert_eq!(vals, expected_vals, "#Val {at}");
                assert_eq!(session.count(), vals, "count() {at}");

                // 2. The leaf sink's distinct keys are #Comp, and so is the
                // class sink's closed-form total.
                let mut leaves = CollectKeys::default();
                assert!(session.walk(&mut leaves));
                assert_eq!(
                    BigNat::from(leaves.keys.len()),
                    expected_comps,
                    "#Comp {at}"
                );
                let mut classes = ClassCount::new(&session);
                assert!(session.walk(&mut classes));
                assert_eq!(classes.distinct(), expected_comps, "class #Comp {at}");

                // 3. A full page drain is the sorted leaf keys, with and
                // without a summary. Pages carry canonical keys, so the
                // reference collects them itself (`CollectKeys` holds
                // residual keys).
                let mut canonical = CanonicalLeaves::default();
                assert!(session.walk(&mut canonical));
                assert_eq!(canonical.keys.len(), leaves.keys.len(), "leaf keys {at}");
                let sorted: Vec<CompletionKey> = canonical.keys.into_iter().collect();
                let size = rng.random_range(1usize..=5);
                let cap = rng.random_range(1usize..=32);
                assert_eq!(
                    drain_pages(&mut session, size, None, None),
                    sorted,
                    "pages {at}"
                );
                assert_eq!(
                    drain_pages(&mut session, size, Some(cap), None),
                    sorted,
                    "summary pages (cap {cap}) {at}"
                );

                // 4. Task walks over the engine's shard plan add up to the
                // root walk, for every sink.
                let Some(prefixes) = planner.shard_plan(session.grounding(), session.order())
                else {
                    continue;
                };
                sharded += 1;
                let mut count = CountValuations::default();
                let mut leaves_by_task = CollectKeys::default();
                let mut classes_by_task = ClassCount::new(&session);
                for prefix in &prefixes {
                    assert!(session.walk_task(prefix, None, &mut count));
                    assert!(session.walk_task(prefix, None, &mut leaves_by_task));
                    assert!(session.walk_task(prefix, None, &mut classes_by_task));
                }
                session.rewind();
                assert_eq!(count.into_total(), vals, "task #Val {at}");
                assert_eq!(leaves_by_task.keys, leaves.keys, "task leaves {at}");
                assert_eq!(
                    classes_by_task.distinct(),
                    expected_comps,
                    "task classes {at}"
                );
                for summary_cap in [None, Some(cap)] {
                    assert_eq!(
                        drain_pages(&mut session, size, summary_cap, Some(&prefixes)),
                        sorted,
                        "task pages (summary {summary_cap:?}) {at}"
                    );
                    session.rewind();
                }
            }
        }
    }
    assert!(sharded > 0, "some instance must shard");
}
