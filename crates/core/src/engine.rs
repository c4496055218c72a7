//! The backtracking counting engine: the shared exact-counting substrate for
//! every #P-hard cell of Table 1.
//!
//! The paper's central message is that most cells of Table 1 are #P-hard, so
//! inside those cells exhaustive search is the *only* exact option. The seed
//! implementation ([`NaiveEngine`], previously `enumerate.rs`) cloned a full
//! [`Database`] per valuation and re-ran model checking from scratch — paying
//! `O(|D| log |D|)` allocations per leaf of a tree with `∏_⊥ |dom(⊥)|`
//! leaves. [`BacktrackingEngine`] replaces that with depth-first search over
//! an in-place [`Grounding`]:
//!
//! * **No per-valuation materialisation** — binding a null rewrites its
//!   occurrences in place (`O(occurrences)`), and a completion is only
//!   written out (into a reusable scratch database) for query types that
//!   cannot evaluate partially.
//! * **Incremental residual evaluation** — instead of re-running the two
//!   partial-homomorphism searches of `BooleanQuery::holds_partial` from
//!   scratch at every node, each walk keeps a stateful
//!   [`ResidualState`](incdb_query::ResidualState) synced through the
//!   grounding's dirty-null channel. A `Refuted` answer discards the whole
//!   subtree; a `Satisfied` answer counts it in closed form. The
//!   from-scratch per-node test is a query adapter,
//!   [`FromScratch`](incdb_query::FromScratch), which runs this same search
//!   without a residual state: the differential and benchmark reference.
//! * **Domain-size-aware ordering** — nulls are explored smallest-domain
//!   first (ties broken towards frequently occurring nulls), which keeps the
//!   branching factor low near the root where pruning pays the most.
//! * **Work-stealing parallel search** — subtree tasks (assignments of a
//!   shallow search prefix) live in a shared deque ([`TaskQueue`]:
//!   `Mutex<VecDeque>` + `Condvar`; rayon/crossbeam are unavailable offline)
//!   drained one task at a time by [`TaskQueue::run`], the workspace's one
//!   worker pool. When the queue runs dry while a worker still owns a large
//!   subtree, that worker **splits on steal**: it donates its unexplored
//!   sibling branches back to the queue, so skewed instances (one heavy
//!   subtree) keep every core busy. Counts are exact naturals, so worker
//!   sums are deterministic.
//! * **Completion dedup via residual keys** — distinct-completion counting
//!   hashes a sorted, deduplicated list of the resolved null-hosting facts
//!   that miss the table's ground block
//!   ([`Grounding::residual_key_into`](incdb_data::Grounding::residual_key_into))
//!   instead of comparing whole `Database` values.
//!
//! Since the session refactor this module is the **policy** half of the
//! engine: routing (shard or not), the sharding threshold with its builder
//! method, and the [`TaskQueue`] scheduler that every parallel loop of the
//! workspace (engine counts, page fills, shard batches, serve batches) runs
//! on. The **mechanism** — the walks themselves, with their persistent
//! grounding / residual-state / search-plan context — lives in
//! [`crate::session`] as
//! [`SearchSession`]; every engine entry point builds one session and
//! drives it, and long-lived callers (the sharded counters and paging
//! streams of `incdb-stream`) hold sessions of their own so consecutive
//! walks pay a reset instead of a rebuild.
//!
//! All exact consumers share this engine: `enumerate.rs` is a thin wrapper
//! over it, the solver routes the hard cells here
//! ([`crate::solver::Method::BacktrackingSearch`]), and the samplers in
//! `incdb-approx` reuse the bind/check oracle ([`holds_under_current`]) in
//! their hot loops.

use std::collections::{BTreeSet, VecDeque};
use std::panic;
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

use incdb_bignum::{BigNat, NatAccumulator};
use incdb_data::{Constant, DataError, Database, Grounding, IncompleteDatabase};
use incdb_query::{BooleanQuery, PartialOutcome};

pub use crate::session::{
    ClassAction, CompletionVisitor, Mark, PageSummary, SearchSession, StealGate,
};
use crate::session::{CollectKeys, CountValuations};

/// A strategy for exactly counting valuations and completions.
///
/// Implementations must agree with exhaustive enumeration on every input;
/// they differ only in how much of the valuation tree they can avoid
/// visiting.
pub trait CountingEngine {
    /// Counts the valuations `ν` of `db` with `ν(db) ⊨ q`.
    ///
    /// Returns an error if some null of the table has no domain.
    fn count_valuations<Q: BooleanQuery + Sync + ?Sized>(
        &self,
        db: &IncompleteDatabase,
        q: &Q,
    ) -> Result<BigNat, DataError>;

    /// Counts the **distinct** completions `ν(db)` with `ν(db) ⊨ q`.
    fn count_completions<Q: BooleanQuery + Sync + ?Sized>(
        &self,
        db: &IncompleteDatabase,
        q: &Q,
    ) -> Result<BigNat, DataError>;

    /// Counts all distinct completions of `db` (no query filter).
    fn count_all_completions(&self, db: &IncompleteDatabase) -> Result<BigNat, DataError> {
        self.count_completions(db, &Tautology)
    }
}

/// The query that holds in every database — used to count *all* completions
/// through the same engine code path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tautology;

impl BooleanQuery for Tautology {
    fn holds(&self, _db: &Database) -> bool {
        true
    }

    fn signature(&self) -> BTreeSet<String> {
        BTreeSet::new()
    }

    fn holds_partial(&self, _grounding: &Grounding) -> PartialOutcome {
        PartialOutcome::Satisfied
    }

    /// Every `Tautology` is the same query, so one fixed key suffices.
    fn cache_key(&self) -> Option<String> {
        Some("⊤".to_string())
    }
}

/// Evaluates `q` under the grounding's *current* (total) assignment: the
/// bind/check oracle used by the samplers of `incdb-approx`.
///
/// Fast path: queries with real residual evaluation decide without any
/// materialisation. Queries that stay [`PartialOutcome::Unknown`] have their
/// completion written into the reusable `scratch` database and checked with
/// plain [`BooleanQuery::holds`].
///
/// Returns an error naming the first unbound null if the assignment is not
/// total and the fast path could not decide.
pub fn holds_under_current<Q: BooleanQuery + ?Sized>(
    grounding: &Grounding,
    q: &Q,
    scratch: &mut Database,
) -> Result<bool, DataError> {
    match q.holds_partial(grounding) {
        PartialOutcome::Satisfied => Ok(true),
        PartialOutcome::Refuted => Ok(false),
        PartialOutcome::Unknown => {
            grounding.completion_into(scratch)?;
            Ok(q.holds(scratch))
        }
    }
}

/// The seed reference strategy: enumerate every valuation, materialise its
/// completion, model-check from scratch. Exponential with a large constant —
/// kept as the differential-testing ground truth and the benchmark baseline
/// that [`BacktrackingEngine`] is measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveEngine;

impl CountingEngine for NaiveEngine {
    fn count_valuations<Q: BooleanQuery + Sync + ?Sized>(
        &self,
        db: &IncompleteDatabase,
        q: &Q,
    ) -> Result<BigNat, DataError> {
        let mut count = NatAccumulator::new();
        for valuation in db.try_valuations()? {
            let completion = db.apply_unchecked(&valuation);
            if q.holds(&completion) {
                count.add_one();
            }
        }
        Ok(count.into_total())
    }

    fn count_completions<Q: BooleanQuery + Sync + ?Sized>(
        &self,
        db: &IncompleteDatabase,
        q: &Q,
    ) -> Result<BigNat, DataError> {
        let mut seen: BTreeSet<Database> = BTreeSet::new();
        for valuation in db.try_valuations()? {
            let completion = db.apply_unchecked(&valuation);
            if q.holds(&completion) {
                seen.insert(completion);
            }
        }
        Ok(BigNat::from(seen.len()))
    }
}

/// The shared work-stealing scheduler: tasks in a deque guarded by a mutex
/// and a condvar, generic over the task payload, drained by the worker pool
/// of [`TaskQueue::run`]. Workers pop one task at a time, which already
/// self-balances moderately skewed workloads; a running task may
/// [`donate`](TaskQueue::donate) freshly split tasks back while other
/// workers wait for work, and the pool only exits once every task —
/// including donated ones — has finished.
///
/// The engine instantiates it with prefix assignments (`Vec<Constant>`)
/// and splits on steal (when the deque runs dry while some worker still
/// owns a large subtree, that worker donates its unexplored sibling
/// branches back through a [`StealGate`]);
/// the sharded distinct counter instantiates it with batches of fingerprint
/// hash ranges and donates the ranges a walk evicted to respect its memory
/// budget; the serving node instantiates it with requests.
pub struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

struct QueueState<T> {
    tasks: VecDeque<T>,
    /// Tasks created but not yet finished (queued + running). Zero means
    /// the whole workload is accounted for and workers may exit.
    unfinished: usize,
    /// Workers currently blocked waiting for a task — the starvation signal
    /// that triggers splitting.
    idle: usize,
}

impl<T> TaskQueue<T> {
    /// A queue seeded with the initial workload.
    pub fn new(tasks: Vec<T>) -> Self {
        let unfinished = tasks.len();
        TaskQueue {
            state: Mutex::new(QueueState {
                tasks: tasks.into(),
                unfinished,
                idle: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Pops the next task, blocking while running workers may still donate
    /// new ones. Returns `None` once every task has finished.
    pub(crate) fn next_task(&self) -> Option<T> {
        let mut s = self.state.lock().expect("engine task queue poisoned");
        loop {
            if let Some(task) = s.tasks.pop_front() {
                return Some(task);
            }
            if s.unfinished == 0 {
                return None;
            }
            s.idle += 1;
            s = self.available.wait(s).expect("engine task queue poisoned");
            s.idle -= 1;
        }
    }

    /// Marks one popped task as finished, releasing waiting workers when it
    /// was the last. Runs from a drop guard, also while a task unwinds, so
    /// it must not panic: no update under the lock can leave the state
    /// half-written, and a poisoned lock is taken as is.
    pub(crate) fn finish_task(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.unfinished -= 1;
        let done = s.unfinished == 0;
        drop(s);
        if done {
            self.available.notify_all();
        }
    }

    /// Returns `true` if some worker is starving — the signal for a busy
    /// worker to split off part of its workload.
    pub fn wants_work(&self) -> bool {
        let s = self.state.lock().expect("engine task queue poisoned");
        s.idle > 0 && s.tasks.is_empty()
    }

    /// Donates tasks to starving workers; [`run`](TaskQueue::run) runs
    /// them exactly like the seed tasks.
    pub fn donate(&self, tasks: impl IntoIterator<Item = T>) {
        let mut s = self.state.lock().expect("engine task queue poisoned");
        for task in tasks {
            s.tasks.push_back(task);
            s.unfinished += 1;
        }
        drop(s);
        self.available.notify_all();
    }
}

impl<T: Send> TaskQueue<T> {
    /// Runs every task — the seed `tasks` and every task a step
    /// [`donate`](TaskQueue::donate)s — exactly once, on one worker per
    /// element of `workers` (at least one when there are tasks), and
    /// returns the worker states in their input order for the caller to
    /// merge. `step` runs one task on the state of the worker that popped
    /// it, and gets the queue to donate through.
    ///
    /// This is the one worker pool of the workspace. A pool of one worker
    /// runs on the calling thread without spawning; larger pools run on
    /// scoped threads. A task whose step panics still counts as finished,
    /// so the other workers drain the queue and exit instead of waiting for
    /// it, and the panic is passed on to the caller.
    pub fn run<W: Send>(
        tasks: Vec<T>,
        mut workers: Vec<W>,
        step: impl Fn(&mut W, T, &TaskQueue<T>) + Sync,
    ) -> Vec<W> {
        let queue = TaskQueue::new(tasks);
        let drain = |worker: &mut W| {
            while let Some(task) = queue.next_task() {
                let _finish = FinishOnDrop(&queue);
                step(worker, task, &queue);
            }
        };
        if workers.len() < 2 {
            workers.iter_mut().for_each(drain);
            return workers;
        }
        let drain = &drain;
        thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|mut worker| {
                    scope.spawn(move || {
                        drain(&mut worker);
                        worker
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| panic::resume_unwind(payload))
                })
                .collect()
        })
    }
}

/// Finishes one popped task when dropped, whether its step returned or
/// unwound.
struct FinishOnDrop<'a, T>(&'a TaskQueue<T>);

impl<T> Drop for FinishOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.finish_task();
    }
}

/// How many seed tasks per worker [`BacktrackingEngine::shard_plan`] aims
/// for. Moderate oversubscription self-balances most instances;
/// split-on-steal refines the partition at runtime, so the seed stays
/// small.
const PREFIX_OVERSUBSCRIPTION: usize = 4;

/// The default [`BacktrackingEngine::with_parallel_threshold`]: with
/// work-stealing keeping skewed shards balanced, sharding pays off well
/// below the static-sharding engine's old 4096-valuation floor.
const DEFAULT_PARALLEL_THRESHOLD: u64 = 1024;

/// The backtracking counting engine (see the module documentation).
///
/// Two values are set per engine: the worker cap and the sharding threshold
/// ([`with_parallel_threshold`](BacktrackingEngine::with_parallel_threshold),
/// also read from the `ENGINE_PARALLEL_THRESHOLD` environment variable at
/// construction; the builder wins). Neither affects any count — only how
/// the work is cut up. The other scheduling values are constants, and the
/// search itself ([`SearchSession`]) depends on the database and the query
/// alone.
#[derive(Debug, Clone)]
pub struct BacktrackingEngine {
    /// Maximum number of worker threads for the work-stealing search.
    /// `1` disables sharding.
    threads: usize,
    /// Minimum total number of valuations (`∏_⊥ |dom(⊥)|`, the leaf count
    /// of the full search tree) at or above which the search is sharded
    /// across workers.
    parallel_threshold: u64,
}

impl Default for BacktrackingEngine {
    /// Auto-detects parallelism (capped at 8 workers), shards instances
    /// with at least [`BacktrackingEngine::parallel_threshold`] (default
    /// 1024) valuations. `ENGINE_PARALLEL_THRESHOLD` applies.
    fn default() -> Self {
        let threads = thread::available_parallelism()
            .map_or(1, usize::from)
            .min(8);
        Self::with_threads(threads)
    }
}

impl BacktrackingEngine {
    /// A single-threaded engine (deterministic scheduling; used by the thin
    /// wrappers in [`crate::enumerate`] and by tests). The parallel
    /// threshold is pinned to `u64::MAX` — this constructor promises a
    /// sequential walk, so `ENGINE_PARALLEL_THRESHOLD` does not apply.
    pub fn sequential() -> Self {
        BacktrackingEngine {
            parallel_threshold: u64::MAX,
            ..Self::with_threads(1)
        }
    }

    /// An engine spreading the search over up to `threads` work-stealing
    /// workers. `ENGINE_PARALLEL_THRESHOLD` applies.
    pub fn with_threads(threads: usize) -> Self {
        let env_threshold = std::env::var("ENGINE_PARALLEL_THRESHOLD").ok();
        BacktrackingEngine {
            threads: threads.max(1),
            parallel_threshold: env_threshold
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(DEFAULT_PARALLEL_THRESHOLD),
        }
    }

    /// The configured worker cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the minimum **total number of valuations**
    /// (`∏_⊥ |dom(⊥)|`, the leaf count of the full search tree) at or above
    /// which the engine shards the search across workers; the boundary is
    /// inclusive, so an instance with exactly `valuations` valuations
    /// shards. Builder style; mostly useful to force sharding in tests and
    /// benchmarks.
    pub fn with_parallel_threshold(mut self, valuations: u64) -> Self {
        self.parallel_threshold = valuations;
        self
    }

    /// The configured sharding threshold, in total valuations.
    pub fn parallel_threshold(&self) -> u64 {
        self.parallel_threshold
    }

    /// Builds a [`SearchSession`] over `db` and `q` — the same session
    /// [`SearchSession::new`] builds, whatever the engine's configuration.
    ///
    /// Returns an error if some null of the table has no domain.
    pub fn session<'q, Q: BooleanQuery + ?Sized>(
        &self,
        db: &IncompleteDatabase,
        q: &'q Q,
    ) -> Result<SearchSession<'q, Q>, DataError> {
        SearchSession::new(db, q)
    }

    /// Decides whether this instance is worth sharding and, if so, seeds
    /// the task queue: the assignments of the shallowest search prefix wide
    /// enough for a few tasks per worker.
    /// Sharding over prefix *assignments* rather than the first null's
    /// domain keeps full parallel width even when the pruning-optimal order
    /// puts a tiny domain first; split-on-steal refines the partition at
    /// runtime.
    ///
    /// Returns every assignment of the prefix (odometer order, following
    /// `order`), or `None` when the engine should run sequentially: fewer
    /// than two workers, or fewer total valuations than the
    /// [threshold](BacktrackingEngine::with_parallel_threshold) (the
    /// boundary is inclusive). Exposed so session-holding callers can reuse
    /// the engine's routing policy over their own task walks.
    pub fn shard_plan(&self, g: &Grounding, order: &[usize]) -> Option<Vec<Vec<Constant>>> {
        if self.threads < 2 || order.is_empty() {
            return None;
        }
        let mut valuations: u64 = 1;
        for &i in order {
            valuations = valuations.saturating_mul(g.domain_by_index(i).len() as u64);
        }
        if valuations < self.parallel_threshold {
            return None;
        }
        let target = self.threads.saturating_mul(PREFIX_OVERSUBSCRIPTION);
        let mut depth = 0;
        let mut width: usize = 1;
        while depth < order.len() && width < target {
            width = width.saturating_mul(g.domain_by_index(order[depth]).len());
            depth += 1;
        }
        let mut prefixes: Vec<Vec<Constant>> = vec![Vec::new()];
        for &i in &order[..depth] {
            let dom = g.domain_by_index(i);
            let mut extended = Vec::with_capacity(prefixes.len() * dom.len());
            for prefix in &prefixes {
                for &value in dom {
                    let mut next = prefix.clone();
                    next.push(value);
                    extended.push(next);
                }
            }
            prefixes = extended;
        }
        // One or zero prefix assignments (tiny or empty domains up front):
        // nothing to parallelise.
        if prefixes.len() < 2 {
            return None;
        }
        Some(prefixes)
    }

    /// Runs one task walk per task of the work-stealing queue across up to
    /// [`threads`](BacktrackingEngine::threads) workers, each on its own
    /// [`fork`](SearchSession::fork) of the primary session with its own
    /// sink of type `S`, and returns the per-worker sinks for the caller to
    /// merge. Forking clones the grounding and the compiled residual state
    /// — the expensive query compilation happens exactly once, on the
    /// primary.
    fn run_stealing<Q, S>(
        &self,
        primary: &SearchSession<'_, Q>,
        prefixes: Vec<Vec<Constant>>,
    ) -> Vec<S>
    where
        Q: BooleanQuery + Sync + ?Sized,
        S: CompletionVisitor + Default + Send,
    {
        let workers = (0..self.threads).map(|_| (primary.fork(), S::default()));
        let done = TaskQueue::run(
            prefixes,
            workers.collect(),
            |(session, sink), prefix, queue| {
                session.walk_task(&prefix, Some(&StealGate::new(queue)), sink);
            },
        );
        done.into_iter().map(|(_, sink)| sink).collect()
    }
}

impl CountingEngine for BacktrackingEngine {
    fn count_valuations<Q: BooleanQuery + Sync + ?Sized>(
        &self,
        db: &IncompleteDatabase,
        q: &Q,
    ) -> Result<BigNat, DataError> {
        let mut session = self.session(db, q)?;
        let Some(prefixes) = self.shard_plan(session.grounding(), session.order()) else {
            return Ok(session.count());
        };
        let totals: Vec<CountValuations> = self.run_stealing(&session, prefixes);
        Ok(totals.into_iter().map(CountValuations::into_total).sum())
    }

    fn count_completions<Q: BooleanQuery + Sync + ?Sized>(
        &self,
        db: &IncompleteDatabase,
        q: &Q,
    ) -> Result<BigNat, DataError> {
        let mut session = self.session(db, q)?;
        let Some(prefixes) = self.shard_plan(session.grounding(), session.order()) else {
            let mut sink = CollectKeys::default();
            session.walk(&mut sink);
            return Ok(BigNat::from(sink.keys.len()));
        };
        // Distinct completions can be produced by several workers (different
        // prefix assignments may induce the same completion), so dedup again
        // while merging.
        let mut merged = CollectKeys::default();
        for sink in self.run_stealing::<Q, CollectKeys>(&session, prefixes) {
            merged.keys.extend(sink.keys);
        }
        Ok(BigNat::from(merged.keys.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::completion_key;
    use incdb_data::{CompletionKey, NullId, Value};
    use incdb_query::{Bcq, BcqResidual, FromScratch, NegatedBcq, ResidualState, Ucq};
    use std::collections::HashSet;

    fn c(id: u64) -> Value {
        Value::constant(id)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// The database of Example 2.2 / Figure 1.
    fn example_2_2() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("S", vec![c(0), c(1)]).unwrap();
        db.add_fact("S", vec![n(1), c(0)]).unwrap();
        db.add_fact("S", vec![c(0), n(2)]).unwrap();
        db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(2), [0u64, 1]).unwrap();
        db
    }

    fn engines() -> Vec<BacktrackingEngine> {
        vec![
            BacktrackingEngine::sequential(),
            // Force work-stealing sharding even on tiny instances.
            BacktrackingEngine::with_threads(3).with_parallel_threshold(1),
        ]
    }

    /// Runs `check` on `q` itself (incremental residual evaluation) and on
    /// [`FromScratch`] of it (`holds_partial` re-run at every node).
    fn each_mode<Q: BooleanQuery + Sync>(q: &Q, mut check: impl FnMut(&(dyn BooleanQuery + Sync))) {
        check(q);
        check(&FromScratch(q));
    }

    #[test]
    fn parallel_threshold_counts_valuations_inclusively() {
        // Example 2.2 has 3 × 2 = 6 valuations: a threshold of exactly 6
        // shards, 7 stays sequential — the unit is total valuations, not
        // any other notion of "leaves".
        let db = example_2_2();
        let g = db.try_grounding().unwrap();
        let session = SearchSession::new(&db, &Tautology).unwrap();
        let order = session.order();
        let at = BacktrackingEngine::with_threads(2).with_parallel_threshold(6);
        assert!(at.shard_plan(&g, order).is_some());
        let above = BacktrackingEngine::with_threads(2).with_parallel_threshold(7);
        assert!(above.shard_plan(&g, order).is_none());
        // One worker never shards, whatever the threshold.
        let solo = BacktrackingEngine::with_threads(1).with_parallel_threshold(1);
        assert!(solo.shard_plan(&g, order).is_none());
    }

    #[test]
    fn tuning_builders_and_env_overrides() {
        // The builder overrides the compiled default.
        let tuned = BacktrackingEngine::with_threads(2).with_parallel_threshold(11);
        assert_eq!(tuned.parallel_threshold(), 11);
        assert_eq!(tuned.threads(), 2);

        // `ENGINE_PARALLEL_THRESHOLD`, the one environment knob, reaches
        // freshly constructed engines and changes no count. Process-global
        // env is visible to concurrently running tests, but the threshold
        // only steers scheduling, never results, and every test that
        // asserts *on* scheduling pins it through the builder — so the
        // brief window below cannot flip another test's assertion.
        std::env::set_var("ENGINE_PARALLEL_THRESHOLD", "3");
        let from_env = BacktrackingEngine::with_threads(2);
        std::env::remove_var("ENGINE_PARALLEL_THRESHOLD");
        assert_eq!(from_env.parallel_threshold(), 3);
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        assert_eq!(
            from_env.count_valuations(&db, &q).unwrap(),
            BigNat::from(4u64)
        );

        // `sequential()` stays sequential even under the env threshold.
        std::env::set_var("ENGINE_PARALLEL_THRESHOLD", "1");
        let seq = BacktrackingEngine::sequential();
        std::env::remove_var("ENGINE_PARALLEL_THRESHOLD");
        assert_eq!(seq.parallel_threshold(), u64::MAX);
    }

    #[test]
    fn task_queue_run_drives_every_task_once_and_returns_the_workers() {
        // Seeds 0..8; every seed below 4 donates `seed + 100` once the
        // pool is running, so the donated tasks arrive mid-run.
        for workers in [1, 3] {
            let states: Vec<Vec<u32>> = vec![Vec::new(); workers];
            let done = TaskQueue::run((0..8).collect(), states, |seen, task, queue| {
                if task < 4 {
                    queue.donate([task + 100]);
                }
                seen.push(task);
            });
            assert_eq!(done.len(), workers, "every worker state comes back");
            let mut ran: Vec<u32> = done.into_iter().flatten().collect();
            ran.sort_unstable();
            let expected: Vec<u32> = (0..8).chain(100..104).collect();
            assert_eq!(ran, expected, "each seed and donated task ran once");
        }
        // A one-worker pool runs on the calling thread.
        let caller = thread::current().id();
        let solo = TaskQueue::run(vec![(); 3], vec![Vec::new()], |ids, (), _| {
            ids.push(thread::current().id());
        });
        assert_eq!(solo, [vec![caller; 3]]);
    }

    #[test]
    fn merge_join_routing_never_changes_counts() {
        // A two-atom join over nulls on both sides, with enough certain S
        // rows that the default crossover routes the join to the sort-merge
        // path. The counts must equal the seed loop's and those of the
        // from-scratch search, which never routes to the merge join.
        let mut db = IncompleteDatabase::new_uniform([1u64, 2, 3]);
        db.add_fact("R", vec![c(0), n(0)]).unwrap();
        db.add_fact("R", vec![c(0), c(2)]).unwrap();
        db.add_fact("R", vec![c(7), c(8)]).unwrap();
        db.add_fact("S", vec![n(1), c(9)]).unwrap();
        db.add_fact("S", vec![c(3), n(2)]).unwrap();
        let rows = incdb_query::DEFAULT_MERGE_JOIN_MIN_ROWS;
        for k in 0..rows {
            db.add_fact("S", vec![c(1000 + 2 * k), c(1001 + 2 * k)])
                .unwrap();
        }
        let q: Bcq = "R(0, x), S(x, y)".parse().unwrap();
        // The instance really sits above the crossover: the residual state
        // the engine compiles merges at the root.
        let g = db.try_grounding().unwrap();
        let mut root = BcqResidual::new(&q, &g);
        assert_eq!(root.outcome(&g), q.holds_partial(&g));
        assert!(root.merge_join_count() > 0, "the root join must merge");
        let vals = NaiveEngine.count_valuations(&db, &q).unwrap();
        let comps = NaiveEngine.count_completions(&db, &q).unwrap();
        assert!(!vals.is_zero(), "the join must be satisfiable");
        for engine in engines() {
            each_mode(&q, |q| {
                assert_eq!(engine.count_valuations(&db, q).unwrap(), vals);
                assert_eq!(engine.count_completions(&db, q).unwrap(), comps);
            });
        }
    }

    #[test]
    fn skewed_instance_counts_match_across_schedulers() {
        // One gating null (domain {0,1}) refutes half the tree at the root:
        // the work-stealing engine must agree with the sequential one even
        // though its workers see wildly unequal subtrees.
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("S", vec![n(100)]).unwrap();
        db.set_domain(NullId(100), [0u64, 1]).unwrap();
        for i in 0..6u32 {
            let j = (i + 1) % 6;
            db.add_fact("R", vec![n(i), n(j)]).unwrap();
            db.set_domain(NullId(i), [0u64, 1, 2]).unwrap();
        }
        let q: Bcq = "S(0), R(x,x)".parse().unwrap();
        let expected = NaiveEngine.count_valuations(&db, &q).unwrap();
        for engine in engines() {
            each_mode(&q, |q| {
                assert_eq!(engine.count_valuations(&db, q).unwrap(), expected);
            });
        }
    }

    #[test]
    fn figure_1_counts() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        for engine in engines() {
            each_mode(&q, |q| {
                assert_eq!(engine.count_valuations(&db, q).unwrap(), BigNat::from(4u64));
                assert_eq!(
                    engine.count_completions(&db, q).unwrap(),
                    BigNat::from(3u64)
                );
            });
            each_mode(&Tautology, |all| {
                assert_eq!(
                    engine.count_completions(&db, all).unwrap(),
                    BigNat::from(5u64)
                );
            });
            assert_eq!(
                engine.count_all_completions(&db).unwrap(),
                BigNat::from(5u64)
            );
        }
    }

    #[test]
    fn agrees_with_naive_on_negation_and_union() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let neg = NegatedBcq::new(q.clone());
        let u: Ucq = "S(x,x) | S(x,y)".parse().unwrap();
        for engine in engines() {
            // `each_mode` hands the query over as a trait object, which
            // exercises the `?Sized` path.
            each_mode(&neg, |neg| {
                assert_eq!(
                    engine.count_valuations(&db, neg).unwrap(),
                    NaiveEngine.count_valuations(&db, neg).unwrap()
                );
                assert_eq!(
                    engine.count_completions(&db, neg).unwrap(),
                    NaiveEngine.count_completions(&db, neg).unwrap()
                );
            });
            each_mode(&u, |u| {
                assert_eq!(
                    engine.count_valuations(&db, u).unwrap(),
                    NaiveEngine.count_valuations(&db, u).unwrap()
                );
            });
        }
    }

    #[test]
    fn closed_form_subtrees_count_correctly() {
        // R(1,1) is a ground fact, so R(x,x) is satisfied at the root and
        // the whole tree (2^6 valuations) is counted in closed form.
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![c(1), c(1)]).unwrap();
        for i in 0..6u32 {
            db.add_fact("R", vec![n(i), c(7)]).unwrap();
        }
        let q: Bcq = "R(x,x)".parse().unwrap();
        for engine in engines() {
            each_mode(&q, |q| {
                assert_eq!(
                    engine.count_valuations(&db, q).unwrap(),
                    BigNat::from(64u64)
                );
            });
        }
    }

    #[test]
    fn refuted_subtrees_are_pruned_to_zero() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        for i in 0..6u32 {
            db.add_fact("R", vec![n(i)]).unwrap();
        }
        // T is empty in every completion.
        let q: Bcq = "R(x), T(x)".parse().unwrap();
        for engine in engines() {
            each_mode(&q, |q| {
                assert_eq!(engine.count_valuations(&db, q).unwrap(), BigNat::zero());
                assert_eq!(engine.count_completions(&db, q).unwrap(), BigNat::zero());
            });
        }
    }

    #[test]
    fn empty_domain_counts_zero() {
        let mut db = IncompleteDatabase::new_uniform(Vec::<u64>::new());
        db.add_fact("R", vec![n(0)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        for engine in engines() {
            each_mode(&q, |q| {
                assert_eq!(engine.count_valuations(&db, q).unwrap(), BigNat::zero());
                assert_eq!(engine.count_completions(&db, q).unwrap(), BigNat::zero());
            });
            assert_eq!(engine.count_all_completions(&db).unwrap(), BigNat::zero());
        }
    }

    #[test]
    fn missing_domain_is_an_error_not_a_panic() {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![n(0)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        for engine in engines() {
            each_mode(&q, |q| {
                assert!(matches!(
                    engine.count_valuations(&db, q),
                    Err(DataError::MissingDomain { null: NullId(0) })
                ));
                assert!(engine.count_completions(&db, q).is_err());
            });
            assert!(engine.count_all_completions(&db).is_err());
        }
        assert!(NaiveEngine.count_valuations(&db, &q).is_err());
        assert!(NaiveEngine.count_completions(&db, &q).is_err());
    }

    #[test]
    fn ground_database_is_a_single_leaf() {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![c(5)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        let q2: Bcq = "R(x), T(x)".parse().unwrap();
        for engine in engines() {
            each_mode(&q, |q| {
                assert_eq!(engine.count_valuations(&db, q).unwrap(), BigNat::one());
            });
            each_mode(&q2, |q2| {
                assert_eq!(engine.count_valuations(&db, q2).unwrap(), BigNat::zero());
            });
            assert_eq!(engine.count_all_completions(&db).unwrap(), BigNat::one());
        }
    }

    #[test]
    fn visitor_walk_streams_leaves_deterministically_and_stops_on_demand() {
        struct Leaves {
            keys: Vec<CompletionKey>,
            stop_after: usize,
        }
        impl CompletionVisitor for Leaves {
            fn leaf(&mut self, g: &Grounding) -> bool {
                self.keys.push(completion_key(g));
                self.keys.len() < self.stop_after
            }
        }
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let engine = BacktrackingEngine::sequential();
        let mut session = SearchSession::new(&db, &q).unwrap();
        let mut full = Leaves {
            keys: Vec::new(),
            stop_after: usize::MAX,
        };
        assert!(session.walk(&mut full));
        // Four satisfying valuations stream as four leaves (no dedup at
        // this layer), collapsing to the three distinct completions.
        assert_eq!(full.keys.len(), 4);
        let distinct: HashSet<&CompletionKey> = full.keys.iter().collect();
        assert_eq!(
            BigNat::from(distinct.len()),
            engine.count_completions(&db, &q).unwrap()
        );
        // The walk order is canonical: a second run reproduces it exactly,
        // and an early stop sees a strict prefix.
        let mut again = Leaves {
            keys: Vec::new(),
            stop_after: usize::MAX,
        };
        assert!(SearchSession::new(&db, &q).unwrap().walk(&mut again));
        assert_eq!(full.keys, again.keys);
        let mut stopped = Leaves {
            keys: Vec::new(),
            stop_after: 2,
        };
        assert!(!session.walk(&mut stopped));
        assert_eq!(stopped.keys, full.keys[..2]);
        // The multi-threaded configuration still walks sequentially.
        let mut wide = Leaves {
            keys: Vec::new(),
            stop_after: usize::MAX,
        };
        let parallel = BacktrackingEngine::with_threads(3).with_parallel_threshold(1);
        assert!(parallel.session(&db, &q).unwrap().walk(&mut wide));
        assert_eq!(full.keys, wide.keys);
    }

    #[test]
    fn completions_collapse_valuations() {
        let mut db = IncompleteDatabase::new_uniform([1u64, 2]);
        db.add_fact("R", vec![n(0)]).unwrap();
        db.add_fact("R", vec![n(1)]).unwrap();
        let q: Bcq = "R(x)".parse().unwrap();
        for engine in engines() {
            each_mode(&q, |q| {
                assert_eq!(engine.count_valuations(&db, q).unwrap(), BigNat::from(4u64));
                assert_eq!(
                    engine.count_completions(&db, q).unwrap(),
                    BigNat::from(3u64)
                );
            });
        }
    }

    #[test]
    fn custom_query_without_residual_evaluation_falls_back() {
        /// Holds iff relation "R" stores an even number of facts.
        struct EvenR;
        impl BooleanQuery for EvenR {
            fn holds(&self, db: &Database) -> bool {
                db.relation_size("R").is_multiple_of(2)
            }
            fn signature(&self) -> BTreeSet<String> {
                ["R".to_string()].into_iter().collect()
            }
        }
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![n(0)]).unwrap();
        db.add_fact("R", vec![n(1)]).unwrap();
        for engine in engines() {
            assert_eq!(
                engine.count_valuations(&db, &EvenR).unwrap(),
                NaiveEngine.count_valuations(&db, &EvenR).unwrap()
            );
            assert_eq!(
                engine.count_completions(&db, &EvenR).unwrap(),
                NaiveEngine.count_completions(&db, &EvenR).unwrap()
            );
        }
    }

    #[test]
    fn oracle_matches_apply_and_holds() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let mut g = db.try_grounding().unwrap();
        let mut scratch = Database::new();
        for valuation in db.valuations() {
            for (null, value) in valuation.iter() {
                g.bind(null, value).unwrap();
            }
            let expected = q.holds(&db.apply_unchecked(&valuation));
            assert_eq!(holds_under_current(&g, &q, &mut scratch).unwrap(), expected);
        }
        // Partial assignments surface an error for undecidable queries.
        struct Opaque;
        impl BooleanQuery for Opaque {
            fn holds(&self, _db: &Database) -> bool {
                true
            }
            fn signature(&self) -> BTreeSet<String> {
                BTreeSet::new()
            }
        }
        g.reset();
        assert!(holds_under_current(&g, &Opaque, &mut scratch).is_err());
    }
}
