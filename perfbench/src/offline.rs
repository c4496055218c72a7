//! The `offline_count` workload: one client, no serve layer, a fixed
//! cycle of analytical jobs through the public counting entry points with
//! one engine thread:
//!
//! * `#Val` — `incdb_core::solver::count_valuations` of `S(0), R(x,x)` on
//!   `skewed_switch_cycle(10, 3)`;
//! * `#Comp` — `incdb_stream::solver::count_completions` of `R(x,y)` under
//!   a 12-fingerprint budget on `bounded_stream_large_instance(G, 4)`;
//! * page fills — pages of 1024 keys pulled from a `CompletionStream`
//!   drain of `key_local_band_instance(9, 4, 0)`, reopened when exhausted;
//! * samplers — `karp_luby_valuations` (ε = 0.1) on
//!   `uniform_self_loop_cycle(12, 4)`, alternating with
//!   `completion_estimator` (2000 samples) on `uniform_codd_binary(6, 3)`.
//!
//! Every answer is checked against a closed form: the cycle chromatic
//! polynomial for the `R(x,x)` valuation counts, `45 · 3^s` for the
//! bounded instance, `d^n` for the band drain, and the subset count
//! `Σ_k C(d², k)` bounding the estimator's distinct completions.

use std::collections::BTreeMap;
use std::thread;
use std::time::Instant;

use incdb_approx::{completion_estimator, karp_luby_valuations, CompletionEstimate, FprasEstimate};
use incdb_core::engine::{BacktrackingEngine, Tautology};
use incdb_core::solver::{completion_closed_form, count_valuations};
use incdb_data::IncompleteDatabase;
use incdb_query::{Bcq, BooleanQuery, Ucq};
use incdb_stream::{count_completions_budgeted, CompletionStream, StreamOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{calibration_kernel_ms, Kind, Ledger, Rounds, REF_KERNEL_MS};
use crate::trace::{aggregate, layer_map, Agg, Span, Tracer};
use crate::{Run, RunConfig, Scale};

/// Fingerprint budget of the `#Comp` job.
pub const BUDGET: usize = 12;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Karp–Luby relative error.
const EPSILON: f64 = 0.1;
/// An estimate further than this share from the exact count is wrong. The
/// FPRAS promises ε with probability ≥ 3/4; five times ε is beyond any
/// seed's reach in practice.
const KL_TOLERANCE: f64 = 5.0 * EPSILON;

/// Instance sizes of one scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub val_nulls: u32,
    pub val_domain: u64,
    pub comp_ground: u64,
    pub comp_separable: u32,
    pub band_nulls: u32,
    pub band_domain: u64,
    pub page: usize,
    pub pages_per_cycle: usize,
    pub kl_nulls: u32,
    pub kl_domain: u64,
    pub est_facts: u32,
    pub est_domain: u64,
    pub est_samples: usize,
}

pub fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            val_nulls: 10,
            val_domain: 3,
            comp_ground: 2_000,
            comp_separable: 4,
            band_nulls: 9,
            band_domain: 4,
            page: 1024,
            pages_per_cycle: 4,
            kl_nulls: 12,
            kl_domain: 4,
            est_facts: 6,
            est_domain: 3,
            est_samples: 2000,
        },
        Scale::Tiny => Sizes {
            val_nulls: 4,
            val_domain: 3,
            comp_ground: 50,
            comp_separable: 2,
            band_nulls: 4,
            band_domain: 4,
            page: 16,
            pages_per_cycle: 2,
            kl_nulls: 5,
            kl_domain: 3,
            est_facts: 3,
            est_domain: 2,
            est_samples: 100,
        },
    }
}

/// Valuations of an `n`-null `R` cycle over `k` values that put some null
/// equal to its successor: all `k^n` minus the proper colourings of the
/// cycle, `(k−1)^n + (−1)^n (k−1)`.
fn self_loop_valuations(n: u32, k: u64) -> u128 {
    let k = k as i128;
    let proper = (k - 1).pow(n) + if n.is_multiple_of(2) { k - 1 } else { 1 - k };
    (k.pow(n) - proper) as u128
}

/// Completions of a uniform Codd table of `facts` binary rows over `d`
/// values: the non-empty sets of at most `facts` of the `d²` tuples.
fn codd_binary_completions(facts: u32, d: u64) -> u128 {
    let pairs = (d * d) as u128;
    let mut total = 0u128;
    let mut choose = 1u128;
    for k in 1..=u128::from(facts).min(pairs) {
        choose = choose * (pairs - k + 1) / k;
        total += choose;
    }
    total
}

/// The job instances and their exact answers.
pub struct Instances {
    val_db: IncompleteDatabase,
    val_q: Bcq,
    val_exact: u128,
    comp_db: IncompleteDatabase,
    comp_q: Bcq,
    comp_exact: u128,
    band_db: IncompleteDatabase,
    band_exact: u128,
    kl_db: IncompleteDatabase,
    kl_q: Ucq,
    kl_exact: f64,
    est_db: IncompleteDatabase,
    est_q: Bcq,
    est_exact: u128,
    pub sizes: Sizes,
}

impl Instances {
    pub fn build(scale: Scale) -> Instances {
        let s = sizes(scale);
        let parse = |q: &str| -> Bcq { q.parse().expect("job queries parse") };
        Instances {
            val_db: incdb_bench::skewed_switch_cycle(s.val_nulls, s.val_domain),
            val_q: parse("S(0), R(x,x)"),
            // Only the switch value 0 satisfies S(0); under it, R(x,x).
            val_exact: self_loop_valuations(s.val_nulls, s.val_domain),
            comp_db: incdb_bench::bounded_stream_large_instance(s.comp_ground, s.comp_separable),
            comp_q: parse("R(x,y)"),
            comp_exact: 45 * 3u128.pow(s.comp_separable),
            band_db: incdb_bench::key_local_band_instance(s.band_nulls, s.band_domain, 0),
            band_exact: u128::from(s.band_domain).pow(s.band_nulls),
            kl_db: incdb_bench::uniform_self_loop_cycle(s.kl_nulls, s.kl_domain),
            kl_q: Ucq::from_bcq(parse("R(x,x)")),
            kl_exact: self_loop_valuations(s.kl_nulls, s.kl_domain) as f64,
            est_db: incdb_bench::uniform_codd_binary(s.est_facts, s.est_domain),
            est_q: parse("R(x,y)"),
            est_exact: codd_binary_completions(s.est_facts, s.est_domain),
            sizes: s,
        }
    }

    /// Whether a Karp–Luby estimate is within [`KL_TOLERANCE`] of the
    /// exact count.
    fn karp_luby_ok(&self, est: &FprasEstimate) -> bool {
        (est.estimate - self.kl_exact).abs() <= KL_TOLERANCE * self.kl_exact
    }

    /// Whether an estimator run is possible: it saw at least one and at
    /// most all of the distinct completions.
    fn estimator_ok(&self, est: &CompletionEstimate) -> bool {
        est.distinct_observed >= 1
            && est.distinct_observed as u128 <= self.est_exact
            && est.estimate.is_finite()
    }

    /// Facts across every job instance (run metadata).
    pub fn facts(&self) -> usize {
        [
            &self.val_db,
            &self.comp_db,
            &self.band_db,
            &self.kl_db,
            &self.est_db,
        ]
        .iter()
        .map(|db| db.fact_count())
        .sum()
    }
}

/// One operation of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Val,
    Comp,
    Page,
    /// Karp–Luby on even cycles, the completion estimator on odd ones.
    Approx {
        karp_luby: bool,
    },
}

/// The `k`-th operation: cycles of `#Val`, `#Comp`, `pages_per_cycle`
/// page fills and one sampler job.
fn op(k: usize, s: &Sizes) -> Op {
    let len = 3 + s.pages_per_cycle;
    match k % len {
        0 => Op::Val,
        1 => Op::Comp,
        i if i == len - 1 => Op::Approx {
            karp_luby: (k / len).is_multiple_of(2),
        },
        _ => Op::Page,
    }
}

/// Per-layer counters that spans alone do not carry.
#[derive(Debug, Default)]
struct JobCounts {
    comp_jobs: u64,
    shard_walks: u64,
    evictions: u64,
    peak_resident: u64,
    approx_samples: u64,
    approx_jobs: u64,
}

/// The workload's state across operations: the instances, the ongoing
/// band drain and the seed the samplers draw from.
struct Runner<'a> {
    inst: &'a Instances,
    drain: Option<CompletionStream<'a, Tautology>>,
    drained: u128,
    seed: u64,
}

impl<'a> Runner<'a> {
    fn new(inst: &'a Instances, seed: u64) -> Self {
        Runner {
            inst,
            drain: None,
            drained: 0,
            seed,
        }
    }

    /// Pulls one page of keys from the drain through `timed`, and checks
    /// it: a full page may not overshoot the expected total, a short one
    /// ends the drain, which must then have yielded exactly that total (the
    /// next fill reopens it).
    fn fill(&mut self, mut timed: impl FnMut(&mut dyn FnMut() -> usize) -> usize) -> bool {
        let inst = self.inst;
        let page = inst.sizes.page;
        let stream = self.drain.get_or_insert_with(|| {
            CompletionStream::new(&inst.band_db, &Tautology, page).expect("band instance is valid")
        });
        let pulled = timed(&mut || {
            (0..page)
                .map_while(|_| stream.next_key().map(|_| ()))
                .count()
        });
        self.drained += pulled as u128;
        if pulled == page {
            return self.drained <= inst.band_exact;
        }
        let ok = self.drained == inst.band_exact;
        self.drain = None;
        self.drained = 0;
        ok
    }

    fn rng(&self, k: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ k as u64)
    }

    /// Runs operation `k` untraced; returns its kind and whether its answer
    /// was right.
    fn run(&mut self, k: usize) -> (Kind, bool) {
        let inst = self.inst;
        match op(k, &inst.sizes) {
            Op::Val => {
                let got = count_valuations(&inst.val_db, &inst.val_q).expect("#Val job runs");
                (Kind::Val, got.value.to_u128() == Some(inst.val_exact))
            }
            Op::Comp => {
                let got = incdb_stream::solver::count_completions(
                    &inst.comp_db,
                    &inst.comp_q,
                    &StreamOptions::with_budget(BUDGET),
                )
                .expect("#Comp job runs");
                (Kind::Comp, got.value.to_u128() == Some(inst.comp_exact))
            }
            Op::Page => (Kind::Page, self.fill(|pull| pull())),
            Op::Approx { karp_luby } => {
                let mut rng = self.rng(k);
                let ok = if karp_luby {
                    let est = karp_luby_valuations(&inst.kl_db, &inst.kl_q, EPSILON, &mut rng)
                        .expect("Karp–Luby job runs");
                    inst.karp_luby_ok(&est)
                } else {
                    let est = completion_estimator(
                        &inst.est_db,
                        &inst.est_q,
                        inst.sizes.est_samples,
                        &mut rng,
                    )
                    .expect("estimator job runs");
                    inst.estimator_ok(&est)
                };
                (Kind::Approx, ok)
            }
        }
    }

    /// Runs operation `k` through the public sub-calls its job makes, each
    /// in a span under a root span for the operation.
    fn run_traced(&mut self, k: usize, t: &mut Tracer, counts: &mut JobCounts) -> (Kind, bool) {
        let inst = self.inst;
        let id = k as u64;
        match op(k, &inst.sizes) {
            Op::Val => {
                let root = t.enter("offline.val", id);
                t.time("data.validate", id, || inst.val_db.validate())
                    .expect("#Val instance is valid");
                let engine = BacktrackingEngine::default();
                let mut session = t
                    .time("core.session_build", id, || {
                        engine.session(&inst.val_db, &inst.val_q)
                    })
                    .expect("#Val session builds");
                let got = t.time("core.walk", id, || session.count());
                t.exit(root);
                probe_build(t, id, &inst.val_db, &inst.val_q);
                (Kind::Val, got.to_u128() == Some(inst.val_exact))
            }
            Op::Comp => {
                let root = t.enter("offline.comp", id);
                t.time("data.validate", id, || inst.comp_db.validate())
                    .expect("#Comp instance is valid");
                let closed = t
                    .time("core.closed_form", id, || {
                        completion_closed_form(&inst.comp_db, Some(&inst.comp_q))
                    })
                    .expect("closed-form routing runs");
                let sharded = t
                    .time("stream.sharded_count", id, || {
                        count_completions_budgeted(&inst.comp_db, &inst.comp_q, BUDGET, 1)
                    })
                    .expect("#Comp job runs");
                t.exit(root);
                probe_build(t, id, &inst.comp_db, &inst.comp_q);
                counts.comp_jobs += 1;
                counts.shard_walks += sharded.passes as u64;
                counts.evictions += sharded.evictions as u64;
                counts.peak_resident = counts
                    .peak_resident
                    .max(sharded.peak_resident_fingerprints as u64);
                let ok = closed.is_none() && sharded.count.to_u128() == Some(inst.comp_exact);
                (Kind::Comp, ok)
            }
            Op::Page => {
                let root = t.enter("offline.page", id);
                let ok = self.fill(|pull| t.time("stream.page_fill", id, pull));
                t.exit(root);
                (Kind::Page, ok)
            }
            Op::Approx { karp_luby } => {
                let mut rng = self.rng(k);
                let root = t.enter("offline.approx", id);
                let (ok, samples) = if karp_luby {
                    let est = t
                        .time("approx.karp_luby", id, || {
                            karp_luby_valuations(&inst.kl_db, &inst.kl_q, EPSILON, &mut rng)
                        })
                        .expect("Karp–Luby job runs");
                    (inst.karp_luby_ok(&est), est.samples)
                } else {
                    let est = t
                        .time("approx.estimator", id, || {
                            completion_estimator(
                                &inst.est_db,
                                &inst.est_q,
                                inst.sizes.est_samples,
                                &mut rng,
                            )
                        })
                        .expect("estimator job runs");
                    (inst.estimator_ok(&est), est.samples)
                };
                t.exit(root);
                counts.approx_jobs += 1;
                counts.approx_samples += samples as u64;
                (Kind::Approx, ok)
            }
        }
    }
}

/// The two halves of a session build, timed on their own after the job
/// (outside its root span, so they do not count as job time): the
/// grounding construction and the residual compilation.
fn probe_build(t: &mut Tracer, id: u64, db: &IncompleteDatabase, q: &Bcq) {
    let g = t
        .time("data.grounding_build", id, || db.try_grounding())
        .expect("job instance is valid");
    let state = t.time("query.residual_compile", id, || q.residual_state(&g));
    drop(state);
}

/// Builds the instances and runs one warm-up cycle.
fn setup(scale: Scale, seed: u64) -> (Instances, Ledger) {
    let inst = Instances::build(scale);
    let mut ledger = Ledger::default();
    {
        let mut runner = Runner::new(&inst, seed);
        for k in 0..3 + inst.sizes.pages_per_cycle {
            if !runner.run(k).1 {
                ledger.fail();
            }
        }
    }
    (inst, ledger)
}

/// Runs the workload under `cfg`. The untraced timed phase alternates with
/// set-up, [`SETUPS`] times, so the set-up times sample the host across the
/// whole run; the operation sequence runs on across the chunks. With
/// `cfg.trace`, one set-up and half the time go to the untraced phase and
/// the rest to a traced replay of the same operations.
pub fn run(cfg: &RunConfig) -> Run {
    let (chunks, seconds) = if cfg.trace {
        (1, cfg.seconds / 2.0)
    } else {
        (SETUPS, cfg.seconds)
    };
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let (mut rounds_done, mut round_s) = (0u32, 0.0f64);
    let mut ops = 0usize;
    let mut op_ms = 0.0f64;
    let mut last = None;
    for _ in 0..chunks {
        drop(last.take());
        // Set-up time, scaled to the reference host speed like every
        // timed figure.
        let slowdown = calibration_kernel_ms() / REF_KERNEL_MS;
        let started = Instant::now();
        let (inst, checks) = setup(cfg.scale, cfg.seed);
        setup_s.push(started.elapsed().as_secs_f64() / slowdown);
        ledger.merge(checks);
        let rounds = Rounds::start(seconds / chunks as f64, rounds_done);
        (rounds_done, round_s) = (rounds.end(), rounds.len_s());
        let mut runner = Runner::new(&inst, cfg.seed);
        let peaks = thread::scope(|s| {
            let rss = s.spawn(|| rounds.watch_peak_rss());
            let mut round = None;
            while !rounds.over() {
                let now = rounds.of(Instant::now());
                if round != Some(now) {
                    round = Some(now);
                    ledger.calibrate(now);
                }
                let began = Instant::now();
                let (kind, ok) = runner.run(ops);
                let took = began.elapsed();
                op_ms += took.as_secs_f64() * 1e3;
                ledger.record(kind, rounds.of(began), took, ok);
                ops += 1;
            }
            rss.join().expect("RSS watcher panicked")
        });
        peak_rss_mb.extend(peaks);
        drop(runner);
        last = Some(inst);
    }
    let inst = last.expect("at least one set-up ran");

    let mut layers = BTreeMap::new();
    let mut spans = Vec::new();
    if cfg.trace {
        let (replayed, traced, replay_layers) = replay(&inst, cfg.seed, ops, op_ms);
        ledger.merge(replayed);
        layers = replay_layers;
        spans.push(traced);
    }
    Run {
        ledger,
        setup_s,
        rounds: rounds_done,
        round_s,
        peak_rss_mb,
        clients: 1,
        workers: 0,
        facts: inst.facts(),
        layers,
        spans,
    }
}

/// The traced replay of operations `0..ops` from a fresh drain, against
/// the untraced phase's `op_ms` total. Returns the replay's answer checks,
/// its spans and the per-layer metrics.
fn replay(
    inst: &Instances,
    seed: u64,
    ops: usize,
    op_ms: f64,
) -> (Ledger, Vec<Span>, BTreeMap<&'static str, f64>) {
    let mut runner = Runner::new(inst, seed);
    let mut t = Tracer::new(Instant::now());
    let mut counts = JobCounts::default();
    let mut ledger = Ledger::default();
    for k in 0..ops {
        let began = Instant::now();
        let (kind, ok) = runner.run_traced(k, &mut t, &mut counts);
        ledger.record(kind, 0, began.elapsed(), ok);
    }
    let spans = t.into_spans();
    let mut aggs: BTreeMap<&'static str, Agg> = BTreeMap::new();
    aggregate(&spans, &mut aggs);
    let total_ns = |names: &[&str]| -> u64 {
        names
            .iter()
            .filter_map(|name| aggs.get(name))
            .map(|a| a.total_ns)
            .sum()
    };
    let op_ns = total_ns(&[
        "offline.val",
        "offline.comp",
        "offline.page",
        "offline.approx",
    ]);
    let approx_ns = total_ns(&["approx.karp_luby", "approx.estimator"]);
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let mut layers = layer_map(&aggs);
    layers.insert(
        "stream.shard_walks",
        per(counts.shard_walks, counts.comp_jobs),
    );
    layers.insert("stream.evictions", per(counts.evictions, counts.comp_jobs));
    layers.insert("stream.peak_resident", counts.peak_resident as f64);
    layers.insert(
        "approx.samples",
        per(counts.approx_samples, counts.approx_jobs),
    );
    layers.insert(
        "approx.ns_per_sample",
        per(approx_ns, counts.approx_samples),
    );
    let untraced_mean_ms = op_ms / ops.max(1) as f64;
    let traced_mean_ms = op_ns as f64 / 1e6 / ops.max(1) as f64;
    layers.insert(
        "trace.overhead_share",
        traced_mean_ms / untraced_mean_ms - 1.0,
    );
    (ledger, spans, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_known_values() {
        // 10-cycle over 3 values: 3^10 − (2^10 + 2).
        assert_eq!(self_loop_valuations(10, 3), 58_023);
        assert_eq!(self_loop_valuations(3, 2), 8);
        // Σ_{k=1..6} C(9, k).
        assert_eq!(codd_binary_completions(6, 3), 465);
        assert_eq!(codd_binary_completions(1, 2), 4);
    }

    #[test]
    fn the_cycle_visits_every_job() {
        let s = sizes(Scale::Full);
        let ops: Vec<Op> = (0..2 * (3 + s.pages_per_cycle))
            .map(|k| op(k, &s))
            .collect();
        assert_eq!(ops[0], Op::Val);
        assert_eq!(ops[1], Op::Comp);
        assert!(ops.contains(&Op::Page));
        assert!(ops.contains(&Op::Approx { karp_luby: true }));
        assert!(ops.contains(&Op::Approx { karp_luby: false }));
    }
}
