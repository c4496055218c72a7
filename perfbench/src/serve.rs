//! The `serve_read` and `serve_write` workloads: closed-loop clients that
//! each submit one request per `ServeNode::serve_with_workers(vec![req], 1)`
//! call and time the call itself.
//!
//! Both run on `wide_ground_cycle(2, 2, 30_000)` with `T` declared and the
//! catalog hot `R(x,x)` (under two spellings), cold `R(x,y)` and the
//! root-refuted `R(x,x), T(x)`, for the tenants `bulk` and `metered`
//! (fingerprint budget 2). Every request is drawn from the workload seed;
//! every reply is compared with an answer computed at set-up through a
//! different path (engine counts and `CompletionStream` pages).

use std::collections::BTreeMap;
use std::thread;
use std::time::Instant;

use incdb_bignum::BigNat;
use incdb_core::engine::{BacktrackingEngine, CountingEngine};
use incdb_data::{CompletionKey, IncompleteDatabase, PageHeap, Value};
use incdb_query::Bcq;
use incdb_serve::{Outcome, Request, ServeNode, Tenant};
use incdb_stream::{CompletionStream, Cursor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replay::{ReplayCounts, Replica};
use crate::report::{calibration_kernel_ms, Kind, Ledger, Rounds, REF_KERNEL_MS};
use crate::trace::{aggregate, layer_map, Agg, Span, Tracer};
use crate::{available_parallelism, Run, RunConfig, Scale};

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only: about 60% hot queries; `Count`, `Page(4)` and
    /// `CursorResume(4)` in equal shares.
    Read,
    /// One write for every four reads; reads are mostly `Count`s on the
    /// refuted key.
    Write,
}

/// The prepared-query catalog, by index: two spellings of the hot key, the
/// cold key, the root-refuted key.
pub const QUERIES: [&str; 4] = ["R(x,x)", "R(y,y)", "R(x,y)", "R(x,x), T(x)"];
const COLD: usize = 2;
const REFUTED: usize = 3;
/// Page size of `Page` and `CursorResume` requests.
const PAGE: usize = 4;
/// Client threads (capped at the host's parallelism).
pub const CLIENTS: usize = 2;
/// `ServeNode` workers per call.
pub const WORKERS: usize = 1;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// One write in this many is structural (a new relation): a delta-log
/// barrier that sends every shelf through the rebuild path.
const STRUCTURAL_EVERY: u64 = 256;

pub fn catalog() -> Vec<Bcq> {
    QUERIES
        .iter()
        .map(|q| q.parse().expect("catalog queries parse"))
        .collect()
}

pub fn tenants() -> Vec<Tenant> {
    vec![
        Tenant::new("bulk", 8),
        Tenant::new("metered", 8).with_budget(2),
    ]
}

/// Ground facts of the serve table.
pub fn ground_facts(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 30_000,
        Scale::Tiny => 300,
    }
}

/// The serve database: a two-null `R(x,x)` cycle over `{0, 1}` inside a
/// wide ground table, plus the empty relation `T` the refuted query needs.
pub fn database(scale: Scale) -> IncompleteDatabase {
    let mut db = incdb_bench::wide_ground_cycle(2, 2, ground_facts(scale));
    db.declare_relation("T");
    db
}

/// What a request is, kept after the request itself is consumed.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Count { query: usize },
    Page { query: usize, tenant: usize },
    Resume { query: usize, tenant: usize },
    Write,
}

impl Shape {
    fn of(request: &Request) -> Shape {
        match *request {
            Request::Count { query, .. } => Shape::Count { query },
            Request::Page { query, tenant, .. } => Shape::Page { query, tenant },
            Request::CursorResume { query, tenant, .. } => Shape::Resume { query, tenant },
            Request::Write { .. } => Shape::Write,
        }
    }

    fn kind(self) -> Kind {
        match self {
            Shape::Count { .. } => Kind::Comp,
            Shape::Page { .. } | Shape::Resume { .. } => Kind::Page,
            Shape::Write => Kind::Write,
        }
    }
}

/// The answers every reply is checked against, computed at set-up through
/// paths the serve layer does not take: the engine's in-memory count and
/// `CompletionStream` pages. Writes only add non-self-loop `R` facts and
/// facts of new relations, which change neither the counts nor the refuted
/// key's (empty) pages; `serve_write` pages only that key.
pub struct Expected {
    counts: Vec<BigNat>,
    /// `[query][tenant]`: the continuation cursor after the first key.
    pub cursors: Vec<Vec<String>>,
    /// `[query][tenant]`: the reply to `Page(4)`.
    first: Vec<Vec<Outcome>>,
    /// `[query][tenant]`: the reply to `CursorResume(4)` from `cursors`.
    resumed: Vec<Vec<Outcome>>,
}

/// A page of `page` keys after `cursor`, as the node would reply it.
fn stream_page(db: &IncompleteDatabase, q: &Bcq, page: usize, cursor: Cursor) -> Outcome {
    let mut stream =
        CompletionStream::resume(db, q, page, cursor.clone()).expect("serve instance is valid");
    let keys: Vec<CompletionKey> = (0..page)
        .map_while(|_| stream.next_key().cloned())
        .collect();
    let next = keys.last().map_or(cursor, |k| Cursor::after(k.clone()));
    Outcome::Page {
        exhausted: keys.len() < page,
        keys,
        cursor: next.encode(),
    }
}

impl Expected {
    pub fn compute(db: &IncompleteDatabase, queries: &[Bcq], tenants: &[Tenant]) -> Expected {
        let engine = BacktrackingEngine::sequential();
        let counts = queries
            .iter()
            .map(|q| {
                engine
                    .count_completions(db, q)
                    .expect("serve instance is valid")
            })
            .collect();
        let mut cursors = Vec::new();
        let mut first = Vec::new();
        let mut resumed = Vec::new();
        for q in queries {
            let mut c = Vec::new();
            let mut f = Vec::new();
            let mut r = Vec::new();
            for t in tenants {
                let after_first = match stream_page(db, q, 1, Cursor::start()) {
                    Outcome::Page { cursor, .. } => cursor,
                    other => unreachable!("stream_page returns pages, got {other:?}"),
                };
                let page = t.clamp_page(PAGE);
                f.push(stream_page(db, q, page, Cursor::start()));
                let resume_from = Cursor::decode(&after_first).expect("own cursor decodes");
                r.push(stream_page(db, q, page, resume_from));
                c.push(after_first);
            }
            cursors.push(c);
            first.push(f);
            resumed.push(r);
        }
        Expected {
            counts,
            cursors,
            first,
            resumed,
        }
    }

    /// Whether `outcome` is the right answer to a request of `shape`;
    /// write revisions must grow along one client's writes.
    fn check(&self, shape: Shape, outcome: &Outcome, last_revision: &mut u64) -> bool {
        match (shape, outcome) {
            (Shape::Count { query }, Outcome::Count(n)) => *n == self.counts[query],
            (Shape::Page { query, tenant }, page @ Outcome::Page { .. }) => {
                *page == self.first[query][tenant]
            }
            (Shape::Resume { query, tenant }, page @ Outcome::Page { .. }) => {
                *page == self.resumed[query][tenant]
            }
            (Shape::Write, Outcome::Wrote { revision }) => {
                let grew = *revision > *last_revision;
                *last_revision = *revision;
                grew
            }
            _ => false,
        }
    }
}

/// One client's seeded request stream.
pub struct RequestGen {
    workload: Workload,
    rng: StdRng,
    cursors: Vec<Vec<String>>,
    /// Constants of this client's next inserted fact.
    next_write: u64,
    writes: u64,
    client: usize,
}

impl RequestGen {
    pub fn new(workload: Workload, seed: u64, client: usize, cursors: &[Vec<String>]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9 * (client as u64 + 1)));
        // Fresh constants far above the table's (which stay below 10^6),
        // disjoint between clients, offset by the seed.
        let next_write =
            1_000_000_000 * (client as u64 + 1) + 2 * rng.random_range(0..1_000_000u64);
        RequestGen {
            workload,
            rng,
            cursors: cursors.to_vec(),
            next_write,
            writes: 0,
            client,
        }
    }

    fn hot(&mut self) -> usize {
        self.rng.random_range(0..2usize)
    }

    pub fn next_request(&mut self) -> Request {
        let tenant = self.rng.random_range(0..2usize);
        match self.workload {
            Workload::Read => {
                let query = match self.rng.random_range(0..10u32) {
                    0..=5 => self.hot(),
                    6 | 7 => COLD,
                    _ => REFUTED,
                };
                match self.rng.random_range(0..3u32) {
                    0 => Request::Count { tenant, query },
                    1 => Request::Page {
                        tenant,
                        query,
                        page_size: PAGE,
                    },
                    _ => Request::CursorResume {
                        tenant,
                        query,
                        page_size: PAGE,
                        cursor: self.cursors[query][tenant].clone(),
                    },
                }
            }
            Workload::Write => {
                if self.rng.random_range(0..5u32) == 0 {
                    return self.write();
                }
                match self.rng.random_range(0..100u32) {
                    0..=74 => Request::Count {
                        tenant,
                        query: REFUTED,
                    },
                    75..=84 => Request::Page {
                        tenant,
                        query: REFUTED,
                        page_size: PAGE,
                    },
                    _ => Request::Count {
                        tenant,
                        query: self.hot(),
                    },
                }
            }
        }
    }

    fn write(&mut self) -> Request {
        self.writes += 1;
        let c = self.next_write;
        self.next_write += 2;
        if self.writes.is_multiple_of(STRUCTURAL_EVERY) {
            Request::Write {
                relation: format!("W{}_{}", self.client, self.writes),
                fact: vec![Value::constant(c)],
            }
        } else {
            Request::Write {
                relation: "R".to_string(),
                fact: vec![Value::constant(c), Value::constant(c + 1)],
            }
        }
    }
}

/// The closed loop of one client: draw, serve, time, check — until `stop`
/// says so (given the number of requests served so far). `round_of` tags
/// each sample with the round it started in; the client times the
/// calibration kernel as it enters each round.
fn drive(
    client: usize,
    gen: &mut RequestGen,
    expected: &Expected,
    stop: impl Fn(usize) -> bool,
    round_of: impl Fn(Instant) -> u32,
    mut serve: impl FnMut(u64, Request) -> Outcome,
) -> Ledger {
    let mut ledger = Ledger::default();
    let mut last_revision = 0u64;
    let mut served = 0usize;
    let mut round = None;
    while !stop(served) {
        let now = round_of(Instant::now());
        if round != Some(now) {
            round = Some(now);
            ledger.calibrate(now);
        }
        let request = gen.next_request();
        let shape = Shape::of(&request);
        let id = ((client as u64) << 40) | served as u64;
        let started = Instant::now();
        let outcome = serve(id, request);
        let took = started.elapsed();
        let ok = expected.check(shape, &outcome, &mut last_revision);
        ledger.record(shape.kind(), round_of(started), took, ok);
        served += 1;
    }
    ledger
}

/// The requests of one warm-up pass: every (query, tenant) of the
/// workload's read mix once per read kind, so the pool shelves the
/// sessions the timed phase will pop.
fn warmup_requests(workload: Workload, cursors: &[Vec<String>]) -> Vec<Request> {
    let mut out = Vec::new();
    for (query, per_tenant) in cursors.iter().enumerate() {
        for (tenant, cursor) in per_tenant.iter().enumerate() {
            out.push(Request::Count { tenant, query });
            if workload == Workload::Read {
                out.push(Request::Page {
                    tenant,
                    query,
                    page_size: PAGE,
                });
                out.push(Request::CursorResume {
                    tenant,
                    query,
                    page_size: PAGE,
                    cursor: cursor.clone(),
                });
            } else if query == REFUTED {
                out.push(Request::Page {
                    tenant,
                    query,
                    page_size: PAGE,
                });
            }
        }
    }
    out
}

/// Builds the node, mints one continuation cursor per (query, tenant) and
/// runs the warm-up pass. Returns the node and the set-up answers that
/// disagreed with `expected`, as failures.
fn setup<'q>(
    workload: Workload,
    scale: Scale,
    queries: &'q [Bcq],
    expected: &Expected,
    clients: usize,
) -> (ServeNode<'q, Bcq>, Ledger) {
    let mut checks = Ledger::default();
    let node = ServeNode::new(database(scale), queries.iter().collect(), tenants());
    for (query, expected_cursors) in expected.cursors.iter().enumerate() {
        for (tenant, want) in expected_cursors.iter().enumerate() {
            let mint = Request::Page {
                tenant,
                query,
                page_size: 1,
            };
            let reply = node.serve_with_workers(vec![mint], WORKERS).remove(0);
            if !matches!(reply.outcome, Outcome::Page { cursor, .. } if cursor == *want) {
                checks.fail();
            }
        }
    }
    let warmup = warmup_requests(workload, &expected.cursors);
    let shapes: Vec<Shape> = warmup.iter().map(Shape::of).collect();
    let mut last_revision = 0;
    for (reply, shape) in node.serve_with_workers(warmup, clients).iter().zip(shapes) {
        if !expected.check(shape, &reply.outcome, &mut last_revision) {
            checks.fail();
        }
    }
    (node, checks)
}

/// What one chunk of the timed phase measured.
struct Chunk {
    ledgers: Vec<Ledger>,
    peak_rss_mb: Vec<f64>,
    /// `RequestMetrics` sums: service time, and checkout plus walk time.
    service_ns: u64,
    attributed_ns: u64,
}

/// Every client runs its closed loop against `node` until the chunk's last
/// round ends, continuing its own request stream.
fn timed_chunk(
    node: &ServeNode<'_, Bcq>,
    expected: &Expected,
    gens: &mut [RequestGen],
    rounds: Rounds,
) -> Chunk {
    thread::scope(|s| {
        let rss = s.spawn(|| rounds.watch_peak_rss());
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(client, gen)| {
                s.spawn(move || {
                    let (mut service, mut attributed) = (0u64, 0u64);
                    let ledger = drive(
                        client,
                        gen,
                        expected,
                        |_| rounds.over(),
                        |at| rounds.of(at),
                        |_, request| {
                            let reply = node.serve_with_workers(vec![request], WORKERS).remove(0);
                            service += reply.metrics.service_ns;
                            attributed += reply.metrics.checkout_ns + reply.metrics.walk_ns;
                            reply.outcome
                        },
                    );
                    (ledger, service, attributed)
                })
            })
            .collect();
        let mut chunk = Chunk {
            ledgers: Vec::new(),
            peak_rss_mb: Vec::new(),
            service_ns: 0,
            attributed_ns: 0,
        };
        for handle in handles {
            let (ledger, service, attributed) = handle.join().expect("client thread panicked");
            chunk.ledgers.push(ledger);
            chunk.service_ns += service;
            chunk.attributed_ns += attributed;
        }
        chunk.peak_rss_mb = rss.join().expect("RSS watcher panicked");
        chunk
    })
}

/// Runs `workload` under `cfg`. The untraced timed phase alternates with
/// set-up: each of [`SETUPS`] fresh nodes serves its share of the phase,
/// so the set-up times sample the host across the whole run. With
/// `cfg.trace`, one set-up and half the time go to the untraced phase and
/// the rest to a traced replay of the same request sequence.
pub fn run(workload: Workload, cfg: &RunConfig) -> Run {
    let clients = CLIENTS.min(available_parallelism()).max(1);
    let queries = catalog();
    let expected = Expected::compute(&database(cfg.scale), &queries, &tenants());
    let (chunks, seconds) = if cfg.trace {
        (1, cfg.seconds / 2.0)
    } else {
        (SETUPS, cfg.seconds)
    };

    let mut gens: Vec<RequestGen> = (0..clients)
        .map(|client| RequestGen::new(workload, cfg.seed, client, &expected.cursors))
        .collect();
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let mut served = vec![0usize; clients];
    let (mut service_ns, mut attributed_ns) = (0u64, 0u64);
    let (mut rounds_done, mut round_s) = (0u32, 0.0f64);
    for _ in 0..chunks {
        // Set-up time, scaled to the reference host speed like every
        // timed figure.
        let slowdown = calibration_kernel_ms() / REF_KERNEL_MS;
        let started = Instant::now();
        let (node, checks) = setup(workload, cfg.scale, &queries, &expected, clients);
        setup_s.push(started.elapsed().as_secs_f64() / slowdown);
        ledger.merge(checks);
        let rounds = Rounds::start(seconds / chunks as f64, rounds_done);
        (rounds_done, round_s) = (rounds.end(), rounds.len_s());
        let chunk = timed_chunk(&node, &expected, &mut gens, rounds);
        for (n, l) in served.iter_mut().zip(chunk.ledgers) {
            *n += l.operations();
            ledger.merge(l);
        }
        peak_rss_mb.extend(chunk.peak_rss_mb);
        service_ns += chunk.service_ns;
        attributed_ns += chunk.attributed_ns;
    }

    let mut layers = BTreeMap::new();
    let mut spans = Vec::new();
    if cfg.trace {
        let untraced_mean_ms = service_ns as f64 / 1e6 / served.iter().sum::<usize>().max(1) as f64;
        let unattributed = if service_ns == 0 {
            0.0
        } else {
            1.0 - attributed_ns as f64 / service_ns as f64
        };
        let (replay_ledger, replay_spans, replay_layers) = replay(
            workload,
            cfg,
            &queries,
            &expected,
            &served,
            untraced_mean_ms,
            unattributed,
        );
        ledger.merge(replay_ledger);
        layers = replay_layers;
        spans = replay_spans;
    }
    Run {
        ledger,
        setup_s,
        rounds: rounds_done,
        round_s,
        peak_rss_mb,
        clients,
        workers: WORKERS,
        facts: ground_facts(cfg.scale) as usize,
        layers,
        spans,
    }
}

/// The traced replay: a fresh [`Replica`] set up like the node, then the
/// same per-client request sequences (`served[c]` requests each), every
/// layer call in a span. Returns the replay's answer checks, its spans and
/// the per-layer metrics.
fn replay(
    workload: Workload,
    cfg: &RunConfig,
    queries: &[Bcq],
    expected: &Expected,
    served: &[usize],
    untraced_mean_ms: f64,
    unattributed: f64,
) -> (Ledger, Vec<Vec<Span>>, BTreeMap<&'static str, f64>) {
    let epoch = Instant::now();
    let replica = Replica::new(database(cfg.scale), queries.iter().collect(), tenants());
    // The node's set-up, replayed: mint cursors, then the warm-up pass.
    let mut ledger = Ledger::default();
    {
        let mut t = Tracer::new(epoch);
        let mut heap = PageHeap::new();
        let mut counts = ReplayCounts::default();
        for (query, per_tenant) in expected.cursors.iter().enumerate() {
            for tenant in 0..per_tenant.len() {
                let mint = Request::Page {
                    tenant,
                    query,
                    page_size: 1,
                };
                replica.handle(0, mint, &mut heap, &mut t, &mut counts);
            }
        }
        let mut last_revision = 0;
        for request in warmup_requests(workload, &expected.cursors) {
            let shape = Shape::of(&request);
            let outcome = replica.handle(0, request, &mut heap, &mut t, &mut counts);
            if !expected.check(shape, &outcome, &mut last_revision) {
                ledger.fail();
            }
        }
    }
    let before = replica.pool().stats();

    let results: Vec<(Ledger, Vec<Span>, ReplayCounts)> = thread::scope(|s| {
        let handles: Vec<_> = served
            .iter()
            .enumerate()
            .map(|(client, &limit)| {
                let replica = &replica;
                s.spawn(move || {
                    let mut gen = RequestGen::new(workload, cfg.seed, client, &expected.cursors);
                    let mut t = Tracer::new(epoch);
                    let mut heap = PageHeap::new();
                    let mut counts = ReplayCounts::default();
                    let ledger = drive(
                        client,
                        &mut gen,
                        expected,
                        |n| n >= limit,
                        |_| 0,
                        |id, request| replica.handle(id, request, &mut heap, &mut t, &mut counts),
                    );
                    (ledger, t.into_spans(), counts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client panicked"))
            .collect()
    });
    let after = replica.pool().stats();

    let mut aggs: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut counts = ReplayCounts::default();
    let mut spans = Vec::new();
    for (l, s, c) in results {
        ledger.merge(l);
        aggregate(&s, &mut aggs);
        counts.merge(c);
        spans.push(s);
    }

    // Grounding builds of the serve table, timed on their own: the cost
    // every checkout build and set-up pays inside `check_out`.
    let db = database(cfg.scale);
    let mut probe = Tracer::new(epoch);
    for _ in 0..5 {
        let g = probe.time("data.grounding_build", 0, || db.try_grounding());
        drop(g.expect("serve instance is valid"));
    }
    let probe = probe.into_spans();
    aggregate(&probe, &mut aggs);
    spans.push(probe);

    let reused = after.reused - before.reused;
    let built = after.built - before.built;
    let requests = aggs.get("serve.request").copied().unwrap_or_default();
    let traced_mean_ms = requests.total_ns as f64 / 1e6 / requests.calls.max(1) as f64;
    let mut layers = layer_map(&aggs);
    layers.insert(
        "serve.pool_hit_rate",
        reused as f64 / (reused + built).max(1) as f64,
    );
    layers.insert("serve.maintain.patched", counts.maintain_patched as f64);
    layers.insert("serve.maintain.dropped", counts.maintain_dropped as f64);
    layers.insert("serve.unattributed_share", unattributed);
    layers.insert(
        "core.walks_per_count",
        counts.count_walks as f64 / counts.count_requests.max(1) as f64,
    );
    layers.insert(
        "stream.cursor_bytes",
        counts.cursor_bytes as f64 / counts.encodes.max(1) as f64,
    );
    layers.insert(
        "data.key_bytes",
        counts.key_bytes as f64 / counts.key_clones.max(1) as f64,
    );
    layers.insert(
        "trace.overhead_share",
        traced_mean_ms / untraced_mean_ms - 1.0,
    );
    (ledger, spans, layers)
}
