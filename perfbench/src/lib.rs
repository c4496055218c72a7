//! The repository benchmark (see `README.md` beside this crate).
//!
//! Three workloads drive the counting stack from outside, through the
//! public API of each layer:
//!
//! * [`serve::Workload::Read`] (`serve_read`) — a read-only closed loop
//!   against a [`incdb_serve::ServeNode`];
//! * [`serve::Workload::Write`] (`serve_write`) — the same front-end with
//!   one write for every four reads;
//! * `offline_count` ([`offline`]) — a fixed cycle of analytical `#Val`,
//!   `#Comp`, page-fill and sampler jobs with no serve layer.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) replays the same request sequence through the public
//! calls each layer exposes, with a span around every call ([`trace`]),
//! and reports the per-layer metrics.

use std::collections::BTreeMap;

pub mod offline;
pub mod replay;
pub mod report;
pub mod serve;
pub mod trace;

/// The end-to-end metrics of an untraced run, as `(name, unit)`, in the
/// order they are printed. `BENCHMARK.json` declares the same list.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("comp_p50_ms", "ms"),
    ("comp_p95_ms", "ms"),
    ("page_p50_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, as `(name, unit)`. Layers that a
/// workload does not exercise report `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.checkout_pop.calls", "count"),
    ("serve.checkout_pop.ms", "ms"),
    ("serve.checkout_patch.calls", "count"),
    ("serve.checkout_patch.ms", "ms"),
    ("serve.checkout_build.calls", "count"),
    ("serve.checkout_build.ms", "ms"),
    ("serve.pool_hit_rate", "share"),
    ("serve.checkin.ms", "ms"),
    ("serve.maintain.calls", "count"),
    ("serve.maintain.ms", "ms"),
    ("serve.maintain.patched", "count"),
    ("serve.maintain.dropped", "count"),
    ("serve.lock_wait.ms", "ms"),
    ("serve.unattributed_share", "share"),
    ("core.session_build.calls", "count"),
    ("core.session_build.ms", "ms"),
    ("core.walk.calls", "count"),
    ("core.walk.ms", "ms"),
    ("core.walks_per_count", "count"),
    ("stream.cursor_encode.ms", "ms"),
    ("stream.cursor_decode.ms", "ms"),
    ("stream.cursor_bytes", "bytes"),
    ("stream.page_fill.calls", "count"),
    ("stream.page_fill.ms", "ms"),
    ("stream.sharded_count.ms", "ms"),
    ("stream.shard_walks", "count"),
    ("stream.evictions", "count"),
    ("stream.peak_resident", "count"),
    ("data.grounding_build.ms", "ms"),
    ("data.key_clone.ms", "ms"),
    ("data.key_bytes", "bytes"),
    ("data.write.ms", "ms"),
    ("query.residual_compile.calls", "count"),
    ("query.residual_compile.ms", "ms"),
    ("approx.samples", "count"),
    ("approx.ns_per_sample", "ns"),
    ("trace.overhead_share", "share"),
];

/// Instance sizes: `Full` is what the benchmark measures, `Tiny` keeps
/// the self-tests fast while running every code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one invocation measured.
pub struct Run {
    /// Answer checks and latency samples (tagged with their round).
    pub ledger: report::Ledger,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// How many rounds the untraced timed phase had, and their length.
    pub rounds: u32,
    pub round_s: f64,
    /// Peak resident set of each round, MiB.
    pub peak_rss_mb: Vec<f64>,
    pub clients: usize,
    /// `ServeNode` workers per call (0 without a serve layer).
    pub workers: usize,
    /// Facts across the workload's tables.
    pub facts: usize,
    /// Per-layer metrics of a traced run, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of a traced run, one vector per recording thread.
    pub spans: Vec<Vec<trace::Span>>,
}

/// Worker threads the host offers; client threads are capped at this.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
