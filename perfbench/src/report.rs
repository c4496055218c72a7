//! Latency ledgers, percentiles and the JSON lines the benchmark prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The operation kinds latency is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `#Val` jobs.
    Val,
    /// Serve `Count` requests and `#Comp` jobs.
    Comp,
    /// `Page` and `CursorResume` replies, and offline page fills.
    Page,
    /// Serve `Write` requests.
    Write,
    /// Sampler jobs.
    Approx,
}

impl Kind {
    pub const ALL: [Kind; 5] = [Kind::Val, Kind::Comp, Kind::Page, Kind::Write, Kind::Approx];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Val => "val",
            Kind::Comp => "comp",
            Kind::Page => "page",
            Kind::Write => "write",
            Kind::Approx => "approx",
        }
    }
}

/// A p95 is reported only over at least this many samples, so that ten
/// samples lie beyond it.
pub const MIN_P95_SAMPLES: usize = 200;

/// Per-kind latency samples, each tagged with the round it started in,
/// the calibration-kernel times each client took at the start of each
/// round, and the attempted/failed tally of one client (or, after
/// [`Ledger::merge`], of a whole run).
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    samples: [Vec<(u32, f64)>; 5],
    kernel_ms: Vec<(u32, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Records one operation of `kind` that started in `round` and took
    /// `took`; `ok` is whether its answer matched the expected one.
    pub fn record(&mut self, kind: Kind, round: u32, took: Duration, ok: bool) {
        self.samples[kind as usize].push((round, took.as_secs_f64() * 1e3));
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Times the calibration kernel for `round` (call once per client as
    /// it enters the round).
    pub fn calibrate(&mut self, round: u32) {
        self.kernel_ms.push((round, calibration_kernel_ms()));
    }

    /// Records a failed check outside the timed operations (set-up).
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Ledger) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        self.kernel_ms.extend(other.kernel_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Timed operations of every kind.
    pub fn operations(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.samples[kind as usize].len()
    }

    fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.samples[kind as usize]
            .iter()
            .map(|&(_, ms)| ms)
            .collect()
    }

    /// The `q`-quantile (nearest rank) of all of `kind`'s latencies in ms,
    /// `None` without samples.
    pub fn quantile(&self, kind: Kind, q: f64) -> Option<f64> {
        quantile(&self.latencies(kind), q)
    }

    /// Per round, how much slower the host ran than the reference: the
    /// median calibration-kernel time over [`REF_KERNEL_MS`] (`None` for
    /// rounds nobody calibrated in).
    fn slowdowns(&self, rounds: u32) -> Vec<Option<f64>> {
        let mut per_round = vec![Vec::new(); rounds as usize];
        for &(round, ms) in &self.kernel_ms {
            if let Some(r) = per_round.get_mut(round as usize) {
                r.push(ms);
            }
        }
        per_round
            .iter()
            .map(|k| (!k.is_empty()).then(|| median(k) / REF_KERNEL_MS))
            .collect()
    }

    /// The `q`-quantile of `kind`'s latencies, each first scaled to the
    /// reference host speed by the slowdown of the round it started in.
    /// Samples of rounds nobody calibrated in are skipped.
    pub fn scaled_quantile(&self, kind: Kind, q: f64, rounds: u32) -> Option<f64> {
        let slowdowns = self.slowdowns(rounds);
        let scaled: Vec<f64> = self.samples[kind as usize]
            .iter()
            .filter_map(|&(round, ms)| Some(ms / (*slowdowns.get(round as usize)?)?))
            .collect();
        quantile(&scaled, q)
    }

    /// The median slowdown over the rounds (run metadata).
    pub fn median_slowdown(&self, rounds: u32) -> f64 {
        let known: Vec<f64> = self.slowdowns(rounds).into_iter().flatten().collect();
        median(&known)
    }

    /// Operations started per second in each round of `round_s` seconds,
    /// scaled to the reference host speed by that round's slowdown; the
    /// median over the rounds.
    pub fn round_throughput(&self, rounds: u32, round_s: f64) -> f64 {
        let mut started = vec![0usize; rounds as usize];
        for &(round, _) in self.samples.iter().flatten() {
            if let Some(n) = started.get_mut(round as usize) {
                *n += 1;
            }
        }
        let scaled: Vec<f64> = started
            .iter()
            .zip(self.slowdowns(rounds))
            .filter_map(|(&n, slowdown)| Some(n as f64 / round_s * slowdown?))
            .collect();
        median(&scaled)
    }

    /// `failed / attempted`, `0` when nothing was attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The per-kind breakdown for the detail line: sample count, p50, and
    /// p95 when there are enough samples for it.
    pub fn kinds_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for kind in Kind::ALL {
            let n = self.count(kind);
            if n == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{}\": {{\"samples\": {n}", kind.name());
            if let Some(p50) = self.quantile(kind, 0.50) {
                let _ = write!(out, ", \"p50_ms\": {}", num(p50));
            }
            if n >= MIN_P95_SAMPLES {
                if let Some(p95) = self.quantile(kind, 0.95) {
                    let _ = write!(out, ", \"p95_ms\": {}", num(p95));
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Length of one round of an untraced timed phase, in seconds.
pub const ROUND_S: f64 = 1.0;

/// The calibration kernel's time on the reference host, in ms: the
/// speed every scaled figure is expressed at. (About what one otherwise
/// idle thread of the two-core host the benchmark was built on takes.)
pub const REF_KERNEL_MS: f64 = 0.25;

/// A fixed piece of allocation-heavy, pointer-chasing work, timed (best of
/// three) in ms. The hosts this runs on share cores with other machines
/// and drift between fast and slow states — down to about half speed —
/// for seconds to minutes at a time, so whole runs of the same code differ
/// by a third. Every client times this kernel as it enters a round, and
/// the round's figures are scaled by how much slower than
/// [`REF_KERNEL_MS`] it ran, which cancels the host's state and keeps the
/// program's own cost.
pub fn calibration_kernel_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut cells: Vec<Vec<u64>> = (0..4096u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                vec![x, i]
            })
            .collect();
        cells.sort_unstable();
        let folded = cells
            .iter()
            .fold(0u64, |acc, c| acc ^ c[0].wrapping_add(c[1]));
        std::hint::black_box(folded);
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One chunk of the timed phase, cut into equal rounds numbered on from
/// the chunks before it. Every end-to-end figure is computed per round,
/// scaled by the round's calibration ([`calibration_kernel_ms`]), and
/// summarised over all rounds by the median.
#[derive(Debug, Clone, Copy)]
pub struct Rounds {
    start: Instant,
    len: Duration,
    first: u32,
    count: u32,
}

impl Rounds {
    /// Rounds of about [`ROUND_S`] filling `seconds`, starting now and
    /// numbered from `first`.
    pub fn start(seconds: f64, first: u32) -> Rounds {
        let count = (seconds / ROUND_S).round().max(1.0) as u32;
        Rounds {
            start: Instant::now(),
            len: Duration::from_secs_f64(seconds / f64::from(count)),
            first,
            count,
        }
    }

    /// The round an operation starting at `at` belongs to.
    pub fn of(&self, at: Instant) -> u32 {
        self.first + (at.duration_since(self.start).as_nanos() / self.len.as_nanos().max(1)) as u32
    }

    /// Whether the last round has ended.
    pub fn over(&self) -> bool {
        self.start.elapsed() >= self.len * self.count
    }

    /// The number the next chunk's first round takes.
    pub fn end(&self) -> u32 {
        self.first + self.count
    }

    pub fn len_s(&self) -> f64 {
        self.len.as_secs_f64()
    }

    /// Samples the process's peak resident set once per round in MiB,
    /// resetting the high-water mark at every round start. Blocks for the
    /// whole chunk: run it on a thread of its own beside the workload.
    pub fn watch_peak_rss(&self) -> Vec<f64> {
        let mut peaks = Vec::new();
        for r in 1..=self.count {
            reset_peak_rss();
            let end = self.start + self.len * r;
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            peaks.push(peak_rss_mb());
        }
        peaks
    }
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// A JSON number: finite values as Rust prints them (shortest round-trip
/// form, never exponent notation), non-finite ones as `0`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal (the benchmark only emits plain ASCII names, but
/// quotes and backslashes are escaped all the same).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit, in the order given.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            num(*value),
            string(unit)
        );
    }
    out.push_str("}}");
    out
}

/// Resets the process's `VmHWM` to its current resident set (Linux
/// `clear_refs` mode 5); without it the peak simply keeps growing.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MiB, `0` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was taken from, read from `.git` in the working
/// directory without leaving it; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(100.0));
        assert_eq!(quantile(&xs, 0.95), Some(190.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_line(true, 0, 0, &[("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
    }
}
