//! In-memory spans for the traced run.
//!
//! Each client thread owns a [`Tracer`]. A span covers one call into a
//! layer's public function, carries the id of the request or job it serves,
//! and points at the span that caused it. Spans stay in memory until the run
//! ends; then [`aggregate`] turns them into per-name call counts and self
//! times (a span's duration minus the time its child spans cover) and
//! [`write_jsonl`] writes them out.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The request or job the call served.
    pub req: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// across threads so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Renames a span once its outcome is known (a checkout is a pop, a
    /// patch or a build only after it returns).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id.0 as usize].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "every span must be closed");
        self.spans
    }
}

/// Calls and times of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per call in ms, `0` without calls.
    pub fn self_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Per-name aggregates over the spans of one tracer.
pub fn aggregate(spans: &[Span], into: &mut BTreeMap<&'static str, Agg>) {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration_ns();
        }
    }
    for (span, child_ns) in spans.iter().zip(covered) {
        let agg = into.entry(span.name).or_default();
        agg.calls += 1;
        agg.total_ns += span.duration_ns();
        agg.self_ns += span.duration_ns().saturating_sub(child_ns);
    }
}

/// Writes every span as one JSON object per line, prefixed by the index
/// of the thread that recorded it.
pub fn write_jsonl(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\": {thread}, \"span\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

/// The span-derived per-layer metrics shared by every workload — call
/// counts and mean self time per call — with every other per-layer metric
/// at 0 for the workload to fill in.
pub fn layer_map(aggs: &BTreeMap<&'static str, Agg>) -> BTreeMap<&'static str, f64> {
    let get = |span: &str| aggs.get(span).copied().unwrap_or_default();
    let mut out: BTreeMap<&'static str, f64> = crate::PER_LAYER
        .iter()
        .map(|&(name, _)| (name, 0.0))
        .collect();
    for (metric, span) in [
        ("serve.checkout_pop.calls", "serve.checkout_pop"),
        ("serve.checkout_patch.calls", "serve.checkout_patch"),
        ("serve.checkout_build.calls", "serve.checkout_build"),
        ("serve.maintain.calls", "serve.maintain"),
        ("core.session_build.calls", "core.session_build"),
        ("core.walk.calls", "core.walk"),
        ("stream.page_fill.calls", "stream.page_fill"),
        ("query.residual_compile.calls", "query.residual_compile"),
    ] {
        out.insert(metric, get(span).calls as f64);
    }
    for (metric, span) in [
        ("serve.checkout_pop.ms", "serve.checkout_pop"),
        ("serve.checkout_patch.ms", "serve.checkout_patch"),
        ("serve.checkout_build.ms", "serve.checkout_build"),
        ("serve.checkin.ms", "serve.checkin"),
        ("serve.maintain.ms", "serve.maintain"),
        ("serve.lock_wait.ms", "serve.lock_wait"),
        ("core.session_build.ms", "core.session_build"),
        ("core.walk.ms", "core.walk"),
        ("stream.cursor_encode.ms", "stream.cursor_encode"),
        ("stream.cursor_decode.ms", "stream.cursor_decode"),
        ("stream.page_fill.ms", "stream.page_fill"),
        ("stream.sharded_count.ms", "stream.sharded_count"),
        ("data.grounding_build.ms", "data.grounding_build"),
        ("data.key_clone.ms", "data.key_clone"),
        ("data.write.ms", "data.write"),
        ("query.residual_compile.ms", "query.residual_compile"),
    ] {
        out.insert(metric, get(span).self_ms());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "root",
                req: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "child",
                req: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "child",
                req: 1,
                parent: Some(0),
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let mut aggs = BTreeMap::new();
        aggregate(&spans, &mut aggs);
        assert_eq!(
            aggs["root"],
            Agg {
                calls: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(aggs["child"].calls, 2);
        assert_eq!(aggs["child"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer", 7);
        t.time("inner", 7, || ());
        t.exit(outer);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].req, 7);
    }
}
