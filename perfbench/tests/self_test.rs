//! Self-tests of the benchmark: the traced replay answers exactly like the
//! serve front-end it replays, and a tiny run of every workload prints every
//! metric `BENCHMARK.json` declares.

use std::process::Command;

use incdb_data::{PageHeap, Value};
use incdb_perfbench::replay::{ReplayCounts, Replica};
use incdb_perfbench::serve::{self, Expected, RequestGen, Workload};
use incdb_perfbench::trace::Tracer;
use incdb_perfbench::{Scale, END_TO_END, PER_LAYER};
use incdb_serve::{Request, ServeNode};

/// Requests no seeded mix produces: a structural write, a rejected write
/// and malformed reads.
fn edge_requests() -> Vec<Request> {
    vec![
        Request::Write {
            relation: "W9".to_string(),
            fact: vec![Value::constant(7_000_000)],
        },
        Request::Write {
            relation: "R".to_string(),
            fact: vec![Value::constant(1)],
        },
        Request::CursorResume {
            tenant: 0,
            query: 0,
            page_size: 4,
            cursor: "not a cursor".to_string(),
        },
        Request::Count {
            tenant: 9,
            query: 0,
        },
        Request::Page {
            tenant: 1,
            query: 9,
            page_size: 4,
        },
    ]
}

#[test]
fn traced_replay_matches_the_node_byte_for_byte() {
    let queries = serve::catalog();
    let expected = Expected::compute(&serve::database(Scale::Tiny), &queries, &serve::tenants());
    for workload in [Workload::Read, Workload::Write] {
        let node = ServeNode::new(
            serve::database(Scale::Tiny),
            queries.iter().collect(),
            serve::tenants(),
        );
        let replica = Replica::new(
            serve::database(Scale::Tiny),
            queries.iter().collect(),
            serve::tenants(),
        );
        let mut gen = RequestGen::new(workload, 7, 0, &expected.cursors);
        let mut requests: Vec<Request> = (0..400).map(|_| gen.next_request()).collect();
        requests.splice(100..100, edge_requests());
        requests.extend((0..100).map(|_| gen.next_request()));

        let mut tracer = Tracer::new(std::time::Instant::now());
        let mut heap = PageHeap::new();
        let mut counts = ReplayCounts::default();
        for (i, request) in requests.into_iter().enumerate() {
            let from_node = node
                .serve_with_workers(vec![request.clone()], 1)
                .remove(0)
                .outcome;
            let replayed = replica.handle(i as u64, request, &mut heap, &mut tracer, &mut counts);
            assert_eq!(
                replayed, from_node,
                "{workload:?} request {i}: the replay diverged from ServeNode"
            );
        }
        assert_eq!(replica.pool().stats(), node.pool().stats());
    }
}

/// The `metrics` object of a result line, as `(name, unit)` pairs in
/// order (the benchmark prints one flat object per metric).
fn printed_metrics(line: &str) -> Vec<(String, String)> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("result line has metrics")
        .1;
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once(": {\"value\": ").expect("metric entry");
            let unit = rest.split("\"unit\": \"").nth(1).expect("metric unit");
            (
                name.trim_matches('"').to_string(),
                unit.split('"').next().expect("unit string").to_string(),
            )
        })
        .collect()
}

#[test]
fn tiny_runs_print_every_declared_metric() {
    for workload in ["serve_read", "serve_write", "offline_count"] {
        for (trace, declared) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
                .args(["--trace", trace, "--scale", "tiny"])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("benchmark binary runs");
            assert!(out.status.success(), "{workload} --trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} --trace {trace}: {last}"
            );
            assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
            let want: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(printed_metrics(last), want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"name\": ").count();
    assert_eq!(
        declared,
        3 + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares three workloads and exactly the printed metrics"
    );
}
