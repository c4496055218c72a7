//! `perfbench --workload <serve_read|serve_write|offline_count> --seed <n>
//! --seconds <s> --trace <0|1> [--scale full|tiny]`
//!
//! Runs one workload and prints two lines on standard output: a detail
//! object (run metadata, per-kind latency breakdown, failed share) and, last,
//! the result object with exactly the keys `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Spans of a traced run are written to
//! `.bench_trace/<workload>-<seed>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use incdb_perfbench::report::{git_commit, median, num, result_line, string, Kind};
use incdb_perfbench::trace::write_jsonl;
use incdb_perfbench::{
    available_parallelism, offline, serve, RunConfig, Scale, END_TO_END, PER_LAYER,
};

const WORKLOADS: [&str; 3] = ["serve_read", "serve_write", "offline_count"];

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale takes full or tiny".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            scale,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    // Engine thread count 1: the solver's default engine would otherwise
    // shard large searches across every core.
    std::env::set_var("ENGINE_PARALLEL_THRESHOLD", u64::MAX.to_string());
    let cfg = args.cfg;

    let m = match args.workload.as_str() {
        "serve_read" => serve::run(serve::Workload::Read, &cfg),
        "serve_write" => serve::run(serve::Workload::Write, &cfg),
        _ => offline::run(&cfg),
    };

    if cfg.trace {
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-{}.jsonl", args.workload, cfg.seed));
        if let Err(err) = write_jsonl(&path, &m.spans) {
            eprintln!("perfbench: writing {}: {err}", path.display());
            return ExitCode::from(1);
        }
    }

    let ledger = &m.ledger;
    let detail = format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"client_threads\": {}, \"serve_workers\": {}, \
         \"engine_threads\": 1, \"table_facts\": {}, \"git_commit\": {}}}, \
         \"operations\": {}, \"failed_share\": {}, \"median_slowdown\": {}, \"kinds\": {}}}",
        string(&args.workload),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        available_parallelism(),
        m.clients,
        m.workers,
        m.facts,
        string(&git_commit()),
        ledger.operations(),
        ledger.failed_share(),
        num(ledger.median_slowdown(m.rounds)),
        ledger.kinds_json(),
    );
    println!("{detail}");

    let metrics: Vec<(&str, &str, f64)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let q = |kind, p| ledger.scaled_quantile(kind, p, m.rounds).unwrap_or(0.0);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => median(&m.setup_s),
                    "throughput_ops_s" => ledger.round_throughput(m.rounds, m.round_s),
                    "comp_p50_ms" => q(Kind::Comp, 0.50),
                    "comp_p95_ms" => q(Kind::Comp, 0.95),
                    "page_p50_ms" => q(Kind::Page, 0.50),
                    "ok_share" => 1.0 - ledger.failed_share(),
                    "peak_rss_mb" => median(&m.peak_rss_mb),
                    other => unreachable!("no measurement for metric {other}"),
                };
                (name, unit, value)
            })
            .collect()
    };
    let correct = ledger.failed == 0;
    println!(
        "{}",
        result_line(correct, ledger.attempted, ledger.failed, &metrics)
    );
    ExitCode::SUCCESS
}
