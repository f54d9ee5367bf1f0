//! The devUDF benchmark: the paper's debug loop, data refetch and durable
//! ingest, timed per operation and attributed per layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload scenario_a_tcp --seed 1 --seconds 25 --trace 0 [--smoke]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (see `perfbench/README.md` for every name). A summary
//! with every metric and every error, and with `--trace 1` the spans, are
//! written under `perfbench/out/`.

mod common;
mod ingest;
mod layers;
mod refetch;
mod scenario_a;
mod trace;
mod workload;

use common::{mean, median, percentile, Args, Metrics, Scale};
use workload::Outcome;

pub const WORKLOADS: &[&str] = &["scenario_a_tcp", "refetch_tcp", "ingest_embedded"];

/// Where a per-layer metric comes from.
enum Src {
    /// A percentile of one operation kind's latencies, scaled from seconds.
    Op(&'static str, f64, f64),
    /// The median duration of every span of this name, scaled from ms.
    Span(&'static str, f64),
    /// The median self time of every span of this name, in ms.
    SelfSpan(&'static str),
    /// A figure the workload or the report computes.
    Figure,
}

const MS: f64 = 1e3;
const IN_MS: f64 = 1.0;
const IN_US: f64 = 1e3;

const PER_LAYER: &[(&str, &str, Src)] = &[
    ("first_result_ms", "ms", Src::Op("first_result", 0.5, MS)),
    ("rerun_ms_p50", "ms", Src::Op("rerun", 0.5, MS)),
    ("rerun_ms_p90", "ms", Src::Op("rerun", 0.9, MS)),
    ("deploy_ms_p50", "ms", Src::Op("deploy", 0.5, MS)),
    ("refetch_ms_p50", "ms", Src::Op("refetch", 0.5, MS)),
    ("update_ms_p50", "ms", Src::Op("update", 0.5, MS)),
    ("append_ms_p50", "ms", Src::Op("append", 0.5, MS)),
    ("append_ms_p99", "ms", Src::Op("append", 0.99, MS)),
    ("batch_ms_p50", "ms", Src::Op("batch", 0.5, MS)),
    ("read_ms_p50", "ms", Src::Op("read", 0.5, MS)),
    ("reopen_s", "s", Src::Op("reopen", 0.5, 1.0)),
    ("storage_bytes_per_row", "B/row", Src::Figure),
    ("core.import_ms", "ms", Src::Span("core.import", IN_MS)),
    ("core.fetch_ms", "ms", Src::Span("core.fetch", IN_MS)),
    ("core.fetch_self_ms", "ms", Src::SelfSpan("core.fetch")),
    ("core.run_ms", "ms", Src::Span("core.run", IN_MS)),
    ("core.export_ms", "ms", Src::Span("core.export", IN_MS)),
    ("pylite.parse_ms", "ms", Src::Span("pylite.parse", IN_MS)),
    (
        "pylite.compile_ms",
        "ms",
        Src::Span("pylite.compile", IN_MS),
    ),
    (
        "pylite.unpickle_ms",
        "ms",
        Src::Span("pylite.unpickle", IN_MS),
    ),
    ("pylite.pickle_ms", "ms", Src::Span("pylite.pickle", IN_MS)),
    ("pylite.exec_ms", "ms", Src::Span("pylite.exec", IN_MS)),
    ("wire.extract_ms", "ms", Src::Span("wire.extract", IN_MS)),
    ("wire.extract_self_ms", "ms", Src::SelfSpan("wire.extract")),
    ("wire.encode_ms", "ms", Src::Span("wire.encode", IN_MS)),
    ("wire.decode_ms", "ms", Src::Span("wire.decode", IN_MS)),
    ("wire.delta_ms", "ms", Src::Span("wire.delta", IN_MS)),
    ("wire.query_ms", "ms", Src::Span("wire.query", IN_MS)),
    ("wire.query_self_ms", "ms", Src::SelfSpan("wire.query")),
    ("wire.ping_us", "us", Src::Span("wire.ping", IN_US)),
    ("wire.bytes_per_row", "B/row", Src::Figure),
    ("wire.raw_bytes_per_row", "B/row", Src::Figure),
    ("wire.delta_saved_ratio", "ratio", Src::Figure),
    ("client.retries", "count", Src::Figure),
    ("server.queue_wait_us_p50", "us", Src::Figure),
    ("codecs.lz_ms", "ms", Src::Span("codecs.lz", IN_MS)),
    ("codecs.lz_ratio", "ratio", Src::Figure),
    ("codecs.chacha_ms", "ms", Src::Span("codecs.chacha", IN_MS)),
    ("codecs.sha256_ms", "ms", Src::Span("codecs.sha256", IN_MS)),
    ("engine.parse_us", "us", Src::Span("engine.parse", IN_US)),
    (
        "engine.extract_ms",
        "ms",
        Src::Span("engine.extract", IN_MS),
    ),
    ("engine.query_ms", "ms", Src::Span("engine.query", IN_MS)),
    ("engine.append_us", "us", Src::Span("engine.append", IN_US)),
    ("engine.update_ms", "ms", Src::Span("engine.update", IN_MS)),
    ("engine.read_us", "us", Src::Span("engine.read", IN_US)),
    (
        "engine.snapshot_us",
        "us",
        Src::Span("engine.snapshot", IN_US),
    ),
    (
        "embedded.append_us",
        "us",
        Src::Span("embedded.append", IN_US),
    ),
    ("embedded.read_us", "us", Src::Span("embedded.read", IN_US)),
    (
        "storage.checkpoint_ms",
        "ms",
        Src::Span("storage.checkpoint", IN_MS),
    ),
    ("storage.checkpoints", "count", Src::Figure),
    ("storage.wal_bytes_per_record", "B", Src::Figure),
    ("storage.snapshot_bytes_per_row", "B/row", Src::Figure),
    ("storage.replay_us_per_record", "us", Src::Figure),
    ("storage.replay_failures", "count", Src::Figure),
    ("obs.trace_overhead_pct", "%", Src::Figure),
];

/// Operations whose spans are reconciled: `<op>.covered_pct` is the
/// share of the operation that layer spans claim, `<op>.unattributed_ms`
/// the rest (medians over the operation's traced calls).
pub const OPS: &[&str] = &[
    "first_result",
    "rerun",
    "deploy",
    "restore",
    "update",
    "refetch",
    "append",
    "batch",
    "delete",
    "read",
    "reopen",
    "copy",
    "copy_reopen",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 12.0;
    let mut trace = false;
    let mut scale = Scale::FULL;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => scale = Scale::SMOKE,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// Every metric this run can give: the end-to-end ones always, the
/// per-layer ones (0 where the workload has no such operation or layer).
fn metrics(out: &Outcome) -> (Metrics, Metrics) {
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&out.setup_s), "s");
    e2e.set("round_s", median(&out.rounds), "s");
    // Means: CPU time is counted in 10 ms ticks, and a round's peak RSS
    // jumps by whole table copies, so a median would stick to steps.
    e2e.set("round_cpu_s", mean(&out.round_cpu), "s");
    e2e.set("peak_rss_mb", mean(&out.round_rss), "MiB");

    let tr = &out.tracer;
    let mut layer = Metrics::default();
    let rows = obs::metrics::rows();
    let obs_row = |name: &str| rows.iter().find(|r| r.name == name);
    let shipped_raw: usize = out.ledger.shipped.iter().map(|f| f.shipped_raw).sum();
    let shipped_lz: usize = out.ledger.shipped.iter().map(|f| f.shipped_lz).sum();
    for (name, unit, src) in PER_LAYER {
        let value = match src {
            Src::Op(kind, p, scale) => {
                let xs = out.ledger.get(kind);
                scale
                    * if *p == 0.5 {
                        median(xs)
                    } else {
                        percentile(xs, *p)
                    }
            }
            Src::Span(span, scale) => scale * median(&tr.durations_ms(span)),
            Src::SelfSpan(span) => median(&tr.self_ms(span)),
            Src::Figure => match *name {
                "client.retries" => obs_row("wire.client.retries").map_or(0.0, |r| r.value as f64),
                "server.queue_wait_us_p50" => {
                    obs_row("wire.server.queue_wait_ns").map_or(0.0, |r| r.p50 as f64 / 1e3)
                }
                "codecs.lz_ratio" if shipped_lz > 0 => shipped_raw as f64 / shipped_lz as f64,
                "obs.trace_overhead_pct" if !out.traced_rounds.is_empty() => {
                    100.0 * (median(&out.traced_rounds) / median(&out.rounds) - 1.0)
                }
                _ => out.figures.0.get(*name).map_or(0.0, |(v, _)| *v),
            },
        };
        layer.set(name, value, unit);
    }
    for op in OPS {
        let (covered, rest) = tr.reconcile(op);
        layer.set(&format!("{op}.covered_pct"), median(&covered), "%");
        layer.set(&format!("{op}.unattributed_ms"), median(&rest), "ms");
    }
    (e2e, layer)
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_numbers(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn json_strings(xs: &[String]) -> String {
    let quoted: Vec<String> = xs
        .iter()
        .map(|s| codecs::json::Value::from(s.as_str()).to_string_compact())
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(common::out_dir()) {
        eprintln!("perfbench: {}: {e}", common::out_dir().display());
        std::process::exit(1);
    }
    let run = match args.workload.as_str() {
        "scenario_a_tcp" => scenario_a::run(&args),
        "refetch_tcp" => refetch::run(&args),
        _ => ingest::run(&args),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let (e2e, layer) = metrics(&out);
    let ledger = &out.ledger;
    for e in &ledger.errors {
        eprintln!("perfbench: failed operation: {e}");
    }
    for m in &ledger.mismatches {
        eprintln!("perfbench: output check failed: {m}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let summary = format!(
        "{{\"end_to_end\": {}, \"per_layer\": {}, \"rounds\": {}, \"traced_rounds\": {}, \"errors\": {}, \"mismatches\": {}}}\n",
        json_metrics(&e2e),
        json_metrics(&layer),
        json_numbers(&out.rounds),
        json_numbers(&out.traced_rounds),
        json_strings(&ledger.errors),
        json_strings(&ledger.mismatches),
    );
    let dir = common::out_dir();
    let written = std::fs::write(dir.join(format!("{stem}.json")), summary).and_then(|()| {
        if args.trace {
            out.tracer
                .write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", dir.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.mismatches.is_empty() && !out.rounds.is_empty(),
        ledger.attempted,
        ledger.failed,
        json_metrics(if args.trace { &layer } else { &e2e })
    );
}
