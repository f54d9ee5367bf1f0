//! Bench regression guards: re-measure the perf claims CI depends on and
//! fail (exit 1) on regression against the committed baselines.
//!
//! Eight guards run, all ratio-normalized:
//!
//!  1. **Transfer codec** — the `compressed/1000` extract from the
//!     `transfer` suite must stay within 10% of the committed
//!     `BENCH_transfer.json` baseline, normalized by `plain/1000`.
//!  2. **Bytecode VM** — the pylite bytecode engine must keep a healthy
//!     speedup over the AST walker on the Scenario-A UDF
//!     (`BENCH_pylite_vm.json`, DESIGN §13 / EXPERIMENTS C14).
//!  3. **UDF inlining** — the Froid-style inlined plan must keep its
//!     speedup over the bytecode interpreter on Scenario A, end-to-end
//!     through the SQL engine (`BENCH_udf_inline.json`, DESIGN §14 /
//!     EXPERIMENTS C15).
//!  4. **Observability overhead** — with telemetry compiled in but idle,
//!     Scenario A must cost within 1% of a hard-disabled build, and a
//!     live per-query trace capture within 5% of idle
//!     (`BENCH_profile.json`, DESIGN §15 / EXPERIMENTS C16).
//!  5. **Server concurrency** — 16 concurrent TCP sessions must not cost
//!     more per query than one session (the scheduler must not convoy),
//!     and on hosts with ≥8 cores must deliver a real speedup
//!     (`BENCH_server_concurrency.json`, DESIGN §16 / EXPERIMENTS C17).
//!     The floor is core-count-aware — see [`guard_server_concurrency`].
//!  6. **Embedded extract** — the embedded transport must keep beating the
//!     TCP wire on input extraction (`BENCH_embedded.json`, DESIGN §17 /
//!     EXPERIMENTS C18).
//!  7. **Write-path scaling** — an embedded single-row INSERT after a read
//!     at 200k rows must cost within 2× of the same at 1k rows: a write
//!     pays for the rows it touches, not for the table
//!     (`BENCH_write_path.json`, DESIGN §17 / EXPERIMENTS C19).
//!  8. **Point UPDATE** — a one-row UPDATE at 200k rows must cost at most
//!     3× the `count(*) … WHERE i = k` scan that finds its row (same file).
//!
//! Shared CI hosts drift by tens of percent run-to-run, so the guards
//! compare *normalized* cost rather than absolute nanoseconds: both
//! sides of each ratio are measured in one process with the same harness
//! that produced the baseline. Host-speed fluctuation cancels out of the
//! ratio; a regression in the guarded subsystem (the only thing
//! separating the two paths) does not. Two more noise dampers: ratios
//! are built from per-sample *minimum* ns (the lowest-variance location
//! statistic — scheduler interruptions only ever add time) and each
//! measurement repeats up to three times, passing on the best ratio. A
//! real regression shifts the minimum of every repeat; transient load
//! does not.

use devharness::bench::Harness;
use devudf_bench::{
    bench_server, bench_session, seed_numbers, write_path_db, write_path_op, SessionFleet,
    MEAN_DEVIATION_FIXED_BODY, MEAN_DEVIATION_STRAIGHT_BODY,
};
use monetlite::{Engine, ExecutionModel};
use pylite::{Array, ExecMode, Interp, Value};
use wireproto::{ClientOptions, Server, ServerConfig, TransferOptions};

const BASELINE_FILE: &str = "BENCH_transfer.json";
const GUARDED: &str = "compressed/1000";
const REFERENCE: &str = "plain/1000";
const TOLERANCE: f64 = 1.10;

const VM_BASELINE_FILE: &str = "BENCH_pylite_vm.json";
const VM_REFERENCE: &str = "ast/1000";
const VM_GUARDED: &str = "bytecode/1000";
/// The committed baseline must document at least this speedup — it backs
/// the README/EXPERIMENTS "≥5× per F5" claim.
const VM_CLAIMED_SPEEDUP: f64 = 5.0;
/// The live re-measurement passes at this floor: comfortably below the
/// claim so shared-host noise cannot flake CI, far above anything a
/// broken fast path or de-fused compiler would produce (~1×).
const VM_SPEEDUP_FLOOR: f64 = 3.0;

const INLINE_BASELINE_FILE: &str = "BENCH_udf_inline.json";
const INLINE_GROUP: &str = "scenario_a";
const INLINE_REFERENCE: &str = "bytecode/10000";
const INLINE_GUARDED: &str = "inlined/10000";
/// The committed baseline must document at least this speedup — it backs
/// the EXPERIMENTS C15 "≥3× over the bytecode VM on Scenario A" claim.
const INLINE_CLAIMED_SPEEDUP: f64 = 3.0;
/// Live re-measurement floor: below the claim to absorb shared-host noise,
/// far above the ~1× a broken inliner (silent bail, de-vectorized eval)
/// would produce.
const INLINE_SPEEDUP_FLOOR: f64 = 2.0;

const PROFILE_BASELINE_FILE: &str = "BENCH_profile.json";
const PROFILE_GROUP: &str = "scenario_a";
const PROFILE_BASELINE: &str = "baseline/10000";
const PROFILE_OFF: &str = "off/10000";
const PROFILE_TRACED: &str = "traced/10000";
/// The committed baseline must document idle-telemetry overhead within
/// this ratio of the hard-disabled build — it backs the DESIGN §15
/// "profiling off costs ≤1%" claim.
const PROFILE_OFF_CLAIM: f64 = 1.01;
/// The committed baseline must document traced-query overhead within
/// this ratio of idle telemetry (the "tracing on costs ≤5%" claim).
const PROFILE_TRACED_CLAIM: f64 = 1.05;
/// Live floors: minimum-of-samples ratios still jitter by tens of
/// percent on shared hosts, so the live check only has to catch the
/// pathological regression — telemetry doing real work (formatting,
/// allocation, locking) on the idle path shows up as 2×+, not 1.2×.
const PROFILE_OFF_FLOOR: f64 = 1.25;
const PROFILE_TRACED_FLOOR: f64 = 1.50;

const CONC_BASELINE_FILE: &str = "BENCH_server_concurrency.json";
const CONC_GROUP: &str = "tcp_select";
/// Matches `QUERIES_PER_BURST` in `benches/server_concurrency.rs`: one
/// measured iteration = every session completing this many round trips,
/// so per-query cost is `min_ns / (sessions × burst)`.
const CONC_QUERIES_PER_BURST: usize = 4;
const CONC_SESSIONS: usize = 16;
const CONC_QUERY: &str = "SELECT sum(i) FROM numbers";
/// Live floor on hosts with >=8 cores: the EXPERIMENTS C17 claim is a
/// speedup of at least 3x per query at 16 sessions; the guard passes at 2x so
/// shared-host noise cannot flake CI while a serialized scheduler (~1x)
/// still fails loudly.
const CONC_FLOOR_MANY_CORE: f64 = 2.0;
/// Floor everywhere else (and the committed-baseline sanity bound): on
/// 1–7 cores real parallel speedup is not demonstrable (the C12/C17
/// recording host has 2 cores and measures ~1.8x), so the guard only has
/// to catch the pathological regression — a convoying scheduler, where
/// 16 sessions contending on one lock make each query *slower* than a
/// lone session. TCP minima jitter several-fold on shared hosts, hence
/// the generous 0.5 rather than 1.0.
const CONC_COLLAPSE_FLOOR: f64 = 0.5;

const EMBEDDED_BASELINE_FILE: &str = "BENCH_embedded.json";
const EMBEDDED_GROUP: &str = "extract";
const EMBEDDED_REFERENCE: &str = "tcp/200000";
const EMBEDDED_GUARDED: &str = "embedded/200000";
/// The committed baseline must document at least this speedup — it backs
/// the EXPERIMENTS C18 "embedded extract ≥5× faster than TCP on 200k
/// rows" claim (the recording host measures ~13×).
const EMBEDDED_CLAIMED_SPEEDUP: f64 = 5.0;
/// Live floor: loopback-TCP minima jitter on shared hosts, so the live
/// check only has to catch the pathological regression — an embedded
/// path that started serializing (pickle/frames) lands near 1×.
const EMBEDDED_SPEEDUP_FLOOR: f64 = 2.0;

const WRITE_BASELINE_FILE: &str = "BENCH_write_path.json";
const WRITE_GROUP: &str = "write_path";
/// INSERT-after-read at 200k rows may cost at most this multiple of the
/// same at 1k rows. An insert that copies the table lands near 200×.
const WRITE_INSERT_SCALING_LIMIT: f64 = 2.0;
/// A point UPDATE may cost at most this multiple of the scan that finds
/// its row. An UPDATE that rebuilds the table lands near 20×.
const WRITE_UPDATE_SCAN_LIMIT: f64 = 3.0;

fn min_ns(doc: &codecs::json::Value, file: &str, name: &str) -> f64 {
    doc.get("benchmarks")
        .and_then(|b| b.as_array())
        .and_then(|benchmarks| {
            benchmarks
                .iter()
                .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(name))
        })
        .and_then(|b| b.get("ns_per_iter")?.get("min")?.as_f64())
        .unwrap_or_else(|| panic!("baseline entry {name} not found in {file}"))
}

/// Like [`min_ns`] but disambiguated by benchmark group: the udf_inline
/// suite reuses entry names ("bytecode/10000") across its two scenarios.
fn group_min_ns(doc: &codecs::json::Value, file: &str, group: &str, name: &str) -> f64 {
    doc.get("benchmarks")
        .and_then(|b| b.as_array())
        .and_then(|benchmarks| {
            benchmarks.iter().find(|b| {
                b.get("group").and_then(|g| g.as_str()) == Some(group)
                    && b.get("name").and_then(|n| n.as_str()) == Some(name)
            })
        })
        .and_then(|b| b.get("ns_per_iter")?.get("min")?.as_f64())
        .unwrap_or_else(|| panic!("baseline entry {group}/{name} not found in {file}"))
}

fn read_baseline(file: &str) -> codecs::json::Value {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {file}: {e}"));
    codecs::json::parse(&text).unwrap_or_else(|e| panic!("parse {file}: {e}"))
}

/// Run `measure` under a scratch `DEVHARNESS_BENCH_OUT` so guard runs
/// never touch the committed baselines, then parse the artifact it wrote.
fn scratch_harness(suite: &str, measure: impl FnOnce(&mut Harness)) -> codecs::json::Value {
    let scratch =
        std::env::temp_dir().join(format!("devudf-bench-guard-{suite}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    std::env::set_var("DEVHARNESS_BENCH_OUT", &scratch);
    let mut h = Harness::new(suite);
    measure(&mut h);
    h.finish();
    std::env::remove_var("DEVHARNESS_BENCH_OUT");
    let text = std::fs::read_to_string(scratch.join(format!("BENCH_{suite}.json"))).unwrap();
    std::fs::remove_dir_all(&scratch).ok();
    codecs::json::parse(&text).unwrap()
}

/// Measure both transfer paths with the same harness that produced the
/// baseline (same calibration, warmup and batch statistics). Returns
/// `(plain, compressed)` min ns/iter.
fn measure_transfer() -> (f64, f64) {
    let server = bench_server(1_000);
    let mut dev = bench_session(&server, "bench-guard");
    dev.import_all().unwrap();
    let doc = scratch_harness("guard", |h| {
        let mut group = h.benchmark_group("transfer_extract");
        group.sample_size(10);
        for (name, options) in [
            (REFERENCE, TransferOptions::plain()),
            (GUARDED, TransferOptions::compressed()),
        ] {
            group.bench_function(name, |b| {
                b.iter(|| {
                    dev.client()
                        .borrow_mut()
                        .extract_inputs(
                            "SELECT mean_deviation(i) FROM numbers",
                            "mean_deviation",
                            options,
                        )
                        .unwrap()
                })
            });
        }
        group.finish();
    });
    std::fs::remove_dir_all(dev.project.root()).ok();
    server.shutdown();
    (
        min_ns(&doc, "guard", REFERENCE),
        min_ns(&doc, "guard", GUARDED),
    )
}

fn guard_transfer() -> bool {
    let doc = read_baseline(BASELINE_FILE);
    let base_ratio = min_ns(&doc, BASELINE_FILE, GUARDED) / min_ns(&doc, BASELINE_FILE, REFERENCE);
    let limit = base_ratio * TOLERANCE;
    let mut best = f64::INFINITY;
    for attempt in 1..=3 {
        let (plain, compressed) = measure_transfer();
        let ratio = compressed / plain;
        best = best.min(ratio);
        println!(
            "transfer guard[{attempt}]: {GUARDED} costs {ratio:.3}x {REFERENCE} \
(measured {compressed:.0} vs {plain:.0} ns/iter); \
baseline ratio {base_ratio:.3}x, limit {limit:.3}x"
        );
        if best <= limit {
            println!("transfer guard OK");
            return true;
        }
    }
    eprintln!(
        "FAIL: {GUARDED} regressed {:.1}% relative to {REFERENCE} (> {:.0}% allowed) \
in all 3 attempts",
        (best / base_ratio - 1.0) * 100.0,
        (TOLERANCE - 1.0) * 100.0
    );
    false
}

/// Measure Scenario A (1 000 rows) under both pylite engines exactly as
/// `benches/pylite_vm.rs` does. Returns `(ast, bytecode)` min ns/iter.
fn measure_vm() -> (f64, f64) {
    let def = format!(
        "def mean_deviation(column):\n{}",
        MEAN_DEVIATION_FIXED_BODY
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let call = pylite::parse_module("result = mean_deviation(col)\n").unwrap();
    let doc = scratch_harness("vmguard", |h| {
        let mut group = h.benchmark_group("scenario_a");
        group.sample_size(20);
        for mode in [ExecMode::Ast, ExecMode::Bytecode] {
            let mut interp = Interp::new();
            interp.set_exec_mode(mode);
            interp.eval_module(&def).unwrap();
            let col: Vec<i64> = (0..1_000).map(|i| i % 97).collect();
            interp.set_global("col", Value::array(Array::Int(col)));
            group.bench_function(mode.as_str(), |b| {
                b.iter(|| interp.run_module(&call).unwrap())
            });
        }
        group.finish();
    });
    (
        min_ns(&doc, "vmguard", "ast"),
        min_ns(&doc, "vmguard", "bytecode"),
    )
}

fn guard_vm() -> bool {
    let doc = read_baseline(VM_BASELINE_FILE);
    let base_speedup =
        min_ns(&doc, VM_BASELINE_FILE, VM_REFERENCE) / min_ns(&doc, VM_BASELINE_FILE, VM_GUARDED);
    if base_speedup < VM_CLAIMED_SPEEDUP {
        eprintln!(
            "FAIL: committed {VM_BASELINE_FILE} documents only a {base_speedup:.2}x \
Scenario-A speedup; the docs claim >={VM_CLAIMED_SPEEDUP:.0}x — re-run \
`cargo bench -p devudf-bench --bench pylite_vm` on a quiet host or fix the VM"
        );
        return false;
    }
    let mut best = 0.0f64;
    for attempt in 1..=3 {
        let (ast, bytecode) = measure_vm();
        let speedup = ast / bytecode;
        best = best.max(speedup);
        println!(
            "vm guard[{attempt}]: bytecode runs Scenario A {speedup:.2}x faster than the \
AST walker (measured {bytecode:.0} vs {ast:.0} ns/iter); \
baseline {base_speedup:.2}x, floor {VM_SPEEDUP_FLOOR:.1}x"
        );
        if best >= VM_SPEEDUP_FLOOR {
            println!("vm guard OK");
            return true;
        }
    }
    eprintln!(
        "FAIL: bytecode VM speedup fell to {best:.2}x (< {VM_SPEEDUP_FLOOR:.1}x floor) \
in all 3 attempts — a fast path or compiler fusion likely regressed"
    );
    false
}

/// Measure Scenario A (10 000 rows) end-to-end through the SQL engine with
/// inlining off (bytecode VM) and on, exactly as `benches/udf_inline.rs`
/// does. Returns `(bytecode, inlined)` min ns/iter.
fn measure_inline() -> (f64, f64) {
    let doc = scratch_harness("inlineguard", |h| {
        let mut group = h.benchmark_group(INLINE_GROUP);
        group.sample_size(12);
        for (name, inline) in [("bytecode", false), ("inlined", true)] {
            let db = Engine::new();
            db.set_model(ExecutionModel::OperatorAtATime);
            db.set_exec_mode(ExecMode::Bytecode);
            db.set_inline(inline);
            seed_numbers(&db, 10_000);
            db.execute(&format!(
                "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {{\n{MEAN_DEVIATION_STRAIGHT_BODY}}}"
            ))
            .unwrap();
            group.bench_function(name, |b| {
                b.iter(|| db.execute("SELECT f(i) FROM numbers").unwrap())
            });
        }
        group.finish();
    });
    (
        min_ns(&doc, "inlineguard", "bytecode"),
        min_ns(&doc, "inlineguard", "inlined"),
    )
}

fn guard_inline() -> bool {
    let doc = read_baseline(INLINE_BASELINE_FILE);
    let base_speedup = group_min_ns(&doc, INLINE_BASELINE_FILE, INLINE_GROUP, INLINE_REFERENCE)
        / group_min_ns(&doc, INLINE_BASELINE_FILE, INLINE_GROUP, INLINE_GUARDED);
    if base_speedup < INLINE_CLAIMED_SPEEDUP {
        eprintln!(
            "FAIL: committed {INLINE_BASELINE_FILE} documents only a {base_speedup:.2}x \
Scenario-A inlining speedup; the docs claim >={INLINE_CLAIMED_SPEEDUP:.0}x — re-run \
`cargo bench -p devudf-bench --bench udf_inline` on a quiet host or fix the inliner"
        );
        return false;
    }
    let mut best = 0.0f64;
    for attempt in 1..=3 {
        let (bytecode, inlined) = measure_inline();
        let speedup = bytecode / inlined;
        best = best.max(speedup);
        println!(
            "inline guard[{attempt}]: inlined plan runs Scenario A {speedup:.2}x faster than \
the bytecode VM (measured {inlined:.0} vs {bytecode:.0} ns/iter); \
baseline {base_speedup:.2}x, floor {INLINE_SPEEDUP_FLOOR:.1}x"
        );
        if best >= INLINE_SPEEDUP_FLOOR {
            println!("inline guard OK");
            return true;
        }
    }
    eprintln!(
        "FAIL: inlined-plan speedup fell to {best:.2}x (< {INLINE_SPEEDUP_FLOOR:.1}x floor) \
in all 3 attempts — the inliner is likely bailing or the typed eval fast paths regressed"
    );
    false
}

/// Measure Scenario A (10 000 rows, inlined) end-to-end through the SQL
/// engine with telemetry hard-disabled, idle, and under a live per-query
/// trace capture, exactly as `benches/profile.rs` does. Returns
/// `(baseline, off, traced)` min ns/iter.
fn measure_profile() -> (f64, f64, f64) {
    let db = Engine::new();
    db.set_model(ExecutionModel::OperatorAtATime);
    db.set_exec_mode(ExecMode::Bytecode);
    db.set_inline(true);
    seed_numbers(&db, 10_000);
    db.execute(&format!(
        "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {{\n{MEAN_DEVIATION_STRAIGHT_BODY}}}"
    ))
    .unwrap();
    let doc = scratch_harness("profileguard", |h| {
        let mut group = h.benchmark_group(PROFILE_GROUP);
        group.sample_size(20);
        obs::set_enabled(false);
        group.bench_function("baseline", |b| {
            b.iter(|| db.execute("SELECT f(i) FROM numbers").unwrap())
        });
        obs::set_enabled(true);
        group.bench_function("off", |b| {
            b.iter(|| db.execute("SELECT f(i) FROM numbers").unwrap())
        });
        group.bench_function("traced", |b| {
            b.iter(|| {
                let trace = obs::trace::new_trace_id();
                obs::trace::start_capture(trace);
                let result = {
                    let _ctx =
                        obs::trace::enter_context(obs::trace::SpanContext { trace, parent: 0 });
                    db.execute("SELECT f(i) FROM numbers").unwrap()
                };
                let spans = obs::trace::take_capture(trace);
                (result, spans)
            })
        });
        group.finish();
    });
    (
        min_ns(&doc, "profileguard", "baseline"),
        min_ns(&doc, "profileguard", "off"),
        min_ns(&doc, "profileguard", "traced"),
    )
}

fn guard_profile() -> bool {
    let doc = read_baseline(PROFILE_BASELINE_FILE);
    let base = group_min_ns(&doc, PROFILE_BASELINE_FILE, PROFILE_GROUP, PROFILE_BASELINE);
    let off = group_min_ns(&doc, PROFILE_BASELINE_FILE, PROFILE_GROUP, PROFILE_OFF);
    let traced = group_min_ns(&doc, PROFILE_BASELINE_FILE, PROFILE_GROUP, PROFILE_TRACED);
    let base_off_ratio = off / base;
    let base_traced_ratio = traced / off;
    if base_off_ratio > PROFILE_OFF_CLAIM || base_traced_ratio > PROFILE_TRACED_CLAIM {
        eprintln!(
            "FAIL: committed {PROFILE_BASELINE_FILE} documents idle-telemetry overhead \
{:.1}% (budget {:.0}%) and traced overhead {:.1}% (budget {:.0}%) — re-run \
`cargo bench -p devudf-bench --bench profile` on a quiet host or fix the hot hooks",
            (base_off_ratio - 1.0) * 100.0,
            (PROFILE_OFF_CLAIM - 1.0) * 100.0,
            (base_traced_ratio - 1.0) * 100.0,
            (PROFILE_TRACED_CLAIM - 1.0) * 100.0
        );
        return false;
    }
    let (mut best_off, mut best_traced) = (f64::INFINITY, f64::INFINITY);
    for attempt in 1..=3 {
        let (baseline, off, traced) = measure_profile();
        let off_ratio = off / baseline;
        let traced_ratio = traced / off;
        best_off = best_off.min(off_ratio);
        best_traced = best_traced.min(traced_ratio);
        println!(
            "profile guard[{attempt}]: idle telemetry costs {off_ratio:.3}x disabled, \
live trace {traced_ratio:.3}x idle (measured {baseline:.0} / {off:.0} / {traced:.0} ns/iter); \
floors {PROFILE_OFF_FLOOR:.2}x / {PROFILE_TRACED_FLOOR:.2}x"
        );
        if best_off <= PROFILE_OFF_FLOOR && best_traced <= PROFILE_TRACED_FLOOR {
            println!("profile guard OK");
            return true;
        }
    }
    eprintln!(
        "FAIL: observability overhead held at {best_off:.2}x idle / {best_traced:.2}x traced \
(floors {PROFILE_OFF_FLOOR:.2}x / {PROFILE_TRACED_FLOOR:.2}x) in all 3 attempts — \
an idle-path hook is likely doing real work"
    );
    false
}

/// Measure per-query cost over real TCP at 1 and [`CONC_SESSIONS`]
/// concurrent sessions, exactly as `benches/server_concurrency.rs` does
/// (persistent fleet, burst iterations). Returns `(one, many)` min
/// ns/query.
fn measure_concurrency() -> (f64, f64) {
    let server = Server::start(
        ServerConfig::new("demo", "monetdb", "monetdb").with_queue_capacity(1024, 1024),
        |db| seed_numbers(db, 1_000),
    );
    let addr = server.listen_tcp().unwrap();
    let doc = scratch_harness("concguard", |h| {
        let mut group = h.benchmark_group(CONC_GROUP);
        group.sample_size(12);
        for sessions in [1usize, CONC_SESSIONS] {
            let fleet = SessionFleet::connect(
                addr,
                sessions,
                CONC_QUERIES_PER_BURST,
                CONC_QUERY,
                ClientOptions::default(),
            );
            fleet.burst(); // warm connections and the reader snapshot cache
            group.bench_function(format!("sessions/{sessions}"), |b| b.iter(|| fleet.burst()));
            fleet.join();
        }
        group.finish();
    });
    server.shutdown();
    let per_query = |name: &str, sessions: usize| {
        group_min_ns(&doc, "concguard", CONC_GROUP, name)
            / (sessions * CONC_QUERIES_PER_BURST) as f64
    };
    (
        per_query("sessions/1", 1),
        per_query(&format!("sessions/{CONC_SESSIONS}"), CONC_SESSIONS),
    )
}

fn guard_server_concurrency() -> bool {
    let doc = read_baseline(CONC_BASELINE_FILE);
    let base_per_query = |name: &str, sessions: usize| {
        group_min_ns(&doc, CONC_BASELINE_FILE, CONC_GROUP, name)
            / (sessions * CONC_QUERIES_PER_BURST) as f64
    };
    let base_speedup = base_per_query("sessions/1", 1)
        / base_per_query(&format!("sessions/{CONC_SESSIONS}"), CONC_SESSIONS);
    if base_speedup < CONC_COLLAPSE_FLOOR {
        eprintln!(
            "FAIL: committed {CONC_BASELINE_FILE} documents a per-query collapse at \
{CONC_SESSIONS} sessions ({base_speedup:.2}x vs one session) — re-run \
`cargo bench -p devudf-bench --bench server_concurrency` on a quiet host or fix the scheduler"
        );
        return false;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = if cores >= 8 {
        CONC_FLOOR_MANY_CORE
    } else {
        CONC_COLLAPSE_FLOOR
    };
    let mut best = 0.0f64;
    for attempt in 1..=3 {
        let (one, many) = measure_concurrency();
        let speedup = one / many;
        best = best.max(speedup);
        println!(
            "concurrency guard[{attempt}]: {CONC_SESSIONS} sessions run {speedup:.2}x the \
per-query rate of one session (measured {many:.0} vs {one:.0} ns/query); \
baseline {base_speedup:.2}x, floor {floor:.1}x on {cores} cores"
        );
        if best >= floor {
            println!("concurrency guard OK");
            return true;
        }
    }
    eprintln!(
        "FAIL: per-query speedup at {CONC_SESSIONS} sessions fell to {best:.2}x \
(< {floor:.1}x floor on {cores} cores) in all 3 attempts — the read scheduler is \
likely serializing (convoy on the writer channel or a poisoned snapshot cache)"
    );
    false
}

/// Measure one 20 000-row extract through both transports exactly as
/// `benches/embedded.rs` does (just smaller, to keep guard runs quick —
/// the ratio, not the absolute cost, is what's guarded). Returns
/// `(tcp, embedded)` min ns/iter.
fn measure_embedded() -> (f64, f64) {
    const ROWS: usize = 20_000;
    const QUERY: &str = "SELECT mean_deviation(i) FROM numbers";
    let server = bench_server(ROWS);
    let addr = server.listen_tcp().unwrap();
    let mut tcp = wireproto::Client::connect_tcp_with(
        addr,
        "monetdb",
        "monetdb",
        "demo",
        ClientOptions::default(),
    )
    .unwrap();
    let db = Engine::new();
    devudf_bench::seed_numbers(&db, ROWS);
    db.execute(&devudf_bench::create_mean_deviation(
        devudf_bench::LISTING4_BODY,
    ))
    .unwrap();
    let mut embedded = wireproto::Embedded::from_engine(db);
    let doc = scratch_harness("embguard", |h| {
        use wireproto::EngineTransport;
        let mut group = h.benchmark_group(EMBEDDED_GROUP);
        group.sample_size(10);
        group.bench_function("tcp", |b| {
            b.iter(|| {
                tcp.extract_inputs(QUERY, "mean_deviation", TransferOptions::plain())
                    .unwrap()
            })
        });
        group.bench_function("embedded", |b| {
            b.iter(|| {
                embedded
                    .extract_inputs(QUERY, "mean_deviation", TransferOptions::plain())
                    .unwrap()
            })
        });
        group.finish();
    });
    server.shutdown();
    (
        group_min_ns(&doc, "embguard", EMBEDDED_GROUP, "tcp"),
        group_min_ns(&doc, "embguard", EMBEDDED_GROUP, "embedded"),
    )
}

fn guard_embedded() -> bool {
    let doc = read_baseline(EMBEDDED_BASELINE_FILE);
    let base_speedup = group_min_ns(
        &doc,
        EMBEDDED_BASELINE_FILE,
        EMBEDDED_GROUP,
        EMBEDDED_REFERENCE,
    ) / group_min_ns(
        &doc,
        EMBEDDED_BASELINE_FILE,
        EMBEDDED_GROUP,
        EMBEDDED_GUARDED,
    );
    if base_speedup < EMBEDDED_CLAIMED_SPEEDUP {
        eprintln!(
            "FAIL: committed {EMBEDDED_BASELINE_FILE} documents only a {base_speedup:.2}x \
embedded-over-TCP extract speedup; the docs claim >={EMBEDDED_CLAIMED_SPEEDUP:.0}x — re-run \
`cargo bench -p devudf-bench --bench embedded` on a quiet host or fix the embedded transport"
        );
        return false;
    }
    let mut best = 0.0f64;
    for attempt in 1..=3 {
        let (tcp, embedded) = measure_embedded();
        let speedup = tcp / embedded;
        best = best.max(speedup);
        println!(
            "embedded guard[{attempt}]: embedded extract runs {speedup:.2}x faster than TCP \
(measured {embedded:.0} vs {tcp:.0} ns/iter); \
baseline {base_speedup:.2}x, floor {EMBEDDED_SPEEDUP_FLOOR:.1}x"
        );
        if best >= EMBEDDED_SPEEDUP_FLOOR {
            println!("embedded guard OK");
            return true;
        }
    }
    eprintln!(
        "FAIL: embedded extract speedup fell to {best:.2}x (< {EMBEDDED_SPEEDUP_FLOOR:.1}x \
floor) in all 3 attempts — the embedded path is likely serializing again"
    );
    false
}

/// Measure write-path operations exactly as `benches/write_path.rs` does,
/// one fixture per size. Returns min ns/iter per `(op, rows)` case.
fn measure_write_path(cases: &[(&str, usize)]) -> Vec<f64> {
    let doc = scratch_harness("writeguard", |h| {
        let mut group = h.benchmark_group(WRITE_GROUP);
        group.sample_size(12);
        for &(op, rows) in cases {
            let mut db = write_path_db(rows);
            group.bench_function(format!("{op}/{rows}"), |b| {
                b.iter(|| write_path_op(&mut db, op, rows))
            });
        }
        group.finish();
    });
    cases
        .iter()
        .map(|(op, rows)| group_min_ns(&doc, "writeguard", WRITE_GROUP, &format!("{op}/{rows}")))
        .collect()
}

/// Guard a write-path cost ratio `cases[0] / cases[1]`: the committed
/// baseline must document it within `limit`, and the best of three live
/// re-measurements must stay within it.
fn guard_write_ratio(label: &str, cases: [(&str, usize); 2], limit: f64) -> bool {
    let names = cases.map(|(op, rows)| format!("{op}/{rows}"));
    let doc = read_baseline(WRITE_BASELINE_FILE);
    let base = group_min_ns(&doc, WRITE_BASELINE_FILE, WRITE_GROUP, &names[0])
        / group_min_ns(&doc, WRITE_BASELINE_FILE, WRITE_GROUP, &names[1]);
    if base > limit {
        eprintln!(
            "FAIL: committed {WRITE_BASELINE_FILE} documents {} at {base:.2}x {} (limit {limit:.1}x) — re-run `cargo bench -p devudf-bench --bench write_path` on a quiet host or fix the write path",
            names[0], names[1]
        );
        return false;
    }
    let mut best = f64::INFINITY;
    for attempt in 1..=3 {
        let measured = measure_write_path(&cases);
        let ratio = measured[0] / measured[1];
        best = best.min(ratio);
        println!(
            "{label} guard[{attempt}]: {} costs {ratio:.2}x {} (measured {:.0} vs {:.0} ns/iter); baseline {base:.2}x, limit {limit:.1}x",
            names[0], names[1], measured[0], measured[1]
        );
        if best <= limit {
            println!("{label} guard OK");
            return true;
        }
    }
    eprintln!(
        "FAIL: {} held at {best:.2}x {} (> {limit:.1}x) in all 3 attempts — a write is \
likely copying or rebuilding the whole table again",
        names[0], names[1]
    );
    false
}

fn main() {
    // Operate on the workspace root regardless of invocation directory.
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let root = std::path::Path::new(&manifest).join("../..");
        std::env::set_current_dir(root).expect("chdir to workspace root");
    }
    let transfer_ok = guard_transfer();
    let vm_ok = guard_vm();
    let inline_ok = guard_inline();
    let profile_ok = guard_profile();
    let conc_ok = guard_server_concurrency();
    let embedded_ok = guard_embedded();
    let insert_ok = guard_write_ratio(
        "write-path insert",
        [("insert_after_read", 200_000), ("insert_after_read", 1_000)],
        WRITE_INSERT_SCALING_LIMIT,
    );
    let update_ok = guard_write_ratio(
        "point update",
        [("point_update", 200_000), ("count_where", 200_000)],
        WRITE_UPDATE_SCAN_LIMIT,
    );
    if !(transfer_ok
        && vm_ok
        && inline_ok
        && profile_ok
        && conc_ok
        && embedded_ok
        && insert_ok
        && update_ok)
    {
        std::process::exit(1);
    }
}
