//! `scenario_a_tcp`: the paper's debug loop (§2.5, Scenario A) over TCP.
//!
//! One round: a fresh project connects to the server holding Listing 4's
//! buggy `mean_deviation`, imports it, fetches its inputs cold and runs it
//! locally (the first result); then 20 edit→run reruns alternate the
//! fixed and the buggy body; then the fixed body is exported and checked
//! by the server-side query (the deploy); finally the buggy body is
//! exported back so that every round starts from the same server state.

use std::net::SocketAddr;
use std::path::Path;

use devharness::Rng;
use devudf::{DevUdf, TransferSettings};
use monetlite::Engine;
use wireproto::{Client, Server, ServerConfig};

use crate::common::*;
use crate::layers::{self, Probes};
use crate::trace::Tracer;
use crate::workload::{scalar_f64, Outcome, RoundStart};

struct Ctx {
    server: Server,
    addr: SocketAddr,
    rows: usize,
}

fn start(args: &Args, work: &Workdir) -> Result<Ctx, String> {
    let rows = args.scale.rows;
    let values = numbers(&mut Rng::new(args.seed), rows);
    let server = Server::start(ServerConfig::new(DATABASE, USER, PASSWORD), move |db| {
        load_numbers(db, &values, Some(BUGGY_BODY)).expect("seeding the server");
    });
    let addr = server.listen_tcp().map_err(|e| format!("listen: {e}"))?;
    let ctx = Ctx { server, addr, rows };
    // Warm-up: one full round, untimed and unchecked by the ledger.
    let mut scratch = Ledger::default();
    round(&ctx, args.scale, work, &Tracer::off(), None, &mut scratch)?;
    if !scratch.mismatches.is_empty() || scratch.failed > 0 {
        return Err(format!(
            "warm-up round failed: {:?} {:?}",
            scratch.errors, scratch.mismatches
        ));
    }
    Ok(ctx)
}

/// One round; returns its measured wall time in seconds, or `None` when
/// an operation failed and the round was cut short.
fn round(
    ctx: &Ctx,
    scale: Scale,
    work: &Workdir,
    tr: &Tracer,
    probes: Option<&mut Probes>,
    ledger: &mut Ledger,
) -> Result<Option<f64>, String> {
    let project = work.fresh("project").map_err(|e| e.to_string())?;
    let mut clock = Round::default();
    let settings = tcp_settings(ctx.addr, TransferSettings::default());

    // connect → import → cold fetch → local result.
    let (first, d) = clock.time(|| {
        tr.span("first_result", || {
            let mut dev = tr.span("core.connect", || {
                DevUdf::connect_tcp(settings.clone(), &project)
            })?;
            tr.span("core.import", || dev.import_all())?;
            let (stats, inputs) = layers::fetch(&mut dev, tr)?;
            let run = tr.span("core.run", || dev.run_udf(UDF))?;
            Ok::<_, devudf::DevUdfError>((dev, stats, inputs, run))
        })
    });
    let Some((mut dev, stats, inputs, run)) = ledger.op("first_result", first, d) else {
        return Ok(None);
    };
    ledger.transfers.push(stats);
    let buggy = read_script(&dev.project.udf_path(UDF))?;
    let fixed = buggy.replace(
        "distance += column[i] - mean",
        "distance += abs(column[i] - mean)",
    );
    if fixed == buggy {
        return Err("imported script does not hold Listing 4's body".to_string());
    }
    check_buggy(ledger, &run.result);
    if let Some(p) = probes.as_deref() {
        let input_bin = std::fs::read(project.join("input.bin")).map_err(|e| e.to_string())?;
        layers::probe_run(tr, tr.last("core.run"), &buggy, &input_bin);
        if let Some(inputs) = &inputs {
            let figures = layers::probe_extract(
                tr,
                tr.last("wire.extract"),
                &p.replica,
                inputs,
                None,
                &dev.settings.transfer,
            )?;
            ledger.shipped.push(figures);
        }
    }

    // Edit → run, alternating the fix and the bug.
    let mut fixed_results = Vec::new();
    for k in 1..=scale.reruns {
        let script = if k % 2 == 1 { &fixed } else { &buggy };
        let (out, d) = clock.time(|| {
            tr.span("rerun", || {
                dev.project.write_udf(UDF, script)?;
                tr.span("core.run", || dev.run_udf(UDF))
            })
        });
        let Some(out) = ledger.op("rerun", out, d) else {
            return Ok(None);
        };
        if k % 2 == 1 {
            fixed_results.push(scalar_value(&out.result));
        } else {
            check_buggy(ledger, &out.result);
        }
        if probes.is_some() {
            let input_bin = std::fs::read(project.join("input.bin")).map_err(|e| e.to_string())?;
            layers::probe_run(tr, tr.last("core.run"), script, &input_bin);
        }
    }

    // Deploy: export the fix and run it where the data lives.
    let (deployed, d) = clock.time(|| {
        tr.span("deploy", || {
            dev.project.write_udf(UDF, &fixed)?;
            tr.span("core.export", || dev.export(&[UDF]))?;
            tr.span("wire.query", || dev.server_query(DEBUG_QUERY))
        })
    });
    let Some(deployed) = ledger.op("deploy", deployed, d) else {
        return Ok(None);
    };
    let server_value = scalar_f64(&deployed);
    ledger.check(
        server_value.is_some() && fixed_results.iter().all(|v| *v == server_value),
        || {
            format!(
                "fixed local results {fixed_results:?} differ from the server's {server_value:?}"
            )
        },
    );
    if let Some(p) = probes {
        layers::probe_snapshot(tr, tr.last("core.export"), &p.replica);
        layers::probe_execute(
            tr,
            tr.last("wire.query"),
            "engine.query",
            &p.replica,
            DEBUG_QUERY,
        )?;
        tr.probe(None, "wire.ping", || p.pinger.ping())
            .expect("traced")
            .1
            .map_err(|e| format!("ping: {e}"))?;
    }

    // Put the bug back for the next round.
    let (restored, d) = clock.time(|| {
        tr.span("restore", || {
            dev.project.write_udf(UDF, &buggy)?;
            tr.span("core.export", || dev.export(&[UDF]))
        })
    });
    ledger.op("restore", restored, d);
    clock.time(|| drop(dev));
    Ok(Some(secs(clock.elapsed)))
}

fn read_script(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn scalar_value(v: &pylite::Value) -> Option<f64> {
    match v {
        pylite::Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Listing 4's deviations cancel: its result is 0 up to rounding.
fn check_buggy(ledger: &mut Ledger, v: &pylite::Value) {
    let got = scalar_value(v);
    ledger.check(got.is_some_and(|x| x.abs() < 1e-6), || {
        format!("buggy body returned {v:?}, expected about 0")
    });
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = Workdir::new("scenario_a").map_err(|e| e.to_string())?;
    let (ctx, setup_s) = timed(|| start(args, &work))?;
    let mut probes = if args.trace {
        let replica = Engine::new();
        let values = numbers(&mut Rng::new(args.seed), ctx.rows);
        load_numbers(&replica, &values, Some(FIXED_BODY))?;
        let pinger = Client::connect_tcp(ctx.addr, USER, PASSWORD, DATABASE)
            .map_err(|e| format!("ping connection: {e}"))?;
        Some(Probes { replica, pinger })
    } else {
        None
    };
    obs::metrics::registry().reset();

    let mut out = Outcome::new(args.trace, setup_s);
    let started = std::time::Instant::now();
    let off = Tracer::off();
    let mut r = 0usize;
    while !out.enough(started, args, args.scale.min_rounds) {
        let traced = out.tracer.on() && r % 2 == 1;
        let tracer = if traced { &out.tracer } else { &off };
        let p = if traced { probes.as_mut() } else { None };
        let start = RoundStart::now();
        let t = round(&ctx, args.scale, &work, tracer, p, &mut out.ledger)?;
        out.push_round(traced, t, start);
        r += 1;
    }
    out.wire_figures(ctx.rows);
    drop(probes);
    ctx.server.shutdown();
    let more = more_setups(
        args.scale.setups - 1,
        || start(args, &work),
        |c| c.server.shutdown(),
    )?;
    out.setup_s.extend(more);
    Ok(out)
}
