//! `refetch_tcp`: the data changes under the developer (Scenario B's
//! pattern). The session stays open; each round updates the table on the
//! server, fetches the UDF's inputs again (a warm re-extract through the
//! delta cache, compressed and encrypted) and reruns the UDF locally. The
//! update and the fetch are timed apart.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use devharness::Rng;
use devudf::{DevUdf, TransferSettings};
use monetlite::Engine;
use wireproto::{Client, Server, ServerConfig};

use crate::common::*;
use crate::layers::{self, Probes};
use crate::trace::Tracer;
use crate::workload::{affected, scalar_f64, Outcome, RoundStart};

struct Ctx {
    server: Server,
    addr: SocketAddr,
    dev: DevUdf,
    rows: usize,
    rng: Rng,
    /// Rows per value, as the benchmark's own statements left them.
    model: BTreeMap<i64, u64>,
    /// Every UPDATE sent so far, for the replica.
    updates: Vec<String>,
    cold_wire_len: usize,
    local: Option<f64>,
}

fn start(args: &Args, work: &Workdir) -> Result<Ctx, String> {
    let rows = args.scale.rows;
    let mut rng = Rng::new(args.seed);
    let values = numbers(&mut rng, rows);
    let mut model = BTreeMap::new();
    for v in &values {
        *model.entry(*v).or_insert(0) += 1;
    }
    let server = Server::start(ServerConfig::new(DATABASE, USER, PASSWORD), move |db| {
        load_numbers(db, &values, Some(STRAIGHT_BODY)).expect("seeding the server");
    });
    let addr = server.listen_tcp().map_err(|e| format!("listen: {e}"))?;
    let transfer = TransferSettings {
        compress: true,
        encrypt: true,
        ..TransferSettings::default()
    };
    let settings = tcp_settings(addr, transfer);
    let project = work.fresh("project").map_err(|e| e.to_string())?;
    let mut dev = DevUdf::connect_tcp(settings, &project).map_err(|e| e.to_string())?;
    dev.import_all().map_err(|e| e.to_string())?;
    let cold = dev.fetch_inputs(UDF).map_err(|e| e.to_string())?;
    let mut ctx = Ctx {
        server,
        addr,
        dev,
        rows,
        rng,
        model,
        updates: Vec::new(),
        cold_wire_len: cold.wire_len,
        local: None,
    };
    // Warm-up: one round, outside the ledger.
    let mut scratch = Ledger::default();
    round(&mut ctx, &Tracer::off(), None, &mut scratch)?;
    if !scratch.mismatches.is_empty() || scratch.failed > 0 {
        return Err(format!(
            "warm-up round failed: {:?} {:?}",
            scratch.errors, scratch.mismatches
        ));
    }
    Ok(ctx)
}

/// A value some row holds, chosen by the workload's rng, so that every
/// UPDATE changes data.
fn pick(ctx: &mut Ctx) -> i64 {
    let keys: Vec<i64> = ctx
        .model
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(k, _)| *k)
        .collect();
    keys[ctx.rng.usize_below(keys.len())]
}

fn round(
    ctx: &mut Ctx,
    tr: &Tracer,
    mut probes: Option<&mut Probes>,
    ledger: &mut Ledger,
) -> Result<Option<f64>, String> {
    let mut clock = Round::default();
    let k = pick(ctx);
    let sql = format!("UPDATE numbers SET i = i + 1 WHERE i = {k}");
    let dev = &mut ctx.dev;

    let (updated, d) = clock.time(|| {
        tr.span("update", || {
            tr.span("wire.query", || dev.server_query(&sql))
        })
    });
    let Some(updated) = ledger.op("update", updated, d) else {
        return Ok(None);
    };
    let expected = ctx.model.insert(k, 0).unwrap_or(0);
    *ctx.model.entry(k + 1).or_insert(0) += expected;
    ledger.check(affected(&updated) == Some(expected), || {
        format!("UPDATE of value {k} touched {updated:?} rows, expected {expected}")
    });
    ctx.updates.push(sql.clone());
    if let Some(p) = probes.as_deref_mut() {
        if tr.on() {
            layers::probe_execute(tr, tr.last("wire.query"), "engine.update", &p.replica, &sql)?;
            layers::probe_snapshot(tr, tr.last("wire.query"), &p.replica);
        } else {
            p.replica
                .execute(&sql)
                .map_err(|e| format!("replica: {e}"))?;
        }
    }

    let traced = tr.on() && probes.is_some();
    let previous = if traced {
        Some(std::fs::read(ctx.dev.project.root().join("input.bin")).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let dev = &mut ctx.dev;
    let (fetched, d) = clock.time(|| tr.span("refetch", || layers::fetch(dev, tr)));
    let Some((stats, inputs)) = ledger.op("refetch", fetched, d) else {
        return Ok(None);
    };
    ledger.transfers.push(stats);
    if let (true, Some(p), Some(inputs)) = (traced, probes.as_deref(), &inputs) {
        let figures = layers::probe_extract(
            tr,
            tr.last("wire.extract"),
            &p.replica,
            inputs,
            previous.as_deref(),
            &ctx.dev.settings.transfer,
        )?;
        ledger.shipped.push(figures);
    }

    let dev = &mut ctx.dev;
    let (ran, d) = clock.time(|| tr.span("rerun", || tr.span("core.run", || dev.run_udf(UDF))));
    let Some(ran) = ledger.op("rerun", ran, d) else {
        return Ok(None);
    };
    ctx.local = match ran.result {
        pylite::Value::Float(f) => Some(f),
        _ => None,
    };
    if let (true, Some(p)) = (traced, probes) {
        let script =
            std::fs::read_to_string(ctx.dev.project.udf_path(UDF)).map_err(|e| e.to_string())?;
        let input_bin =
            std::fs::read(ctx.dev.project.root().join("input.bin")).map_err(|e| e.to_string())?;
        layers::probe_run(tr, tr.last("core.run"), &script, &input_bin);
        tr.probe(None, "wire.ping", || p.pinger.ping())
            .expect("traced")
            .1
            .map_err(|e| format!("ping: {e}"))?;
    }
    Ok(Some(secs(clock.elapsed)))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = Workdir::new("refetch").map_err(|e| e.to_string())?;
    let (mut ctx, setup_s) = timed(|| start(args, &work))?;
    let mut probes = if args.trace {
        let replica = Engine::new();
        let values = numbers(&mut Rng::new(args.seed), ctx.rows);
        load_numbers(&replica, &values, Some(STRAIGHT_BODY))?;
        for sql in &ctx.updates {
            replica.execute(sql).map_err(|e| format!("replica: {e}"))?;
        }
        let pinger = Client::connect_tcp(ctx.addr, USER, PASSWORD, DATABASE)
            .map_err(|e| format!("ping connection: {e}"))?;
        Some(Probes { replica, pinger })
    } else {
        None
    };
    obs::metrics::registry().reset();

    let mut out = Outcome::new(args.trace, setup_s);
    let off = Tracer::off();
    let started = std::time::Instant::now();
    let mut r = 0usize;
    while !out.enough(started, args, args.scale.min_rounds) {
        let traced = out.tracer.on() && r % 2 == 1;
        let tracer = if traced { &out.tracer } else { &off };
        let start = RoundStart::now();
        let t = round(&mut ctx, tracer, probes.as_mut(), &mut out.ledger)?;
        out.push_round(traced, t, start);
        r += 1;
    }

    // The last local result must be what the server computes now.
    let (server, d) = Round::default().time(|| ctx.dev.server_query(DEBUG_QUERY));
    if let Some(server) = out.ledger.op("verify", server, d) {
        let server = scalar_f64(&server);
        out.ledger
            .check(server.is_some() && server == ctx.local, || {
                format!(
                    "local result {:?} differs from the server's {server:?}",
                    ctx.local
                )
            });
    }

    let wire = out.wire_figures(ctx.rows);
    out.figures.set(
        "wire.delta_saved_ratio",
        1.0 - wire / ctx.cold_wire_len as f64,
        "ratio",
    );
    drop(probes);
    let teardown = |c: Ctx| {
        drop(c.dev);
        c.server.shutdown()
    };
    teardown(ctx);
    let more = more_setups(args.scale.setups - 1, || start(args, &work), teardown)?;
    out.setup_s.extend(more);
    Ok(out)
}
