//! `ingest_embedded`: a persistent embedded engine under a write load,
//! then restarts, then CSV ingest. No wire and no local UDF runs: storage,
//! catalog copy-on-write and snapshot hydration carry everything.
//!
//! One round is the whole fixed plan, so that the durable state it leaves
//! (and so every reopen's cost) is the same in every run of a seed:
//! * the write phase: blocks of 20 writes, each block a seeded shuffle of
//!   12 single-row INSERTs, 6 100-row INSERTs, one UPDATE and one DELETE
//!   by predicate, every write followed by a `count(*), sum(i)` read;
//! * the data directory reopened several times;
//! * `COPY INTO` from CSV files in the engine's fs (the paper's ingest),
//!   each followed by a read, and one more reopen.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use devharness::Rng;
use monetlite::{Engine, FsyncPolicy, StorageOptions};
use wireproto::{Embedded, EngineTransport, WireError};

use crate::common::*;
use crate::layers;
use crate::trace::Tracer;
use crate::workload::{affected, first_row_ints, Outcome, RoundStart};

const READ: &str = "SELECT count(*), sum(i) FROM numbers";

/// What the table must hold, kept from the benchmark's own statements and
/// the row counts they report.
#[derive(Default)]
struct Model {
    count: i64,
    sum: i64,
    /// Rows per value.
    values: BTreeMap<i64, u64>,
}

impl Model {
    fn add(&mut self, vs: &[i64]) {
        for v in vs {
            self.count += 1;
            self.sum += v;
            *self.values.entry(*v).or_insert(0) += 1;
        }
    }

    /// A value some row holds.
    fn pick(&self, rng: &mut Rng) -> i64 {
        let keys: Vec<i64> = self
            .values
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(k, _)| *k)
            .collect();
        keys[rng.usize_below(keys.len())]
    }

    /// Rows holding `k`, which an UPDATE or DELETE by `i = k` touches.
    fn take(&mut self, k: i64) -> u64 {
        self.values.insert(k, 0).unwrap_or(0)
    }
}

#[derive(Clone, Copy)]
enum Write {
    Append,
    Batch,
    Update,
    Delete,
}

impl Write {
    fn kind(self) -> &'static str {
        match self {
            Write::Append => "append",
            Write::Batch => "batch",
            Write::Update => "update",
            Write::Delete => "delete",
        }
    }

    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Write::Append => ("embedded.append", "engine.append"),
            Write::Batch => ("embedded.batch", "engine.batch"),
            Write::Update => ("embedded.update", "engine.update"),
            Write::Delete => ("embedded.delete", "engine.delete"),
        }
    }
}

fn options(scale: Scale) -> StorageOptions {
    StorageOptions {
        fsync: FsyncPolicy::Never,
        snapshot_every: scale.snapshot_every,
    }
}

fn open(dir: &Path, scale: Scale) -> Result<Embedded, WireError> {
    Embedded::open(dir, options(scale))
}

/// A loaded, checkpointed data directory and the model of its table.
struct Db {
    dir: PathBuf,
    scale: Scale,
    emb: Option<Embedded>,
    model: Model,
}

fn load(args: &Args, dir: PathBuf, tr: &Tracer) -> Result<Db, String> {
    let values = numbers(&mut Rng::new(args.seed), args.scale.rows);
    let emb = open(&dir, args.scale).map_err(|e| e.to_string())?;
    load_numbers(emb.engine(), &values, None)?;
    tr.span("storage.checkpoint", || emb.engine().checkpoint())
        .map_err(|e| e.to_string())?;
    let mut model = Model::default();
    model.add(&values);
    let mut db = Db {
        dir,
        scale: args.scale,
        emb: Some(emb),
        model,
    };
    let mut ledger = Ledger::default();
    check_read(&mut db, &mut ledger, "set-up");
    match ledger.mismatches.pop().or(ledger.errors.pop()) {
        Some(e) => Err(e),
        None => Ok(db),
    }
}

/// Set-up: one warm-up round on a throwaway directory, then a loaded,
/// checkpointed directory for the first measured round. The first plan
/// a process runs is markedly slower than the ones after it (the heap is
/// still growing), so it is not measured.
fn start(args: &Args, work: &Workdir) -> Result<Db, String> {
    let off = Tracer::off();
    let dir = |name| work.fresh(name).map_err(|e| e.to_string());
    let mut warm = load(args, dir("warm")?, &off)?;
    let mut scratch = Ledger::default();
    cycle(&mut warm, args, u64::MAX, &off, None, &mut scratch)?;
    if let Some(m) = scratch.mismatches.pop() {
        return Err(format!("warm-up round: {m}"));
    }
    drop(warm);
    load(args, dir("db")?, &off)
}

/// Read count and sum untimed and compare them with the model.
fn check_read(db: &mut Db, ledger: &mut Ledger, when: &str) {
    let Some(emb) = db.emb.as_mut() else {
        return;
    };
    match emb.query(READ) {
        Ok(r) => verify(ledger, &r, &db.model, when),
        Err(e) => ledger.mismatches.push(format!("{when}: read failed: {e}")),
    }
}

fn verify(ledger: &mut Ledger, r: &wireproto::message::WireResult, model: &Model, when: &str) {
    let got = first_row_ints(r);
    let want = vec![model.count, model.sum];
    ledger.check(got.as_ref() == Some(&want), || {
        format!("{when}: read returned {got:?}, model holds {want:?}")
    });
}

/// Draw a value from the generator's distribution.
fn draw(rng: &mut Rng) -> i64 {
    (rng.u64_below(LEVELS) + rng.u64_below(NOISE)) as i64
}

/// Storage figures after the write phase.
struct Durable {
    checkpoints: u64,
    snapshot_rows: i64,
    wal_bytes: u64,
    wal_records: u64,
    snapshot_bytes: u64,
    rows: i64,
}

/// The whole plan; returns its measured seconds and the storage figures.
fn cycle(
    db: &mut Db,
    args: &Args,
    round: u64,
    tr: &Tracer,
    replica: Option<&Engine>,
    ledger: &mut Ledger,
) -> Result<(Option<f64>, Durable), String> {
    let scale = args.scale;
    // Each round draws its own values from the seed, so that a run's
    // medians cover several data sets.
    let mut rng = Rng::new(args.seed ^ 0x1_9e57 ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // The order of the writes is part of the workload, not of its
    // inputs: every seed runs the same sequence of kinds.
    let mut order = Rng::new(0x04de5);
    let mut clock = Round::default();
    let stats = |db: &Db| db.emb.as_ref().and_then(|e| e.engine().storage_stats());
    let mut base_seq = stats(db).map_or(0, |s| s.base_seq);
    let mut checkpoints = 0;
    let mut snapshot_rows = db.model.count;

    for _ in 0..scale.write_blocks {
        let mut plan = [Write::Append; 20];
        plan[12..18].fill(Write::Batch);
        plan[18] = Write::Update;
        plan[19] = Write::Delete;
        shuffle(&mut order, &mut plan);
        for w in plan {
            write(db, w, &mut rng, tr, replica, ledger, &mut clock)?;
            let now = stats(db).map_or(0, |s| s.base_seq);
            if now != base_seq {
                base_seq = now;
                checkpoints += 1;
                snapshot_rows = db.model.count;
            }
            read(db, tr, replica, ledger, &mut clock)?;
        }
    }

    let s = stats(db).ok_or("the engine lost its storage")?;
    let snapshot_bytes = std::fs::metadata(db.dir.join("snapshot.db"))
        .map(|m| m.len())
        .map_err(|e| format!("snapshot.db: {e}"))?;
    let durable = Durable {
        checkpoints,
        snapshot_rows,
        wal_bytes: s.wal_bytes,
        wal_records: s.wal_records,
        snapshot_bytes,
        rows: db.model.count,
    };

    for _ in 0..scale.reopens {
        reopen(db, "reopen", tr, ledger, &mut clock);
    }

    // CSV ingest into the last reopened engine.
    for f in 0..scale.csv_files {
        let Some(emb) = db.emb.as_mut() else {
            return Ok((None, durable));
        };
        let path = format!("batch{f}.csv");
        let values: Vec<i64> = (0..scale.csv_rows).map(|_| draw(&mut rng)).collect();
        let csv: String = values.iter().map(|v| format!("{v}\n")).collect();
        emb.engine()
            .fs()
            .write(&path, csv.as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        let sql = format!("COPY INTO numbers FROM '{path}'");
        let (copied, d) =
            clock.time(|| tr.span("copy", || tr.span("embedded.copy", || emb.query(&sql))));
        if let Some(r) = ledger.op("copy", copied, d) {
            ledger.check(affected(&r) == Some(values.len() as u64), || {
                format!("{sql} loaded {r:?}, expected {} rows", values.len())
            });
            db.model.add(&values);
        }
        if let Some(replica) = replica {
            replica
                .fs()
                .write(&path, csv.as_bytes())
                .map_err(|e| format!("replica {path}: {e}"))?;
            layers::probe_execute(tr, tr.last("embedded.copy"), "engine.copy", replica, &sql)?;
        }
        read(db, tr, replica, ledger, &mut clock)?;
    }
    reopen(db, "copy_reopen", tr, ledger, &mut clock);
    Ok((Some(secs(clock.elapsed)), durable))
}

fn write(
    db: &mut Db,
    w: Write,
    rng: &mut Rng,
    tr: &Tracer,
    replica: Option<&Engine>,
    ledger: &mut Ledger,
    clock: &mut Round,
) -> Result<(), String> {
    let (sql, inserted, key) = match w {
        Write::Append => {
            let v = vec![draw(rng)];
            (values_insert("numbers", &v), v, None)
        }
        Write::Batch => {
            let v: Vec<i64> = (0..100).map(|_| draw(rng)).collect();
            (values_insert("numbers", &v), v, None)
        }
        Write::Update => {
            let k = db.model.pick(rng);
            (
                format!("UPDATE numbers SET i = i + 1 WHERE i = {k}"),
                Vec::new(),
                Some(k),
            )
        }
        Write::Delete => {
            let k = db.model.pick(rng);
            (
                format!("DELETE FROM numbers WHERE i = {k}"),
                Vec::new(),
                Some(k),
            )
        }
    };
    let emb = db.emb.as_mut().ok_or("no open engine")?;
    let (span, probe) = w.spans();
    let (r, d) = clock.time(|| tr.span(w.kind(), || tr.span(span, || emb.query(&sql))));
    let Some(r) = ledger.op(w.kind(), r, d) else {
        return Ok(());
    };
    let expected = match (w, key) {
        (Write::Update, Some(k)) => {
            let n = db.model.take(k);
            *db.model.values.entry(k + 1).or_insert(0) += n;
            db.model.sum += n as i64;
            n
        }
        (Write::Delete, Some(k)) => {
            let n = db.model.take(k);
            db.model.count -= n as i64;
            db.model.sum -= n as i64 * k;
            n
        }
        _ => {
            db.model.add(&inserted);
            inserted.len() as u64
        }
    };
    ledger.check(affected(&r) == Some(expected), || {
        format!("{sql:.60} reported {r:?}, expected {expected} rows")
    });
    if let Some(replica) = replica {
        layers::probe_execute(tr, tr.last(span), probe, replica, &sql)?;
    }
    Ok(())
}

fn read(
    db: &mut Db,
    tr: &Tracer,
    replica: Option<&Engine>,
    ledger: &mut Ledger,
    clock: &mut Round,
) -> Result<(), String> {
    let emb = db.emb.as_mut().ok_or("no open engine")?;
    let (r, d) = clock.time(|| tr.span("read", || tr.span("embedded.read", || emb.query(READ))));
    if let Some(r) = ledger.op("read", r, d) {
        verify(ledger, &r, &db.model, "read after write");
    }
    if let Some(replica) = replica {
        let parent = tr.last("embedded.read");
        layers::probe_execute(tr, parent, "engine.read", replica, READ)?;
        layers::probe_snapshot(tr, parent, replica);
    }
    Ok(())
}

/// Close the engine and open the directory again (replaying the WAL);
/// a reopen that fails is counted and leaves no engine open.
fn reopen(db: &mut Db, kind: &'static str, tr: &Tracer, ledger: &mut Ledger, clock: &mut Round) {
    drop(db.emb.take());
    let (opened, d) =
        clock.time(|| tr.span(kind, || tr.span("storage.open", || open(&db.dir, db.scale))));
    db.emb = ledger.op(kind, opened, d);
    check_read(db, ledger, kind);
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = Workdir::new("ingest").map_err(|e| e.to_string())?;
    let off = Tracer::off();
    let fresh = |name: &str| work.fresh(name).map_err(|e| e.to_string());
    let (first, setup_s) = timed(|| start(args, &work))?;
    let mut out = Outcome::new(args.trace, setup_s);

    // Every round runs the plan on a freshly loaded directory: the first
    // on the timed set-up, later ones on an untimed reload. A traced
    // round also feeds every statement to an in-memory replica, for the
    // engine floors.
    let mut next = Some(first);
    let mut durable = None;
    let started = Instant::now();
    let mut r = 0usize;
    while !out.enough(started, args, 1) {
        let traced = out.tracer.on() && r % 2 == 1;
        let tracer = if traced { &out.tracer } else { &off };
        let mut db = match next.take() {
            Some(db) => db,
            None => load(args, fresh("db")?, tracer)?,
        };
        let replica = if traced {
            let replica = Engine::new();
            load_numbers(
                &replica,
                &numbers(&mut Rng::new(args.seed), args.scale.rows),
                None,
            )?;
            Some(replica)
        } else {
            None
        };
        let start = RoundStart::now();
        let (t, d) = cycle(
            &mut db,
            args,
            r as u64,
            tracer,
            replica.as_ref(),
            &mut out.ledger,
        )?;
        out.push_round(traced, t, start);
        durable.get_or_insert(d);
        r += 1;
    }
    let more = more_setups(args.scale.setups - 1, || start(args, &work), drop)?;
    out.setup_s.extend(more);
    let durable = durable.expect("at least one round ran");

    let f = &mut out.figures;
    let reopen_s = median(out.ledger.get("reopen"));
    f.set("storage.checkpoints", durable.checkpoints as f64, "count");
    f.set(
        "storage.wal_bytes_per_record",
        durable.wal_bytes.saturating_sub(8) as f64 / durable.wal_records.max(1) as f64,
        "B",
    );
    f.set(
        "storage.snapshot_bytes_per_row",
        durable.snapshot_bytes as f64 / durable.snapshot_rows.max(1) as f64,
        "B/row",
    );
    f.set(
        "storage_bytes_per_row",
        (durable.wal_bytes + durable.snapshot_bytes) as f64 / durable.rows.max(1) as f64,
        "B/row",
    );
    f.set(
        "storage.replay_us_per_record",
        reopen_s * 1e6 / durable.wal_records.max(1) as f64,
        "us",
    );
    let failed_reopens = out
        .ledger
        .errors
        .iter()
        .filter(|e| e.starts_with("reopen:") || e.starts_with("copy_reopen:"))
        .count();
    f.set("storage.replay_failures", failed_reopens as f64, "count");
    Ok(out)
}
