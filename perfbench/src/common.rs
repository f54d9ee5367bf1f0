//! Pieces every workload shares: seeded inputs, the UDF bodies of the
//! paper's Scenario A, the round stopwatch, sample statistics and the
//! run report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use devharness::Rng;

/// Sizes of one run. `full` is what the benchmark measures; `smoke` runs
/// the identical code path in a few seconds for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the `numbers` table.
    pub rows: usize,
    /// Edit→run reruns per Scenario A round.
    pub reruns: usize,
    /// Fewest measured rounds of a TCP workload, whatever the clock says.
    pub min_rounds: usize,
    /// Write blocks of `ingest_embedded` (each a fixed mix of 20 writes).
    pub write_blocks: usize,
    /// Reopens of the data directory after the write phase.
    pub reopens: usize,
    /// CSV files (and `COPY INTO` statements) of the ingest phase.
    pub csv_files: usize,
    /// Rows per CSV file.
    pub csv_rows: usize,
    /// WAL records per automatic checkpoint.
    pub snapshot_every: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rows: 200_000,
        reruns: 20,
        min_rounds: 5,
        write_blocks: 100,
        reopens: 3,
        csv_files: 8,
        csv_rows: 500,
        snapshot_every: 1024,
        setups: 3,
    };

    pub const SMOKE: Scale = Scale {
        rows: 2_000,
        reruns: 4,
        min_rounds: 2,
        write_blocks: 6,
        reopens: 2,
        csv_files: 2,
        csv_rows: 20,
        snapshot_every: 64,
        setups: 2,
    };
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// The buggy `mean_deviation` body of the paper's Listing 4: the
/// deviations cancel out, so the result is about 0.
pub const BUGGY_BODY: &str = "\
mean = 0
for i in range(0, len(column)):
    mean += column[i]
mean = mean / len(column)
distance = 0
for i in range(0, len(column)):
    distance += column[i] - mean
deviation = distance / len(column)
return deviation
";

/// Scenario A's fix: absolute deviations.
pub const FIXED_BODY: &str = "\
mean = 0
for i in range(0, len(column)):
    mean += column[i]
mean = mean / len(column)
distance = 0
for i in range(0, len(column)):
    distance += abs(column[i] - mean)
deviation = distance / len(column)
return deviation
";

/// The same fixed math written against vectorised aggregates.
pub const STRAIGHT_BODY: &str = "\
mean = sum(column) / len(column)
return sum(abs(column - mean)) / len(column)
";

pub const UDF: &str = "mean_deviation";
pub const DEBUG_QUERY: &str = "SELECT mean_deviation(i) FROM numbers";
pub const DATABASE: &str = "demo";
pub const USER: &str = "monetdb";
pub const PASSWORD: &str = "monetdb";

/// Values the generator draws from: `0..LEVELS + NOISE`.
pub const LEVELS: u64 = 500;
pub const NOISE: u64 = 4;

/// Settings of a session with the in-process server listening on `addr`.
pub fn tcp_settings(
    addr: std::net::SocketAddr,
    transfer: devudf::TransferSettings,
) -> devudf::Settings {
    devudf::Settings {
        host: addr.ip().to_string(),
        port: addr.port(),
        debug_query: DEBUG_QUERY.to_string(),
        transfer,
        ..devudf::Settings::default()
    }
}

pub fn create_udf(body: &str) -> String {
    format!(
        "CREATE OR REPLACE FUNCTION {UDF}(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {{\n{body}}}"
    )
}

/// Sensor-style column values: a slowly drifting level plus small noise,
/// so neighbouring rows correlate as real columns do. The seed moves the
/// drift's phase and the noise, never the shape, so every seed costs the
/// same work.
pub fn numbers(rng: &mut Rng, rows: usize) -> Vec<i64> {
    let phase = rng.u64_below(LEVELS);
    (0..rows)
        .map(|idx| (((idx as u64 / 64) + phase) % LEVELS + rng.u64_below(NOISE)) as i64)
        .collect()
}

/// `INSERT` statements loading `values` in chunks of 2 000 rows.
pub fn insert_statements(table: &str, values: &[i64]) -> Vec<String> {
    values
        .chunks(2000)
        .map(|chunk| values_insert(table, chunk))
        .collect()
}

pub fn values_insert(table: &str, values: &[i64]) -> String {
    let rows: Vec<String> = values.iter().map(|v| format!("({v})")).collect();
    format!("INSERT INTO {table} VALUES {}", rows.join(", "))
}

/// Load `numbers` into an engine: table, rows and (optionally) the UDF.
pub fn load_numbers(
    db: &monetlite::Engine,
    values: &[i64],
    body: Option<&str>,
) -> Result<(), String> {
    let exec = |sql: &str| db.execute(sql).map(drop).map_err(|e| e.to_string());
    exec("CREATE TABLE numbers (i INTEGER)")?;
    for sql in insert_statements("numbers", values) {
        exec(&sql)?;
    }
    if let Some(body) = body {
        exec(&create_udf(body))?;
    }
    Ok(())
}

/// Fisher–Yates shuffle driven by the workload's rng.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_below(i + 1));
    }
}

/// A fresh scratch directory inside the checkout (the benchmark writes
/// nowhere else); removed again by [`Workdir`]'s drop.
pub struct Workdir(pub PathBuf);

impl Workdir {
    pub fn new(tag: &str) -> std::io::Result<Workdir> {
        let dir = out_dir().join(format!("work-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Workdir(dir))
    }

    /// An empty subdirectory `name`, replacing any previous one.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes scratch state and the span files:
/// `perfbench/out` under the directory the benchmark runs from.
pub fn out_dir() -> PathBuf {
    Path::new("perfbench").join("out")
}

/// Accumulates the wall time of one round's operations; the benchmark's
/// own checks and probes run between [`Round::time`] calls and are not
/// counted.
#[derive(Default)]
pub struct Round {
    pub elapsed: Duration,
}

impl Round {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let d = start.elapsed();
        self.elapsed += d;
        (r, d)
    }
}

/// Per-operation-kind latency samples plus the attempted/failed counts and
/// output checks of one run.
#[derive(Default)]
pub struct Ledger {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Transfer statistics of every fetch.
    pub transfers: Vec<wireproto::TransferStats>,
    /// What the codec probes of each traced extract measured.
    pub shipped: Vec<crate::layers::CodecFigures>,
    pub errors: Vec<String>,
    pub mismatches: Vec<String>,
}

impl Ledger {
    /// Record one attempted operation of `kind` taking `d`. A failed one
    /// is counted and its error kept, never timed.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        kind: &'static str,
        result: Result<T, E>,
        d: Duration,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => {
                self.samples.entry(kind).or_default().push(secs(d));
                Some(v)
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{kind}: {e}"));
                None
            }
        }
    }

    /// An output check; a false one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn get(&self, kind: &str) -> &[f64] {
        self.samples.get(kind).map(Vec::as_slice).unwrap_or(&[])
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1) of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// User plus system CPU time of this process, all threads (exited ones
/// included), in seconds: `/proc/self/stat` fields 14 and 15, which
/// Linux reports in units of 1/100 s. Time the hypervisor steals from the
/// virtual CPUs is not in it, which is what makes it steadier than wall
/// time on a shared host.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Reset this process's peak resident set size (`VmHWM`) to its current
/// one, so that the next [`peak_rss_mb`] covers what happened since.
pub fn reset_peak_rss() {
    // Linux: writing 5 to clear_refs resets the peak RSS counter.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The metrics of one run, by name, with their units.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// Time one set-up, in seconds.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let v = f()?;
    Ok((v, secs(start.elapsed())))
}

/// Run `n` more set-ups, each timed and then handed to `discard`. A
/// workload makes them after its measurement (and after reading its peak
/// RSS, which so reflects one set-up); `setup_s` is the median of all.
pub fn more_setups<T>(
    n: usize,
    mut f: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (v, t) = timed(&mut f)?;
            discard(v);
            Ok(t)
        })
        .collect()
}
