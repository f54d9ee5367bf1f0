//! What a workload hands back to the report: its ledger of operations,
//! set-up and round times, spans and the figures only it can compute.

use std::time::Instant;

use wireproto::message::{WireResult, WireValue};

use crate::common::{median, peak_rss_mb, process_cpu_s, reset_peak_rss, Args, Ledger, Metrics};
use crate::trace::Tracer;

pub struct Outcome {
    pub tracer: Tracer,
    pub ledger: Ledger,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak RSS (MiB) of each untraced round.
    pub round_rss: Vec<f64>,
    /// Seconds of each untraced round.
    pub rounds: Vec<f64>,
    /// Seconds of each traced round (probes excluded).
    pub traced_rounds: Vec<f64>,
    /// Process CPU seconds of each untraced round.
    pub round_cpu: Vec<f64>,
    /// Per-layer figures computed by the workload itself (counts, sizes,
    /// ratios).
    pub figures: Metrics,
}

impl Outcome {
    pub fn new(trace: bool, setup_s: f64) -> Outcome {
        Outcome {
            tracer: Tracer::new(trace),
            ledger: Ledger::default(),
            setup_s: vec![setup_s],
            round_rss: Vec::new(),
            rounds: Vec::new(),
            traced_rounds: Vec::new(),
            round_cpu: Vec::new(),
            figures: Metrics::default(),
        }
    }

    /// A workload has measured enough once `--seconds` have passed and it
    /// holds `min_rounds` untraced rounds (and as many traced ones in a
    /// traced run). It stops regardless once four times the budget has
    /// passed, so that failing rounds cannot loop forever.
    pub fn enough(&self, started: Instant, args: &Args, min_rounds: usize) -> bool {
        let elapsed = started.elapsed().as_secs_f64();
        let counts = self.rounds.len() >= min_rounds
            && (!self.tracer.on() || self.traced_rounds.len() >= min_rounds);
        (elapsed >= args.seconds && counts) || elapsed >= 4.0 * args.seconds + 60.0
    }

    /// Median bytes per row on the wire and before the codecs, over every
    /// fetch; returns the median wire length.
    pub fn wire_figures(&mut self, rows: usize) -> f64 {
        let med = |f: fn(&wireproto::TransferStats) -> usize| {
            median(
                &self
                    .ledger
                    .transfers
                    .iter()
                    .map(|s| f(s) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let (wire, raw) = (med(|s| s.wire_len), med(|s| s.raw_len));
        self.figures
            .set("wire.bytes_per_row", wire / rows as f64, "B/row");
        self.figures
            .set("wire.raw_bytes_per_row", raw / rows as f64, "B/row");
        wire
    }

    /// Record a round's wall time `t` (`None` when it was cut short), with
    /// the process CPU time and the peak RSS since `start`.
    pub fn push_round(&mut self, traced: bool, t: Option<f64>, start: RoundStart) {
        let cpu = process_cpu_s() - start.cpu;
        if let Some(t) = t {
            if traced {
                self.traced_rounds.push(t);
            } else {
                self.rounds.push(t);
                self.round_cpu.push(cpu);
                self.round_rss.push(peak_rss_mb());
            }
        }
    }
}

/// Where a round began: the process CPU time so far. Taking it also
/// resets the peak RSS, so that each round's peak is its own.
pub struct RoundStart {
    cpu: f64,
}

impl RoundStart {
    pub fn now() -> RoundStart {
        reset_peak_rss();
        RoundStart {
            cpu: process_cpu_s(),
        }
    }
}

/// The single value of a one-row, one-column result as a float.
pub fn scalar_f64(r: &WireResult) -> Option<f64> {
    match r {
        WireResult::Table(t) => match t.rows.first()?.first()? {
            WireValue::Double(d) => Some(*d),
            WireValue::Int(i) => Some(*i as f64),
            _ => None,
        },
        WireResult::Affected { .. } => None,
    }
}

/// The integer cells of a result's first row.
pub fn first_row_ints(r: &WireResult) -> Option<Vec<i64>> {
    match r {
        WireResult::Table(t) => t
            .rows
            .first()?
            .iter()
            .map(|v| match v {
                WireValue::Int(i) => Some(*i),
                WireValue::Double(d) if d.fract() == 0.0 => Some(*d as i64),
                _ => None,
            })
            .collect(),
        WireResult::Affected { .. } => None,
    }
}

/// Rows a write reports as affected.
pub fn affected(r: &WireResult) -> Option<u64> {
    match r {
        WireResult::Affected { rows, .. } => Some(*rows),
        WireResult::Table(_) => None,
    }
}
