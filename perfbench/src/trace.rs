//! The benchmark's own span recorder. Spans are kept in memory and
//! written out once, at the end of the run.
//!
//! Two kinds of span attribute an operation's time to layers:
//! * a *timed* span wraps a call the operation really makes, so it nests
//!   inside the operation in time;
//! * a *probe* span times a layer's public function called again, after
//!   the operation, on the inputs the operation used (or on an in-memory
//!   replica of the table). It hangs under the span whose time it
//!   explains but lies outside every round's measured time.
//!
//! A span's self time is its duration minus its children's; an
//! operation's self time is the part no layer claims (`unattributed`).

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: Duration,
    pub dur: Duration,
    pub probe: bool,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// A tracer that records nothing (untraced rounds).
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(span);
        spans.len() - 1
    }

    /// Run `f` inside a timed span `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let start = self.epoch.elapsed();
        let id = self.push(Span {
            parent,
            name,
            start,
            dur: Duration::ZERO,
            probe: false,
        });
        self.stack.borrow_mut().push(id);
        let r = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].dur = self.epoch.elapsed() - start;
        r
    }

    /// Id of the most recent span called `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.borrow().iter().rposition(|s| s.name == name)
    }

    /// Time `f` as a probe span `name` under `parent`. Untraced rounds
    /// skip the probe entirely. Returns the new span's id with `f`'s
    /// result.
    pub fn probe<R>(
        &self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> Option<(usize, R)> {
        if !self.on {
            return None;
        }
        let start = self.epoch.elapsed();
        let r = f();
        let dur = self.epoch.elapsed() - start;
        let id = self.push(Span {
            parent,
            name,
            start,
            dur,
            probe: true,
        });
        Some((id, r))
    }

    /// Record a span whose duration is derived rather than timed (the
    /// rest of a parent once its measured children are taken away).
    pub fn derived(&self, parent: Option<usize>, name: &'static str, dur: Duration) {
        if self.on {
            let start = self.epoch.elapsed();
            self.push(Span {
                parent,
                name,
                start,
                dur,
                probe: true,
            });
        }
    }

    pub fn dur(&self, id: usize) -> Duration {
        self.spans.borrow()[id].dur
    }

    /// Self time of each span: duration minus its children's, floored at
    /// zero (a probe can outlast the call it explains).
    pub fn self_times(&self) -> Vec<Duration> {
        let spans = self.spans.borrow();
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur.saturating_sub(c))
            .collect()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times();
        self.spans
            .borrow()
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect()
    }

    /// For each root span called `op`: the share of its time that layer
    /// spans cover (in %) and the unattributed rest (ms).
    pub fn reconcile(&self, op: &str) -> (Vec<f64>, Vec<f64>) {
        let selfs = self.self_times();
        self.spans
            .borrow()
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.parent.is_none() && s.name == op && !s.dur.is_zero())
            .map(|(s, rest)| {
                let covered = 1.0 - rest.as_secs_f64() / s.dur.as_secs_f64();
                (100.0 * covered, rest.as_secs_f64() * 1e3)
            })
            .unzip()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.borrow().iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1},\"self_us\":{:.1},\"probe\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                own.as_secs_f64() * 1e6,
                s.probe
            )?;
        }
        out.flush()
    }
}
