//! Spans around the benchmark's calls into the library, plus the solver
//! events the library already reports through its `Observer` interface.
//! Nothing here reaches inside the program: every span starts and ends in
//! the benchmark's own code.

use ant_core::obs::{Observer, Phase, SolveEvent};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One timed call: `name` is the layer (`parse`, `pipeline`, `algo`,
/// `solution`, `session`, `query`, ...), `req` the request or repetition it
/// belongs to.
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span recorder; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Per layer: (calls, total time, self time) — self time is a span's
    /// duration minus the part its child spans cover.
    pub fn layers(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            let d = s.end - s.start;
            e.0 += 1;
            e.1 += d.as_secs_f64();
            e.2 += d.saturating_sub(c).as_secs_f64();
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","req":{},"parent":{},"start_us":{},"end_us":{}}}"#,
                s.name,
                s.req,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        w.flush()
    }
}

/// Sums the phase spans the solver and the pass pipeline report.
#[derive(Default)]
pub struct PhaseTimes(pub BTreeMap<&'static str, Duration>);

impl Observer for PhaseTimes {
    fn on_event(&mut self, event: &SolveEvent) {
        if let SolveEvent::PhaseEnd { phase, duration } = event {
            *self.0.entry(Phase::name(*phase)).or_default() += *duration;
        }
    }
}
