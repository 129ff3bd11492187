//! What every workload shares: the analysis configuration, the run's
//! outcome, order statistics, reply parsing and the by-name digest of a
//! library solution.

use crate::reference::{name_hash, Digest, Reference, SetHash};
use ant_constraints::Program;
use ant_core::session::SessionOptions;
use ant_core::{Algorithm, PropMode, PtsKind, Solution, SolverConfig};
use std::collections::HashMap;

/// The analysis under test and the run's parameters.
pub struct Setup {
    pub opts: SessionOptions,
    pub size: crate::inputs::Size,
    pub seed: u64,
    pub seconds: f64,
}

impl Setup {
    /// The library's default configuration: LCD+HCD, with the
    /// representation and pass list `SessionOptions::new` picks. `pts` and
    /// `prop` override them for the README's reference figures only.
    pub fn new(
        size: crate::inputs::Size,
        seed: u64,
        seconds: f64,
        pts: Option<PtsKind>,
        prop: Option<PropMode>,
    ) -> Setup {
        let mut opts = SessionOptions::new(SolverConfig::new(Algorithm::LcdHcd));
        if let Some(pts) = pts {
            opts.pts = pts;
        }
        if let Some(prop) = prop {
            opts.config.prop = prop;
        }
        Setup {
            opts,
            size,
            seed,
            seconds,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "algorithm={} pts={} prop={} passes={} threads={} size={} seed={}",
            self.opts.config.algorithm.name(),
            self.opts.pts.name(),
            self.opts.config.prop.name(),
            self.opts.passes,
            self.opts.config.threads,
            self.size.name(),
            self.seed
        )
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures, one line each; empty when every output checked out.
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Traced runs: the same operations timed untraced and traced, seconds.
    pub untraced_s: f64,
    pub traced_s: f64,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.errors.push(msg);
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A reply with its `micros` field (always last) cut off: what two
/// answers to the same request must agree on.
pub fn payload(json: &str) -> &str {
    json.rfind(r#","micros":"#).map_or(json, |i| &json[..i])
}

/// The location names of a `points_to` reply.
pub fn reply_pts(json: &str) -> Option<Vec<&str>> {
    let start = json.find(r#""pts":["#)? + 7;
    let len = json[start..].find(']')?;
    let list = &json[start..start + len];
    if list.is_empty() {
        return Some(Vec::new());
    }
    Some(
        list.split(',')
            .map(|s| s.trim_matches('"'))
            .collect::<Vec<_>>(),
    )
}

/// The answer of a `may_alias` reply.
pub fn reply_alias(json: &str) -> Option<bool> {
    if json.contains(r#""alias":true"#) {
        Some(true)
    } else if json.contains(r#""alias":false"#) {
        Some(false)
    } else {
        None
    }
}

/// By-name digest of a library solution over `program`'s variables.
pub fn solution_digest(program: &Program, solution: &Solution) -> Digest {
    let hashes: Vec<u64> = program
        .vars()
        .map(|v| name_hash(program.var_name(v)))
        .collect();
    let mut d = Digest::default();
    for v in program.vars() {
        let mut set = SetHash::default();
        for &loc in solution.points_to(v) {
            set.add(hashes[loc as usize]);
        }
        d.add(program.var_name(v), set);
    }
    d
}

/// Compares every variable of a library solution with the reference, by
/// name; returns the first few disagreements.
pub fn compare_with_reference(
    program: &Program,
    solution: &Solution,
    reference: &Reference,
) -> Vec<String> {
    let mut bad = Vec::new();
    let by_name: HashMap<&str, _> = program.vars().map(|v| (program.var_name(v), v)).collect();
    for name in reference.names() {
        let want = reference
            .points_to(name)
            .expect("reference knows its names");
        let got: Vec<&str> = match by_name.get(name.as_str()) {
            Some(&v) => {
                let mut s: Vec<&str> = solution
                    .points_to(v)
                    .iter()
                    .map(|&l| program.var_name(ant_core::VarId::from_u32(l)))
                    .collect();
                s.sort_unstable();
                s
            }
            None => Vec::new(),
        };
        if got != want && bad.len() < 5 {
            bad.push(format!(
                "pts({name}): library has {} locations, reference {}",
                got.len(),
                want.len()
            ));
        }
    }
    if by_name.len() != reference.names().len() && bad.len() < 5 {
        bad.push(format!(
            "library has {} variables, reference {}",
            by_name.len(),
            reference.names().len()
        ));
    }
    bad
}
