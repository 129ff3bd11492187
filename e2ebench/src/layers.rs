//! Per-layer figures of a traced run, named by module: `parse`,
//! `pipeline`, `algo`, `pts`, `solution` from one-shot analyses, and
//! `session`, `resume` from sessions driven through `handle_line(s)`.

use crate::batch::Analysis;
use crate::common::{median, quantile, Outcome};
use ant_core::SolverStats;

const MIB: f64 = 1024.0 * 1024.0;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One-shot analyses, summed (memory: the largest).
#[derive(Default)]
pub struct OneShot {
    parse_s: f64,
    bytes: usize,
    normalize_s: f64,
    ovs_s: f64,
    before: usize,
    after: usize,
    stats: SolverStats,
    pts_bytes: usize,
    graph_bytes: usize,
    aux_bytes: usize,
    expand_s: f64,
    tuples: u64,
    phases: std::collections::BTreeMap<&'static str, f64>,
}

impl OneShot {
    pub fn add(&mut self, a: &Analysis, text_bytes: usize) {
        self.parse_s += a.parse_s;
        self.bytes += text_bytes;
        for p in &a.prepared.summaries {
            match p.pass {
                "normalize" => self.normalize_s += p.elapsed.as_secs_f64(),
                "ovs" => self.ovs_s += p.elapsed.as_secs_f64(),
                _ => {}
            }
        }
        self.before += a.prepared.constraints_before();
        self.after += a.prepared.constraints_after();
        self.stats += &a.stats;
        self.pts_bytes = self.pts_bytes.max(a.stats.pts_bytes);
        self.graph_bytes = self.graph_bytes.max(a.stats.graph_bytes);
        self.aux_bytes = self.aux_bytes.max(a.stats.aux_bytes);
        self.expand_s += a.expand_s;
        self.tuples += a.solution.total_pts_size() as u64;
        for (phase, d) in &a.phases.0 {
            *self.phases.entry(phase).or_default() += d.as_secs_f64();
        }
    }

    pub fn emit(&self, out: &mut Outcome) {
        println!("phase spans reported to the observer (one-shot analyses):");
        for (phase, s) in &self.phases {
            println!("  {phase:<18} {s:>12.6} s");
        }
        let f = |x: u64| x as f64;
        out.metric("parse.s", self.parse_s, "s");
        out.metric(
            "parse.mb_per_s",
            ratio(self.bytes as f64 / MIB, self.parse_s),
            "MiB/s",
        );
        out.metric("pipeline.normalize_s", self.normalize_s, "s");
        out.metric("pipeline.ovs_s", self.ovs_s, "s");
        out.metric(
            "pipeline.removed_ratio",
            1.0 - ratio(self.after as f64, self.before as f64),
            "ratio",
        );
        let s = &self.stats;
        out.metric("algo.solve_s", s.solve_time.as_secs_f64(), "s");
        out.metric("algo.hcd_offline_s", s.offline_time.as_secs_f64(), "s");
        out.metric("algo.propagate_s", s.propagate_time.as_secs_f64(), "s");
        out.metric("algo.complex_s", s.complex_time.as_secs_f64(), "s");
        out.metric("algo.cycle_s", s.cycle_time.as_secs_f64(), "s");
        out.metric("algo.propagations", f(s.propagations), "count");
        out.metric(
            "algo.changed_ratio",
            ratio(f(s.propagations_changed), f(s.propagations)),
            "ratio",
        );
        out.metric("algo.propagated_mb", f(s.propagated_bytes) / MIB, "MiB");
        out.metric("algo.edges_added", f(s.edges_added), "count");
        out.metric("algo.complex_iters", f(s.complex_iters), "count");
        out.metric("algo.nodes_collapsed", f(s.nodes_collapsed), "count");
        out.metric("algo.cycle_searches", f(s.cycle_searches), "count");
        out.metric(
            "algo.lcd_hit_ratio",
            ratio(f(s.cycles_found), f(s.cycle_searches)),
            "ratio",
        );
        out.metric("algo.nodes_searched", f(s.nodes_searched), "count");
        out.metric("algo.pts_mb", self.pts_bytes as f64 / MIB, "MiB");
        out.metric("algo.graph_mb", self.graph_bytes as f64 / MIB, "MiB");
        out.metric("algo.aux_mb", self.aux_bytes as f64 / MIB, "MiB");
        out.metric(
            "pts.intern_hit_ratio",
            ratio(f(s.intern_hits), f(s.intern_hits + s.intern_misses)),
            "ratio",
        );
        out.metric(
            "pts.memo_hit_ratio",
            ratio(f(s.memo_hits), f(s.memo_hits + s.memo_misses)),
            "ratio",
        );
        out.metric("pts.distinct_sets", f(s.distinct_sets), "count");
        out.metric("solution.expand_s", self.expand_s, "s");
        out.metric("solution.tuples", f(self.tuples), "count");
    }
}

/// Requests answered by sessions.
#[derive(Default)]
pub struct Sessions {
    pub load_s: Vec<f64>,
    pub first_solve_s: Vec<f64>,
    pub points_to_us: Vec<f64>,
    pub may_alias_us: Vec<f64>,
    pub reply_bytes: u64,
    pub add_s: Vec<f64>,
    pub resumed: u64,
    pub solves: u64,
    pub hits: u64,
    pub misses: u64,
    pub retained_bytes: u64,
}

impl Sessions {
    /// Folds in one finished session's counters and `stats` reply.
    pub fn finish(&mut self, session: &mut ant_core::session::AnalysisSession) {
        let (solves, _) = session.solve_counters();
        let (hits, misses) = session.cache_counters();
        self.solves += solves;
        self.hits += hits;
        self.misses += misses;
        let stats = session.handle_line(r#"{"op":"stats"}"#).json;
        let retained = stats
            .split(r#""retained_bytes":"#)
            .nth(1)
            .and_then(|r| r.split([',', '}']).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
        self.retained_bytes = self.retained_bytes.max(retained);
    }

    pub fn emit(&self, out: &mut Outcome) {
        let queries: Vec<f64> = self
            .points_to_us
            .iter()
            .chain(&self.may_alias_us)
            .copied()
            .collect();
        out.metric("session.load_s", median(&self.load_s), "s");
        out.metric("session.first_solve_s", median(&self.first_solve_s), "s");
        out.metric("session.points_to_us", median(&self.points_to_us), "us");
        out.metric("session.may_alias_us", median(&self.may_alias_us), "us");
        out.metric("session.query_p99_us", quantile(&queries, 0.99), "us");
        out.metric(
            "session.reply_bytes",
            ratio(self.reply_bytes as f64, queries.len() as f64),
            "B",
        );
        out.metric("session.add_s", median(&self.add_s), "s");
        out.metric("session.solves", self.solves as f64, "count");
        out.metric(
            "session.cache_hit_ratio",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
            "ratio",
        );
        out.metric(
            "session.retained_mb",
            self.retained_bytes as f64 / MIB,
            "MiB",
        );
        out.metric(
            "resume.resumed_ratio",
            ratio(self.resumed as f64, self.add_s.len() as f64),
            "ratio",
        );
    }
}
