//! `batch_linux`: one-shot analyses of the linux-shaped program, the
//! paper's measurement and the `ant solve` path. Each repetition runs
//! `parse_program` → `PassPipeline::run` → `solve_prepared_raw` →
//! `Solution::expand`, then answers one name query from the expanded
//! solution, as `ant query --pointer NAME` does after its analysis.

use crate::common::{self, median, min, Outcome, Setup};
use crate::inputs::{self, Rng};
use crate::reference::{name_hash, Reference};
use crate::refs;
use crate::trace::{PhaseTimes, Tracer};
use ant_constraints::pipeline::{PassPipeline, Prepared};
use ant_constraints::{parse_program, ConstraintKind, Program};
use ant_core::obs::Obs;
use ant_core::{solve_dyn_with_observer, solve_prepared_raw, Solution, SolverStats, VarId};
use std::time::Instant;

/// Original constraints whose closure every run checks.
const SAMPLE_SIMPLE: usize = 512;
const SAMPLE_COMPLEX: usize = 48;

/// Everything one analysis produced.
pub struct Analysis {
    pub program: Program,
    pub prepared: Prepared,
    pub solution: Solution,
    pub stats: SolverStats,
    pub phases: PhaseTimes,
    /// Seconds: parse + passes, text → expanded sets, text → the query
    /// answered.
    pub setup_s: f64,
    pub parse_s: f64,
    pub expand_s: f64,
    pub analysis_s: f64,
    pub first_s: f64,
    /// Hash of the query's answer, equal across repetitions.
    pub answer: u64,
}

/// One repetition, answering `points_to(query)` after the analysis when a
/// query is given. With the tracer on, the pipeline and the solver run
/// under an observer, so their phase times are filled in.
pub fn analyse(
    setup: &Setup,
    text: &str,
    query: Option<&str>,
    tr: &mut Tracer,
    req: u64,
) -> Analysis {
    let pipeline = PassPipeline::parse(&setup.opts.passes).expect("default pass list parses");
    let (config, pts) = (&setup.opts.config, setup.opts.pts);
    let mut phases = PhaseTimes::default();
    let t0 = Instant::now();
    tr.begin("analysis", req);
    tr.begin("parse", req);
    let program = parse_program(text).expect("generated text parses");
    tr.end();
    let parse_s = t0.elapsed().as_secs_f64();
    tr.begin("pipeline", req);
    let prepared = if tr.on() {
        pipeline.run_with_obs(&program, &mut Obs::new(&mut phases, config.progress_every))
    } else {
        pipeline.run(&program)
    };
    tr.end();
    let setup_s = t0.elapsed().as_secs_f64();
    tr.begin("algo", req);
    // The observed solve is the same computation as `solve_prepared_raw`
    // when no pass attached HCD metadata (the default pass list).
    let out = if tr.on() && prepared.hcd.is_none() {
        solve_dyn_with_observer(&prepared.program, config, pts, &mut phases)
    } else {
        solve_prepared_raw(&prepared, config, pts)
    };
    tr.end();
    tr.begin("solution", req);
    let t_expand = Instant::now();
    let solution = out.solution.expand(&prepared.mapping);
    let expand_s = t_expand.elapsed().as_secs_f64();
    tr.end();
    let analysis_s = t0.elapsed().as_secs_f64();
    tr.end();
    tr.begin("query", req);
    let answer = query.map_or(0, |v| {
        solution
            .points_to_names(&program, v)
            .expect("the queried name exists")
            .iter()
            .fold(0u64, |h, n| h.rotate_left(5) ^ name_hash(n))
    });
    tr.end();
    let first_s = t0.elapsed().as_secs_f64();
    Analysis {
        program,
        prepared,
        solution,
        stats: out.stats,
        phases,
        setup_s,
        parse_s,
        expand_s,
        analysis_s,
        first_s,
        answer,
    }
}

pub fn run(setup: &Setup, tr: &mut Tracer) -> Outcome {
    let input = inputs::generate("linux", setup.size.batch_scale(), setup.seed, 0);
    crate::print_input("batch_linux", &input);
    let names = inputs::text_names(&input.text);
    let query = names[Rng::new(setup.seed ^ 0xBA7C).below(names.len())].clone();
    drop(names);
    println!("query: points_to {query}");
    let query = Some(query.as_str());
    let mut out = Outcome::default();

    // One untimed warm-up, so that any one-off cost of a process's first
    // analysis stays out of the figures.
    let warm = analyse(setup, &input.text, query, &mut Tracer::new(false), 0);
    eprintln!(
        "warm-up repetition: setup {:.3} s, analysis {:.3} s, answer {:.3} s",
        warm.setup_s, warm.analysis_s, warm.first_s
    );
    drop(warm);
    if tr.on() {
        // The traced run times one untraced repetition to set against the
        // traced one.
        out.untraced_s = analyse(setup, &input.text, query, &mut Tracer::new(false), 0).first_s;
    }
    let (mut setup_s, mut analysis_s, mut first_s) = (vec![], vec![], vec![]);
    let mut answers = vec![];
    let mut last: Option<Analysis> = None;
    let start = Instant::now();
    while last.is_none()
        || !tr.on() && (answers.len() < 2 || start.elapsed().as_secs_f64() < setup.seconds)
    {
        // Free the previous repetition first: two expanded solutions must
        // never be live at once.
        drop(last.take());
        let a = analyse(setup, &input.text, query, tr, answers.len() as u64 + 1);
        setup_s.push(a.setup_s);
        analysis_s.push(a.analysis_s);
        first_s.push(a.first_s);
        answers.push((a.solution.total_pts_size(), a.answer));
        eprintln!(
            "repetition {}: setup {:.3} s, analysis {:.3} s, answer {:.3} s",
            answers.len(),
            a.setup_s,
            a.analysis_s,
            a.first_s
        );
        last = Some(a);
    }
    out.traced_s = first_s[0];
    let peak = common::peak_rss_mb();
    out.attempted = answers.len() as u64;
    // The best repetition, as the paper reports the best of three runs;
    // set-up is the median (see README.md). A one-shot analysis has no
    // edits or query stream of its own: an edit is answered by analysing
    // the edited text again, and a query costs a whole analysis.
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("analysis_s", min(&analysis_s), "s");
    out.metric("first_answer_s", min(&first_s), "s");
    out.metric("edit_s", min(&analysis_s), "s");
    out.metric("queries_per_s", 1.0 / min(&first_s), "1/s");
    out.metric("units_per_s", 1.0 / min(&analysis_s), "1/s");
    out.metric("peak_rss_mb", peak, "MiB");

    let a = last.expect("at least one repetition ran");
    let fingerprint = (a.solution.total_pts_size(), a.answer);
    out.failed = answers.iter().filter(|&&f| f != fingerprint).count() as u64;
    if out.failed > 0 {
        out.error(format!("{} repetitions answered differently", out.failed));
    }
    check(setup, &input, &a, &mut out);
    if !out.errors.is_empty() {
        out.failed = out.attempted;
    }
    if tr.on() {
        let mut figures = crate::layers::OneShot::default();
        figures.add(&a, input.text.len());
        drop(a);
        figures.emit(&mut out);
        crate::serve::session_walk(setup, &input, tr, &mut out);
    }
    out
}

/// Checks one analysis: the recorded reference at the default seed, the
/// closure of a fixed sample of original constraints, and an exact match
/// with the reference solver on a small instance of the same generator.
fn check(setup: &Setup, input: &inputs::Input, a: &Analysis, out: &mut Outcome) {
    if setup.seed == inputs::DEFAULT_SEED && setup.size == inputs::Size::Full {
        refs::check(
            out,
            "batch_linux",
            input.hash,
            common::solution_digest(&a.program, &a.solution),
        );
    }
    for e in closure_sample(&a.program, &a.solution) {
        out.error(e);
    }
    let small = inputs::generate("linux", setup.size.check_scale(), setup.seed, 0);
    let s = analyse(setup, &small.text, None, &mut Tracer::new(false), 0);
    let reference = Reference::solve(&small.text).expect("generated text is in the format");
    for e in common::compare_with_reference(&s.program, &s.solution, &reference) {
        out.error(format!("{}: {e}", small.label));
    }
}

/// Every constraint in a fixed, evenly spaced sample of the original
/// constraints holds in `solution`.
pub fn closure_sample(program: &Program, solution: &Solution) -> Vec<String> {
    let cs = program.constraints();
    let complex: Vec<usize> = (0..cs.len())
        .filter(|&i| matches!(cs[i].kind, ConstraintKind::Load | ConstraintKind::Store))
        .collect();
    let simple: Vec<usize> = (0..cs.len())
        .filter(|&i| !matches!(cs[i].kind, ConstraintKind::Load | ConstraintKind::Store))
        .collect();
    let every = |v: &[usize], n: usize| -> Vec<usize> {
        let step = v.len().div_ceil(n).max(1);
        v.iter().step_by(step).copied().collect()
    };
    let mut member = vec![0u64; program.num_vars().div_ceil(64)];
    let mut bad = Vec::new();
    // `pts(to) ⊇ pts(from)`, through a bitmap of `pts(to)`.
    let mut includes = |to: VarId, from: VarId| -> bool {
        member.iter_mut().for_each(|w| *w = 0);
        for &l in solution.points_to(to) {
            member[l as usize / 64] |= 1 << (l % 64);
        }
        solution
            .points_to(from)
            .iter()
            .all(|&l| member[l as usize / 64] & (1 << (l % 64)) != 0)
    };
    for i in every(&simple, SAMPLE_SIMPLE)
        .into_iter()
        .chain(every(&complex, SAMPLE_COMPLEX))
    {
        let c = cs[i];
        let ok = match c.kind {
            ConstraintKind::AddrOf => solution.may_point_to(c.lhs, c.rhs),
            ConstraintKind::Copy => includes(c.lhs, c.rhs),
            ConstraintKind::Load | ConstraintKind::Store => {
                let base = if c.kind == ConstraintKind::Load {
                    c.rhs
                } else {
                    c.lhs
                };
                solution.points_to(base).iter().all(|&o| {
                    let o = VarId::from_u32(o);
                    if c.offset >= program.offset_limit(o) {
                        return true;
                    }
                    let slot = o.offset(c.offset);
                    if c.kind == ConstraintKind::Load {
                        includes(c.lhs, slot)
                    } else {
                        includes(slot, c.rhs)
                    }
                })
            }
        };
        if !ok && bad.len() < 5 {
            bad.push(format!(
                "constraint #{i} ({c}) does not hold in the solution"
            ));
        }
    }
    bad
}
