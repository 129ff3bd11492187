//! `many_units`: a stream of small, distinct emacs-shaped translation
//! units, each loaded into one session and queried. Every fourth unit is
//! loaded without its last constraints and then edited: an `add` of the
//! held-back constraints, followed by the same queries again. Every fourth
//! unit is followed by a revisit of the unit loaded two before it, which
//! the session's 8-entry solve cache still holds.

use crate::common::{self, median, payload, Outcome, Setup};
use crate::inputs::{self, Input, Rng};
use crate::layers::{OneShot, Sessions};
use crate::reference::{name_hash, Reference};
use crate::trace::Tracer;
use ant_core::session::{AnalysisSession, Reply};
use std::time::Instant;

/// Queries per visit, chosen to keep a unit's queries a small share of its
/// load: `points_to` then `may_alias` requests.
const POINTS_TO: usize = 16;
const MAY_ALIAS: usize = 8;
/// Unit `i` is edited when `i % EDIT_EVERY == EDIT_AT`...
const EDIT_EVERY: usize = 4;
const EDIT_AT: usize = 2;
/// ...by one `add` of this share of its constraints, held back from its
/// load.
const HELD: f64 = 0.05;
/// A revisit follows every `REVISIT_EVERY`-th unit and goes back
/// `REVISIT_BACK` units, to a unit that is never edited.
const REVISIT_EVERY: usize = 4;
const REVISIT_BACK: usize = 2;

struct Unit {
    input: Input,
    /// The `load` request: the whole unit, or the base of an edited unit.
    load: String,
    /// An edited unit's base text and its `add` request.
    edit: Option<(String, String)>,
    /// Names of the loaded text only, so that every query is answerable
    /// before and after the edit.
    queries: Vec<String>,
}

/// The load order of one round: unit indices, revisits included.
fn order(units: usize) -> Vec<(usize, bool)> {
    let mut out = Vec::new();
    for i in 0..units {
        out.push((i, false));
        if i % REVISIT_EVERY == REVISIT_EVERY - 1 {
            out.push((i - REVISIT_BACK, true));
        }
    }
    out
}

/// Timings of one visit, in seconds.
struct Visit {
    load_s: f64,
    first_s: f64,
    /// The `add` request of an edited unit, request → reply.
    add_s: Option<f64>,
    /// Read-only requests after each version's first reply, and their time.
    queries: usize,
    burst_s: f64,
    total_s: f64,
}

/// The replies of one visit: its queries after the load and, for an
/// edited unit, the `add` and the same queries after it.
#[derive(Clone)]
struct Replies {
    load: Reply,
    before: Vec<Reply>,
    add: Option<Reply>,
    after: Vec<Reply>,
}

pub fn run(setup: &Setup, tr: &mut Tracer) -> Outcome {
    let scales = setup.size.unit_scales();
    let units: Vec<Unit> = (0..setup.size.units())
        .map(|i| {
            let input =
                inputs::generate("emacs", scales[i % scales.len()], setup.seed, i as u64 + 1);
            let edit = (i % EDIT_EVERY == EDIT_AT).then(|| {
                let n = input.program.constraints().len();
                let (base, adds) =
                    inputs::split_edits(&input.program, (n as f64 * HELD).ceil() as usize, 1);
                (base, inputs::text_request("add", &adds[0]))
            });
            let loaded = edit.as_ref().map_or(&input.text, |(base, _)| base);
            let names = inputs::text_names(loaded);
            let mut rng = Rng::new(setup.seed ^ (i as u64) << 32 ^ 0x0417);
            Unit {
                load: inputs::text_request("load", loaded),
                queries: inputs::queries(&names, POINTS_TO, MAY_ALIAS, &mut rng),
                edit,
                input,
            }
        })
        .collect();
    let stream_hash = units
        .iter()
        .fold(0u64, |h, u| crate::reference::mix(h ^ u.input.hash));
    let order = order(units.len());
    println!(
        "input many_units: {} units of emacs@{:?}, {} edited, {} loads per round, hash \
         {stream_hash:016x}",
        units.len(),
        scales,
        units.iter().filter(|u| u.edit.is_some()).count(),
        order.len()
    );
    let mut out = Outcome::default();
    let mut figures = Sessions::default();
    if tr.on() {
        let (visits, _) = stream(
            setup,
            &units,
            &order,
            &mut Tracer::new(false),
            &mut Sessions::default(),
            &mut |_, _| {},
        );
        out.untraced_s = visits.iter().map(|v| v.total_s).sum();
    }

    // Round 0 keeps each unit's first-visit replies for the checks and
    // every unit's reply hashes; later rounds and revisits must repeat them.
    let mut expected: Vec<Option<u64>> = vec![None; units.len()];
    let mut answers: Vec<Option<Replies>> = vec![None; units.len()];
    let mut failed = 0u64;
    let mut errors: Vec<String> = Vec::new();
    let mut rounds: Vec<Vec<Visit>> = Vec::new();
    let start = Instant::now();
    while rounds.is_empty()
        || !tr.on() && (rounds.len() < 2 || start.elapsed().as_secs_f64() < setup.seconds)
    {
        let first_round = rounds.is_empty();
        let mut on_unit = |u: usize, v: &Replies| {
            // The load reply says whether the solve cache was hit, which a
            // revisit changes; its payload is not compared.
            let answered = v.before.iter().chain(&v.add).chain(&v.after);
            let h = answered.clone().fold(0u64, |h, r| {
                crate::reference::mix(h ^ name_hash(payload(&r.json)))
            });
            let ok = v.load.ok && answered.clone().all(|r| r.ok);
            let same = *expected[u].get_or_insert(h) == h;
            if !ok || !same {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(format!(
                        "unit {u}: all replies ok={ok}, same as its first visit={same}"
                    ));
                }
            }
            if first_round && answers[u].is_none() {
                answers[u] = Some(v.clone());
            }
        };
        let (visits, mut session) = stream(setup, &units, &order, tr, &mut figures, &mut on_unit);
        if tr.on() {
            figures.finish(&mut session);
        }
        rounds.push(visits);
    }
    let peak = common::peak_rss_mb();
    // Every metric is the median over the run's rounds of one figure per
    // round.
    let over_rounds = |f: &dyn Fn(&[Visit]) -> f64| -> f64 {
        median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let sum = |r: &[Visit], f: fn(&Visit) -> f64| r.iter().map(f).sum::<f64>();
    out.traced_s = sum(&rounds[0], |v| v.total_s);
    out.metric("setup_s", over_rounds(&|r| sum(r, |v| v.load_s)), "s");
    // The stream is analysed when every unit has its first answer.
    out.metric("analysis_s", over_rounds(&|r| sum(r, |v| v.first_s)), "s");
    out.metric(
        "first_answer_s",
        over_rounds(&|r| median(&r.iter().map(|v| v.first_s).collect::<Vec<_>>())),
        "s",
    );
    out.metric(
        "edit_s",
        over_rounds(&|r| median(&r.iter().filter_map(|v| v.add_s).collect::<Vec<_>>())),
        "s",
    );
    out.metric(
        "queries_per_s",
        over_rounds(&|r| sum(r, |v| v.queries as f64) / sum(r, |v| v.burst_s)),
        "1/s",
    );
    out.metric(
        "units_per_s",
        over_rounds(&|r| r.len() as f64 / sum(r, |v| v.total_s)),
        "1/s",
    );
    out.metric("peak_rss_mb", peak, "MiB");
    out.attempted = rounds.iter().map(|r| r.len() as u64).sum();

    for (u, unit) in units.iter().enumerate() {
        let reference =
            Reference::solve(&unit.input.text).expect("generated text is in the format");
        let v = answers[u].as_ref().expect("every unit is visited");
        let mut agree = |replies: &[Reply], reference: &Reference, when: &str| {
            for (q, r) in unit.queries.iter().zip(replies) {
                if !crate::serve::answer_matches(q, r, reference) && errors.len() < 5 {
                    errors.push(format!("unit {u} {when}: {q} disagrees with the reference"));
                }
            }
        };
        match &unit.edit {
            None => agree(&v.before, &reference, "loaded"),
            Some((base, _)) => {
                let base = Reference::solve(base).expect("generated text is in the format");
                agree(&v.before, &base, "before its add");
                agree(&v.after, &reference, "after its add");
                // Inclusion analysis is monotone in its constraints: no
                // set shrinks when constraints are added.
                for (i, (b, a)) in v.before.iter().zip(&v.after).enumerate() {
                    if let (Some(b), Some(a)) = (crate::serve::hashed(b), crate::serve::hashed(a)) {
                        if !b.iter().all(|x| a.binary_search(x).is_ok()) && errors.len() < 5 {
                            errors
                                .push(format!("unit {u}: query {i} lost locations after its add"));
                        }
                    }
                }
            }
        }
        // Every variable of the whole unit, through a fresh session.
        let mut session =
            AnalysisSession::new(setup.opts.clone()).expect("default options are valid");
        session.handle_line(&inputs::text_request("load", &unit.input.text));
        let digest = crate::serve::every_variable(&mut session, &reference, &mut errors);
        if digest != reference.digest() {
            errors.push(format!(
                "unit {u}: session answers disagree with the reference"
            ));
        }
        if setup.seed == inputs::DEFAULT_SEED && setup.size == inputs::Size::Full {
            crate::refs::check(
                &mut out,
                &format!("unit.{}", u + 1),
                unit.input.hash,
                digest,
            );
        }
    }
    for e in errors {
        out.error(e);
    }
    out.failed = if out.errors.is_empty() {
        failed
    } else {
        out.attempted
    };
    if tr.on() {
        let mut one = OneShot::default();
        for unit in &units {
            let a = crate::batch::analyse(setup, &unit.input.text, None, tr, 0);
            one.add(&a, unit.input.text.len());
        }
        one.emit(&mut out);
        figures.emit(&mut out);
    }
    out
}

/// One round: a fresh session loads every unit in `order`, queries it
/// and edits it if it is an edited unit.
fn stream(
    setup: &Setup,
    units: &[Unit],
    order: &[(usize, bool)],
    tr: &mut Tracer,
    figures: &mut Sessions,
    on_unit: &mut dyn FnMut(usize, &Replies),
) -> (Vec<Visit>, AnalysisSession) {
    let mut session = AnalysisSession::new(setup.opts.clone()).expect("default options are valid");
    let mut visits = Vec::with_capacity(order.len());
    for (j, &(u, revisit)) in order.iter().enumerate() {
        let unit = &units[u];
        let lines: Vec<&str> = unit.queries.iter().map(String::as_str).collect();
        let req = j as u64 + 1;
        let t0 = Instant::now();
        tr.begin("session.load", req);
        let load = session.handle_line(&unit.load);
        tr.end();
        let load_s = t0.elapsed().as_secs_f64();
        tr.begin("session.query", req);
        let first = session.handle_line(lines[0]);
        tr.end();
        let first_s = t0.elapsed().as_secs_f64();
        let tb = Instant::now();
        tr.begin("session.burst", req);
        let mut before = crate::serve::send_burst(&mut session, &lines[1..], tr, req);
        tr.end();
        let mut burst_s = tb.elapsed().as_secs_f64();
        crate::serve::note_queries(figures, &before);
        before.insert(0, first);
        let mut queries = lines.len() - 1;
        let (mut add_s, mut add, mut after) = (None, None, Vec::new());
        if let Some((_, edit)) = &unit.edit {
            let te = Instant::now();
            tr.begin("session.add", req);
            let reply = session.handle_line(edit);
            tr.end();
            let d = te.elapsed().as_secs_f64();
            figures.add_s.push(d);
            figures.resumed += reply.json.contains(r#""resumed":true"#) as u64;
            let tb = Instant::now();
            tr.begin("session.burst", req);
            after = crate::serve::send_burst(&mut session, &lines, tr, req);
            tr.end();
            burst_s += tb.elapsed().as_secs_f64();
            queries += lines.len();
            crate::serve::note_queries(figures, &after);
            (add_s, add) = (Some(d), Some(reply));
        }
        let total_s = t0.elapsed().as_secs_f64();
        figures.load_s.push(load_s);
        if !revisit {
            figures.first_solve_s.push(first_s - load_s);
        }
        on_unit(
            u,
            &Replies {
                load,
                before,
                add,
                after,
            },
        );
        visits.push(Visit {
            load_s,
            first_s,
            add_s,
            queries,
            burst_s,
            total_s,
        });
    }
    (visits, session)
}
