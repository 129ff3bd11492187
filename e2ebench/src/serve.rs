//! `serve_edit`: an `AnalysisSession` driven through `handle_line` /
//! `handle_lines` the way `ant serve` drives it. Each round loads the
//! linux-shaped program minus its last constraints, answers a query burst,
//! then applies the held-back constraints as a fixed sequence of `add`
//! edits, each followed by the same burst. After the last edit the session
//! holds the whole generated program.

use crate::common::{self, max, median, min, payload, reply_alias, reply_pts, Outcome, Setup};
use crate::inputs::{self, Input, Rng};
use crate::layers::{OneShot, Sessions};
use crate::reference::{name_hash, Digest, Reference, SetHash};
use crate::trace::Tracer;
use ant_core::session::{AnalysisSession, Reply};
use std::time::Instant;

/// Share of the program's constraints held back for the edits.
const HELD: f64 = 0.02;
const EDITS: usize = 2;
/// Burst make-up: `points_to` then `may_alias` requests.
const POINTS_TO: usize = 192;
const MAY_ALIAS: usize = 64;
/// Variables per `handle_lines` call in the all-variable check.
const CHECK_CHUNK: usize = 2048;

pub struct Plan {
    pub base_text: String,
    pub load: String,
    pub edits: Vec<String>,
    pub burst: Vec<String>,
}

pub fn plan(input: &Input, held: f64, edits: usize, seed: u64) -> Plan {
    let n = input.program.constraints().len();
    let (base_text, additions) = inputs::split_edits(
        &input.program,
        ((n as f64 * held).ceil() as usize).max(edits),
        edits,
    );
    let names = inputs::text_names(&base_text);
    let burst = inputs::queries(&names, POINTS_TO, MAY_ALIAS, &mut Rng::new(seed ^ 0x5E7E));
    Plan {
        load: inputs::text_request("load", &base_text),
        base_text,
        edits: additions
            .iter()
            .map(|t| inputs::text_request("add", t))
            .collect(),
        burst,
    }
}

/// Timings of one round, in seconds.
#[derive(Default)]
pub struct Round {
    pub load_s: f64,
    /// `load` sent → first query reply (the lazy first solve included).
    pub first_s: f64,
    pub edit_s: Vec<f64>,
    /// Requests per second of each burst.
    pub burst_qps: Vec<f64>,
    /// Each program version (the load, then every edit): its text sent →
    /// its burst answered.
    pub version_s: Vec<f64>,
    pub total_s: f64,
    pub requests: u64,
}

/// Runs one round on a fresh session; `on_stage(k, replies)` sees the
/// burst after the load (k = 0) and after each edit. Returns the session
/// in its final state.
pub fn round(
    setup: &Setup,
    plan: &Plan,
    tr: &mut Tracer,
    req: u64,
    figures: &mut Sessions,
    on_stage: &mut dyn FnMut(usize, &Reply, &[Reply]),
) -> (Round, AnalysisSession) {
    let burst: Vec<&str> = plan.burst.iter().map(String::as_str).collect();
    let mut session = AnalysisSession::new(setup.opts.clone()).expect("default options are valid");
    let mut r = Round::default();
    let t0 = Instant::now();
    tr.begin("session.load", req);
    let load = session.handle_line(&plan.load);
    tr.end();
    r.load_s = t0.elapsed().as_secs_f64();
    tr.begin("session.query", req);
    let first = session.handle_line(burst[0]);
    tr.end();
    r.first_s = t0.elapsed().as_secs_f64();
    figures.load_s.push(r.load_s);
    figures.first_solve_s.push(r.first_s - r.load_s);
    let tb = Instant::now();
    tr.begin("session.burst", req);
    let mut replies = send_burst(&mut session, &burst[1..], tr, req);
    tr.end();
    r.burst_qps
        .push(replies.len() as f64 / tb.elapsed().as_secs_f64());
    r.version_s.push(t0.elapsed().as_secs_f64());
    replies.insert(0, first);
    note_queries(figures, &replies[1..]);
    on_stage(0, &load, &replies);
    r.requests += 1 + replies.len() as u64;
    for (k, edit) in plan.edits.iter().enumerate() {
        let te = Instant::now();
        tr.begin("session.add", req);
        let add = session.handle_line(edit);
        tr.end();
        r.edit_s.push(te.elapsed().as_secs_f64());
        figures.add_s.push(te.elapsed().as_secs_f64());
        figures.resumed += add.json.contains(r#""resumed":true"#) as u64;
        let tb = Instant::now();
        tr.begin("session.burst", req);
        let replies = send_burst(&mut session, &burst, tr, req);
        tr.end();
        r.burst_qps
            .push(replies.len() as f64 / tb.elapsed().as_secs_f64());
        r.version_s.push(te.elapsed().as_secs_f64());
        note_queries(figures, &replies);
        on_stage(k + 1, &add, &replies);
        r.requests += 1 + replies.len() as u64;
    }
    r.total_s = t0.elapsed().as_secs_f64();
    (r, session)
}

/// Sends a burst of read-only requests: one `handle_lines` call, or, in a
/// traced run, one `handle_line` per request, so that each reply's
/// `micros` is that request's own service time rather than its wait
/// behind the requests ahead of it in the burst.
pub fn send_burst(
    session: &mut AnalysisSession,
    lines: &[&str],
    tr: &mut Tracer,
    req: u64,
) -> Vec<Reply> {
    if !tr.on() {
        return session.handle_lines(lines);
    }
    lines
        .iter()
        .map(|line| {
            tr.begin("session.request", req);
            let reply = session.handle_line(line);
            tr.end();
            reply
        })
        .collect()
}

pub fn note_queries(figures: &mut Sessions, replies: &[Reply]) {
    for q in replies {
        match q.op {
            "points_to" => figures.points_to_us.push(q.micros as f64),
            "may_alias" => figures.may_alias_us.push(q.micros as f64),
            _ => {}
        }
        figures.reply_bytes += q.json.len() as u64;
    }
}

/// A `points_to` answer as sorted location-name hashes.
pub fn hashed(reply: &Reply) -> Option<Vec<u64>> {
    let mut v: Vec<u64> = reply_pts(&reply.json)?.into_iter().map(name_hash).collect();
    v.sort_unstable();
    Some(v)
}

pub fn run(setup: &Setup, tr: &mut Tracer) -> Outcome {
    let input = inputs::generate("linux", setup.size.serve_scale(), setup.seed, 0);
    crate::print_input("serve_edit", &input);
    let plan = plan(&input, HELD, EDITS, setup.seed);
    let mut out = Outcome::default();
    let mut figures = Sessions::default();
    if tr.on() {
        let (r, _) = round(
            setup,
            &plan,
            &mut Tracer::new(false),
            0,
            &mut Sessions::default(),
            &mut |_, _, _| {},
        );
        out.untraced_s = r.total_s;
    }

    // Round 0 keeps what the checks need: every reply's payload hash (later
    // rounds must repeat them exactly), the monotonicity verdicts, and the
    // answers after the last edit.
    let mut expected: Vec<u64> = Vec::new();
    let mut previous: Vec<Option<Vec<u64>>> = Vec::new();
    let mut final_answers: Vec<Reply> = Vec::new();
    let mut failed = 0u64;
    let mut errors: Vec<String> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut session: Option<AnalysisSession> = None;
    let start = Instant::now();
    while rounds.is_empty()
        || !tr.on() && (rounds.len() < 2 || start.elapsed().as_secs_f64() < setup.seconds)
    {
        drop(session.take());
        let first_round = rounds.is_empty();
        let mut at = 0usize;
        let mut on_stage = |k: usize, write: &Reply, replies: &[Reply]| {
            for r in std::iter::once(write).chain(replies) {
                let h = name_hash(payload(&r.json));
                let same = if first_round {
                    expected.push(h);
                    true
                } else {
                    expected.get(at) == Some(&h)
                };
                at += 1;
                if !r.ok || !same {
                    failed += 1;
                    if errors.len() < 5 {
                        errors.push(format!(
                            "stage {k}: ok={} same-as-first-round={same}: {:.200}",
                            r.ok, r.json
                        ));
                    }
                }
            }
            if !first_round {
                return;
            }
            // Inclusion analysis is monotone in its constraints: no set
            // shrinks when constraints are added.
            let sets: Vec<Option<Vec<u64>>> = replies.iter().map(hashed).collect();
            if k > 0 {
                for (i, (before, after)) in previous.iter().zip(&sets).enumerate() {
                    if let (Some(b), Some(a)) = (before, after) {
                        if !b.iter().all(|x| a.binary_search(x).is_ok()) {
                            failed += 1;
                            if errors.len() < 5 {
                                errors.push(format!(
                                    "stage {k}: query {i} lost locations after an add"
                                ));
                            }
                        }
                    }
                }
            }
            previous = sets;
            if k == EDITS {
                final_answers = replies.to_vec();
            }
        };
        let (r, s) = round(
            setup,
            &plan,
            tr,
            rounds.len() as u64 + 1,
            &mut figures,
            &mut on_stage,
        );
        rounds.push(r);
        session = Some(s);
    }
    let peak = common::peak_rss_mb();
    out.traced_s = rounds[0].total_s;
    // Every operation is one sample; the run reports the best sample.
    let all = |f: &dyn Fn(&Round) -> &[f64]| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let firsts: Vec<f64> = rounds.iter().map(|r| r.first_s).collect();
    out.metric(
        "setup_s",
        median(&rounds.iter().map(|r| r.load_s).collect::<Vec<_>>()),
        "s",
    );
    // A served program is analysed when its first answer is ready.
    out.metric("analysis_s", min(&firsts), "s");
    out.metric("first_answer_s", min(&firsts), "s");
    out.metric("edit_s", min(&all(&|r| &r.edit_s)), "s");
    out.metric("queries_per_s", max(&all(&|r| &r.burst_qps)), "1/s");
    // Program versions (the load and every edit) served per second.
    out.metric("units_per_s", 1.0 / min(&all(&|r| &r.version_s)), "1/s");
    out.metric("peak_rss_mb", peak, "MiB");
    out.attempted = rounds.iter().map(|r| r.requests).sum();

    let mut session = session.expect("at least one round ran");
    let reference = Reference::solve(&input.text).expect("generated text is in the format");
    for (i, reply) in final_answers.iter().enumerate() {
        if !answer_matches(&plan.burst[i], reply, &reference) {
            failed += 1;
            if errors.len() < 5 {
                errors.push(format!(
                    "after the last edit, {} disagrees with the reference",
                    plan.burst[i]
                ));
            }
        }
    }
    let digest = every_variable(&mut session, &reference, &mut errors);
    let want = reference.digest();
    if digest != want {
        errors.push(format!(
            "after the last edit the session's answers digest to {digest:?}, the reference's to {want:?}"
        ));
    }
    if setup.seed == inputs::DEFAULT_SEED && setup.size == inputs::Size::Full {
        crate::refs::check(&mut out, "serve_edit", input.hash, digest);
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
        figures.finish(&mut session);
        drop(session);
        let mut one = OneShot::default();
        let a = crate::batch::analyse(setup, &plan.base_text, None, tr, 0);
        one.add(&a, plan.base_text.len());
        drop(a);
        one.emit(&mut out);
        figures.emit(&mut out);
    }
    out
}

/// Does `reply` answer `request` as the reference does?
pub fn answer_matches(request: &str, reply: &Reply, reference: &Reference) -> bool {
    let field = |k: &str| -> Option<&str> {
        let start = request.find(&format!(r#""{k}":""#))? + k.len() + 4;
        Some(&request[start..start + request[start..].find('"')?])
    };
    if request.contains(r#""op":"points_to""#) {
        let want = field("var").and_then(|v| reference.points_to(v));
        let got = reply_pts(&reply.json).map(|mut names| {
            names.sort_unstable();
            names
        });
        want.is_some() && got == want
    } else {
        let (Some(a), Some(b)) = (
            field("a").and_then(|v| reference.points_to(v)),
            field("b").and_then(|v| reference.points_to(v)),
        ) else {
            return false;
        };
        reply_alias(&reply.json) == Some(a.iter().any(|x| b.binary_search(x).is_ok()))
    }
}

/// Asks the session for every variable the reference knows and digests
/// the answers by name.
pub fn every_variable(
    session: &mut AnalysisSession,
    reference: &Reference,
    errors: &mut Vec<String>,
) -> Digest {
    let mut digest = Digest::default();
    for chunk in reference.names().chunks(CHECK_CHUNK) {
        let requests: Vec<String> = chunk
            .iter()
            .map(|v| format!(r#"{{"op":"points_to","var":"{v}"}}"#))
            .collect();
        let lines: Vec<&str> = requests.iter().map(String::as_str).collect();
        for (name, reply) in chunk.iter().zip(session.handle_lines(&lines)) {
            match reply_pts(&reply.json) {
                Some(pts) if reply.ok => {
                    let mut set = SetHash::default();
                    pts.iter().for_each(|l| set.add(name_hash(l)));
                    digest.add(name, set);
                }
                _ => {
                    if errors.len() < 5 {
                        errors.push(format!("points_to {name}: {:.200}", reply.json));
                    }
                }
            }
        }
    }
    digest
}

/// The batch workload's session layer: its program served with one edit.
pub fn session_walk(setup: &Setup, input: &Input, tr: &mut Tracer, out: &mut Outcome) {
    let plan = plan(input, 0.01, 1, setup.seed);
    let mut figures = Sessions::default();
    let (_, mut session) = round(setup, &plan, tr, 0, &mut figures, &mut |_, _, _| {});
    figures.finish(&mut session);
    figures.emit(out);
}
