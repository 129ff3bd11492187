//! Input generation: every input comes from the library's Table 2
//! workload generator at an explicit scale, with the generator seed derived
//! from the `--seed` argument (never from `ANT_SCALE`).

use crate::reference::name_hash;
use ant_constraints::{parse_program, ConstraintKind, Program};
use ant_frontend::suite;

/// The seed whose inputs have recorded reference figures (`refs/`).
pub const DEFAULT_SEED: u64 = 0;

/// Input sizes: `full` for measurement, `tiny` for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// Scale of the linux-shaped program `batch_linux` analyses.
    pub fn batch_scale(self) -> f64 {
        match self {
            Size::Full => 0.2,
            Size::Tiny => 0.01,
        }
    }

    /// Scale of the linux-shaped program `serve_edit` loads and edits.
    pub fn serve_scale(self) -> f64 {
        match self {
            Size::Full => 0.1,
            Size::Tiny => 0.01,
        }
    }

    /// Scales of the emacs-shaped units, cycled over the unit stream.
    pub fn unit_scales(self) -> &'static [f64] {
        match self {
            Size::Full => &[0.01, 0.02, 0.03, 0.04, 0.05],
            Size::Tiny => &[0.002, 0.004],
        }
    }

    /// Distinct units per `many_units` round.
    pub fn units(self) -> usize {
        match self {
            Size::Full => 40,
            Size::Tiny => 8,
        }
    }

    /// Scale of the small linux-shaped instance `batch_linux` solves
    /// exactly against the reference solver on every run.
    pub fn check_scale(self) -> f64 {
        match self {
            Size::Full => 0.02,
            Size::Tiny => 0.005,
        }
    }
}

/// splitmix64: a seed → stream of well-mixed words.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        crate::reference::mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One generated program as constraint text.
pub struct Input {
    /// `name@scale`, for reports.
    pub label: String,
    pub program: Program,
    pub text: String,
    /// FNV-1a of `text`.
    pub hash: u64,
}

/// The Table 2 benchmark `name` at `scale`, its generator seed moved by
/// `seed` and `index` (seed 0, index 0 is the suite's own program).
pub fn generate(name: &str, scale: f64, seed: u64, index: u64) -> Input {
    let mut spec = suite::benchmark(name, scale)
        .unwrap_or_else(|| panic!("no Table 2 benchmark named {name}"))
        .spec;
    spec.seed = spec
        .seed
        .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let program = spec.generate();
    let text = program.to_text();
    Input {
        label: format!("{name}@{scale}"),
        hash: name_hash(&text),
        program,
        text,
    }
}

/// Names of every variable the constraint text mentions (the name space a
/// session that loaded `text` answers for).
pub fn text_names(text: &str) -> Vec<String> {
    let p = parse_program(text).expect("generated text parses");
    p.vars().map(|v| p.var_name(v).to_owned()).collect()
}

/// A mix of read-only requests over `names`: `points` `points_to` queries,
/// then `alias` `may_alias` queries, with ids from 1.
pub fn queries(names: &[String], points: usize, alias: usize, rng: &mut Rng) -> Vec<String> {
    let mut out = Vec::with_capacity(points + alias);
    for i in 1..=points {
        let v = &names[rng.below(names.len())];
        out.push(format!(r#"{{"op":"points_to","var":"{v}","id":{i}}}"#));
    }
    for i in points + 1..=points + alias {
        let a = &names[rng.below(names.len())];
        let b = &names[rng.below(names.len())];
        out.push(format!(
            r#"{{"op":"may_alias","a":"{a}","b":"{b}","id":{i}}}"#
        ));
    }
    out
}

/// A `load` or `add` request carrying `text`.
pub fn text_request(op: &str, text: &str) -> String {
    let mut out = format!(r#"{{"op":"{op}","text":""#);
    ant_core::obs::escape_into(text, &mut out);
    out.push_str("\"}");
    out
}

/// `program` split into a base (all but the last `held` constraints) and
/// `edits` additions carved, in order, from the held-back constraints.
/// Loading the base and adding every edit gives back `program`'s
/// constraints by name.
pub fn split_edits(program: &Program, held: usize, edits: usize) -> (String, Vec<String>) {
    let cs = program.constraints();
    let cut = cs.len() - held;
    let base = program.with_constraints(cs[..cut].to_vec()).to_text();
    // An addition that dereferences at an offset must declare a function
    // block wide enough for it; the widest block of the program serves.
    let widest = program
        .vars()
        .max_by_key(|&v| program.offset_limit(v))
        .expect("program has variables");
    let per = held.div_ceil(edits);
    let additions = cs[cut..]
        .chunks(per)
        .map(|chunk| {
            let mut text = String::new();
            let mut declared = Vec::new();
            let mut declare = |v| {
                if program.offset_limit(v) > 1 && !declared.contains(&v) {
                    declared.push(v);
                    text.push_str(&format!(
                        "fun {} {}\n",
                        program.var_name(v),
                        program.offset_limit(v)
                    ));
                }
            };
            if chunk.iter().any(|c| {
                matches!(c.kind, ConstraintKind::Load | ConstraintKind::Store) && c.offset > 0
            }) {
                declare(widest);
            }
            for c in chunk {
                declare(c.lhs);
                declare(c.rhs);
            }
            let body = program.with_constraints(chunk.to_vec()).to_text();
            // `to_text` declares every function block of the program;
            // keep only the constraint lines.
            for line in body.lines().filter(|l| !l.starts_with("fun ")) {
                text.push_str(line);
                text.push('\n');
            }
            text
        })
        .collect();
    (base, additions)
}
