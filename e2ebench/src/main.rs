//! End-to-end benchmark of the ant pointer analysis.
//!
//! ```text
//! e2ebench --workload <batch_linux|serve_edit|many_units> --seed N --seconds S --trace 0|1
//!          [--size full|tiny] [--pts bitmap|shared] [--prop full|diff]
//! e2ebench --record-refs
//! ```
//!
//! Prints the effective configuration and the input's content hash, then,
//! as its last line, one JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for the workloads, metrics and checks.

mod batch;
mod common;
mod inputs;
mod layers;
mod reference;
mod refs;
mod serve;
mod trace;
mod units;

use ant_core::{PropMode, PtsKind};
use common::{Outcome, Setup};
use inputs::Size;
use std::process::exit;
use trace::Tracer;

/// Settings the library reads from the environment; the benchmark pins
/// its own configuration and refuses to run under any of them.
const REFUSED_ENV: [&str; 4] = [
    "ANT_THREADS",
    "ANT_SCALE",
    "ANT_BENCH_REPEATS",
    "ANT_REPEATS",
];

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: e2ebench --workload <batch_linux|serve_edit|many_units> --seed N --seconds S \
         --trace 0|1 [--size full|tiny] [--pts bitmap|shared] [--prop full|diff]\n       \
         e2ebench --record-refs"
    );
    exit(2)
}

pub fn print_input(workload: &str, input: &inputs::Input) {
    println!(
        "input {workload}: {} with {} constraints, hash {:016x}",
        input.label,
        input.program.constraints().len(),
        input.hash
    );
}

fn main() {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            fail(&format!(
                "{var} is set; unset it, the benchmark pins its own configuration"
            ));
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record-refs"] {
        if let Err(e) = refs::record() {
            fail(&format!("recording references: {e}"));
        }
        return;
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut size, mut pts, mut prop) = (Size::Full, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("flag {flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| fail("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| fail("bad --seconds")),
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => fail("--size takes full or tiny"),
                }
            }
            "--pts" => {
                pts = Some(
                    PtsKind::parse(value)
                        .filter(|k| *k != PtsKind::Bdd)
                        .unwrap_or_else(|| fail("--pts takes bitmap or shared")),
                )
            }
            "--prop" => {
                prop = Some(
                    PropMode::parse(value).unwrap_or_else(|| fail("--prop takes full or diff")),
                )
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        fail("--workload, --seed, --seconds and --trace are required")
    };
    let run: fn(&Setup, &mut Tracer) -> Outcome = match workload.as_str() {
        "batch_linux" => batch::run,
        "serve_edit" => serve::run,
        "many_units" => units::run,
        other => fail(&format!("unknown workload {other}")),
    };
    let setup = Setup::new(size, seed, seconds, pts, prop);
    println!("config: {}", setup.describe());
    let mut tr = Tracer::new(traced);
    let out = run(&setup, &mut tr);
    if traced {
        report(&workload, &tr, &out);
    }
    // Per-layer metric names carry their module (`algo.solve_s`); the
    // end-to-end ones do not.
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|(name, _, _)| name.contains('.') == traced)
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// Prints each layer's self time and the tracing overhead, and writes the
/// spans to `traces/<workload>.jsonl` in the benchmark's directory.
fn report(workload: &str, tr: &Tracer, out: &Outcome) {
    println!("layer self times (traced run):");
    println!(
        "  {:<16} {:>7} {:>12} {:>12}",
        "span", "calls", "total s", "self s"
    );
    for (name, (calls, total, own)) in tr.layers() {
        println!("  {name:<16} {calls:>7} {total:>12.6} {own:>12.6}");
    }
    println!(
        "tracing overhead: traced {:.6} s vs untraced {:.6} s ({:+.2}%)",
        out.traced_s,
        out.untraced_s,
        100.0 * (out.traced_s / out.untraced_s - 1.0)
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
