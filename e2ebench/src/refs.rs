//! Reference figures recorded for the full-size inputs at the default
//! seed: each input's content hash and the reference solver's tuple count
//! and by-name digest. `--record-refs` computes them anew from the
//! generator and the reference solver alone.

use crate::common::Outcome;
use crate::inputs::{self, Size, DEFAULT_SEED};
use crate::reference::{Digest, Reference};
use std::fmt::Write as _;

const RECORDED: &str = include_str!("../refs/reference.txt");

fn lookup(key: &str) -> Option<(u64, u64, u64)> {
    RECORDED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        if f.next()? != key {
            return None;
        }
        let _label = f.next()?;
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        Some((hex(f.next()?)?, f.next()?.parse().ok()?, hex(f.next()?)?))
    })
}

/// Checks an input's hash and the library's digest of its solution
/// against the recorded reference.
pub fn check(out: &mut Outcome, key: &str, hash: u64, digest: Digest) {
    match lookup(key) {
        None => out.error(format!(
            "no recorded reference for {key} (run --record-refs)"
        )),
        Some((h, _, _)) if h != hash => out.error(format!(
            "{key}: input hash {hash:016x} is not the recorded {h:016x}; the generator changed \
             (run --record-refs)"
        )),
        Some((_, tuples, sum)) => {
            if (tuples, sum) != (digest.tuples, digest.sum) {
                out.error(format!(
                    "{key}: {} tuples, digest {:016x}; the reference has {tuples}, {sum:016x}",
                    digest.tuples, digest.sum
                ));
            }
        }
    }
}

/// Solves every full-size default-seed input with the reference solver
/// and rewrites `refs/reference.txt`.
pub fn record() -> std::io::Result<()> {
    let size = Size::Full;
    let mut inputs = vec![
        (
            "batch_linux".to_owned(),
            inputs::generate("linux", size.batch_scale(), DEFAULT_SEED, 0),
        ),
        (
            "serve_edit".to_owned(),
            inputs::generate("linux", size.serve_scale(), DEFAULT_SEED, 0),
        ),
    ];
    let scales = size.unit_scales();
    for i in 0..size.units() {
        let input = inputs::generate(
            "emacs",
            scales[i % scales.len()],
            DEFAULT_SEED,
            i as u64 + 1,
        );
        inputs.push((format!("unit.{}", i + 1), input));
    }
    let mut text = String::from(
        "# Reference solver figures for the full-size inputs at the default seed.\n\
         # Made by `e2ebench --record-refs`; do not edit by hand.\n\
         # key label input-hash tuples digest\n",
    );
    for (key, input) in &inputs {
        let t = std::time::Instant::now();
        let d = Reference::solve(&input.text)
            .map_err(std::io::Error::other)?
            .digest();
        eprintln!(
            "{key} ({}): {} tuples in {:.1?}",
            input.label,
            d.tuples,
            t.elapsed()
        );
        writeln!(
            text,
            "{key} {} {:016x} {} {:016x}",
            input.label, input.hash, d.tuples, d.sum
        )
        .expect("writing to a String cannot fail");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/refs/reference.txt");
    std::fs::write(path, text)?;
    eprintln!("wrote {path}");
    Ok(())
}
