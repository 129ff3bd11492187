//! Tiny-size smoke test: every workload, untraced and traced, runs through
//! the same checks as a measured run and prints every metric that
//! BENCHMARK.json names.

use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `"name": "..."` entries of one section of BENCHMARK.json.
fn names(section: &str) -> Vec<&'static str> {
    let start = BENCHMARK
        .find(&format!(r#""{section}""#))
        .expect("section exists");
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split(r#""name": ""#)
        .skip(1)
        .map(|s| &s[..s.find('"').expect("quoted name")])
        .collect()
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(args)
        .env_remove("ANT_THREADS")
        .env_remove("ANT_SCALE")
        .env_remove("ANT_BENCH_REPEATS")
        .env_remove("ANT_REPEATS")
        .output()
        .expect("benchmark binary starts");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn every_workload_checks_out_at_tiny_size() {
    // `serve_edit` is not in BENCHMARK.json (see README.md) but stays
    // runnable and checked.
    let mut workloads = names("workloads");
    workloads.push("serve_edit");
    for workload in workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--size",
                "tiny",
            ];
            let (code, stdout) = run(&args);
            assert_eq!(code, 0, "{workload} trace {trace}:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with(r#"{"correct": true, "attempted": "#)
                    && last.contains(r#""failed": 0,"#),
                "{workload} trace {trace}: {last}"
            );
            for metric in names(section) {
                assert!(
                    last.contains(&format!(r#""{metric}": {{"value": "#)),
                    "{workload} trace {trace} lacks {metric}"
                );
            }
        }
    }
}

#[test]
fn refuses_to_run_under_environment_overrides() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            "batch_linux",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("ANT_THREADS", "2")
        .output()
        .expect("benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
