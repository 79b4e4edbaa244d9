//! Benchmark self-test: every workload, at minimal length, in both
//! modes, emits every metric `BENCHMARK.json` names with its unit and
//! passes all of its correctness checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The objects of one array of `BENCHMARK.json`, as `(name, unit)`.
fn entries(section: &str) -> Vec<(String, Option<String>)> {
    let start = MANIFEST
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
        let rest = &obj[at..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("every entry has a name"),
                field(obj, "unit"),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let workloads = entries("workloads");
    assert_eq!(workloads.len(), 3, "{workloads:?}");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = entries(section);
        assert!(!metrics.is_empty());
        for (w, _) in &workloads {
            let (ok, stdout) = run(&[
                "--workload",
                w,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            assert!(ok, "{w} --trace {trace} exited with an error:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
                "{w} --trace {trace}: a correctness check failed (check_fail_frac > 0):\n{stdout}"
            );
            assert!(stdout.contains("check_fail_frac 0 "), "{stdout}");
            for (name, unit) in &metrics {
                let unit = unit.as_deref().expect("every metric has a unit");
                let at = last
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{w} --trace {trace} does not emit {name}: {last}"));
                let tail = &last[at..];
                let tail = &tail[..tail.find('}').expect("metric object closes")];
                assert!(
                    tail.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} is not reported in {unit}: {tail}"
                );
            }
            assert_eq!(
                last.matches("\"value\"").count(),
                metrics.len(),
                "{w} --trace {trace} emits metrics BENCHMARK.json does not name: {last}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seed", "1"][..],
        &["--workload", "checksum_metrics", "--trace", "2"][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
    }
}
