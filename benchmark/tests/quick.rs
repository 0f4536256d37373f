//! `BENCHMARK.json` and the program agree: the committed file is what the
//! code renders, and a `--quick` run of every workload prints exactly the
//! declared metrics — none undeclared, none missing.

use std::collections::BTreeSet;
use std::process::Command;

use dlfm_bench::spec::{benchmark_json, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn committed_benchmark_json_is_what_the_code_renders() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(committed, benchmark_json(), "regenerate with --print-benchmark-json");
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for name in
        WORKLOADS.iter().map(|w| w.name).chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
    {
        assert!(is_name(name), "{name:?}");
        assert!(seen.insert(name), "{name} declared twice");
    }
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}

/// Metric names in the result line, in order.
fn printed_metrics(stdout: &str) -> Vec<String> {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    let metrics = last.split_once("\"metrics\": {").expect("metrics object").1;
    // Each name is the last quoted string before a `: {"value": `; what
    // follows the final separator holds a value and a unit, no name.
    let chunks: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk.rsplit_once('"').expect("opening quote of a name").1.to_string())
        .collect()
}

fn run_quick(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dlfm-bench"))
        .args(["--workload", workload, "--seed", "2", "--trace", trace, "--quick"])
        .output()
        .expect("run dlfm-bench");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn quick_run_prints_exactly_the_declared_metrics() {
    let names = |defs: &[MetricDef]| defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
    for w in &WORKLOADS {
        let e2e = printed_metrics(&run_quick(w.name, "0"));
        assert_eq!(e2e, names(END_TO_END), "{} --trace 0", w.name);
        let layers = printed_metrics(&run_quick(w.name, "1"));
        assert_eq!(layers, names(PER_LAYER), "{} --trace 1", w.name);
        assert!(e2e.iter().chain(&layers).all(|n| is_name(n)));
    }
}

#[test]
fn an_undeclared_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_dlfm-bench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run dlfm-bench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
