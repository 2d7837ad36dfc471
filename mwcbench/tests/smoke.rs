//! Tiny-size smoke test of the benchmark binary: on every workload, the
//! untraced run prints every end-to-end metric and the traced run every
//! per-layer metric that `BENCHMARK.json` declares, by name and with the
//! declared unit, in the table and in the result line.

use mwc_trace::json::Json;
use std::process::{Command, Output};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mwcbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.05"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(
        workloads,
        ["girth-unit", "directed-alg3", "weighted-stretch"]
    );
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(workload, trace);
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(out.status.success(), "{workload} trace={trace}:\n{stdout}");
            let last = Json::parse(stdout.lines().last().unwrap()).expect("JSON result line");
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
            assert!(last.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let metrics = last.get("metrics").unwrap();
            let expected = declared(&spec, section);
            let Json::Obj(printed) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(printed.len(), expected.len(), "{workload} trace={trace}");
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.trim_start().starts_with(name.as_str()) && l.ends_with(unit)),
                    "{workload}: no table row for {name} [{unit}]"
                );
            }
        }
    }
}

#[test]
fn refuses_to_time_with_a_trace_sink() {
    let out = Command::new(env!("CARGO_BIN_EXE_mwcbench"))
        .args(["--workload", "girth-unit", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0", "--scale", "tiny"])
        .env("MWC_TRACE", "trace.jsonl")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("MWC_TRACE"));
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "girth-unit", "--seconds", "1"],
        &["--workload", "girth-unit", "--seed", "1", "--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mwcbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
