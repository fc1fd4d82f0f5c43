//! The benchmark's self-test: `BENCHMARK.json`, the spec tables and what
//! the binary actually prints must say the same thing, and a corrupted
//! value stream must not pass as correct.
//!
//! The smoke configuration is `--seconds 1`: every workload, untraced and
//! traced, with one-second regions. Correctness checks run at full strength;
//! only the timings are too short to mean anything.

use cnet_benchmark::check::{Check, ValueFold};
use cnet_benchmark::load::Driven;
use cnet_benchmark::report::{attempted_failed, end_to_end, result_line};
use cnet_benchmark::spec::{manifest, Metric, Workload, END_TO_END, PER_LAYER};
use cnet_benchmark::Run;
use cnet_util::json::{parse, Value};
use std::process::Command;

fn manifest_on_disk() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn names(list: &Value) -> Vec<String> {
    list.as_array().unwrap().iter().map(|m| m["name"].as_str().unwrap().to_string()).collect()
}

/// Runs one smoke region and returns the parsed result line.
fn smoke(workload: &str, traced: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_cnet-benchmark"))
        .args(["run", "--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if traced { "1" } else { "0" }])
        // Traced runs write their spans below the working directory.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("running the benchmark binary");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={traced} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("# host nproc="), "no fingerprint in:\n{stdout}");
    parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn assert_prints_exactly(result: &Value, table: &[Metric], what: &str) {
    let Value::Object(top) = result else { panic!("{what}: not an object") };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{what}");
    assert_eq!(result["correct"].as_bool(), Some(true), "{what}");
    assert!(result["attempted"].as_u64().unwrap() >= 1, "{what}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{what}");
    let Value::Object(printed) = &result["metrics"] else { panic!("{what}: no metrics") };
    let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let spec_names: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(printed_names, spec_names, "{what}: printed names against the spec table");
    for (m, (_, v)) in table.iter().zip(printed) {
        assert_eq!(v["unit"].as_str(), Some(m.unit), "{what}: unit of {}", m.name);
        assert!(v["value"].as_f64().is_some_and(f64::is_finite), "{what}: value of {}", m.name);
    }
}

#[test]
fn benchmark_json_the_spec_tables_and_the_output_agree() {
    let on_disk = manifest_on_disk();
    assert_eq!(on_disk, manifest(), "BENCHMARK.json is not `cnet-benchmark manifest`");
    let Value::Object(top) = &on_disk else { panic!("BENCHMARK.json is not an object") };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    for name in names(&on_disk["workloads"])
        .iter()
        .chain(&names(&on_disk["end_to_end"]))
        .chain(&names(&on_disk["per_layer"]))
    {
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} uses a character outside letters, digits, `_`, `.`, `-`"
        );
    }
    let listed = names(&on_disk["workloads"]);
    assert_eq!(listed, Workload::ALL.map(Workload::name));

    // One after the other: two runs at once would share the pinned CPUs.
    for workload in &listed {
        let untraced = smoke(workload, false);
        assert_prints_exactly(&untraced, END_TO_END, &format!("{workload} untraced"));
        for m in END_TO_END {
            let v = untraced["metrics"][m.name]["value"].as_f64().unwrap();
            assert!(v > 0.0, "{workload}: end-to-end metric {} is {v}", m.name);
        }
        assert_prints_exactly(&smoke(workload, true), PER_LAYER, &format!("{workload} traced"));
    }
}

#[test]
fn one_duplicate_in_the_value_stream_fails_the_run() {
    // 0..5000 with 1234 handed out twice and 1235 never.
    let mut fold = ValueFold::default();
    (0..5000u64).map(|v| if v == 1235 { 1234 } else { v }).for_each(|v| fold.add(v));
    let check = Check::permutation(&fold);
    assert!(!check.ok, "the permutation check must fail: {}", check.detail);

    let run = Run {
        driven: vec![Driven { attempted: 5000, ..Driven::default() }],
        checks: vec![check],
        ..Run::default()
    };
    let (attempted, failed) = attempted_failed(&run);
    assert!(failed as f64 / attempted as f64 > 0.0, "failed_share must be nonzero");
    let (correct, line) = result_line(&run, &end_to_end(&run, 0.1, 1.0));
    assert!(!correct);
    let parsed = parse(&line).unwrap();
    assert_eq!(parsed["correct"].as_bool(), Some(false));
    assert!(parsed["failed"].as_u64().unwrap() >= 1);
}

#[test]
fn an_unknown_workload_is_refused_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_cnet-benchmark"))
        .args(["run", "--workload", "no_such_workload"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
