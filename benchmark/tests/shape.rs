//! The committed `BENCHMARK.json`, the result line and `results.json`
//! against the metric tables and the driver's contract.

use o2_benchmark::json::{self, Value};
use o2_benchmark::report::{benchmark_json, results_json, Outcome, Row, END_TO_END, LAYERS};
use o2_benchmark::workloads::{Check, WORKLOADS};

fn committed() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repo");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<&str> {
    list.as_array()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
        .collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn synthetic(traced: bool) -> Outcome {
    let rows = if traced {
        LAYERS
            .iter()
            .map(|l| Row::of(l.name, l.unit, &[1.5]))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| Row::of(m.name, m.unit, &[1.0, 2.0, 4.0]))
            .collect()
    };
    Outcome {
        workload: WORKLOADS[0].name,
        seed: 42,
        traced,
        reps: 3,
        attempted: 1000,
        failed: 0,
        rows,
        checks: vec![Check::new("example", true, "a \"quoted\" detail")],
        notes: vec!["a note".to_string()],
        spans: None,
    }
}

#[test]
fn committed_file_is_what_the_tables_emit() {
    let emitted = json::parse(&benchmark_json()).expect("emitted BENCHMARK.json parses");
    assert_eq!(
        committed(),
        emitted,
        "regenerate with: o2-benchmark --emit-benchmark-json > BENCHMARK.json"
    );
}

#[test]
fn committed_file_meets_the_contract() {
    let file = committed();
    assert_eq!(
        file.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = file.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let paths = file.get("paths").unwrap().as_array();
    let paths: Vec<&str> = paths.iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    for part in file.get("command").unwrap().as_array() {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }

    let workloads = file.get("workloads").unwrap();
    assert!((2..=8).contains(&workloads.as_array().len()));
    for w in workloads.as_array() {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let end_to_end = file.get("end_to_end").unwrap();
    assert!((1..=16).contains(&end_to_end.as_array().len()));
    for m in end_to_end.as_array() {
        assert_eq!(m.keys(), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = end_to_end
        .as_array()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
    let per_layer = file.get("per_layer").unwrap();
    assert!((1..=128).contains(&per_layer.as_array().len()));
    for m in per_layer.as_array() {
        assert_eq!(m.keys(), ["better", "name", "unit"]);
    }

    let mut all: Vec<&str> = [workloads, end_to_end, per_layer]
        .iter()
        .flat_map(|list| names(list))
        .collect();
    assert!(all.iter().all(|n| is_name(n)), "{all:?}");
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
    for m in end_to_end.as_array().iter().chain(per_layer.as_array()) {
        let unit = m.get("unit").and_then(Value::as_str).unwrap();
        assert!(is_unit(unit), "{unit}");
        let better = m.get("better").and_then(Value::as_str).unwrap();
        assert!(better == "lower" || better == "higher");
    }
}

#[test]
fn result_line_has_exactly_the_contracts_keys() {
    let file = committed();
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let line = synthetic(traced).result_line();
        assert!(!line.contains('\n'));
        let result = json::parse(&line).expect("result line parses");
        assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            result.get("attempted").and_then(Value::as_f64),
            Some(1000.0)
        );
        let metrics = result.get("metrics").unwrap();
        let mut expected = names(file.get(section).unwrap());
        expected.sort_unstable();
        assert_eq!(metrics.keys(), expected, "{section}");
        for name in metrics.keys() {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.keys(), ["unit", "value"]);
        }
    }
    // Three samples report their median, not their mean.
    let line = synthetic(false).result_line();
    let value = json::parse(&line).unwrap();
    let wall = value.get("metrics").unwrap().get("wall_s").unwrap();
    assert_eq!(wall.get("value").and_then(Value::as_f64), Some(2.0));
}

#[test]
fn a_failed_check_or_operation_makes_the_run_incorrect() {
    let mut outcome = synthetic(false);
    outcome.checks.push(Check::new("broken", false, ""));
    assert!(!outcome.correct());
    let mut outcome = synthetic(false);
    outcome.failed = 1;
    assert!(json::parse(&outcome.result_line())
        .unwrap()
        .get("correct")
        .and_then(Value::as_bool)
        .is_some_and(|c| !c));
}

#[test]
fn results_json_names_every_workload_and_metric() {
    let file = committed();
    let entries: Vec<(&str, String, String)> = WORKLOADS
        .iter()
        .map(|w| {
            (
                w.name,
                synthetic(false).detail_json(),
                synthetic(true).detail_json(),
            )
        })
        .collect();
    let host = o2_benchmark::host::fingerprint_json(42, 10);
    let results = json::parse(&results_json(&host, &entries)).expect("results.json parses");

    let host = results.get("host").unwrap();
    for key in [
        "nproc",
        "cpu_model",
        "workers_pinned",
        "loadavg_at_start",
        "rustc",
        "git_commit",
        "build_profile",
        "seed",
    ] {
        assert!(host.get(key).is_some(), "host fingerprint lacks {key}");
    }
    let mut workload_names = names(file.get("workloads").unwrap());
    workload_names.sort_unstable();
    let workloads = results.get("workloads").unwrap();
    assert_eq!(workloads.keys(), workload_names);
    for name in workloads.keys() {
        for section in ["end_to_end", "per_layer"] {
            let record = workloads.get(name).unwrap().get(section).unwrap();
            let mut expected = names(file.get(section).unwrap());
            expected.sort_unstable();
            let metrics = record.get("metrics").unwrap();
            assert_eq!(metrics.keys(), expected, "{name}.{section}");
            for metric in metrics.keys() {
                let m = metrics.get(metric).unwrap();
                assert_eq!(m.keys(), ["median", "n", "q1", "q3", "samples", "unit"]);
            }
            assert!(!record.get("checks").unwrap().as_array().is_empty());
        }
    }
}
