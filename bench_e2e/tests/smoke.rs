//! Every workload, untraced and traced, at `--smoke` scale with a
//! one-second window: the numbers are discarded, the names are not. What
//! the program emits and what `BENCHMARK.json` declares must be the same
//! sets, both ways, or the driver and the program disagree about what is
//! measured.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use bench_e2e::common::Workload;
use bench_e2e::describe;
use bench_e2e::json::{self, Value};

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(section: &Value) -> BTreeSet<String> {
    section
        .as_array()
        .expect("an array of named entries")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_what_describe_generates() {
    assert_eq!(
        declared(),
        json::parse(&describe::benchmark_json()).unwrap(),
        "regenerate with `bench_e2e describe > BENCHMARK.json`"
    );
}

#[test]
fn emitted_names_equal_declared_names() {
    let declared = declared();
    let workloads = names(declared.get("workloads").unwrap());
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    for workload in &workloads {
        for (flag, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
                .args([
                    "run",
                    "--smoke",
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    flag,
                ])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .env_remove("CARGO_TARGET_DIR")
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {flag}: {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .expect("the result line parses");
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} --trace {flag}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
            let emitted: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(
                emitted,
                names(declared.get(section).unwrap()),
                "{workload} --trace {flag}"
            );
            for entry in declared.get(section).and_then(Value::as_array).unwrap() {
                let name = entry.get("name").and_then(Value::as_str).unwrap();
                assert_eq!(metrics[name].get("unit"), entry.get("unit"), "{name}");
                assert!(
                    metrics[name].get("value").and_then(Value::as_f64).is_some(),
                    "{name}"
                );
            }
            if flag == "0" {
                for (name, metric) in metrics {
                    assert!(
                        metric.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                        "{workload} {name} is 0"
                    );
                }
            }
        }
    }
}
