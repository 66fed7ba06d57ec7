//! `BENCHMARK.json`, generated from the tables the program reports from,
//! so the declaration and the report cannot drift apart:
//! `bench_e2e describe > BENCHMARK.json`.

use std::fmt::Write as _;

use crate::common::Workload;
use crate::metrics::{END_TO_END, PER_LAYER};

/// Seconds one run measures. With 4 + 22 × 5 runs, two builds, and 1.5
/// to 5.5 s of set-up and checks per run, the driver's 3420 s cap is
/// about four fifths used.
pub const RUN_SECONDS: u32 = 20;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench_e2e/Cargo.toml",
    "--",
    "run",
];

pub fn benchmark_json() -> String {
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"command\": [{}],", quoted.join(", "));
    let _ = writeln!(out, "  \"paths\": [\"bench_e2e\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"end_to_end\": [");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"per_layer\": [");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn generated_file_is_within_the_contracts_limits() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let root = json::parse(&text).unwrap();
        let keys: Vec<&str> = root
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let command = root.get("command").and_then(Value::as_array).unwrap();
        assert!(command.len() <= 32);
        let workloads = root.get("workloads").and_then(Value::as_array).unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
