//! `run` without `--workload`: every workload, untraced (`--repeats`
//! times) and traced (once), each run in a child process of its own so
//! that `peak_rss_mb` and the `obs` registry are that run's alone. Prints
//! every metric by name and writes one result file for `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use obs::metrics::json_string;

use crate::common::{fail, output_root, run_child, Outcome, Workload};
use crate::consts::Scale;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{stats, RunArgs};

/// First line of `program args…`, or "unknown": a result file is still
/// worth having where there is no git checkout or no `rustc` on the path.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    /// One value per untraced repeat.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    pub per_layer: BTreeMap<String, f64>,
}

/// Runs one workload once in a child and returns its result line.
fn measure(workload: Workload, run: &RunArgs, traced: bool) -> Outcome<Value> {
    let (seed, seconds) = (run.seed.to_string(), run.seconds.to_string());
    let mut args = vec![
        "run",
        "--workload",
        workload.name(),
        "--seed",
        &seed,
        "--seconds",
        &seconds,
    ];
    args.extend(["--trace", if traced { "1" } else { "0" }]);
    if run.smoke {
        args.push("--smoke");
    }
    let out = run_child(&args)?;
    let line = out.lines().last().ok_or("child printed nothing")?;
    json::parse(line).map_err(|e| format!("{}: {e}", workload.name()))
}

fn metric_values(result: &Value) -> Outcome<Vec<(String, f64)>> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect()
}

fn count(result: &Value, key: &str) -> Outcome<u64> {
    result
        .get(key)
        .and_then(Value::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| format!("result line has no {key}"))
}

pub fn run(run: &RunArgs, scale: &Scale) -> Outcome<()> {
    let mut results: Vec<(Workload, WorkloadResult)> = Vec::new();
    for workload in Workload::ALL {
        let mut result = WorkloadResult {
            attempted: 0,
            failed: 0,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
        };
        for repeat in 0..run.repeats {
            eprintln!(
                "{}: untraced run {} of {}",
                workload.name(),
                repeat + 1,
                run.repeats
            );
            let line = measure(workload, run, false)?;
            result.attempted += count(&line, "attempted")?;
            result.failed += count(&line, "failed")?;
            for (name, value) in metric_values(&line)? {
                result.end_to_end.entry(name).or_default().push(value);
            }
        }
        eprintln!("{}: traced run", workload.name());
        let line = measure(workload, run, true)?;
        result.attempted += count(&line, "attempted")?;
        result.failed += count(&line, "failed")?;
        result.per_layer = metric_values(&line)?.into_iter().collect();
        results.push((workload, result));
    }

    for (workload, result) in &results {
        println!(
            "{}: {} attempted, {} failed (failed_share {})",
            workload.name(),
            result.attempted,
            result.failed,
            result.failed as f64 / result.attempted.max(1) as f64
        );
        for m in END_TO_END {
            let values = &result.end_to_end[m.name];
            println!(
                "  {:<42} {:>16.4} {:<6} median of {}",
                m.name,
                stats::median(values),
                m.unit,
                values.len()
            );
        }
        for m in PER_LAYER {
            println!(
                "  {:<42} {:>16.4} {}",
                m.name, result.per_layer[m.name], m.unit
            );
        }
    }

    let path = match &run.out {
        Some(path) => std::path::PathBuf::from(path),
        None => output_root().join(format!("result-seed{}.json", run.seed)),
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&path, render(run, scale, &results))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result file: {}", path.display());

    // Guard rails that need more than one workload.
    let advances = |w: Workload| {
        results
            .iter()
            .find(|(x, _)| *x == w)
            .map(|(_, r)| r.per_layer["invindex.advances_per_query"])
    };
    if advances(Workload::ServeWarm) != advances(Workload::ServeCold) {
        return fail(format!(
            "invindex.advances_per_query is {:?} on serve_warm and {:?} on serve_cold: the two no longer run the same request stream, so their difference is not the cache's",
            advances(Workload::ServeWarm),
            advances(Workload::ServeCold)
        ));
    }
    let failed: u64 = results.iter().map(|(_, r)| r.failed).sum();
    if failed > 0 {
        return fail(format!("{failed} operation(s) failed or answered wrongly"));
    }
    Ok(())
}

/// The result file: one header, then every workload's values.
pub fn render(run: &RunArgs, scale: &Scale, results: &[(Workload, WorkloadResult)]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let constants: Vec<String> = scale
        .describe()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"header\": {{\"host_cpus\": {cpus}, \"commit\": {}, \"rustc\": {}, \"seed\": {}, \"seconds\": {}, \"repeats\": {}, \"constants\": {{{}}}}},\n \"workloads\": {{",
        json_string(&tool_line("git", &["rev-parse", "HEAD"])),
        json_string(&tool_line("rustc", &["--version"])),
        run.seed,
        run.seconds,
        run.repeats,
        constants.join(", ")
    );
    for (i, (workload, result)) in results.iter().enumerate() {
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let values: Vec<String> = result.end_to_end[m.name]
                    .iter()
                    .map(f64::to_string)
                    .collect();
                format!(
                    "\"{}\": {{\"unit\": \"{}\", \"values\": [{}]}}",
                    m.name,
                    m.unit,
                    values.join(", ")
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"unit\": \"{}\", \"value\": {}}}",
                    m.name, m.unit, result.per_layer[m.name]
                )
            })
            .collect();
        let _ = write!(
            out,
            "{}\n  \"{}\": {{\"attempted\": {}, \"failed\": {},\n   \"end_to_end\": {{{}}},\n   \"per_layer\": {{{}}}}}",
            if i == 0 { "" } else { "," },
            workload.name(),
            result.attempted,
            result.failed,
            end_to_end.join(", "),
            per_layer.join(", ")
        );
    }
    out.push_str("}}\n");
    out
}
