//! `compare A.json B.json`: one row per workload and end-to-end metric,
//! B against A. A metric is `worse` when B's median is beyond the bound
//! `BENCHMARK.json` fixes for it, `unresolved` when either file's own
//! run-to-run spread (interquartile range over median) is wider than
//! that bound, `ok` otherwise. Exits non-zero on any `worse` and on a
//! higher share of failed operations.

use crate::common::{fail, Outcome, Workload};
use crate::json::{self, Value};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats;

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

struct File {
    path: String,
    root: Value,
}

impl File {
    fn read(path: &str) -> Outcome<File> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(File {
            path: path.to_string(),
            root,
        })
    }

    fn header(&self, key: &str) -> Outcome<&Value> {
        self.root
            .get("header")
            .and_then(|h| h.get(key))
            .ok_or_else(|| format!("{}: header has no {key}", self.path))
    }

    fn workload(&self, workload: Workload) -> Outcome<&Value> {
        self.root
            .get("workloads")
            .and_then(|w| w.get(workload.name()))
            .ok_or_else(|| format!("{}: no workload {}", self.path, workload.name()))
    }

    fn values(&self, workload: Workload, metric: &str) -> Outcome<Vec<f64>> {
        let values: Vec<f64> = self
            .workload(workload)?
            .get("end_to_end")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("values"))
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{}: {} has no {metric}", self.path, workload.name()))?
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        if values.is_empty() {
            return fail(format!(
                "{}: {} {metric} has no values",
                self.path,
                workload.name()
            ));
        }
        Ok(values)
    }

    fn failed_share(&self, workload: Workload) -> Outcome<f64> {
        let w = self.workload(workload)?;
        let number = |key: &str| {
            w.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: {} has no {key}", self.path, workload.name()))
        };
        Ok(number("failed")? / number("attempted")?.max(1.0))
    }
}

/// Interquartile range over median; 0 for fewer than two runs, where
/// there is no spread to see.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = stats::quartiles(values);
    (q3 - q1) / stats::median(values)
}

fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > metric.bound || spread(b) > metric.bound {
        return Verdict::Unresolved;
    }
    let (a, b) = (stats::median(a), stats::median(b));
    let worse = if metric.better == "lower" {
        b > a * (1.0 + metric.bound)
    } else {
        b < a * (1.0 - metric.bound)
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn run(path_a: &str, path_b: &str) -> Outcome<()> {
    let (a, b) = (File::read(path_a)?, File::read(path_b)?);
    for key in ["constants", "seconds"] {
        if a.header(key)? != b.header(key)? {
            return fail(format!(
                "{path_a} and {path_b} were measured with different {key}: their numbers are not comparable"
            ));
        }
    }
    for key in ["host_cpus", "rustc", "seed", "commit"] {
        if a.header(key)? != b.header(key)? {
            println!(
                "note: {key} differs: {:?} against {:?}",
                a.header(key)?,
                b.header(key)?
            );
        }
    }

    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>9} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread A", "spread B", "bound"
    );
    let mut worse = Vec::new();
    for workload in Workload::ALL {
        for metric in END_TO_END {
            let (va, vb) = (
                a.values(workload, metric.name)?,
                b.values(workload, metric.name)?,
            );
            let verdict = judge(metric, &va, &vb);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<12} {:<12} {:>12.4} {:>12.4} {:>9.4} {:>9.4} {:>9.4} {:>6.2}  {}",
                workload.name(),
                metric.name,
                ma,
                mb,
                mb / ma,
                spread(&va),
                spread(&vb),
                metric.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if verdict == Verdict::Worse {
                worse.push(format!("{} {}", workload.name(), metric.name));
            }
        }
        let (fa, fb) = (a.failed_share(workload)?, b.failed_share(workload)?);
        println!(
            "{:<12} {:<12} {fa:>12.6} {fb:>12.6}",
            workload.name(),
            "failed_share"
        );
        if fb > fa {
            worse.push(format!("{} failed_share", workload.name()));
        }
    }
    if worse.is_empty() {
        Ok(())
    } else {
        fail(format!("worse in B: {}", worse.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{FULL, SMOKE};
    use crate::metrics::PER_LAYER;
    use crate::runall::{render, WorkloadResult};
    use crate::RunArgs;

    /// A result file as `run` writes it, every end-to-end metric reading
    /// `level` (twice) on every workload.
    fn result_file(name: &str, level: f64, failed: u64, scale: &crate::consts::Scale) -> String {
        let results: Vec<(Workload, WorkloadResult)> = Workload::ALL
            .iter()
            .map(|&w| {
                let result = WorkloadResult {
                    attempted: 100,
                    failed,
                    end_to_end: END_TO_END
                        .iter()
                        .map(|m| (m.name.to_string(), vec![level, level * 1.01]))
                        .collect(),
                    per_layer: PER_LAYER
                        .iter()
                        .map(|m| (m.name.to_string(), 1.5))
                        .collect(),
                };
                (w, result)
            })
            .collect();
        let args = RunArgs {
            workload: None,
            seed: 1,
            seconds: 10.0,
            traced: false,
            smoke: false,
            repeats: 2,
            out: None,
        };
        let dir = std::env::temp_dir().join(format!("bench_e2e_compare_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, render(&args, scale, &results)).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn compares_the_files_run_writes() {
        let base = result_file("base.json", 10.0, 0, &FULL);
        assert_eq!(
            run(&base, &result_file("same.json", 10.2, 0, &FULL)),
            Ok(())
        );
        // Every metric 30 % up: lower-is-better ones are worse, ops_per_s is not.
        // (The bound is 0.25.)
        let slower = run(&base, &result_file("slower.json", 13.0, 0, &FULL)).unwrap_err();
        assert!(
            slower.contains("serve_warm op_p50_ms") && !slower.contains("ops_per_s"),
            "{slower}"
        );
        let failing = run(&base, &result_file("failing.json", 10.0, 1, &FULL)).unwrap_err();
        assert!(failing.contains("failed_share"), "{failing}");
        let other = run(&base, &result_file("smoke.json", 10.0, 0, &SMOKE)).unwrap_err();
        assert!(other.contains("different constants"), "{other}");
        let _ = std::fs::remove_dir_all(std::path::Path::new(&base).parent().unwrap());
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let p50 = metric("op_p50_ms"); // lower is better, bound 0.25
        assert_eq!(judge(p50, &[10.0], &[12.4]), Verdict::Ok);
        assert_eq!(judge(p50, &[10.0], &[12.6]), Verdict::Worse);
        assert_eq!(
            judge(p50, &[10.0], &[5.0]),
            Verdict::Ok,
            "a gain is not a regression"
        );
        let rate = metric("ops_per_s"); // higher is better
        assert_eq!(judge(rate, &[100.0], &[76.0]), Verdict::Ok);
        assert_eq!(judge(rate, &[100.0], &[74.0]), Verdict::Worse);
        assert_eq!(judge(rate, &[100.0], &[200.0]), Verdict::Ok);
        // A file whose own runs disagree by more than the bound resolves nothing.
        assert_eq!(
            judge(p50, &[6.0, 10.0, 14.0, 18.0], &[30.0, 30.0, 30.0, 30.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p50, &[10.0, 10.1, 10.2, 10.3], &[13.0, 13.1, 13.2, 13.3]),
            Verdict::Worse
        );
    }
}
