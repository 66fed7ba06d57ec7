//! CLI: `xlint --workspace [--root PATH]` lints the tree and prints
//! rustc-style diagnostics; `xlint --fixtures` self-tests the rules.
//! `--json` switches diagnostics to one-line JSON for CI annotation.
//!
//! Exit codes: 0 clean; 1 findings, or a fixture whose rule went
//! entirely dead (matched nothing it expected); 3 fixture failures
//! where every failing fixture still partially matched (rule drift,
//! not rule death); 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" | "--fixtures" | "--list-rules" => {
                if mode.is_some() {
                    return usage("pass exactly one of --workspace, --fixtures, --list-rules");
                }
                mode = Some(match args[i].as_str() {
                    "--workspace" => "workspace",
                    "--fixtures" => "fixtures",
                    _ => "list-rules",
                });
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => return usage("--root needs a path"),
                }
            }
            "--json" => json = true,
            "-h" | "--help" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let root = root.unwrap_or_else(xlint::workspace::default_root);
    match mode {
        Some("workspace") => run_workspace(&root, json),
        Some("fixtures") => run_fixtures(&root, json),
        Some("list-rules") => {
            for rule in xlint::rules::RULE_NAMES {
                println!("{rule}");
            }
            println!("pragma");
            ExitCode::SUCCESS
        }
        _ => usage("pass one of --workspace, --fixtures, --list-rules"),
    }
}

fn run_workspace(root: &std::path::Path, json: bool) -> ExitCode {
    let findings = match xlint::workspace::lint_workspace(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xlint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("[");
        for (i, f) in findings.iter().enumerate() {
            let comma = if i + 1 < findings.len() { "," } else { "" };
            println!("  {}{comma}", f.to_json());
        }
        println!("]");
        return if findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    if findings.is_empty() {
        println!("xlint: workspace clean");
        return ExitCode::SUCCESS;
    }
    // Re-read each file once for diagnostic source lines.
    let mut cache: std::collections::HashMap<String, Vec<String>> = Default::default();
    for f in &findings {
        let lines = cache.entry(f.path.clone()).or_insert_with(|| {
            std::fs::read_to_string(root.join(&f.path))
                .map(|t| t.lines().map(str::to_string).collect())
                .unwrap_or_default()
        });
        let src = lines
            .get(f.line.saturating_sub(1))
            .map(String::as_str)
            .unwrap_or("");
        eprint!("{}", f.render(src));
        eprintln!();
    }
    eprintln!("xlint: {} finding(s)", findings.len());
    ExitCode::from(1)
}

fn run_fixtures(root: &std::path::Path, json: bool) -> ExitCode {
    let dir = root.join("crates/xlint/tests/fixtures");
    let config = xlint::fixtures::fixture_config();
    let outcomes = match xlint::fixtures::run_fixtures(&dir, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xlint: {e}");
            return ExitCode::from(2);
        }
    };
    let failed = outcomes.iter().filter(|o| !o.passed).count();
    if json {
        println!("[");
        for (i, o) in outcomes.iter().enumerate() {
            let comma = if i + 1 < outcomes.len() { "," } else { "" };
            println!("  {}{comma}", o.to_json());
        }
        println!("]");
    } else {
        for o in &outcomes {
            if o.passed {
                println!("fixture {} ... ok", o.name);
            } else if o.partial() {
                println!(
                    "fixture {} ... PARTIAL ({} matched, {} missed, {} spurious)",
                    o.name, o.matched, o.missed, o.spurious
                );
                print!("{}", o.details);
            } else {
                println!("fixture {} ... FAILED", o.name);
                print!("{}", o.details);
            }
        }
        println!("{} fixture(s), {} failed", outcomes.len(), failed);
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else if outcomes.iter().filter(|o| !o.passed).all(|o| o.partial()) {
        ExitCode::from(3)
    } else {
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("xlint: {err}");
    }
    eprintln!(
        "usage: xlint --workspace [--root PATH] [--json] \
         | --fixtures [--root PATH] [--json] | --list-rules"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
