//! `bench_e2e` — the repository's benchmark: `GET /query` → `xserve` →
//! `XRefineEngine` → `KvBackedIndex` list cache → `kvstore` pager → v4
//! block decode, measured end to end and layer by layer, from outside.
//! See README.md for the metrics and why the workloads are what they are.
//!
//! ```text
//! bench_e2e run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--repeats N] [--out FILE] [--smoke]
//! bench_e2e compare A.json B.json
//! ```
//!
//! With `--workload`, `run` measures that workload in this process and
//! ends with one JSON result line. Without, it runs every workload,
//! untraced and traced, each in a child process of its own, and writes
//! one result file.

pub mod children;
pub mod common;
pub mod compare;
pub mod consts;
pub mod describe;
pub mod http;
pub mod ingest;
pub mod inputs;
pub mod json;
pub mod live;
pub mod metrics;
pub mod runall;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod timedkv;

use std::process::ExitCode;

use common::{Opts, Outcome, Workload};

const USAGE: &str =
    "usage: bench_e2e run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--repeats N] [--out FILE] [--smoke]\n       bench_e2e compare A.json B.json";

/// `run`'s flags, before they are split between one workload and all.
pub struct RunArgs {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub repeats: usize,
    pub out: Option<String>,
}

fn parse_run(args: &[String]) -> Outcome<RunArgs> {
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: f64::from(describe::RUN_SECONDS),
        traced: false,
        smoke: false,
        repeats: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => run.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeats" => run.repeats = value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?,
            "--out" => run.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(run)
}

fn run_one(opts: &Opts) -> Outcome<()> {
    let report = match opts.workload {
        Workload::ServeWarm | Workload::ServeCold => serve::run(opts)?,
        Workload::LiveUpdate | Workload::LiveCommit => live::run(opts)?,
        Workload::Ingest => ingest::run(opts)?,
    };
    println!(
        "{} seed {} {} s{}: {} attempted, {} failed",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        if opts.traced { " traced" } else { "" },
        report.attempted,
        report.failed
    );
    for (name, value, unit) in report.declared(opts.traced) {
        println!("  {name:<42} {value:>16.4} {unit}");
    }
    println!("{}", report.result_line(opts.traced));
    Ok(())
}

/// `child-setup <workload> <seed> <smoke 0|1> <dir>`: see
/// `common::repeat_setup`.
fn child_setup(args: &[String]) -> Outcome<()> {
    let [workload, seed, smoke, dir] = args else {
        return Err("child-setup: expected <workload> <seed> <smoke> <dir>".to_string());
    };
    let opts = Opts {
        workload: Workload::parse(workload).ok_or("child-setup: unknown workload")?,
        seed: seed.parse().map_err(|_| "child-setup: bad seed")?,
        seconds: 0.0,
        traced: false,
        scale: if smoke == "1" {
            consts::SMOKE
        } else {
            consts::FULL
        },
    };
    let dir = std::path::Path::new(dir);
    let seconds = match opts.workload {
        Workload::ServeWarm | Workload::ServeCold => serve::set_up_and_discard(&opts, dir)?,
        Workload::LiveUpdate | Workload::LiveCommit => live::set_up_and_discard(&opts, dir)?,
        Workload::Ingest => {
            return Err("child-setup: ingest sets up in its own process".to_string())
        }
    };
    println!("{seconds}");
    Ok(())
}

fn dispatch(args: &[String]) -> Outcome<()> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => {
            let run = parse_run(rest)?;
            let scale = if run.smoke {
                consts::SMOKE
            } else {
                consts::FULL
            };
            match run.workload {
                Some(workload) => run_one(&Opts {
                    workload,
                    seed: run.seed,
                    seconds: run.seconds,
                    traced: run.traced,
                    scale,
                }),
                None => runall::run(&run, &scale),
            }
        }
        "compare" => match rest {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.to_string()),
        },
        "describe" => {
            print!("{}", describe::benchmark_json());
            Ok(())
        }
        "child-inputs" => children::inputs(rest),
        "child-store" => children::store(rest),
        "child-setup" => child_setup(rest),
        _ => Err(USAGE.to_string()),
    }
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(what) => {
            eprintln!("bench_e2e: {what}");
            ExitCode::FAILURE
        }
    }
}
