//! `xrefine-serve` — the long-running XRefine query server.
//!
//! ```text
//! usage: xrefine-serve [--store PATH [--live] | --xml PATH | --dblp FRACTION]
//!                      [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!                      [--max-conns N] [--read-timeout-ms N]
//!                      [--write-timeout-ms N] [--request-timeout-ms N]
//!                      [--drain-grace-ms N] [--help]
//! ```
//!
//! `--xml` and `--dblp` (the default: a generated corpus, rendered to
//! XML text first) index through `XRefineEngine::from_xml`: the
//! streaming builder `xrefine-cli index` and the live writer take, then
//! the store format, read back through `KvBackedIndex` as `--store` is.
//!
//! Endpoints: `GET /query?q=<keywords>`, `GET /metrics` (Prometheus),
//! `GET /healthz`, `POST /admin/drain`, and — with `--live` — `POST
//! /admin/update?op=add|remove|compact[&slot=N]` (the XML fragment for
//! `add` travels as the request body; reads keep serving from their
//! pinned snapshot while a commit is in flight). Shutdown: SIGTERM/SIGINT (a
//! handler installed with libc's `signal`; see `xserve::signal`) or `POST /admin/drain`
//! — both trigger the graceful drain: stop accepting, finish every
//! in-flight request, exit 0.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use datagen::{generate_dblp, DblpConfig};
use xrefine::{EngineConfig, LiveEngine, XRefineEngine};
use xserve::{signal, EngineService, LiveEngineService, QueryService, ServeConfig};

/// Every flag [`parse_args`] matches; `--help` prints it and the module
/// docs quote it.
const USAGE: &str = "\
usage: xrefine-serve [--store PATH [--live] | --xml PATH | --dblp FRACTION]
                     [--addr HOST:PORT] [--workers N] [--queue-cap N]
                     [--max-conns N] [--read-timeout-ms N]
                     [--write-timeout-ms N] [--request-timeout-ms N]
                     [--drain-grace-ms N] [--help]";

struct Args {
    store: Option<String>,
    live: bool,
    xml: Option<String>,
    dblp_fraction: f64,
    config: ServeConfig,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        store: None,
        live: false,
        xml: None,
        dblp_fraction: 0.05,
        config: ServeConfig::default(),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        let name = flag.as_str();
        match name {
            "--store" => args.store = Some(val()?),
            "--live" => args.live = true,
            "--xml" => args.xml = Some(val()?),
            "--dblp" => {
                args.dblp_fraction = val()?
                    .parse()
                    .map_err(|_| "--dblp takes a fraction, e.g. 0.05".to_string())?
            }
            "--addr" => args.config.addr = val()?,
            "--workers" => args.config.workers = positive(parse_num(&val()?, name)?, name)?,
            "--queue-cap" => args.config.queue_capacity = parse_num(&val()?, name)?,
            "--max-conns" => {
                args.config.max_connections = positive(parse_num(&val()?, name)?, name)?
            }
            "--read-timeout-ms" => {
                args.config.read_timeout = positive(parse_ms(&val()?, name)?, name)?
            }
            "--write-timeout-ms" => {
                args.config.write_timeout = positive(parse_ms(&val()?, name)?, name)?
            }
            "--request-timeout-ms" => {
                args.config.request_timeout = positive(parse_ms(&val()?, name)?, name)?
            }
            "--drain-grace-ms" => args.config.drain_grace = parse_ms(&val()?, name)?,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.live && args.store.is_none() {
        return Err("--live requires --store (updates need a durable store)".to_string());
    }
    Ok(args)
}

fn parse_num(v: &str, name: &str) -> Result<usize, String> {
    v.parse().map_err(|_| format!("{name} takes an integer"))
}

fn parse_ms(v: &str, name: &str) -> Result<Duration, String> {
    Ok(Duration::from_millis(
        v.parse()
            .map_err(|_| format!("{name} takes milliseconds"))?,
    ))
}

/// Refuses a zero budget: a zero socket timeout is an error to `std`, a
/// zero idle or request budget expires at once, a zero connection cap
/// sheds every peer and zero workers run no query, so the server would
/// serve nothing. A zero `--queue-cap` is valid: no query waits.
fn positive<T: Default + PartialEq>(v: T, name: &str) -> Result<T, String> {
    if v == T::default() {
        return Err(format!("{name} must be positive, not 0"));
    }
    Ok(v)
}

fn build_service(args: &Args) -> Result<Arc<dyn QueryService>, String> {
    if args.live {
        let path = args.store.as_deref().unwrap_or_default();
        eprintln!("opening maintained store {path} (live updates enabled)");
        let live = LiveEngine::open(std::path::Path::new(path), EngineConfig::default())
            .map_err(|e| format!("cannot open maintained store {path}: {e}"))?;
        return Ok(Arc::new(LiveEngineService::new(Arc::new(live))));
    }
    Ok(Arc::new(EngineService::new(Arc::new(build_engine(args)?))))
}

fn build_engine(args: &Args) -> Result<XRefineEngine, String> {
    if let Some(path) = &args.store {
        eprintln!("opening persisted index {path}");
        return XRefineEngine::from_store(std::path::Path::new(path), EngineConfig::default())
            .map_err(|e| format!("cannot open store {path}: {e}"));
    }
    if let Some(path) = &args.xml {
        eprintln!("indexing {path}");
        let xml = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return XRefineEngine::from_xml(&xml, EngineConfig::default())
            .map_err(|e| format!("scan error in '{path}': {e}"));
    }
    eprintln!(
        "no corpus given; generating synthetic DBLP (fraction {})",
        args.dblp_fraction
    );
    let config = DblpConfig {
        authors: 2000,
        ..Default::default()
    }
    .scaled(args.dblp_fraction);
    // The XML text a `--xml` file of this corpus would hold.
    XRefineEngine::from_xml(&generate_dblp(&config).to_xml(), EngineConfig::default())
        .map_err(|e| format!("scan error in the generated corpus: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if msg == "help" {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("xrefine-serve: {msg}");
            return ExitCode::from(2);
        }
    };

    let service = match build_service(&args) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("xrefine-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let signals = signal::install_handlers();
    if !signals {
        eprintln!("signal handlers unavailable on this platform; use POST /admin/drain to stop");
    }

    let handle = match xserve::start(args.config, service) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("xrefine-serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The lifecycle tests (and humans' scripts) wait for this line.
    println!("xrefine-serve listening on {}", handle.addr());

    while !signal::shutdown_requested() && !handle.drain_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("drain requested; finishing in-flight requests");
    handle.begin_drain();
    let stragglers = handle.join();
    if stragglers > 0 {
        eprintln!("drain grace expired with {stragglers} connection(s) still open");
        return ExitCode::FAILURE;
    }
    println!("drained cleanly");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The default corpus goes through the streaming builder; the DOM
    /// builder over the same generator config is the independent
    /// reference it must agree with on a query that needs refinement.
    #[test]
    fn the_generated_corpus_is_served_as_the_dom_builder_would() {
        let config = DblpConfig {
            authors: 40,
            ..Default::default()
        };
        let served =
            XRefineEngine::from_xml(&generate_dblp(&config).to_xml(), EngineConfig::default())
                .unwrap();
        let reference =
            XRefineEngine::from_document(Arc::new(generate_dblp(&config)), EngineConfig::default());
        let query = "xml keywrd search";
        let (got, want) = (
            served.answer(query).unwrap(),
            reference.answer(query).unwrap(),
        );
        assert!(want.needs_refinement() && !want.refinements.is_empty());
        let rows = |o: &xrefine::RefineOutcome| -> Vec<_> {
            o.refinements
                .iter()
                .map(|r| {
                    (
                        r.candidate.keywords.clone(),
                        r.candidate.dissimilarity,
                        r.slcas.clone(),
                    )
                })
                .collect()
        };
        assert_eq!(got.original_ok, want.original_ok);
        assert_eq!(rows(&got), rows(&want));
    }

    /// `--help`, the module docs and the parser name the same flags: the
    /// `"--flag" =>` arms of `parse_args`, read from this file, are
    /// exactly the flags `USAGE` lists, and the module docs quote `USAGE`
    /// line for line.
    #[test]
    fn usage_lists_exactly_the_flags_the_parser_matches() {
        let source = include_str!("xrefine-serve.rs");
        let flags_in = |text: &str| -> BTreeSet<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--") && w.len() > 2)
                .map(str::to_string)
                .collect()
        };
        let matched: BTreeSet<String> = source
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("\"--") && l.contains("=>"))
            .flat_map(|l| flags_in(l.split("=>").next().unwrap_or("")))
            .collect();
        assert!(matched.contains("--write-timeout-ms") && matched.len() >= 12);
        assert_eq!(flags_in(USAGE), matched);
        for line in USAGE.lines() {
            assert!(
                source.contains(&format!("//! {line}")),
                "module docs do not quote: {line}"
            );
        }
    }

    /// A zero worker count, connection cap or socket, idle or request
    /// budget would leave a server that answers nothing; the parser
    /// refuses each by name. A zero drain grace only means "no grace",
    /// and a zero queue capacity "nobody waits": both stay valid.
    #[test]
    fn zero_budgets_are_refused_by_name() {
        let parse = |flags: &[&str]| parse_args(flags.iter().map(|f| f.to_string()));
        for flag in [
            "--workers",
            "--max-conns",
            "--read-timeout-ms",
            "--write-timeout-ms",
            "--request-timeout-ms",
        ] {
            match parse(&[flag, "0"]) {
                Err(msg) => assert!(msg.contains(flag), "{flag}: {msg}"),
                Ok(_) => panic!("{flag} 0 was accepted"),
            }
            assert!(parse(&[flag, "1"]).is_ok(), "{flag} 1 was refused");
        }
        assert!(parse(&["--drain-grace-ms", "0"]).is_ok());
        let queue_cap = parse(&["--queue-cap", "0"]).expect("--queue-cap 0 is valid");
        assert_eq!(queue_cap.config.queue_capacity, 0);
    }
}
