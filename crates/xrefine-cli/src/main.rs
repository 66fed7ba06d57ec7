//! XRefine — the interactive keyword-search prototype of the paper.
//!
//! ```text
//! xrefine-cli [--data <file.xml>|dblp|baseball|figure1] \
//!             [--algorithm partition|sle|stack] [--k N]
//! xrefine-cli index <file.xml>|dblp|baseball|figure1 <store.db> \
//!             [--threads N]
//! xrefine-cli query --store <store.db> [--algorithm ...] [--k N]
//! ```
//!
//! The flag-only form indexes the document, encodes it into an
//! in-memory store, then reads keyword queries from stdin (one per
//! line). `index` persists the built index into a kvstore file; `query
//! --store` serves the same REPL straight from that file — a result is
//! rendered from its record's stored chunk. Either way posting lists are
//! read through the same store format and decoded lazily, per query.
//!
//! Both `--data` and `index` build via the zero-copy scanner
//! (`invindex::build_streaming`, the one ingest path: a malformed file
//! is reported the same way by either); `index --threads N`
//! parallelises its tokenize/DF phases, and the persisted store is
//! byte-identical at any thread count: compressed postings (blocked
//! front-coded Dewey lists with skip tables), the document as a header
//! and one deduplicated DAG chunk per record, and packed stat tables.
//!
//! Observability (see DESIGN.md "Observability"):
//!
//! * `--metrics` dumps the global metrics registry in Prometheus text
//!   format when the session (REPL or `--trace`) ends — pager
//!   page reads, WAL syncs, cache hit/miss, SLCA steps, per-phase
//!   latency histograms;
//! * `--trace <query>` answers that one query with span capture on and
//!   pretty-prints the span tree (phases, per-keyword list loads,
//!   cursor counters), then exits.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;
use xrefine::{Algorithm, EngineConfig, Refinement, XRefineEngine};

const USAGE: &str = "usage: xrefine-cli [--data <file.xml>|dblp|baseball|figure1] \
[--algorithm partition|sle|stack] [--k N]\n       \
xrefine-cli index <file.xml>|dblp|baseball|figure1 <store.db> [--threads N]\n       \
xrefine-cli query --store <store.db> [--algorithm partition|sle|stack] [--k N] \
[--metrics] [--trace <query>]\n       \
xrefine-cli update --store <store.db> [--add <fragment.xml>]... [--remove SLOT]... [--compact]
       xrefine-cli scrub --store <store.db>";

enum Command {
    /// Build an index for a document and persist it to a kvstore file.
    Index {
        data: String,
        store: String,
        threads: usize,
    },
    /// Verify the integrity of a persisted store, section by section.
    Scrub { store: String },
    /// Apply one maintenance transaction (adds/removes in argument
    /// order) to a maintained store, optionally compacting after.
    Update {
        store: String,
        ops: Vec<UpdateOp>,
        compact: bool,
    },
    /// Serve queries, either from a document spec or a persisted store.
    Repl(Options),
}

/// One `--add`/`--remove` argument, in command-line order.
enum UpdateOp {
    /// Path of an XML fragment file to insert as a new record.
    AddFile(String),
    /// Record slot to delete.
    Remove(usize),
}

struct Options {
    data: String,
    store: Option<String>,
    algorithm: Algorithm,
    k: usize,
    max_render: usize,
    metrics: bool,
    trace: Option<String>,
}

fn parse_args(mut args: Vec<String>) -> Result<Command, String> {
    if args.first().map(|s| s.as_str()) == Some("index") {
        let mut threads = 1usize;
        let mut positional: Vec<String> = Vec::new();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--threads" => {
                    threads = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--threads needs a positive integer")?;
                    i += 2;
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => {
                    positional.push(args[i].clone());
                    i += 1;
                }
            }
        }
        if positional.len() != 2 {
            return Err(USAGE.into());
        }
        return Ok(Command::Index {
            data: positional.remove(0),
            store: positional.remove(0),
            threads,
        });
    }
    if args.first().map(|s| s.as_str()) == Some("update") {
        let mut store = None;
        let mut ops = Vec::new();
        let mut compact = false;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--store" => {
                    store = Some(args.get(i + 1).ok_or("--store needs a value")?.clone());
                    i += 2;
                }
                "--add" => {
                    ops.push(UpdateOp::AddFile(
                        args.get(i + 1)
                            .ok_or("--add needs a fragment file")?
                            .clone(),
                    ));
                    i += 2;
                }
                "--remove" => {
                    let slot = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--remove needs a record slot (a non-negative integer)")?;
                    ops.push(UpdateOp::Remove(slot));
                    i += 2;
                }
                "--compact" => {
                    compact = true;
                    i += 1;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let store = store.ok_or("update requires --store")?;
        if ops.is_empty() && !compact {
            return Err("update needs at least one --add/--remove, or --compact".to_string());
        }
        return Ok(Command::Update {
            store,
            ops,
            compact,
        });
    }
    if args.first().map(|s| s.as_str()) == Some("scrub") {
        if args.len() != 3 || args[1] != "--store" {
            return Err(USAGE.into());
        }
        return Ok(Command::Scrub {
            store: args.remove(2),
        });
    }
    let flags_at = usize::from(args.first().map(|s| s.as_str()) == Some("query"));
    let mut opts = Options {
        data: "figure1".to_string(),
        store: None,
        algorithm: Algorithm::Partition,
        k: 3,
        max_render: 2,
        metrics: false,
        trace: None,
    };
    let mut i = flags_at;
    while i < args.len() {
        match args[i].as_str() {
            "--data" => {
                opts.data = args.get(i + 1).ok_or("--data needs a value")?.clone();
                i += 2;
            }
            "--store" => {
                opts.store = Some(args.get(i + 1).ok_or("--store needs a path")?.clone());
                i += 2;
            }
            "--algorithm" => {
                opts.algorithm = match args.get(i + 1).map(|s| s.as_str()) {
                    Some("partition") => Algorithm::Partition,
                    Some("sle") => Algorithm::ShortListEager,
                    Some("stack") => Algorithm::StackRefine,
                    other => return Err(format!("unknown algorithm {other:?}")),
                };
                i += 2;
            }
            "--k" => {
                opts.k = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--k needs a positive integer")?;
                i += 2;
            }
            "--max-render" => {
                opts.max_render = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-render needs an integer")?;
                i += 2;
            }
            "--metrics" => {
                opts.metrics = true;
                i += 1;
            }
            "--trace" => {
                opts.trace = Some(args.get(i + 1).ok_or("--trace needs a query")?.clone());
                i += 2;
            }
            "--help" | "-h" => {
                return Err(USAGE.into());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Command::Repl(opts))
}

/// The raw XML of a document spec — read from disk for a path,
/// rendered for the built-in corpora.
fn load_xml(spec: &str) -> Result<String, String> {
    match spec {
        "figure1" => Ok(xmldom::fixtures::figure1().to_xml()),
        "dblp" => Ok(datagen::generate_dblp(&datagen::DblpConfig {
            authors: 500,
            ..Default::default()
        })
        .to_xml()),
        "baseball" => Ok(datagen::generate_baseball(&datagen::BaseballConfig::default()).to_xml()),
        path => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
    }
}

/// The one ingest path of this binary: a document spec through the
/// streaming scanner to a built index. `index` persists it; the
/// flag-only REPL hands it to `XRefineEngine::from_index`, which serves
/// it through the store format.
fn build_index(data: &str, threads: usize) -> Result<invindex::Index, String> {
    invindex::build_streaming(&load_xml(data)?, threads)
        .map_err(|e| format!("scan error in '{data}': {e}"))
}

/// `xrefine-cli index <data> <db> [--threads N]`: build with the
/// streaming scanner and persist. The store is byte-identical at any
/// thread count, and it replaces whatever store was at `<db>`: the old
/// tree file goes, and so do the WAL and half-written checkpoint an
/// `update` may have left beside it, which would otherwise be merged
/// into or replayed over the new index.
fn build_store(data: &str, store_path: &str, threads: usize) -> Result<(), String> {
    let index = build_index(data, threads)?;
    let path = std::path::Path::new(store_path);
    let vfs = kvstore::StdVfs::arc();
    for old in [
        path.with_extension("wal"),
        path.with_extension("db.new"),
        path.to_path_buf(),
    ] {
        vfs.remove(&old)
            .map_err(|e| format!("cannot replace store {store_path}: {}: {e}", old.display()))?;
    }
    let mut store = kvstore::DiskKv::open_with_vfs(&vfs, path)
        .map_err(|e| format!("cannot open store {store_path}: {e}"))?;
    invindex::persist::persist(&index, &mut store)
        .map_err(|e| format!("cannot persist index: {e}"))?;
    eprintln!(
        "indexed {} elements ({} keywords) from '{}' into {} ({} thread(s))",
        index.document().len(),
        index.vocabulary().len(),
        data,
        store_path,
        threads.max(1)
    );
    Ok(())
}

/// `xrefine-cli update --store <db> ...`: one atomic maintenance
/// transaction through the WAL, with an optional compaction after.
fn update_store(store_path: &str, ops: &[UpdateOp], compact: bool) -> Result<(), String> {
    use invindex::MaintOp;
    let mut maint = invindex::MaintIndex::open(std::path::Path::new(store_path))
        .map_err(|e| format!("cannot open maintained store {store_path}: {e}"))?;
    if !ops.is_empty() {
        let ops: Vec<MaintOp> = ops
            .iter()
            .map(|op| match op {
                UpdateOp::AddFile(path) => std::fs::read_to_string(path)
                    .map(|fragment| MaintOp::Add { fragment })
                    .map_err(|e| format!("cannot read fragment {path}: {e}")),
                UpdateOp::Remove(slot) => Ok(MaintOp::Remove { slot: *slot }),
            })
            .collect::<Result<_, _>>()?;
        let report = maint.commit(&ops).map_err(|e| match e {
            kvstore::KvError::Refused(_) => format!("update rejected: {e}"),
            _ => format!("update failed: {e}"),
        })?;
        println!(
            "committed txn {}: {} record(s) ({} added, {} removed, {} store op(s))",
            report.seq, report.records, report.added, report.removed, report.batch_ops
        );
    }
    if compact {
        let ran = maint
            .compact()
            .map_err(|e| format!("compaction failed: {e}"))?;
        println!(
            "compaction: {}",
            if ran {
                "folded WAL overlay into base store"
            } else {
                "overlay empty, nothing to do"
            }
        );
    }
    Ok(())
}

/// `xrefine-cli scrub --store <db>`: per-section integrity report.
/// Returns `Ok(true)` when every page and every entry verified. Scrub
/// only reads: crash leftovers beside the store are reported, and left
/// for the next writer open (`update`, `xrefine-serve --live`) to repair.
fn scrub_store(store_path: &str) -> Result<bool, String> {
    scrub_store_with_vfs(&kvstore::StdVfs::arc(), store_path)
}

fn scrub_store_with_vfs(vfs: &Arc<dyn kvstore::Vfs>, store_path: &str) -> Result<bool, String> {
    use kvstore::KvStore as _;
    let path = std::path::Path::new(store_path);
    let kv = kvstore::DiskKv::open_read_only(vfs, path)
        .map_err(|e| format!("cannot open {store_path}: {e}"))?;

    // Layer 1: page checksums (catches damage anywhere in the file).
    let pages = kv
        .verify_pages()
        .map_err(|e| format!("cannot scan pages of {store_path}: {e}"))?;
    println!(
        "pages: {} total: {} valid, {} blank, {} damaged",
        pages.total_pages,
        pages.valid_pages,
        pages.blank_pages,
        pages.bad_pages.len()
    );
    for (id, reason) in &pages.bad_pages {
        println!("  page {id}: {reason}");
    }

    // Layer 2: the index's own framing, section by section.
    let report = invindex::verify_store(&kv);
    match report.version {
        Some(v) => println!("index format: v{v}"),
        None => println!("index format: unreadable or unsupported version record"),
    }
    print_sections("section", &report);

    // Layer 3: online maintenance. The view readers are served is the
    // base with the WAL's committed transactions laid over it; when
    // there are any, verify that merged view too.
    let mut maint_clean = true;
    let tmp_path = path.with_extension("db.new");
    if vfs.exists(&tmp_path) {
        println!(
            "maintenance: half-compacted checkpoint {} left by a crash; \
             harmless (the next writer open discards it)",
            tmp_path.display()
        );
    }
    let view = kvstore::wal::read_log(vfs, &path.with_extension("wal"))
        .and_then(|(txns, torn)| Ok((txns.len(), torn, kvstore::Snapshot::open(vfs, path)?)));
    match view {
        Ok((txns, torn, view)) => {
            if torn > 0 {
                println!(
                    "maintenance: {torn}-byte torn WAL tail left by a crash; \
                     harmless (never acknowledged; the next writer open truncates it)"
                );
            }
            if view.overlay_len() > 0 {
                println!(
                    "maintenance: WAL replayed, {txns} transaction(s), {} overlay entr(ies)",
                    view.overlay_len()
                );
                let merged = invindex::verify_store(&view);
                print_sections("merged ", &merged);
                maint_clean &= merged.is_clean();
            }
            if let Ok(Some(value)) = view.get(invindex::maint::MAINT_KEY) {
                match invindex::maint::decode_maint_meta(&value) {
                    Ok(seq) => println!("maintenance: seq {seq}"),
                    Err(e) => {
                        maint_clean = false;
                        println!("maintenance: damaged M/maint record: {e}");
                    }
                }
            }
        }
        Err(e) => {
            maint_clean = false;
            println!("maintenance: WAL replay failed: {e}");
        }
    }

    let clean = pages.is_clean() && report.is_clean() && maint_clean;
    if clean {
        println!(
            "{store_path}: clean ({} entries verified)",
            report.total_entries()
        );
    } else {
        println!(
            "{store_path}: DAMAGED ({} bad page(s), {} bad entr(ies))",
            pages.bad_pages.len(),
            report.total_damaged()
        );
    }
    Ok(clean)
}

fn print_sections(label: &str, report: &invindex::IntegrityReport) {
    for section in &report.sections {
        println!(
            "{label} {:<10} {:>6} entries, {} damaged",
            section.name,
            section.entries,
            section.damaged.len()
        );
        for (entry, detail) in &section.damaged {
            println!("  {entry}: {detail}");
        }
    }
}

fn build_engine(opts: &Options) -> Result<XRefineEngine, String> {
    let config = EngineConfig {
        algorithm: opts.algorithm,
        k: opts.k,
        ..Default::default()
    };
    match &opts.store {
        Some(path) => {
            let engine = XRefineEngine::from_store(std::path::Path::new(path), config)
                .map_err(|e| format!("cannot open store {path}: {e}"))?;
            eprintln!(
                "opened persisted index {} ({} elements, {:?}, Top-{})",
                path,
                engine.index().node_count(),
                opts.algorithm,
                opts.k
            );
            Ok(engine)
        }
        None => {
            let index = build_index(&opts.data, 1)?;
            eprintln!(
                "indexed {} elements from '{}' ({:?}, Top-{})",
                index.document().len(),
                opts.data,
                opts.algorithm,
                opts.k
            );
            Ok(XRefineEngine::from_index(index, config))
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(Command::Index {
            data,
            store,
            threads,
        }) => {
            return match build_store(&data, &store, threads) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Command::Update {
            store,
            ops,
            compact,
        }) => {
            return match update_store(&store, &ops, compact) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Command::Scrub { store }) => {
            return match scrub_store(&store) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(2),
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Command::Repl(o)) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let engine = match build_engine(&opts) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(query) = &opts.trace {
        let code = trace_one_query(&engine, query);
        if opts.metrics {
            dump_metrics();
        }
        return code;
    }

    let code = repl(&engine, &opts);
    if opts.metrics {
        dump_metrics();
    }
    code
}

/// `--trace <query>`: answer one query with span capture on and print
/// the span tree. A failing query still prints its (partial) trace.
fn trace_one_query(engine: &XRefineEngine, query: &str) -> ExitCode {
    let (result, trace) = engine.answer_traced(query);
    print!("{}", trace.render());
    match result {
        Ok(outcome) if short_result_set(outcome.best()) => ExitCode::FAILURE,
        Ok(outcome) => {
            match outcome.best() {
                Some(r) if outcome.original_ok => {
                    println!(
                        "-> {} meaningful result(s), no refinement needed",
                        r.slcas.len()
                    )
                }
                Some(r) => println!(
                    "-> best refinement {{{}}} dSim={} with {} result(s)",
                    r.candidate.keywords.join(", "),
                    r.candidate.dissimilarity,
                    r.slcas.len()
                ),
                None => println!("-> no refined query with meaningful results"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("query failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads the result sets whose counts are printed whole, and reports a
/// set that a damaged list block left short with a `storage error: …`
/// line instead.
fn short_result_set<'a>(printed: impl IntoIterator<Item = &'a Refinement>) -> bool {
    let damage = printed.into_iter().find_map(|r| {
        let _whole = r.slcas.len();
        r.slcas.damage()
    });
    if let Some(e) = &damage {
        eprintln!("storage error: {e}");
    }
    damage.is_some()
}

/// `--metrics`: the global registry in Prometheus text format.
fn dump_metrics() {
    print!("{}", obs::global().snapshot().render_prometheus());
}

fn repl(engine: &XRefineEngine, opts: &Options) -> ExitCode {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    eprint!("query> ");
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            eprint!("query> ");
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        // per-query errors (e.g. a corrupt list page) are reported with
        // the keyword they trace back to, and the loop keeps serving:
        // one bad page must not kill the session
        let outcome = match engine.answer_detailed(line) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("storage error: {e}");
                eprint!("query> ");
                continue;
            }
        };
        for d in &outcome.degraded {
            eprintln!("degraded: keyword \"{}\": {}", d.keyword, d.reason);
        }
        // The original query's count is printed alone; each refinement's
        // otherwise.
        let printed = if outcome.original_ok { 1 } else { usize::MAX };
        if short_result_set(outcome.refinements.iter().take(printed)) {
            eprint!("query> ");
            continue;
        }
        if outcome.original_ok {
            if let Some(r) = outcome.best() {
                let _ = writeln!(
                    out,
                    "query has {} meaningful result(s); no refinement needed",
                    r.slcas.len()
                );
                render(engine, &r.slcas, opts.max_render, &mut out);
            }
            // over-broad queries get narrowing suggestions (§IX extension)
            if let Ok(Some(suggestions)) = engine.narrow(line, &xrefine::NarrowOptions::default()) {
                if !suggestions.is_empty() {
                    let _ = writeln!(out, "result set is large; consider narrowing:");
                    for s in &suggestions {
                        let _ = writeln!(
                            out,
                            "  + \"{}\" -> {} result(s)",
                            s.added,
                            s.refinement.slcas.len()
                        );
                    }
                }
            }
        } else if outcome.refinements.is_empty() {
            let _ = writeln!(out, "no refined query with meaningful results found");
        } else {
            let _ = writeln!(
                out,
                "query needs refinement; Top-{} refined queries:",
                outcome.refinements.len()
            );
            for (rank, r) in outcome.refinements.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  #{} {{{}}}  dSim={}  rank={:.4}  results={}",
                    rank + 1,
                    r.candidate.keywords.join(", "),
                    r.candidate.dissimilarity,
                    r.rank_score,
                    r.slcas.len()
                );
            }
            if let Some((_, steps)) =
                engine.explain(line, &outcome.refinements[0].candidate.keywords)
            {
                let rendered: Vec<String> = steps
                    .iter()
                    .filter(|s| !matches!(s, xrefine::AppliedOp::Kept(_)))
                    .map(|s| s.to_string())
                    .collect();
                if !rendered.is_empty() {
                    let _ = writeln!(out, "  derivation: {}", rendered.join("; "));
                }
            }
            render(
                engine,
                &outcome.refinements[0].slcas,
                opts.max_render,
                &mut out,
            );
        }
        eprint!("query> ");
    }
    ExitCode::SUCCESS
}

fn render(engine: &XRefineEngine, slcas: &[xmldom::Dewey], max: usize, out: &mut impl Write) {
    for d in slcas.iter().take(max) {
        match engine.render(d) {
            Ok(Some(xml)) => {
                let _ = writeln!(out, "--- result at {d} ---");
                for line in xml.lines().take(12) {
                    let _ = writeln!(out, "  {line}");
                }
            }
            Ok(None) => {}
            Err(e) => {
                let _ = writeln!(out, "--- result at {d}: cannot render: {e} ---");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::KvStore;

    /// A corrupt posting list must fail the query that touches it — and
    /// only that query. The engine (and so the REPL loop) keeps serving
    /// keywords whose lists are intact.
    #[test]
    fn corrupt_list_fails_one_query_not_the_engine() {
        let doc = Arc::new(xmldom::fixtures::figure1());
        let index = invindex::Index::build(Arc::clone(&doc));
        let mut store = kvstore::MemKv::new();
        invindex::persist::persist(&index, &mut store).unwrap();
        // clobber the "2003" posting list in place (key: L/<id be32>)
        let kid = index.vocabulary().get("2003").unwrap();
        let mut key = b"L/".to_vec();
        key.extend_from_slice(&kid.0.to_be_bytes());
        store.put(&key, b"\xff\xff not a posting list").unwrap();

        let kv = invindex::KvBackedIndex::open(Box::new(store)).unwrap();
        let engine = XRefineEngine::from_reader(Arc::new(kv), EngineConfig::default());
        assert!(engine.answer("2003").is_err(), "corruption must surface");
        // untouched lists still serve after the failure
        let ok = engine.answer("john fishing").unwrap();
        assert!(ok.original_ok);
    }

    #[test]
    fn scrub_passes_a_fresh_store_and_flags_a_flipped_byte() {
        let dir = std::env::temp_dir().join(format!("xref_scrub_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("fig1.db");
        let _ = std::fs::remove_file(&store_path);
        let spath = store_path.to_str().unwrap();

        build_store("figure1", spath, 1).unwrap();
        assert!(scrub_store(spath).unwrap(), "fresh store must scrub clean");

        // At-rest bit rot in the first data page: scrub must fail.
        let mut bytes = std::fs::read(&store_path).unwrap();
        bytes[kvstore::PHYS_PAGE_SIZE + 700] ^= 0xFF;
        std::fs::write(&store_path, &bytes).unwrap();
        assert!(!scrub_store(spath).unwrap(), "damage must be reported");

        assert!(scrub_store("/no/such/store.db").is_err());
    }

    /// Read-only opens only read. A store with a committed but not yet
    /// compacted transaction, a half-written checkpoint and a torn WAL
    /// tail — what a crash mid-maintenance leaves — is served (`query
    /// --store`, `xrefine-serve --store`) and scrubbed with the update
    /// visible, without one mutating filesystem operation; the leftovers
    /// wait for the next writer open, which recovers as it always did.
    #[test]
    fn read_only_open_leaves_every_file_as_found() {
        use kvstore::FaultVfs;
        let vfs = FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        let db = std::path::PathBuf::from("/ro/store.db");
        let (wal, tmp) = (db.with_extension("wal"), db.with_extension("db.new"));
        let corpus = "<bib><paper><title>xml keyword search</title></paper></bib>";
        let built = invindex::build_streaming(corpus, 1).unwrap();
        let mut disk = kvstore::DiskKv::open_with_vfs(&dyn_vfs, &db).unwrap();
        invindex::persist::persist(&built, &mut disk).unwrap();
        disk.sync().unwrap();
        drop(disk);
        let mut maint = invindex::MaintIndex::open_with_vfs(vfs.as_dyn(), &db).unwrap();
        maint
            .commit(&[invindex::MaintOp::Add {
                fragment: "<paper><title>epoch handoff</title></paper>".into(),
            }])
            .unwrap();
        drop(maint);
        let intact_wal = vfs.read_file(&wal).unwrap().len();
        let garbage = dyn_vfs.open(&tmp).unwrap();
        garbage.write_all_at(0, b"half a checkpoint").unwrap();
        let log = dyn_vfs.open(&wal).unwrap();
        log.write_all_at(intact_wal as u64, &[7, 7, 7]).unwrap();
        drop((garbage, log));

        let files = || [&db, &wal, &tmp].map(|p| vfs.read_file(p));
        let (before, ops_before) = (files(), vfs.op_count());
        let config = EngineConfig::default;
        let engine = XRefineEngine::from_store_with_vfs(&dyn_vfs, &db, config()).unwrap();
        assert!(
            engine.answer("epoch handoff").unwrap().original_ok,
            "the committed update must be visible"
        );
        let clean = scrub_store_with_vfs(&dyn_vfs, db.to_str().unwrap()).unwrap();
        assert!(clean, "crash leftovers are not damage");
        assert_eq!(vfs.op_count(), ops_before, "a read-only open mutated");
        assert!(files() == before, "a read-only open changed a file");

        // A missing store is an error naming the path, and stays missing.
        let nope = std::path::Path::new("/ro/nope.db");
        let Err(err) = XRefineEngine::from_store_with_vfs(&dyn_vfs, nope, config()) else {
            panic!("a missing store opened");
        };
        assert!(
            matches!(&err, kvstore::KvError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
            "{err}"
        );
        assert!(err.to_string().contains("/ro/nope.db"), "{err}");
        assert!(scrub_store_with_vfs(&dyn_vfs, "/ro/nope.db").is_err());
        assert!(!dyn_vfs.exists(nope) && vfs.op_count() == ops_before);

        // The next writer open repairs both leftovers and commits on.
        let mut maint = invindex::MaintIndex::open_with_vfs(vfs.as_dyn(), &db).unwrap();
        assert!(!dyn_vfs.exists(&tmp));
        assert_eq!(vfs.read_file(&wal).unwrap().len(), intact_wal);
        assert_eq!((maint.seq(), maint.record_count()), (1, 2));
        maint
            .commit(&[invindex::MaintOp::Remove { slot: 0 }])
            .unwrap();
        assert_eq!((maint.seq(), maint.record_count()), (2, 1));
    }

    /// The CLI surface of `index`: one ingest path, one format. The
    /// store it writes is byte-for-byte what `persist` makes of
    /// `build_streaming` — so a store indexed by an earlier build with
    /// default flags and one indexed now are the same file — and the
    /// removed `--format`/`--ingest` selectors are plain unknown flags.
    #[test]
    fn index_writes_the_streaming_store_and_has_no_selectors() {
        let dir = std::env::temp_dir().join(format!("xref_index_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cli_path = dir.join("cli.db");
        let ref_path = dir.join("reference.db");
        let _ = std::fs::remove_file(&cli_path);
        let _ = std::fs::remove_file(&ref_path);

        build_store("figure1", cli_path.to_str().unwrap(), 3).unwrap();
        let xml = xmldom::fixtures::figure1().to_xml();
        let index = invindex::build_streaming(&xml, 1).unwrap();
        let mut reference = kvstore::DiskKv::open(&ref_path).unwrap();
        invindex::persist::persist(&index, &mut reference).unwrap();
        drop(reference);
        assert_eq!(
            std::fs::read(&cli_path).unwrap(),
            std::fs::read(&ref_path).unwrap(),
            "`index` must write persist(build_streaming(..)) byte for byte"
        );
        assert!(scrub_store(cli_path.to_str().unwrap()).unwrap());
        let engine = XRefineEngine::from_store(&cli_path, EngineConfig::default()).unwrap();
        assert!(engine.answer("john fishing").unwrap().original_ok);

        for flag in ["--format", "--ingest"] {
            assert!(!USAGE.contains(flag), "USAGE still offers {flag}");
            let argv = ["index", "figure1", "x.db", flag, "v4"].map(String::from);
            match parse_args(argv.to_vec()) {
                Err(msg) => assert_eq!(msg, format!("unknown flag {flag}")),
                Ok(_) => panic!("{flag} was accepted"),
            }
        }
    }

    /// The query side has no load-generation flags: `bench_e2e` is the
    /// one benchmark driver, and `--threads` belongs to `index` alone.
    #[test]
    fn query_rejects_the_retired_batch_flags() {
        for flag in ["--batch", "--threads"] {
            let argv = ["query", "--store", "x.db", flag, "2"].map(String::from);
            match parse_args(argv.to_vec()) {
                Err(msg) => assert_eq!(msg, format!("unknown flag {flag}")),
                Ok(_) => panic!("{flag} was accepted"),
            }
        }
    }

    /// `--k` means what its error text says: 0 is refused, not printed
    /// as `Top-0` over algorithms that run `k.max(1)`.
    #[test]
    fn k_must_be_positive() {
        for bad in ["0", "-1", "three"] {
            let argv = ["--k", bad].map(String::from);
            match parse_args(argv.to_vec()) {
                Err(msg) => assert_eq!(msg, "--k needs a positive integer"),
                Ok(_) => panic!("--k {bad} was accepted"),
            }
        }
        let argv = ["query", "--store", "x.db", "--k", "5"].map(String::from);
        match parse_args(argv.to_vec()) {
            Ok(Command::Repl(opts)) => assert_eq!(opts.k, 5),
            _ => panic!("--k 5 was refused"),
        }
    }
}
