//! Analyzer configuration: rule path scopes, the declared lock
//! hierarchy, and the documentation-derived metric/span catalogue.
//!
//! Path scopes are workspace policy and live here as code — they change
//! when the architecture changes, which is a reviewed event. The lock
//! hierarchy is read from the one place it is declared, the
//! `lock_classes!` block of `obs::lockrank::rank` ([`LOCK_CLASSES_PATH`]),
//! and the metric catalogue is *extracted from DESIGN.md* so the docs
//! are the single source of truth the code is checked against. Both are
//! read as text: xlint stays zero-dependency.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// The file declaring the lock hierarchy: `obs::lockrank::rank`'s
/// `lock_classes!` block, one `IDENT = rank, "name";` line per lock.
pub const LOCK_CLASSES_PATH: &str = "crates/obs/src/lockrank.rs";

/// One declared lock: its rank, and the line of its class in
/// [`LOCK_CLASSES_PATH`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockDecl {
    pub rank: u32,
    pub line: usize,
}

/// Everything the rules consult.
#[derive(Debug, Clone)]
pub struct Config {
    /// Lock name -> declaration. Locks must be acquired in strictly
    /// increasing rank order.
    pub locks: BTreeMap<String, LockDecl>,
    /// Path prefixes where every bare `.lock()`/`.read()`/`.write()`
    /// call must carry an `xlint::lock(...)` annotation.
    pub lock_paths: Vec<String>,
    /// Paths where panicking constructs are forbidden outside tests.
    pub no_panic_paths: Vec<String>,
    /// Subset of `no_panic_paths` where data-dependent `[]` indexing is
    /// also forbidden (buffers there come from disk).
    pub index_paths: Vec<String>,
    /// Paths where `Instant::now`/`SystemTime::now` are forbidden.
    pub wallclock_paths: Vec<String>,
    /// Paths where `KvError::Corrupt` must carry non-empty context.
    pub error_context_paths: Vec<String>,
    /// Metric and span names the documentation declares.
    pub catalogue: BTreeSet<String>,
    /// Valid `<crate>_` prefixes for metric names.
    pub metric_crates: Vec<String>,
    /// Valid `_<unit>` suffixes for metric names.
    pub metric_units: Vec<String>,
    /// Durability protocol: `(trigger, successor)` call pairs from the
    /// DESIGN.md protocol table. A call to `trigger` must be followed by
    /// a call to `successor` in the same function or in every caller.
    pub protocol: Vec<(String, String)>,
    /// Paths where the durability protocol applies.
    pub durability_paths: Vec<String>,
    /// Files exempt from it: the Vfs layer *implements* the primitives
    /// the protocol is stated in terms of.
    pub durability_exempt: Vec<String>,
    /// Decode-path files whose inputs are raw disk/network bytes; the
    /// checked-arithmetic rule applies here.
    pub untrusted_paths: Vec<String>,
    /// Function names whose return values are untrusted (varint and
    /// label readers over raw bytes).
    pub untrusted_sources: Vec<String>,
    /// Parameter names treated as raw untrusted bytes inside decode
    /// entry points (see `untrusted_fn_markers`).
    pub untrusted_params: Vec<String>,
    /// Substrings that mark a function as a decode entry point: its
    /// `untrusted_params` start out tainted.
    pub untrusted_fn_markers: Vec<String>,
    /// Test-support modules under `crates/*/src`: their exports exist
    /// for tests to call, so `unused-export` does not report them.
    pub unused_export_exempt: Vec<String>,
}

impl Config {
    /// The workspace policy, with an empty hierarchy and catalogue (fill
    /// those from the lock class table / `DESIGN.md`, or set them
    /// directly in tests).
    pub fn workspace_defaults() -> Config {
        Config {
            locks: BTreeMap::new(),
            lock_paths: vec![
                "crates/kvstore/src/".into(),
                "crates/invindex/src/".into(),
                "crates/obs/src/".into(),
                "crates/xserve/src/".into(),
                "crates/xrefine/src/live.rs".into(),
            ],
            no_panic_paths: vec![
                "crates/kvstore/src/codec.rs".into(),
                "crates/kvstore/src/pager.rs".into(),
                "crates/kvstore/src/wal.rs".into(),
                "crates/kvstore/src/btree.rs".into(),
                "crates/kvstore/src/durable.rs".into(),
                "crates/kvstore/src/snapshot.rs".into(),
                "crates/invindex/src/persist.rs".into(),
                "crates/invindex/src/postings.rs".into(),
                "crates/invindex/src/cursor.rs".into(),
                "crates/invindex/src/kvindex.rs".into(),
                "crates/xmldom/src/scan.rs".into(),
                "crates/xserve/src/http.rs".into(),
                "crates/xserve/src/conn.rs".into(),
                "crates/xserve/src/queue.rs".into(),
            ],
            index_paths: vec![
                "crates/kvstore/src/codec.rs".into(),
                "crates/kvstore/src/pager.rs".into(),
                "crates/kvstore/src/wal.rs".into(),
                "crates/invindex/src/persist.rs".into(),
                "crates/invindex/src/postings.rs".into(),
                "crates/invindex/src/cursor.rs".into(),
                "crates/xserve/src/http.rs".into(),
            ],
            wallclock_paths: vec!["crates/slca/src/".into(), "crates/xrefine/src/".into()],
            error_context_paths: vec!["crates/kvstore/src/".into(), "crates/invindex/src/".into()],
            catalogue: BTreeSet::new(),
            metric_crates: vec![
                "kvstore".into(),
                "invindex".into(),
                "slca".into(),
                "xrefine".into(),
                "obs".into(),
                "xmldom".into(),
                "lexicon".into(),
                "serve".into(),
                "maint".into(),
                "compress".into(),
            ],
            metric_units: vec![
                "total".into(),
                "bytes".into(),
                "nanos".into(),
                "seconds".into(),
                "requests".into(),
                "connections".into(),
                "entries".into(),
            ],
            protocol: Vec::new(),
            durability_paths: vec!["crates/kvstore/src/".into(), "crates/invindex/src/".into()],
            durability_exempt: vec![
                "crates/kvstore/src/vfs.rs".into(),
                "crates/kvstore/src/fsutil.rs".into(),
            ],
            untrusted_paths: vec![
                "crates/invindex/src/postings.rs".into(),
                "crates/invindex/src/persist.rs".into(),
                "crates/invindex/src/cursor.rs".into(),
                "crates/xserve/src/http.rs".into(),
            ],
            untrusted_sources: vec![
                "read_varint".into(),
                "read_u32_varint".into(),
                "read_dewey_abs".into(),
                "read_dewey_front_coded".into(),
                "from_le_bytes".into(),
                "from_be_bytes".into(),
            ],
            untrusted_params: vec![
                "bytes".into(),
                "payload".into(),
                "buf".into(),
                "data".into(),
                "raw".into(),
            ],
            untrusted_fn_markers: vec![
                "decode".into(),
                "parse".into(),
                "read".into(),
                "unframe".into(),
                "scan".into(),
            ],
            unused_export_exempt: vec![
                "crates/kvstore/src/vfs.rs".into(),
                "crates/xcheck/src/".into(),
                "crates/datagen/src/deweygen.rs".into(),
            ],
        }
    }

    /// Does `path` fall under any of the given scope prefixes?
    pub fn in_scope(path: &str, scopes: &[String]) -> bool {
        scopes.iter().any(|s| path.starts_with(s.as_str()))
    }
}

/// Parses the lock hierarchy out of the class table's source: the lines
/// between `lock_classes! {` and its closing `}`, each
/// `IDENT = rank, "name";` (blank lines and `//` comments skipped). Line
/// numbers are the file's, so a finding can point at the class.
pub fn parse_lock_classes(text: &str) -> Result<BTreeMap<String, LockDecl>, String> {
    let mut lines = (1..).zip(text.lines().map(str::trim));
    if !lines.any(|(_, l)| l == "lock_classes! {") {
        return Err(format!("{LOCK_CLASSES_PATH} has no lock_classes! block"));
    }
    let mut locks = BTreeMap::new();
    for (line, text) in lines {
        if text == "}" {
            if locks.is_empty() {
                return Err(format!("{LOCK_CLASSES_PATH} declares no locks"));
            }
            return Ok(locks);
        }
        if text.is_empty() || text.starts_with("//") {
            continue;
        }
        let at = format!("{LOCK_CLASSES_PATH}:{line}");
        let malformed = || format!("{at}: expected `IDENT = rank, \"name\";`");
        let (ident, rest) = text
            .strip_suffix(';')
            .and_then(|t| t.split_once('='))
            .ok_or_else(malformed)?;
        let (rank, name) = rest.split_once(',').ok_or_else(malformed)?;
        let (ident, rank) = (ident.trim(), rank.trim());
        let name = name
            .trim()
            .strip_prefix('"')
            .and_then(|n| n.strip_suffix('"'))
            .filter(|n| !n.is_empty() && !ident.is_empty())
            .ok_or_else(malformed)?;
        let rank: u32 = rank
            .parse()
            .map_err(|_| format!("{at}: rank `{rank}` is not an integer"))?;
        if locks.values().any(|d: &LockDecl| d.rank == rank) {
            return Err(format!("{at}: rank {rank} assigned to more than one lock"));
        }
        if locks
            .insert(name.to_string(), LockDecl { rank, line })
            .is_some()
        {
            return Err(format!("{at}: lock `{name}` declared twice"));
        }
    }
    Err(format!(
        "{LOCK_CLASSES_PATH}: lock_classes! block is never closed"
    ))
}

/// The byte range of `text` (the contents of `file`) between its
/// `<!-- xlint:<name>:begin -->` and `<!-- xlint:<name>:end -->` markers.
pub fn fence(text: &str, file: &str, name: &str) -> Result<Range<usize>, String> {
    let find = |edge: &str| {
        let marker = format!("<!-- xlint:{name}:{edge} -->");
        let at = text.find(&marker);
        at.map(|at| (at, at + marker.len()))
            .ok_or_else(|| format!("{file} is missing the `{marker}` marker"))
    };
    let ((_, start), (end, _)) = (find("begin")?, find("end")?);
    if end < start {
        return Err(format!("{file} {name} markers are out of order"));
    }
    Ok(start..end)
}

/// The backtick-quoted spans of `text` made only of characters `keep`
/// accepts.
fn quoted(text: &str, keep: impl Fn(char) -> bool) -> Vec<&str> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|q| !q.is_empty() && q.chars().all(&keep))
        .collect()
}

/// Extracts the metric/span catalogue from DESIGN.md: every
/// backtick-quoted name between the `<!-- xlint:catalogue:begin -->` and
/// `<!-- xlint:catalogue:end -->` markers that looks like a metric
/// (`snake_case`), a count key (`dotted.name`) or a span name
/// (`kebab-case` / bare word).
pub fn parse_catalogue(design_md: &str) -> Result<BTreeSet<String>, String> {
    let section = &design_md[fence(design_md, "DESIGN.md", "catalogue")?];
    let names: BTreeSet<String> = quoted(section, |c| {
        c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c)
    })
    .into_iter()
    .map(str::to_string)
    .collect();
    if names.is_empty() {
        return Err("DESIGN.md catalogue section quotes no names".into());
    }
    Ok(names)
}

/// Extracts the durability-protocol table from DESIGN.md: every table
/// row between the `<!-- xlint:protocol:begin -->` and
/// `<!-- xlint:protocol:end -->` markers contributes its first two
/// backtick-quoted names as a `(trigger, required successor)` pair.
/// Header and divider rows quote nothing, so they drop out naturally.
pub fn parse_protocol(design_md: &str) -> Result<Vec<(String, String)>, String> {
    let pairs: Vec<(String, String)> = design_md[fence(design_md, "DESIGN.md", "protocol")?]
        .lines()
        .map(str::trim)
        .filter(|line| line.starts_with('|'))
        .filter_map(|line| {
            match quoted(line, |c| {
                c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'
            })[..]
            {
                [trigger, successor, ..] => Some((trigger.to_string(), successor.to_string())),
                _ => None,
            }
        })
        .collect();
    if pairs.is_empty() {
        return Err("DESIGN.md protocol section declares no trigger/successor pairs".into());
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_classes_parse_with_their_lines_and_reject_duplicates() {
        let table = "macro_rules! lock_classes {\n}\n\
                     pub mod rank {\n\
                     \x20   lock_classes! {\n\
                     \x20       KVINDEX_STORE = 10, \"kvindex.store\";\n\
                     \x20       // a comment\n\
                     \n\
                     \x20       CACHE_SHARD = 20, \"cache.shard\";\n\
                     \x20   }\n\
                     }\n";
        let locks = parse_lock_classes(table).unwrap();
        assert_eq!(locks.len(), 2);
        assert_eq!(locks["kvindex.store"], LockDecl { rank: 10, line: 5 });
        assert_eq!(locks["cache.shard"], LockDecl { rank: 20, line: 8 });

        let block = |body: &str| format!("lock_classes! {{\n{body}}}\n");
        let err = |body: &str| parse_lock_classes(&block(body)).unwrap_err();
        // Duplicate name, duplicate rank.
        assert!(err("A = 1, \"a\";\nB = 2, \"a\";\n").contains(":3: lock `a` declared twice"));
        assert!(err("A = 1, \"a\";\nB = 1, \"b\";\n").contains(":3: rank 1 assigned"));
        // Malformed lines.
        for bad in [
            "A = x, \"a\";\n",
            "A = 1 \"a\";\n",
            "A = 1, \"a\"\n",
            "A = 1, a;\n",
            "A = 1, \"\";\n",
            " = 1, \"a\";\n",
        ] {
            assert!(
                err(bad).starts_with(&format!("{LOCK_CLASSES_PATH}:2: ")),
                "{bad:?}"
            );
        }
        // No block, an empty one, an unclosed one.
        assert!(parse_lock_classes("").is_err());
        assert!(parse_lock_classes(&block("")).is_err());
        assert!(parse_lock_classes("lock_classes! {\nA = 1, \"a\";\n").is_err());
    }

    #[test]
    fn catalogue_extraction_is_marker_scoped() {
        let md = "\
intro `not_collected_here`\n\
<!-- xlint:catalogue:begin -->\n\
| kvstore | `kvstore_pager_syncs_total`, `invindex_cache_resident_bytes` |\n\
count keys `pages.read`; spans `query`, `stack-refine`.\n\
Ignores `CamelCase` and `has space` and `obs::counter!`.\n\
<!-- xlint:catalogue:end -->\n\
outro `also_not_collected`\n";
        let names = parse_catalogue(md).unwrap();
        assert!(names.contains("kvstore_pager_syncs_total"));
        assert!(names.contains("invindex_cache_resident_bytes"));
        assert!(names.contains("pages.read"));
        assert!(names.contains("query"));
        assert!(names.contains("stack-refine"));
        assert!(!names.contains("not_collected_here"));
        assert!(!names.contains("also_not_collected"));
        assert!(!names.iter().any(|n| n.contains(':') || n.contains(' ')));
    }

    #[test]
    fn catalogue_requires_markers() {
        assert!(parse_catalogue("no markers at all").is_err());
    }

    #[test]
    fn protocol_extraction_skips_headers_and_prose() {
        let md = "\
prose mentioning `rename` outside the table\n\
<!-- xlint:protocol:begin -->\n\
| trigger | required successor | why |\n\
|---|---|---|\n\
| `rename` | `sync_parent_dir` | the dirent is volatile until synced |\n\
prose row-free line quoting `only_one_name`\n\
<!-- xlint:protocol:end -->\n";
        let pairs = parse_protocol(md).unwrap();
        assert_eq!(
            pairs,
            vec![("rename".to_string(), "sync_parent_dir".to_string())]
        );
    }

    #[test]
    fn protocol_requires_markers_and_rows() {
        assert!(parse_protocol("no markers").is_err());
        assert!(parse_protocol(
            "<!-- xlint:protocol:begin -->\nno rows\n<!-- xlint:protocol:end -->\n"
        )
        .is_err());
    }
}
