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
    /// Paths where `KvError::Corrupt` must carry non-empty context.
    pub error_context_paths: Vec<String>,
    /// Metric and span names the documentation declares.
    pub catalogue: BTreeSet<String>,
    /// Valid `<crate>_` prefixes for metric names.
    pub metric_crates: Vec<String>,
    /// Valid `_<unit>` suffixes for metric names.
    pub metric_units: Vec<String>,
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
fn fence(text: &str, file: &str, name: &str) -> Result<Range<usize>, String> {
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

/// Extracts the metric/span catalogue from DESIGN.md: every
/// backtick-quoted name between the `<!-- xlint:catalogue:begin -->` and
/// `<!-- xlint:catalogue:end -->` markers that looks like a metric
/// (`snake_case`), a count key (`dotted.name`) or a span name
/// (`kebab-case` / bare word).
pub fn parse_catalogue(design_md: &str) -> Result<BTreeSet<String>, String> {
    let section = &design_md[fence(design_md, "DESIGN.md", "catalogue")?];
    let name_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c);
    let names: BTreeSet<String> = (section.split('`').skip(1).step_by(2))
        .filter(|q| !q.is_empty() && q.chars().all(name_char))
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        return Err("DESIGN.md catalogue section quotes no names".into());
    }
    Ok(names)
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
}
