//! Analyzer configuration: rule path scopes, the declared lock
//! hierarchy, and the documentation-derived metric/span catalogue.
//!
//! Path scopes are workspace policy and live here as code — they change
//! when the architecture changes, which is a reviewed event. The lock
//! hierarchy lives in `crates/xlint/lockorder.toml` (one rank per named
//! lock) because it must be diffable next to the lock-site annotations
//! it governs, and the metric catalogue is *extracted from DESIGN.md*
//! so the docs are the single source of truth the code is checked
//! against.

use std::collections::{BTreeMap, BTreeSet};

/// Everything the rules consult.
#[derive(Debug, Clone)]
pub struct Config {
    /// Lock name -> rank. Locks must be acquired in strictly increasing
    /// rank order.
    pub lock_ranks: BTreeMap<String, u32>,
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
    /// those from `lockorder.toml` / `DESIGN.md`, or set them directly
    /// in tests).
    pub fn workspace_defaults() -> Config {
        Config {
            lock_ranks: BTreeMap::new(),
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

/// Parses the `lockorder.toml` subset: comments, a `[locks]` section
/// header, and `"name" = rank` entries (names are quoted because they
/// contain dots).
pub fn parse_lockorder(text: &str) -> Result<BTreeMap<String, u32>, String> {
    let mut ranks = BTreeMap::new();
    let mut in_locks = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            in_locks = line == "[locks]";
            continue;
        }
        if !in_locks {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("lockorder.toml:{}: expected `\"name\" = rank`", i + 1))?;
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        let rank: u32 = value
            .parse()
            .map_err(|_| format!("lockorder.toml:{}: rank `{value}` is not an integer", i + 1))?;
        if ranks.values().any(|&r| r == rank) {
            return Err(format!(
                "lockorder.toml:{}: rank {rank} assigned to more than one lock",
                i + 1
            ));
        }
        if ranks.insert(key.clone(), rank).is_some() {
            return Err(format!(
                "lockorder.toml:{}: lock `{key}` declared twice",
                i + 1
            ));
        }
    }
    if ranks.is_empty() {
        return Err("lockorder.toml declares no locks".into());
    }
    Ok(ranks)
}

/// Extracts the metric/span catalogue from DESIGN.md: every
/// backtick-quoted name between the `<!-- xlint:catalogue:begin -->` and
/// `<!-- xlint:catalogue:end -->` markers that looks like a metric
/// (`snake_case`), a count key (`dotted.name`) or a span name
/// (`kebab-case` / bare word).
pub fn parse_catalogue(design_md: &str) -> Result<BTreeSet<String>, String> {
    let begin = design_md
        .find("<!-- xlint:catalogue:begin -->")
        .ok_or("DESIGN.md is missing the `<!-- xlint:catalogue:begin -->` marker")?;
    let end = design_md
        .find("<!-- xlint:catalogue:end -->")
        .ok_or("DESIGN.md is missing the `<!-- xlint:catalogue:end -->` marker")?;
    if end < begin {
        return Err("DESIGN.md catalogue markers are out of order".into());
    }
    let section = &design_md[begin..end];
    let mut names = BTreeSet::new();
    let mut rest = section;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        let candidate = &after[..close];
        if !candidate.is_empty()
            && candidate
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c))
        {
            names.insert(candidate.to_string());
        }
        rest = &after[close + 1..];
    }
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
    let begin = design_md
        .find("<!-- xlint:protocol:begin -->")
        .ok_or("DESIGN.md is missing the `<!-- xlint:protocol:begin -->` marker")?;
    let end = design_md
        .find("<!-- xlint:protocol:end -->")
        .ok_or("DESIGN.md is missing the `<!-- xlint:protocol:end -->` marker")?;
    if end < begin {
        return Err("DESIGN.md protocol markers are out of order".into());
    }
    let mut pairs = Vec::new();
    for line in design_md[begin..end].lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let mut names = Vec::new();
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            let candidate = &after[..close];
            if !candidate.is_empty()
                && candidate
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                names.push(candidate.to_string());
            }
            rest = &after[close + 1..];
        }
        if names.len() >= 2 {
            pairs.push((names[0].clone(), names[1].clone()));
        }
    }
    if pairs.is_empty() {
        return Err("DESIGN.md protocol section declares no trigger/successor pairs".into());
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockorder_parses_quoted_names_and_rejects_duplicates() {
        let ranks =
            parse_lockorder("# hierarchy\n[locks]\n\"kvindex.store\" = 10\n\"cache.shard\" = 20\n")
                .unwrap();
        assert_eq!(ranks["kvindex.store"], 10);
        assert_eq!(ranks["cache.shard"], 20);

        assert!(parse_lockorder("[locks]\n\"a\" = 1\n\"a\" = 2\n").is_err());
        assert!(parse_lockorder("[locks]\n\"a\" = 1\n\"b\" = 1\n").is_err());
        assert!(parse_lockorder("[locks]\n\"a\" = x\n").is_err());
        assert!(parse_lockorder("").is_err());
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
