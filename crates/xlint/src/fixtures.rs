//! The golden-fixture self-test. Each `crates/xlint/tests/fixtures/*.rs`
//! file starts with a `// xlint-fixture: path=<pretend path>` header so
//! path-scoped rules apply as if the file lived there, and has a sibling
//! `<name>.expected` listing the findings it must produce, one
//! `<line>:<rule>` per line (empty file = must be clean). The runner
//! compares the multisets and reports both missed and spurious findings.

use crate::config::{self, Config};
use crate::source::FileKind;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Result of running one fixture.
pub struct FixtureOutcome {
    pub name: String,
    pub passed: bool,
    /// Human-readable mismatch description, empty when passed.
    pub details: String,
    /// Expected findings that were produced (multiset intersection).
    pub matched: usize,
    /// Expected findings that were not produced.
    pub missed: usize,
    /// Produced findings that were not expected.
    pub spurious: usize,
}

impl FixtureOutcome {
    /// A failing fixture that still produced *some* of its expected
    /// findings: the rule fires but its shape drifted. The CLI maps
    /// "every failure is partial" to a distinct exit code so CI can
    /// tell rule-drift from rule-dead.
    pub fn partial(&self) -> bool {
        !self.passed && self.matched > 0
    }

    /// One JSON object, for `--json` output.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"passed\":{},\"matched\":{},\"missed\":{},\"spurious\":{},\"details\":\"{}\"}}",
            crate::diag::json_escape(&self.name),
            self.passed,
            self.matched,
            self.missed,
            self.spurious,
            crate::diag::json_escape(self.details.trim_end())
        )
    }
}

/// A deterministic config for fixtures — frozen here rather than loaded
/// from the live lock class table / `DESIGN.md` so the golden files
/// don't churn when workspace policy evolves.
pub fn fixture_config() -> Config {
    let mut c = Config::workspace_defaults();
    // A class table like the live one; `kvindex.store` is on its line 2.
    let classes = "lock_classes! {\nKVINDEX_STORE = 10, \"kvindex.store\";\nCACHE_SHARD = 20, \"cache.shard\";\n}";
    c.locks = config::parse_lock_classes(classes).expect("the fixture class table parses");
    for name in [
        "kvstore_pager_syncs_total",
        "invindex_cache_resident_bytes",
        "query",
        "stack-refine",
        "pages.read",
    ] {
        c.catalogue.insert(name.to_string());
    }
    c.protocol = vec![("rename".into(), "sync_parent_dir".into())];
    c
}

/// Runs every fixture in `dir`. Errors only on I/O or malformed
/// fixtures; rule mismatches are reported per-fixture.
pub fn run_fixtures(dir: &Path, config: &Config) -> Result<Vec<FixtureOutcome>, String> {
    let mut outcomes = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read fixture dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no fixtures found in {}", dir.display()));
    }
    for path in entries {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let pretend = text
            .lines()
            .next()
            .and_then(|l| l.trim().strip_prefix("// xlint-fixture: path="))
            .ok_or_else(|| {
                format!(
                    "{}: first line must be `// xlint-fixture: path=<pretend path>`",
                    path.display()
                )
            })?
            .trim()
            .to_string();
        let expected_path = path.with_extension("expected");
        let expected_text = fs::read_to_string(&expected_path)
            .map_err(|e| format!("{}: {e}", expected_path.display()))?;
        let expected = parse_expected(&expected_text)
            .map_err(|e| format!("{}: {e}", expected_path.display()))?;

        let findings = crate::lint_source(&pretend, &text, FileKind::Production, config);
        let mut actual: BTreeMap<(usize, String), usize> = BTreeMap::new();
        for f in &findings {
            *actual.entry((f.line, f.rule.to_string())).or_default() += 1;
        }

        let mut details = String::new();
        let (mut matched, mut missed, mut spurious) = (0usize, 0usize, 0usize);
        for (key, want) in &expected {
            let got = actual.get(key).copied().unwrap_or(0);
            matched += got.min(*want);
            if got < *want {
                missed += want - got;
                details.push_str(&format!("  missed: {}:{} x{}\n", key.0, key.1, want - got));
            }
        }
        for (key, got) in &actual {
            let want = expected.get(key).copied().unwrap_or(0);
            if *got > want {
                spurious += got - want;
                details.push_str(&format!(
                    "  spurious: {}:{} x{}\n",
                    key.0,
                    key.1,
                    got - want
                ));
            }
        }
        outcomes.push(FixtureOutcome {
            name,
            passed: details.is_empty(),
            details,
            matched,
            missed,
            spurious,
        });
    }
    Ok(outcomes)
}

/// Parses an `.expected` file: `<line>:<rule>` per line, `#` comments.
fn parse_expected(text: &str) -> Result<BTreeMap<(usize, String), usize>, String> {
    let mut expected = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (num, rule) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected `<line>:<rule>`", i + 1))?;
        let num: usize = num
            .trim()
            .parse()
            .map_err(|_| format!("line {}: `{num}` is not a line number", i + 1))?;
        *expected.entry((num, rule.trim().to_string())).or_default() += 1;
    }
    Ok(expected)
}
