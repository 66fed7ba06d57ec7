//! Per-query rule generation — the `getNewKeywords` consultation of
//! Algorithms 1–3.
//!
//! Given a query and the document vocabulary, derives every pertinent
//! refinement rule: merges of adjacent query terms that exist as one
//! vocabulary word, splits of query terms into vocabulary words, spelling
//! corrections within a bounded Damerau–Levenshtein distance, synonym
//! substitutions from the thesaurus, acronym expansions/contractions and
//! stemming variants. Every generated rule's RHS is guaranteed to consist
//! of vocabulary words — keywords that *do exist* in the XML data — which
//! is what lets the refinement algorithms promise matching results.

use crate::edit::within_distance;
use crate::rules::{RefineOp, Rule, RuleSet, RuleSource};
use crate::stemmer::porter_stem;
use crate::thesaurus::{AcronymTable, Thesaurus};
use std::collections::{HashMap, HashSet};

/// An indexed view of the document vocabulary.
#[derive(Debug, Default)]
pub struct VocabIndex {
    words: Vec<String>,
    set: HashSet<String>,
    by_stem: HashMap<String, Vec<u32>>,
}

impl VocabIndex {
    pub fn new<I: IntoIterator<Item = String>>(words: I) -> Self {
        let mut v = VocabIndex::default();
        for w in words {
            if v.set.contains(&w) {
                continue;
            }
            let id = v.words.len() as u32;
            v.by_stem.entry(porter_stem(&w)).or_default().push(id);
            v.set.insert(w.clone());
            v.words.push(w);
        }
        v
    }

    pub fn contains(&self, word: &str) -> bool {
        self.set.contains(word)
    }

    pub fn words(&self) -> impl Iterator<Item = &str> {
        self.words.iter().map(|s| s.as_str())
    }

    /// Vocabulary words sharing a Porter stem with `word` (excluding the
    /// word itself).
    pub fn stem_variants(&self, word: &str) -> Vec<&str> {
        self.by_stem
            .get(&porter_stem(word))
            .map(|ids| {
                ids.iter()
                    .map(|&i| self.words[i as usize].as_str())
                    .filter(|w| *w != word)
                    .collect()
            })
            .unwrap_or_default()
    }

    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Maximum Damerau–Levenshtein distance for spelling rules.
const MAX_EDIT_DISTANCE: usize = 2;
/// Minimum keyword length for spelling correction (short words are
/// close to everything).
const MIN_SPELLING_LEN: usize = 4;

/// Generates the pertinent rule set for `query` against `vocab`.
pub fn generate_rules(
    query: &[String],
    vocab: &VocabIndex,
    thesaurus: &Thesaurus,
    acronyms: &AcronymTable,
) -> RuleSet {
    // Deleting a term costs `RuleSet`'s default: 2, strictly above
    // every rule score below.
    let mut rs = RuleSet::new();

    // Adjacent pairs and triples that exist as single vocabulary words.
    for w in query.windows(2) {
        let merged = format!("{}{}", w[0], w[1]);
        if vocab.contains(&merged) {
            rs.add(Rule::new(
                &[&w[0], &w[1]],
                &[&merged],
                RefineOp::Merge,
                RuleSource::Merging,
                1.0,
            ));
        }
    }
    for w in query.windows(3) {
        let merged = format!("{}{}{}", w[0], w[1], w[2]);
        if vocab.contains(&merged) {
            rs.add(Rule::new(
                &[&w[0], &w[1], &w[2]],
                &[&merged],
                RefineOp::Merge,
                RuleSource::Merging,
                2.0,
            ));
        }
    }

    for k in query {
        let chars: Vec<char> = k.chars().collect();
        for cut in 1..chars.len() {
            let a: String = chars[..cut].iter().collect();
            let b: String = chars[cut..].iter().collect();
            if vocab.contains(&a) && vocab.contains(&b) {
                rs.add(Rule::new(
                    &[k.as_str()],
                    &[&a, &b],
                    RefineOp::Split,
                    RuleSource::Splitting,
                    1.0,
                ));
            }
        }
    }

    for k in query {
        if vocab.contains(k) || k.chars().count() < MIN_SPELLING_LEN {
            continue;
        }
        for w in vocab.words() {
            if w.chars().count() < MIN_SPELLING_LEN {
                continue;
            }
            if let Some(d) = within_distance(k, w, MAX_EDIT_DISTANCE) {
                if d > 0 {
                    rs.add(Rule::new(
                        &[k.as_str()],
                        &[w],
                        RefineOp::Substitute,
                        RuleSource::Spelling,
                        d as f64,
                    ));
                }
            }
        }
    }

    for k in query {
        for (syn, ds) in thesaurus.synonyms(k) {
            if vocab.contains(syn) {
                rs.add(Rule::new(
                    &[k.as_str()],
                    &[syn],
                    RefineOp::Substitute,
                    RuleSource::Synonym,
                    *ds,
                ));
            }
        }
    }

    for k in query {
        // acronym -> expansion (all expansion words must exist)
        for exp in acronyms.expansions(k) {
            if exp.iter().all(|w| vocab.contains(w)) {
                let rhs: Vec<&str> = exp.iter().map(|s| s.as_str()).collect();
                rs.add(Rule::new(
                    &[k.as_str()],
                    &rhs,
                    RefineOp::Substitute,
                    RuleSource::Acronym,
                    1.0,
                ));
            }
        }
    }
    // expansion phrase in the query -> acronym
    for start in 0..query.len() {
        for end in (start + 2)..=query.len().min(start + 4) {
            let phrase = query[start..end].to_vec();
            if let Some(acr) = acronyms.acronym_of(&phrase) {
                if vocab.contains(acr) {
                    let lhs: Vec<&str> = phrase.iter().map(|s| s.as_str()).collect();
                    rs.add(Rule::new(
                        &lhs,
                        &[acr],
                        RefineOp::Substitute,
                        RuleSource::Acronym,
                        1.0,
                    ));
                }
            }
        }
    }

    for k in query {
        if vocab.contains(k) {
            continue;
        }
        for variant in vocab.stem_variants(k) {
            rs.add(Rule::new(
                &[k.as_str()],
                &[variant],
                RefineOp::Substitute,
                RuleSource::Stemming,
                1.0,
            ));
        }
    }

    rs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> VocabIndex {
        VocabIndex::new(
            [
                "online",
                "database",
                "data",
                "base",
                "inproceedings",
                "proceedings",
                "article",
                "xml",
                "keyword",
                "search",
                "efficient",
                "skyline",
                "computation",
                "matching",
                "world",
                "wide",
                "web",
                "machine",
                "learning",
                "publications",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
    }

    fn q(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn gen(query: &[&str]) -> RuleSet {
        generate_rules(
            &q(query),
            &vocab(),
            &Thesaurus::bibliographic(),
            &AcronymTable::computer_science(),
        )
    }

    fn has_rule(rs: &RuleSet, lhs: &[&str], rhs: &[&str]) -> bool {
        rs.iter().any(|(_, r)| {
            r.lhs.iter().map(|s| s.as_str()).collect::<Vec<_>>() == lhs
                && r.rhs.iter().map(|s| s.as_str()).collect::<Vec<_>>() == rhs
        })
    }

    #[test]
    fn merge_rules_from_adjacent_terms() {
        // Example 4's query {on, line, data, base}
        let rs = gen(&["on", "line", "data", "base"]);
        assert!(has_rule(&rs, &["on", "line"], &["online"]));
        assert!(has_rule(&rs, &["data", "base"], &["database"]));
        // non-adjacent terms never merge
        assert!(!has_rule(&rs, &["on", "base"], &["onbase"]));
    }

    #[test]
    fn split_rules_for_concatenations() {
        // QX2: "skyline" splits? No — "sky" and "line" are not in vocab.
        // "database" splits into data+base (both in vocab).
        let rs = gen(&["database"]);
        assert!(has_rule(&rs, &["database"], &["data", "base"]));
    }

    #[test]
    fn spelling_rules_within_bounded_distance() {
        // QX1: "eficient" -> "efficient" (1 edit)
        let rs = gen(&["eficient"]);
        assert!(has_rule(&rs, &["eficient"], &["efficient"]));
        let rule = rs
            .iter()
            .find(|(_, r)| r.source == RuleSource::Spelling && r.rhs[0] == "efficient")
            .unwrap()
            .1;
        assert_eq!(rule.dissimilarity, 1.0);
        // no spelling rules for words already in the vocabulary
        let rs2 = gen(&["efficient"]);
        assert!(rs2.iter().all(|(_, r)| r.source != RuleSource::Spelling));
    }

    #[test]
    fn synonym_rules_only_for_vocab_targets() {
        // Example 1: publication -> article/inproceedings/proceedings
        let rs = gen(&["publication"]);
        assert!(has_rule(&rs, &["publication"], &["article"]));
        assert!(has_rule(&rs, &["publication"], &["inproceedings"]));
        assert!(has_rule(&rs, &["publication"], &["proceedings"]));
        // "paper" is a synonym but not in this vocabulary
        assert!(!has_rule(&rs, &["publication"], &["paper"]));
    }

    #[test]
    fn acronym_rules_both_directions() {
        // Table II rule 6: WWW <-> world wide web
        let rs = gen(&["www"]);
        assert!(has_rule(&rs, &["www"], &["world", "wide", "web"]));
        // QX3: worldwide web -> www is a *merge+acronym*; the plain
        // phrase world wide web contracts only when "www" is in vocab —
        // it is not here, so no contraction rule.
        let rs2 = gen(&["world", "wide", "web"]);
        assert!(!has_rule(&rs2, &["world", "wide", "web"], &["www"]));
    }

    #[test]
    fn stemming_rules_for_morphological_variants() {
        // QX4: match -> matching; publication -> publications
        let rs = gen(&["match"]);
        assert!(has_rule(&rs, &["match"], &["matching"]));
        let rs2 = gen(&["publication"]);
        assert!(has_rule(&rs2, &["publication"], &["publications"]));
    }

    #[test]
    fn every_rhs_keyword_exists_in_vocabulary() {
        let rs = gen(&[
            "on",
            "line",
            "data",
            "base",
            "publication",
            "eficient",
            "www",
        ]);
        let v = vocab();
        for (_, r) in rs.iter() {
            for w in &r.rhs {
                assert!(v.contains(w), "rule RHS {w} not in vocabulary");
            }
        }
    }
}
