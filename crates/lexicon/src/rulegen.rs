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
    /// `shapes[i]` describes `words[i]`: what the spelling scan reads
    /// to reject a word before running the edit-distance DP on it.
    shapes: Vec<Shape>,
    set: HashSet<String>,
    by_stem: HashMap<String, Vec<u32>>,
}

/// A word's length and letter set, for the spelling scan's prefilter.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Length in `char`s.
    len: u32,
    /// Bit `c mod 64` for every `char` `c` of the word.
    letters: u64,
}

impl Shape {
    fn of(word: &str) -> Self {
        word.chars()
            .fold(Shape { len: 0, letters: 0 }, |s, c| Shape {
                len: s.len + 1,
                letters: s.letters | 1 << (u32::from(c) & 63),
            })
    }

    /// Whether two words this far apart in length and letters can be
    /// within `max` edits. An edit changes the length by at most one, and
    /// takes at most one letter out of the letter set and puts at most one
    /// in (a substitution does both, a transposition neither), so at most
    /// `max` letters of either word are missing from the other. Folding
    /// letters onto 64 bits can only shrink those differences. So `false`
    /// proves the distance exceeds `max`, and `true` proves nothing.
    fn may_be_within(self, other: Shape, max: usize) -> bool {
        self.len.abs_diff(other.len) as usize <= max
            && (self.letters & !other.letters).count_ones() as usize <= max
            && (other.letters & !self.letters).count_ones() as usize <= max
    }
}

impl VocabIndex {
    pub fn new(words: impl IntoIterator<Item = impl AsRef<str>>) -> Self {
        let mut v = VocabIndex::default();
        for w in words {
            let w = w.as_ref();
            if v.set.contains(w) {
                continue;
            }
            let id = v.words.len() as u32;
            v.by_stem.entry(porter_stem(w)).or_default().push(id);
            v.set.insert(w.to_owned());
            v.words.push(w.to_owned());
        }
        v.shapes = v.words.iter().map(|w| Shape::of(w)).collect();
        v
    }

    pub fn contains(&self, word: &str) -> bool {
        self.set.contains(word)
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
    let mut merged = String::new();
    for (n, ds) in [(2, 1.0), (3, 2.0)] {
        for w in query.windows(n) {
            merged.clear();
            w.iter().for_each(|k| merged.push_str(k));
            if vocab.contains(&merged) {
                let lhs: Vec<&str> = w.iter().map(String::as_str).collect();
                rs.add(Rule::new(
                    &lhs,
                    &[&merged],
                    RefineOp::Merge,
                    RuleSource::Merging,
                    ds,
                ));
            }
        }
    }

    for k in query {
        for (cut, _) in k.char_indices().skip(1) {
            let (a, b) = k.split_at(cut);
            if vocab.contains(a) && vocab.contains(b) {
                rs.add(Rule::new(
                    &[k.as_str()],
                    &[a, b],
                    RefineOp::Split,
                    RuleSource::Splitting,
                    1.0,
                ));
            }
        }
    }

    for k in query {
        let shape = Shape::of(k);
        if vocab.contains(k) || (shape.len as usize) < MIN_SPELLING_LEN {
            continue;
        }
        for (w, &w_shape) in vocab.words.iter().zip(&vocab.shapes) {
            if (w_shape.len as usize) < MIN_SPELLING_LEN
                || !shape.may_be_within(w_shape, MAX_EDIT_DISTANCE)
            {
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
            let phrase = &query[start..end];
            if let Some(acr) = acronyms.acronym_of(phrase) {
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
        VocabIndex::new([
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
        ])
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

    #[test]
    fn shape_prefilter_never_rejects_a_word_within_the_bound() {
        use crate::edit::damerau_levenshtein;
        use xcheck::prop::check;
        check(512, |g| {
            // A small alphabet with two-byte letters, so that words share
            // letters and non-ASCII ones fold onto the same bits.
            let letters = ['a', 'b', 'c', 'ü', 'é', 'q', 'A', '\u{1f600}'];
            let a = g.string(0..=12, |g| g.pick(&letters));
            let b = g.string(0..=12, |g| g.pick(&letters));
            let d = damerau_levenshtein(&a, &b);
            for max in 0..=4 {
                if d <= max {
                    assert!(
                        Shape::of(&a).may_be_within(Shape::of(&b), max),
                        "{a:?} / {b:?} are {d} apart but rejected at max {max}"
                    );
                }
            }
        });
    }
}
