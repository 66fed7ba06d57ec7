//! The rule generator that serves equals the rule generator that was.
//!
//! `reference` below is `rulegen.rs` as it stood before the spelling scan
//! got its length and letter-set prefilter and the banded byte-level DP:
//! `generate_rules`, the `VocabIndex` it consulted (its `len`/`is_empty`
//! left out) and `within_distance` over the full Damerau matrix, kept
//! verbatim as a test-only oracle. The property compares it with
//! `lexicon::generate_rules` rule for rule, in order — same sides, op,
//! source and `ds` — because the refinement DP breaks cost ties by rule
//! order, so any reordering could change an answer.
//!
//! Inputs are built to hit what a prefilter or a band could get wrong:
//! keywords a few random edits (adjacent transpositions included) away
//! from vocabulary words, words either side of the 4-character spelling
//! cut-off and at length gaps of exactly 2 and 3, non-ASCII words and
//! mixed ASCII/non-ASCII pairs (whose letters fold onto the same mask
//! bits), words longer than 64 bytes, repeated keywords and keywords
//! already in the vocabulary.

use lexicon::{generate_rules, AcronymTable, Rule, RuleSet, Thesaurus, VocabIndex};
use xcheck::prop::{check, Gen};

mod reference {
    use lexicon::{
        damerau_levenshtein, porter_stem, AcronymTable, RefineOp, Rule, RuleSet, RuleSource,
        Thesaurus,
    };
    use std::collections::{HashMap, HashSet};

    /// `Some(distance)` if `damerau_levenshtein(a, b) <= max`, else `None`.
    pub fn within_distance(a: &str, b: &str, max: usize) -> Option<usize> {
        let la = a.chars().count();
        let lb = b.chars().count();
        if la.abs_diff(lb) > max {
            return None;
        }
        let d = damerau_levenshtein(a, b);
        (d <= max).then_some(d)
    }

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
}

/// Words the thesaurus, the acronym table and the stemmer know, so that
/// every rule source fires, next to near-duplicates that differ in one
/// non-ASCII letter.
const KNOWN: [&str; 24] = [
    "data",
    "base",
    "database",
    "databases",
    "on",
    "line",
    "online",
    "www",
    "world",
    "wide",
    "web",
    "article",
    "publication",
    "publications",
    "inproceedings",
    "match",
    "matching",
    "über",
    "ubér",
    "uber",
    "ubber",
    "straße",
    "strasse",
    "db",
];

/// A vocabulary word: from a five-letter alphabet (so words collide and
/// sit a few edits apart), from an alphabet with non-ASCII letters, a
/// word longer than 64 bytes, or one of [`KNOWN`].
fn vocab_word(g: &mut Gen) -> String {
    match g.weighted(&[6, 3, 1, 3]) {
        0 => g.string(1..=8, |g| g.char_in('a'..='e')),
        1 => g.string(1..=8, |g| g.pick(&['u', 'ü', 'b', 'e', 'é', 'r'])),
        2 => g.string(60..=80, |g| g.pick(&['a', 'b', 'x'])),
        _ => g.pick(&KNOWN).to_string(),
    }
}

/// `word` after up to three random edits: insertions, deletions,
/// substitutions and adjacent transpositions, with ASCII and non-ASCII
/// letters.
fn perturbed(g: &mut Gen, word: &str) -> String {
    let mut chars: Vec<char> = word.chars().collect();
    for _ in 0..g.range(0usize..4) {
        let c = g.pick(&['a', 'b', 'e', 'ü', 'é', 'x']);
        match g.range(0u8..4) {
            0 => chars.insert(g.range(0..chars.len() + 1), c),
            1 if chars.len() > 1 => {
                chars.remove(g.range(0..chars.len()));
            }
            2 if !chars.is_empty() => {
                let at = g.range(0..chars.len());
                chars[at] = c;
            }
            3 if chars.len() >= 2 => {
                let at = g.range(0..chars.len() - 1);
                chars.swap(at, at + 1);
            }
            _ => {}
        }
    }
    chars.into_iter().collect()
}

fn rules(rs: &RuleSet) -> Vec<&Rule> {
    rs.iter().map(|(_, r)| r).collect()
}

/// Asserts that both generators give the same rule set for `query` over
/// `words` (duplicates and all, in this order).
fn assert_same_rules(words: &[String], query: &[String]) {
    let (thesaurus, acronyms) = (Thesaurus::bibliographic(), AcronymTable::computer_science());
    let served = generate_rules(query, &VocabIndex::new(words), &thesaurus, &acronyms);
    let oracle = reference::generate_rules(
        query,
        &reference::VocabIndex::new(words.iter().cloned()),
        &thesaurus,
        &acronyms,
    );
    assert_eq!(
        rules(&served),
        rules(&oracle),
        "query {query:?} over vocabulary {words:?}"
    );
    assert_eq!(served.deletion_cost(), oracle.deletion_cost());
}

#[test]
fn rule_sets_equal_the_reference_generator() {
    check(512, |g| {
        let words = g.vec(1..40, vocab_word);
        let query = g.vec(1..6, |g| match g.weighted(&[5, 2, 1]) {
            // near a vocabulary word, or (no edit) in it
            0 => {
                let base = g.pick(&words);
                perturbed(g, &base)
            }
            1 => vocab_word(g),
            _ => g.pick(&KNOWN).to_string(),
        });
        let mut query = query;
        if g.bool() {
            // a repeated keyword
            let again = g.pick(&query);
            query.insert(g.range(0..query.len() + 1), again);
        }
        assert_same_rules(&words, &query);
    });
}

#[test]
fn rule_sets_equal_the_reference_at_the_cut_offs() {
    let s = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    let long = "ab".repeat(40);
    let long_typo = format!("{}ba{}x", "ab".repeat(19), "ab".repeat(20));
    let vocab = s(&[
        "abc", "abcd", "abce", "abcdef", "abcdefg", "abcdefgh", "über", "ubér", "uber", "ubera",
        "xyz", "xyzw", "data", "base", "database", &long,
    ]);
    for query in [
        // 3- and 4-character keywords either side of the cut-off
        s(&["abd"]),
        s(&["abdc"]),
        s(&["abcx"]),
        // length gaps of exactly 2 and 3 from a 4-letter word
        s(&["abcdxy"]),
        s(&["abcdxyz"]),
        s(&["ab"]),
        // non-ASCII and mixed pairs
        s(&["übre"]),
        s(&["ubre"]),
        s(&["uébr"]),
        // a word longer than 64 bytes, one transposition and one insertion
        // away from a vocabulary word
        s(&[long_typo.as_str()]),
        // a repeated keyword, and keywords already in the vocabulary
        s(&["abdc", "abdc"]),
        s(&["data", "base", "databse", "data"]),
    ] {
        assert_same_rules(&vocab, &query);
    }
}
