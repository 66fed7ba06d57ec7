//! Property tests for the lexical machinery: edit-distance metric laws,
//! stemmer stability, and rule-generation soundness.

use lexicon::{
    damerau_levenshtein, generate_rules, levenshtein, porter_stem, within_distance, AcronymTable,
    Thesaurus, VocabIndex,
};
use std::ops::RangeInclusive;
use xcheck::prop::{check, Gen};

/// `[a-z]{len}`
fn lowercase(g: &mut Gen, len: RangeInclusive<usize>) -> String {
    g.string(len, |g| g.char_in('a'..='z'))
}

fn word(g: &mut Gen) -> String {
    lowercase(g, 0..=10)
}

#[test]
fn levenshtein_is_a_metric() {
    check(256, |g| {
        let (a, b, c) = (word(g), word(g), word(g));
        // identity
        assert_eq!(levenshtein(&a, &a), 0);
        assert_eq!(levenshtein(&a, &b) == 0, a == b);
        // symmetry
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // triangle inequality
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // bounded by longer length
        assert!(levenshtein(&a, &b) <= a.len().max(b.len()));
    });
}

#[test]
fn damerau_is_symmetric_and_bounded_by_levenshtein() {
    check(256, |g| {
        let (a, b) = (word(g), word(g));
        let d = damerau_levenshtein(&a, &b);
        assert_eq!(d, damerau_levenshtein(&b, &a));
        assert!(d <= levenshtein(&a, &b));
        // length difference is a lower bound
        assert!(d >= a.chars().count().abs_diff(b.chars().count()));
    });
}

/// A word over `[a-z]`, or over a small alphabet of one-, two-, three-
/// and four-byte characters, up to 80 characters long: the first takes
/// the byte path of `within_distance`, the second the `char` path, and
/// mixed pairs the `char` path too.
fn any_word(g: &mut Gen) -> String {
    const MIXED: [char; 8] = ['a', 'b', 'u', 'ü', 'é', 'ß', '中', '\u{1f600}'];
    let len = if g.bool() { 0..=10 } else { 0..=80 };
    if g.bool() {
        lowercase(g, len)
    } else {
        g.string(len, |g| g.pick(&MIXED))
    }
}

/// `a` with up to three random edits, adjacent transpositions included,
/// so that pairs land near every bound.
fn near(g: &mut Gen, a: &str) -> String {
    let mut chars: Vec<char> = a.chars().collect();
    for _ in 0..g.range(0usize..4) {
        let c = g.pick(&['a', 'e', 'ü', 'z']);
        match g.range(0u8..4) {
            0 => chars.insert(g.range(0..chars.len() + 1), c),
            1 if !chars.is_empty() => {
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

#[test]
fn within_distance_is_consistent() {
    check(512, |g| {
        let a = any_word(g);
        let b = if g.bool() { any_word(g) } else { near(g, &a) };
        let max = g.range(0usize..5);
        let exact = damerau_levenshtein(&a, &b);
        match within_distance(&a, &b, max) {
            Some(d) => {
                assert!(d <= max);
                assert_eq!(d, exact, "{a:?} / {b:?}");
            }
            None => assert!(exact > max, "{a:?} / {b:?} are {exact} apart, max {max}"),
        }
        assert_eq!(within_distance(&b, &a, max), within_distance(&a, &b, max));
    });
}

#[test]
fn single_edits_are_distance_one() {
    check(256, |g| {
        let a = lowercase(g, 2..=8);
        let chars: Vec<char> = a.chars().collect();
        let pos = g.range(0..chars.len());
        // deletion
        let mut del: Vec<char> = chars.clone();
        del.remove(pos);
        let del: String = del.into_iter().collect();
        assert_eq!(damerau_levenshtein(&a, &del), 1);
        // substitution with a guaranteed-different char
        let mut sub = chars.clone();
        sub[pos] = if sub[pos] == 'z' { 'a' } else { 'z' };
        let sub: String = sub.into_iter().collect();
        assert_eq!(damerau_levenshtein(&a, &sub), 1);
    });
}

#[test]
fn porter_stem_never_grows_lowercase_ascii_words() {
    check(256, |g| {
        let a = lowercase(g, 3..=12);
        let s = porter_stem(&a);
        assert!(s.len() <= a.len());
        assert!(!s.is_empty());
        assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
    });
}

#[test]
fn generated_rules_are_sound() {
    check(256, |g| {
        let query = g.vec(1..4, |g| lowercase(g, 2..=8));
        let vocab_words = g.btree_set(1..12, |g| lowercase(g, 2..=8));
        let vocab = VocabIndex::new(&vocab_words);
        let rules = generate_rules(
            &query,
            &vocab,
            &Thesaurus::bibliographic(),
            &AcronymTable::computer_science(),
        );
        for (_, r) in rules.iter() {
            // every RHS keyword must exist in the data
            for w in &r.rhs {
                assert!(vocab.contains(w), "rule {r} has non-vocab RHS");
            }
            // every LHS is a contiguous subsequence of the query
            let l = r.lhs.len();
            let found =
                (0..query.len().saturating_sub(l - 1)).any(|i| query[i..i + l] == r.lhs[..]);
            assert!(found, "rule {r} LHS not in query {query:?}");
            // scores are positive and below the deletion cost ceiling for
            // merge/split (the paper's ordering principle)
            assert!(r.dissimilarity > 0.0);
        }
    });
}
