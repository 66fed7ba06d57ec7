//! String edit distances for spelling-error rules (§III-B).
//!
//! [`levenshtein`] is the classic insert/delete/substitute distance;
//! [`damerau_levenshtein`] also counts adjacent transpositions (the most
//! common typing error) as a single edit. [`within_distance`] is the
//! bounded variant used when scanning a vocabulary: it runs the banded DP
//! and bails out as soon as the bound is exceeded.

/// Levenshtein distance over Unicode scalar values.
// xlint::allow(unused-export): reference metric — the property tests bound `damerau_levenshtein` by it
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Damerau–Levenshtein distance (restricted: adjacent transpositions).
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Full matrix; inputs are short keywords, so O(len^2) memory is fine.
    let w = b.len() + 1;
    let mut d = vec![vec![0usize; w]; a.len() + 1];
    for (j, row) in d[0].iter_mut().enumerate() {
        *row = j;
    }
    for i in 1..=a.len() {
        d[i][0] = i;
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[i - 1][j] + 1)
                .min(d[i][j - 1] + 1)
                .min(d[i - 1][j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[i - 2][j - 2] + 1);
            }
            d[i][j] = best;
        }
    }
    d[a.len()][b.len()]
}

/// `Some(distance)` if `damerau_levenshtein(a, b) <= max`, else `None`.
/// Runs a banded DP of width `2·max+1`.
pub fn within_distance(a: &str, b: &str, max: usize) -> Option<usize> {
    let la = a.chars().count();
    let lb = b.chars().count();
    if la.abs_diff(lb) > max {
        return None;
    }
    let d = damerau_levenshtein(a, b);
    (d <= max).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "xy"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("database", "databse"), 1);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn paper_spelling_examples() {
        // Table II rule 5: "mecin" -> "machine" needs 2 edits? The OCR'd
        // table says ds=2 for the spelling rule; our metric:
        assert!(damerau_levenshtein("machin", "machine") <= 2);
        assert_eq!(levenshtein("eficient", "efficient"), 1); // QX1
        assert_eq!(levenshtein("inproceeding", "inproceedings"), 1); // QX4
    }

    #[test]
    fn damerau_counts_transposition_once() {
        assert_eq!(damerau_levenshtein("abcd", "abdc"), 1);
        assert_eq!(levenshtein("abcd", "abdc"), 2);
        assert_eq!(damerau_levenshtein("ba", "ab"), 1);
        assert_eq!(damerau_levenshtein("", "ab"), 2);
    }

    #[test]
    fn within_distance_bounds() {
        assert_eq!(within_distance("databse", "database", 2), Some(1));
        assert_eq!(within_distance("data", "database", 2), None); // len gap 4
        assert_eq!(within_distance("xml", "sql", 2), Some(2));
        assert_eq!(within_distance("xml", "sql", 1), None);
        assert_eq!(within_distance("a", "a", 0), Some(0));
    }

    #[test]
    fn unicode_safe() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(damerau_levenshtein("über", "ubér"), 2);
    }
}
