//! String edit distances for spelling-error rules (§III-B).
//!
//! [`levenshtein`] is the classic insert/delete/substitute distance;
//! [`damerau_levenshtein`] also counts adjacent transpositions (the most
//! common typing error) as a single edit. Both run the full matrix and
//! are the reference metrics. [`within_distance`] is the bounded variant
//! used when scanning a vocabulary: the same restricted Damerau
//! recurrence, evaluated only on the diagonal band `|i − j| ≤ max` in
//! three stack rows, over bytes when both words are ASCII (over `char`s
//! otherwise), and abandoned at the first row whose every cell exceeds
//! the bound.

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

/// The widest bound [`within_distance`] runs on its stack band; a wider
/// one runs the full [`damerau_levenshtein`] matrix.
const MAX_BANDED: usize = 8;

/// `Some(distance)` if `damerau_levenshtein(a, b) <= max`, else `None`.
///
/// Runs the banded DP of [`banded_distance`] for any bound up to 8: over
/// bytes when both words are ASCII — without allocating, whatever their
/// length — and over collected `char`s otherwise.
pub fn within_distance(a: &str, b: &str, max: usize) -> Option<usize> {
    if max > MAX_BANDED {
        let d = damerau_levenshtein(a, b);
        return (d <= max).then_some(d);
    }
    if a.is_ascii() && b.is_ascii() {
        return banded_distance(a.as_bytes(), b.as_bytes(), max);
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    banded_distance(&a, &b, max)
}

/// Restricted Damerau–Levenshtein distance of `a` and `b` if it is at
/// most `max` (at most [`MAX_BANDED`]).
///
/// A cell `d[i][j]` with `|i − j| > max` is at least `|i − j|`, so only
/// the band of `2·max+1` diagonals around the main one can hold a value
/// within the bound; cells are kept capped at `max + 1`, which the
/// recurrence's `min`/`+1` preserve exactly. Row `i` lives at offset
/// `j − i + max + 1` of a `2·max+3`-wide row: the three reads of the
/// recurrence (`d[i−1][j−1]`, `d[i−1][j]`, `d[i][j−1]`) and the
/// transposition's `d[i−2][j−2]` are then the same, next and previous
/// slot. A row is written only on its band, and every read lands on
/// the band of its row or on one of the two end slots, which are never
/// written and stay at the cap as out-of-band sentinels — so the three
/// rotating rows need no clearing.
///
/// The scan stops at the first row whose every cell exceeds `max`: every
/// path to `d[la][lb]` crosses that row except a transposition from
/// `d[i−1][j−1]` to `d[i+1][j+1]`, and that step is never cheaper than
/// the diagonal through `d[i][j]` it skips (its swap makes `a[i−1] =
/// b[j]`, so `d[i][j] ≤ d[i−1][j−1] + 1`).
fn banded_distance<T: Copy + PartialEq>(a: &[T], b: &[T], max: usize) -> Option<usize> {
    let (la, lb) = (a.len(), b.len());
    if la.abs_diff(lb) > max {
        return None;
    }
    const WIDTH: usize = 2 * MAX_BANDED + 3;
    let cap = max as u8 + 1;
    let (mut r0, mut r1, mut r2) = ([cap; WIDTH], [cap; WIDTH], [cap; WIDTH]);
    let (mut before, mut prev, mut cur) = (&mut r0, &mut r1, &mut r2);
    // Row 0: d[0][j] = j, for the columns in the band.
    for j in 0..=max.min(lb) {
        prev[j + max + 1] = j as u8;
    }
    for i in 1..=la {
        let mut row_min = cap;
        if i <= max {
            // d[i][0] = i
            cur[max + 1 - i] = i as u8;
            row_min = i as u8;
        }
        let (lo, hi) = (i.saturating_sub(max).max(1), (i + max).min(lb));
        let (ai, ai_before) = (a[i - 1], i.checked_sub(2).map(|at| a[at]));
        let mut left = cur[lo + max - i];
        for j in lo..hi + 1 {
            let at = j + max + 1 - i;
            let bj = b[j - 1];
            let mut v = (prev[at] + u8::from(ai != bj))
                .min(prev[at + 1] + 1)
                .min(left + 1);
            if j > 1 && ai == b[j - 2] && ai_before == Some(bj) {
                v = v.min(before[at] + 1);
            }
            left = v.min(cap);
            cur[at] = left;
            row_min = row_min.min(left);
        }
        if row_min == cap {
            return None;
        }
        (before, prev, cur) = (prev, cur, before);
    }
    let d = usize::from(prev[lb + max + 1 - la]);
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
    fn within_distance_counts_transpositions_at_the_band_edge() {
        // The narrowest band (max = 1, three slots) must still carry
        // d[i−2][j−2] to the transposition two rows on.
        assert_eq!(within_distance("ab", "ba", 1), Some(1));
        assert_eq!(within_distance("xyzab", "xyzba", 1), Some(1));
        // An insertion moves the path one diagonal off the main one, next
        // to the band's edge, and the swap happens there.
        assert_eq!(within_distance("ab", "xba", 2), Some(2));
        assert_eq!(within_distance("abcd", "abdcx", 2), Some(2));
        // ...and on the edge diagonal itself once the bound allows it.
        assert_eq!(within_distance("ba", "xxab", 3), Some(3));
        assert_eq!(within_distance("ba", "xxab", 2), None);
    }

    #[test]
    fn within_distance_exits_early_only_past_the_bound() {
        // Rows whose minimum reaches the bound exactly must not end the
        // scan: the answer is the bound itself.
        assert_eq!(within_distance("zzcdef", "abcdef", 2), Some(2));
        assert_eq!(within_distance("abcdef", "abxyef", 2), Some(2));
        assert_eq!(within_distance("abcdef", "abxyef", 1), None);
        // A transposition right after a row at the bound.
        assert_eq!(within_distance("zbacd", "abcad", 2), Some(2));
        // Long ASCII words run on the same stack band as short ones.
        let long = "x".repeat(100);
        let near = format!("{}yx", "x".repeat(98));
        assert_eq!(within_distance(&long, &near, 1), Some(1));
        assert_eq!(within_distance(&long, &"y".repeat(100), 2), None);
    }

    #[test]
    fn within_distance_agrees_either_side_of_the_widest_band() {
        // A bound of 8 runs on the band, 9 and more on the full matrix.
        assert_eq!(within_distance("abcdefgh", "", 8), Some(8));
        assert_eq!(within_distance("abcdefghi", "", 8), None);
        assert_eq!(within_distance("abcdefghi", "", 9), Some(9));
        let (a, b) = ("abcdefghijklmnopqrst", "tsrqponmlkjihgfedcba");
        let d = damerau_levenshtein(a, b);
        assert_eq!(within_distance(a, b, 40), Some(d));
        assert_eq!(within_distance(a, b, d), Some(d));
        assert_eq!(within_distance(a, b, d - 1), None);
        assert_eq!(within_distance("", "abc", usize::MAX), Some(3));
    }

    #[test]
    fn unicode_safe() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(damerau_levenshtein("über", "ubér"), 2);
        assert_eq!(within_distance("über", "ubér", 2), Some(2));
        assert_eq!(within_distance("über", "ubér", 1), None);
        assert_eq!(within_distance("über", "uber", 1), Some(1));
    }
}
