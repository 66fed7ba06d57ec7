//! The frequency pass of the streaming builder ([`crate::stream`]):
//! `tf(k, T)` and `f^T_k` (XML DF, Definition 3.2) over complete posting
//! lists. The pass is embarrassingly parallel across keywords: each
//! worker owns a disjoint keyword range and produces local maps, merged
//! at the end. The same walk over one run of a list, behind the posting
//! before it, is how a maintenance commit adds an appended tail's
//! frequencies and takes a dropped tail's away ([`adjust_stats`]).
//!
//! A posting's ancestor-or-self types are its node type's parent links,
//! one per Dewey level: the walk allocates nothing, and the type table it
//! reads is linear in the number of types, whatever their depth.

use crate::postings::{Posting, PostingList};
use crate::stats::{KeywordId, Sign, TypeStats};
use kvstore::Result;
use std::collections::HashMap;
use xmldom::{NodeTypeId, NodeTypeTable};

/// The fused frequency pass: `tf(k, T)` and `f^T_k` in one ancestor walk
/// per posting, using up to `threads` workers (`<= 1` runs inline).
/// `counts` is parallel to `lists` — `counts[k][i]` is the token count
/// behind posting `i` of keyword `k`. Values are independent of the
/// thread count; only the (irrelevant) map iteration order varies.
///
/// Per keyword the accumulators are dense arrays indexed by `NodeTypeId`
/// (document type counts are tiny), drained into the result maps once
/// per keyword — the inner loop does no hashing at all.
pub(crate) fn compute_tf_df(
    types: &NodeTypeTable,
    lists: &[PostingList],
    counts: &[Vec<u64>],
    threads: usize,
) -> FreqMaps {
    let kw_count = lists.len();
    if threads <= 1 || kw_count < 2 {
        let mut tf = HashMap::new();
        let mut df = HashMap::new();
        stats_range(lists, counts, types, 0, kw_count, &mut tf, &mut df);
        return (tf, df);
    }
    let kw_chunk = kw_count.div_ceil(threads).max(1);
    let mut partials: Vec<FreqMaps> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for start in (0..kw_count).step_by(kw_chunk) {
            let end = (start + kw_chunk).min(kw_count);
            handles.push(s.spawn(move || {
                let mut tf = HashMap::new();
                let mut df = HashMap::new();
                stats_range(lists, counts, types, start, end, &mut tf, &mut df);
                (tf, df)
            }));
        }
        for h in handles {
            partials.push(h.join().expect("stats worker panicked"));
        }
    });

    // Workers own disjoint keyword ranges, so the key sets are disjoint.
    let (mut tf, mut df) = partials.pop().unwrap_or_default();
    for (ptf, pdf) in partials {
        tf.extend(ptf);
        df.extend(pdf);
    }
    (tf, df)
}

type FreqMap = HashMap<(NodeTypeId, KeywordId), u64>;
type FreqMaps = (FreqMap, FreqMap);

/// One keyword range of the fused pass: each list walked whole.
fn stats_range(
    lists: &[PostingList],
    counts: &[Vec<u64>],
    types: &NodeTypeTable,
    start: usize,
    end: usize,
    tf: &mut FreqMap,
    df: &mut FreqMap,
) {
    let mut totals = TypeTotals::new(types.len());
    for (kid, list) in lists.iter().enumerate().take(end).skip(start) {
        let k = KeywordId(kid as u32);
        totals.walk(types, None, list.as_slice(), &counts[kid]);
        totals.drain(|t, tf_t, df_t| {
            if df_t > 0 {
                df.insert((t, k), df_t);
            }
            if tf_t > 0 {
                tf.insert((t, k), tf_t);
            }
        });
    }
}

/// Adds (`Sign::Plus`) or takes away the frequencies of `postings` to
/// keyword `k`'s entries in `stats`: a run of `k`'s list that follows
/// `prev`, the posting before it (`None` at the head of the list), with
/// `counts[i]` the occurrences behind `postings[i]`. A list's frequencies
/// are the sum of its runs', so a commit appends a tail or drops one by
/// walking that tail alone. Taking away more than `stats` holds means
/// the statistics and the postings disagree, and fails as corrupt.
pub(crate) fn adjust_stats(
    stats: &mut TypeStats,
    types: &NodeTypeTable,
    k: KeywordId,
    prev: Option<&Posting>,
    postings: &[Posting],
    counts: &[u64],
    sign: Sign,
) -> Result<()> {
    let mut totals = TypeTotals::new(types.len());
    totals.walk(types, prev, postings, counts);
    let mut moved = Ok(());
    totals.drain(|t, tf, df| {
        if moved.is_ok() {
            moved = stats.adjust(t, k, tf, df, sign);
        }
    });
    moved
}

/// `tf` and `df` of one keyword per node type, dense: the inner loop of
/// the walk does no hashing at all.
struct TypeTotals {
    tf: Vec<u64>,
    df: Vec<u64>,
}

impl TypeTotals {
    fn new(num_types: usize) -> Self {
        TypeTotals {
            tf: vec![0; num_types],
            df: vec![0; num_types],
        }
    }

    /// Counts a run of one keyword's document-ordered list that follows
    /// `prev`. Distinct-ancestor counting for `df`: every ancestor level
    /// of a posting not shared with the previous posting's label is a
    /// newly seen `T`-typed container. `tf` adds the posting's occurrence
    /// count at every ancestor-or-self level.
    fn walk<'p>(
        &mut self,
        types: &NodeTypeTable,
        mut prev: Option<&'p Posting>,
        postings: &'p [Posting],
        counts: &[u64],
    ) {
        debug_assert_eq!(postings.len(), counts.len());
        // Plain slices, so the stores below cannot be taken to move the
        // vectors' buffers: their bounds stay in registers.
        let (tf, df) = (&mut self.tf[..], &mut self.df[..]);
        for (p, &c) in postings.iter().zip(counts) {
            let shared = prev
                .map(|q| q.dewey.common_prefix_len(&p.dewey))
                .unwrap_or(0);
            // A node has exactly one ancestor-or-self type per Dewey
            // level; the walk meets them deepest first, so the first
            // `len - shared` are the levels not shared with `prev`.
            let unshared = p.dewey.len() - shared;
            for (m, t) in types.ancestors_or_self(p.node_type).enumerate() {
                tf[t.0 as usize] += c;
                if m < unshared {
                    df[t.0 as usize] += 1;
                }
            }
            prev = Some(p);
        }
    }

    /// Hands `f` every type's `(tf, df)` that is not zero, and zeroes
    /// the totals for the next walk.
    fn drain(&mut self, mut f: impl FnMut(NodeTypeId, u64, u64)) {
        for (t, (tf, df)) in self.tf.iter_mut().zip(&mut self.df).enumerate() {
            if *tf > 0 || *df > 0 {
                f(NodeTypeId(t as u32), *tf, *df);
                (*tf, *df) = (0, 0);
            }
        }
    }
}
