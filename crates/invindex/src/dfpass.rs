//! The frequency pass of the streaming builder ([`crate::stream`]):
//! `tf(k, T)` and `f^T_k` (XML DF, Definition 3.2) over complete posting
//! lists. The pass is embarrassingly parallel across keywords: each
//! worker owns a disjoint keyword range and produces local maps, merged
//! at the end.
//!
//! A posting's ancestor-or-self types are its node type's parent links,
//! one per Dewey level: the walk allocates nothing, and the type table it
//! reads is linear in the number of types, whatever their depth.

use crate::postings::{Posting, PostingList};
use crate::stats::KeywordId;
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

/// One keyword range of the fused pass. Distinct-ancestor counting for
/// `df`: along each document-ordered list, every ancestor level not
/// shared with the previous posting's label is a newly seen `T`-typed
/// container. `tf` adds the posting's occurrence count at every
/// ancestor-or-self level.
fn stats_range(
    lists: &[PostingList],
    counts: &[Vec<u64>],
    types: &NodeTypeTable,
    start: usize,
    end: usize,
    tf: &mut FreqMap,
    df: &mut FreqMap,
) {
    let num_types = types.len();
    let mut tf_local = vec![0u64; num_types];
    let mut df_local = vec![0u64; num_types];
    for (kid, list) in lists.iter().enumerate().take(end).skip(start) {
        let k = KeywordId(kid as u32);
        let mut prev: Option<&Posting> = None;
        for (i, p) in list.iter().enumerate() {
            let shared = prev
                .map(|q| q.dewey.common_prefix_len(&p.dewey))
                .unwrap_or(0);
            // A node has exactly one ancestor-or-self type per Dewey
            // level; the walk meets them deepest first, so the first
            // `len - shared` are the levels not shared with `prev`.
            let c = counts[kid][i];
            let unshared = p.dewey.len() - shared;
            for (m, t) in types.ancestors_or_self(p.node_type).enumerate() {
                tf_local[t.0 as usize] += c;
                if m < unshared {
                    df_local[t.0 as usize] += 1;
                }
            }
            prev = Some(p);
        }
        for t in 0..num_types {
            if df_local[t] > 0 {
                df.insert((NodeTypeId(t as u32), k), df_local[t]);
                df_local[t] = 0;
            }
            if tf_local[t] > 0 {
                tf.insert((NodeTypeId(t as u32), k), tf_local[t]);
                tf_local[t] = 0;
            }
        }
    }
}
