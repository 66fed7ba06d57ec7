//! The frequency pass of the streaming builder ([`crate::stream`]):
//! `tf(k, T)` and `f^T_k` (XML DF, Definition 3.2) over complete posting
//! lists. The pass is embarrassingly parallel across keywords: each
//! worker owns a disjoint keyword range and produces local maps, merged
//! at the end.
//!
//! The prefix-path lookup that the sequential reference builder performs
//! per posting per ancestor level (`NodeTypeTable::get`, which allocates
//! a fresh key `Vec` on every call) is hoisted into one table indexed by
//! `NodeTypeId` — for DBLP-shaped corpora that removes the dominant
//! allocation of the whole second pass.

use crate::postings::{Posting, PostingList};
use crate::stats::KeywordId;
use std::collections::HashMap;
use xmldom::{Document, NodeTypeId};

/// For each node type `t` (by id), the interned types of all prefixes of
/// `t`'s path: entry `m - 1` is the type of the length-`m` prefix, the
/// last entry is `t` itself.
fn prefix_type_table(doc: &Document) -> Vec<Vec<NodeTypeId>> {
    let types = doc.node_types();
    let mut table = Vec::with_capacity(types.len());
    for t in types.iter() {
        let path = types.path(t);
        let mut prefixes = Vec::with_capacity(path.len());
        for m in 1..=path.len() {
            prefixes.push(
                types
                    .get(&path[..m])
                    .expect("every prefix of an interned path is interned"),
            );
        }
        table.push(prefixes);
    }
    table
}

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
    doc: &Document,
    lists: &[PostingList],
    counts: &[Vec<u64>],
    threads: usize,
) -> FreqMaps {
    let prefixes = prefix_type_table(doc);
    let num_types = doc.node_types().len();
    let kw_count = lists.len();
    if threads <= 1 || kw_count < 2 {
        let mut tf = HashMap::new();
        let mut df = HashMap::new();
        stats_range(
            lists, counts, &prefixes, num_types, 0, kw_count, &mut tf, &mut df,
        );
        return (tf, df);
    }
    let kw_chunk = kw_count.div_ceil(threads).max(1);
    let mut partials: Vec<FreqMaps> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let prefixes_ref = &prefixes;
        for start in (0..kw_count).step_by(kw_chunk) {
            let end = (start + kw_chunk).min(kw_count);
            handles.push(s.spawn(move || {
                let mut tf = HashMap::new();
                let mut df = HashMap::new();
                stats_range(
                    lists,
                    counts,
                    prefixes_ref,
                    num_types,
                    start,
                    end,
                    &mut tf,
                    &mut df,
                );
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
#[allow(clippy::too_many_arguments)]
fn stats_range(
    lists: &[PostingList],
    counts: &[Vec<u64>],
    prefixes: &[Vec<NodeTypeId>],
    num_types: usize,
    start: usize,
    end: usize,
    tf: &mut FreqMap,
    df: &mut FreqMap,
) {
    let mut tf_local = vec![0u64; num_types];
    let mut df_local = vec![0u64; num_types];
    for (kid, list) in lists.iter().enumerate().take(end).skip(start) {
        let k = KeywordId(kid as u32);
        let mut prev: Option<&Posting> = None;
        for (i, p) in list.iter().enumerate() {
            let shared = prev
                .map(|q| q.dewey.common_prefix_len(&p.dewey))
                .unwrap_or(0);
            // A node's type path has exactly one entry per Dewey level.
            let path_types = &prefixes[p.node_type.0 as usize];
            let c = counts[kid][i];
            for (m, &t) in path_types.iter().enumerate() {
                tf_local[t.0 as usize] += c;
                if m >= shared {
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
