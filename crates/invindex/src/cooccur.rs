//! Co-occurrence frequencies `f^T_{ki,kj}` (Formula 7).
//!
//! The paper precomputes a *co-occur frequency table* with worst-case
//! space `O(K^2 · T)` (§VII). We instead derive each requested entry from
//! the inverted lists — the set of `T`-typed nodes containing a keyword is
//! the distinct-`T`-ancestor projection of its posting list, and the
//! co-occurrence count is the size of the intersection of two such sorted
//! sets — and memoize both the projections and the final counts. This
//! keeps identical query-time semantics while avoiding the quadratic
//! build; `DESIGN.md` records the substitution and the ablation bench
//! measures the trade-off.

use crate::reader::{typed_ancestors_in, IndexReader};
use crate::stats::KeywordId;
use obs::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use xmldom::{Dewey, NodeTypeId};

/// Memo of distinct `T`-typed ancestor sets per `(keyword, type)`, with
/// content-level dedup: different `(keyword, type)` pairs frequently
/// project to the *same* ancestor set (keywords confined to one shared
/// subtree shape), so equal vectors are stored once and shared by `Arc`.
/// Hits land on `compress_dedup_hits_total`.
#[derive(Default)]
struct AncestorMemo {
    by_key: HashMap<(KeywordId, NodeTypeId), Arc<Vec<Dewey>>>,
    /// Content-hash buckets over the memoized vectors; probed on insert
    /// so an equal projection is shared rather than duplicated.
    by_content: HashMap<u64, Vec<Arc<Vec<Dewey>>>>,
}

impl AncestorMemo {
    fn content_hash(v: &[Dewey]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Inserts `v` under `key`, sharing an existing equal vector if one
    /// is already memoized. Returns the canonical (possibly shared) Arc.
    fn insert_deduped(&mut self, key: (KeywordId, NodeTypeId), v: Vec<Dewey>) -> Arc<Vec<Dewey>> {
        let hash = Self::content_hash(&v);
        let bucket = self.by_content.entry(hash).or_default();
        let canonical = match bucket.iter().find(|c| ***c == v) {
            Some(existing) => {
                obs::counter!("compress_dedup_hits_total").inc();
                Arc::clone(existing)
            }
            None => {
                let fresh = Arc::new(v);
                bucket.push(Arc::clone(&fresh));
                fresh
            }
        };
        self.by_key.insert(key, Arc::clone(&canonical));
        canonical
    }
}

/// Memoizing provider of `f^T_{ki,kj}`.
#[derive(Default)]
pub struct CoOccurrence {
    ancestors: Mutex<AncestorMemo>,
    counts: Mutex<HashMap<(NodeTypeId, KeywordId, KeywordId), u64>>,
}

impl CoOccurrence {
    pub fn new() -> Self {
        Self::default()
    }

    /// `f^T_{ki,kj}`: number of `T`-typed nodes whose subtree contains
    /// both keywords. Symmetric in `ki`/`kj`. Storage errors in the
    /// reader degrade to an empty ancestor set (count 0) — the value
    /// only weights ranking.
    pub fn co_occur(
        &self,
        reader: &dyn IndexReader,
        t: NodeTypeId,
        ki: KeywordId,
        kj: KeywordId,
    ) -> u64 {
        let (a, b) = if ki <= kj { (ki, kj) } else { (kj, ki) };
        {
            let _rank =
                obs::lockrank::acquire(obs::lockrank::rank::COOCCUR_COUNTS, "cooccur.counts");
            // xlint::lock(cooccur.counts)
            if let Some(&n) = self.counts.lock().get(&(t, a, b)) {
                return n;
            }
        }
        let la = self.typed_ancestors(reader, a, t);
        let n = if a == b {
            la.len() as u64
        } else {
            let lb = self.typed_ancestors(reader, b, t);
            sorted_intersection_size(&la, &lb)
        };
        {
            let _rank =
                obs::lockrank::acquire(obs::lockrank::rank::COOCCUR_COUNTS, "cooccur.counts");
            self.counts.lock().insert((t, a, b), n); // xlint::lock(cooccur.counts)
        }
        n
    }

    fn typed_ancestors(
        &self,
        reader: &dyn IndexReader,
        k: KeywordId,
        t: NodeTypeId,
    ) -> Arc<Vec<Dewey>> {
        {
            let _rank =
                obs::lockrank::acquire(obs::lockrank::rank::COOCCUR_ANCESTORS, "cooccur.ancestors");
            // xlint::lock(cooccur.ancestors)
            if let Some(v) = self.ancestors.lock().by_key.get(&(k, t)) {
                return Arc::clone(v);
            }
        }
        let postings = reader.list_handle_by_id(k).unwrap_or_default();
        let v = typed_ancestors_in(reader.document(), &postings, t);
        {
            let _rank =
                obs::lockrank::acquire(obs::lockrank::rank::COOCCUR_ANCESTORS, "cooccur.ancestors");
            // xlint::lock(cooccur.ancestors)
            self.ancestors.lock().insert_deduped((k, t), v)
        }
    }
}

fn sorted_intersection_size(a: &[Dewey], b: &[Dewey]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn intersection_size_basics() {
        let a = vec![d("0.0"), d("0.1"), d("0.3")];
        let b = vec![d("0.1"), d("0.2"), d("0.3")];
        assert_eq!(sorted_intersection_size(&a, &b), 2);
        assert_eq!(sorted_intersection_size(&a, &[]), 0);
        assert_eq!(sorted_intersection_size(&a, &a), 3);
    }

    #[test]
    fn equal_projections_share_one_allocation() {
        let mut memo = AncestorMemo::default();
        let k0 = KeywordId(0);
        let k1 = KeywordId(1);
        let t = NodeTypeId(0);
        let a = memo.insert_deduped((k0, t), vec![d("0.0"), d("0.2")]);
        let b = memo.insert_deduped((k1, t), vec![d("0.0"), d("0.2")]);
        assert!(Arc::ptr_eq(&a, &b), "equal vectors must be shared");
        let c = memo.insert_deduped((KeywordId(2), t), vec![d("0.1")]);
        assert!(!Arc::ptr_eq(&a, &c));
        // lookups resolve to the canonical Arc
        assert!(Arc::ptr_eq(memo.by_key.get(&(k1, t)).unwrap(), &a));
    }
}
