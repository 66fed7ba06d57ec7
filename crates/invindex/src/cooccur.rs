//! Co-occurrence frequencies `f^T_{ki,kj}` (Formula 7).
//!
//! The paper precomputes a *co-occur frequency table* with worst-case
//! space `O(K^2 · T)` (§VII). We instead derive each requested entry from
//! the inverted lists — the set of `T`-typed nodes containing a keyword is
//! the distinct-`T`-ancestor projection of its posting list, and the
//! co-occurrence count is the size of the intersection of two such sorted
//! sets — and memoize both the projections and the final counts, per
//! [`crate::KvBackedIndex`]. This keeps identical query-time semantics
//! while avoiding the quadratic build; `DESIGN.md` records the
//! substitution and the ablation bench measures the trade-off.

use crate::reader::{typed_ancestors_in, IndexReader};
use crate::stats::KeywordId;
use obs::lockrank::rank;
use obs::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use xmldom::{Dewey, NodeTypeId};

/// Both memo tables, behind the one `cooccur.memo` lock: a lookup or an
/// insert holds it for a map probe; projection and intersection run
/// outside it.
#[derive(Default)]
struct Memo {
    /// Distinct `T`-typed ancestor sets per `(keyword, type)`.
    ancestors: HashMap<(KeywordId, NodeTypeId), Arc<Vec<Dewey>>>,
    counts: HashMap<(NodeTypeId, KeywordId, KeywordId), u64>,
}

/// Memoizing provider of `f^T_{ki,kj}`.
pub struct CoOccurrence {
    memo: Mutex<Memo>,
}

impl Default for CoOccurrence {
    fn default() -> Self {
        Self::new()
    }
}

impl CoOccurrence {
    pub fn new() -> Self {
        CoOccurrence {
            memo: Mutex::new(rank::COOCCUR_MEMO, Memo::default()),
        }
    }

    /// `f^T_{ki,kj}`: number of `T`-typed nodes whose subtree contains
    /// both keywords. Symmetric in `ki`/`kj`. A storage error in the
    /// reader degrades the count to 0 — the value only weights ranking —
    /// and nothing derived from the failed read is memoised, so the next
    /// call reads the list again.
    pub fn co_occur(
        &self,
        reader: &dyn IndexReader,
        t: NodeTypeId,
        ki: KeywordId,
        kj: KeywordId,
    ) -> u64 {
        let (a, b) = if ki <= kj { (ki, kj) } else { (kj, ki) };
        // xlint::lock(cooccur.memo)
        if let Some(&n) = self.memo.lock().counts.get(&(t, a, b)) {
            return n;
        }
        let count = || -> kvstore::Result<u64> {
            let la = self.typed_ancestors(reader, a, t)?;
            if a == b {
                return Ok(la.len() as u64);
            }
            let lb = self.typed_ancestors(reader, b, t)?;
            Ok(sorted_intersection_size(&la, &lb))
        };
        let Ok(n) = count() else {
            return 0;
        };
        self.memo.lock().counts.insert((t, a, b), n); // xlint::lock(cooccur.memo)
        n
    }

    fn typed_ancestors(
        &self,
        reader: &dyn IndexReader,
        k: KeywordId,
        t: NodeTypeId,
    ) -> kvstore::Result<Arc<Vec<Dewey>>> {
        // xlint::lock(cooccur.memo)
        if let Some(v) = self.memo.lock().ancestors.get(&(k, t)) {
            return Ok(Arc::clone(v));
        }
        let postings = reader.list_handle_by_id(k)?;
        let v = Arc::new(typed_ancestors_in(reader.document(), &postings, t));
        // xlint::lock(cooccur.memo)
        let mut memo = self.memo.lock();
        Ok(Arc::clone(memo.ancestors.entry((k, t)).or_insert(v)))
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
}
