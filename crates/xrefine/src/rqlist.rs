//! `RQSortedList` (§VI-B): the running approximate Top-2K candidate list,
//! ordered by dissimilarity.
//!
//! Candidates are named by the id their session's `DpMemo` interned
//! them under ([`RqId`]), so the list holds `(dissimilarity, id)` pairs
//! and a membership bit per id: `hasRQ` is one indexed load, and neither
//! it nor an insert builds a string or clones a keyword set. The list
//! never looks inside a candidate; the one thing it needs from outside
//! is an order among ids to break dissimilarity ties, which the caller
//! passes to [`RqSortedList::insert`] (Algorithms 2/3: the candidates'
//! keyword sets).

use std::cmp::Ordering;

/// Identity of a refined-query candidate within one query session: its
/// index in the session's candidate arena.
pub type RqId = usize;

/// A bounded candidate list sorted by ascending dissimilarity.
#[derive(Debug)]
pub struct RqSortedList {
    capacity: usize,
    /// Sorted ascending by (dissimilarity, the caller's order on ids).
    items: Vec<(f64, RqId)>,
    /// `member[id]`; ids beyond its length are not members.
    member: Vec<bool>,
}

impl RqSortedList {
    /// `capacity` is `2K` in Algorithm 2/3.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        RqSortedList {
            capacity,
            items: Vec::with_capacity(capacity + 1),
            member: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Worst (largest) dissimilarity currently held; `+∞` while not full,
    /// so any candidate qualifies (Algorithm 2 line 12).
    pub fn admission_threshold(&self) -> f64 {
        if self.is_full() {
            self.items.last().map_or(f64::INFINITY, |&(ds, _)| ds)
        } else {
            f64::INFINITY
        }
    }

    /// `hasRQ`: membership by candidate id.
    pub fn contains(&self, id: RqId) -> bool {
        self.member.get(id).copied().unwrap_or(false)
    }

    /// Attempts to insert candidate `id` at `dissimilarity`; `false` when
    /// it is already a member or no better than the worst of a full list.
    /// When full, a candidate strictly better than the worst evicts it.
    /// The threshold never rises, so an evicted candidate stays out unless
    /// it is offered again at a lower dissimilarity. `tie_break` orders
    /// two ids of equal dissimilarity.
    pub fn insert(
        &mut self,
        id: RqId,
        dissimilarity: f64,
        tie_break: impl Fn(RqId, RqId) -> Ordering,
    ) -> bool {
        if self.contains(id) || dissimilarity >= self.admission_threshold() {
            return false;
        }
        let pos = self.items.partition_point(|&(ds, other)| {
            ds < dissimilarity || (ds == dissimilarity && tie_break(other, id) == Ordering::Less)
        });
        self.items.insert(pos, (dissimilarity, id));
        if self.member.len() <= id {
            self.member.resize(id + 1, false);
        }
        self.member[id] = true;
        if self.items.len() > self.capacity {
            let (_, out) = self.items.pop().expect("over capacity");
            self.member[out] = false;
        }
        true
    }

    /// Members as `(dissimilarity, id)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (f64, RqId)> + '_ {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids tie-break by the keyword sets these tests give them.
    fn insert(l: &mut RqSortedList, words: &[&[&str]], id: RqId, ds: f64) -> bool {
        l.insert(id, ds, |a, b| words[a].cmp(words[b]))
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let words: [&[&str]; 4] = [&["c"], &["a"], &["b"], &["a", "z"]];
        let mut l = RqSortedList::new(4);
        assert!(insert(&mut l, &words, 0, 3.0));
        assert!(insert(&mut l, &words, 1, 1.0));
        assert!(insert(&mut l, &words, 2, 2.0));
        let ds: Vec<f64> = l.iter().map(|(ds, _)| ds).collect();
        assert_eq!(ds, [1.0, 2.0, 3.0]);
        // equal dissimilarity: the caller's order decides
        assert!(insert(&mut l, &words, 3, 2.0));
        let ids: Vec<RqId> = l.iter().map(|(_, id)| id).collect();
        assert_eq!(ids, [1, 3, 2, 0]);
    }

    #[test]
    fn duplicates_rejected() {
        let words: [&[&str]; 1] = [&["x", "y"]];
        let mut l = RqSortedList::new(4);
        assert!(insert(&mut l, &words, 0, 2.0));
        // the same candidate again, even at a better dissimilarity
        assert!(!insert(&mut l, &words, 0, 1.0));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn eviction_at_capacity() {
        let words: [&[&str]; 4] = [&["a"], &["b"], &["c"], &["d"]];
        let mut l = RqSortedList::new(2);
        insert(&mut l, &words, 0, 1.0);
        insert(&mut l, &words, 1, 2.0);
        assert!(l.is_full());
        assert_eq!(l.admission_threshold(), 2.0);
        // worse candidate rejected
        assert!(!insert(&mut l, &words, 2, 3.0));
        // better evicts the worst
        assert!(insert(&mut l, &words, 3, 0.5));
        let ids: Vec<RqId> = l.iter().map(|(_, id)| id).collect();
        assert_eq!(ids, [3, 0]);
        // the evicted candidate is no longer a member; the lowered
        // threshold keeps it out at its old price, not at a better one
        assert!(!l.contains(1));
        assert!(!insert(&mut l, &words, 1, 2.0));
        assert!(insert(&mut l, &words, 1, 0.7));
        assert!(!l.contains(0));
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let words: [&[&str]; 1] = [&["a"]];
        let mut l = RqSortedList::new(3);
        assert_eq!(l.admission_threshold(), f64::INFINITY);
        insert(&mut l, &words, 0, 5.0);
        assert_eq!(l.admission_threshold(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        RqSortedList::new(0);
    }
}
