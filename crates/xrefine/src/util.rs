//! Small utilities shared by the refinement algorithms.

/// A fixed-width bitset over the query session's key set `KS` (original
/// keywords plus all rule-generated ones). Sized once per query, so the
/// hot operations (or-assign, subset test) are branch-free word loops.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyMask {
    words: Vec<u64>,
}

impl KeyMask {
    /// An empty mask over a universe of `n` keywords.
    pub fn empty(n: usize) -> Self {
        KeyMask {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .map(|w| w & (1u64 << (i % 64)) != 0)
            .unwrap_or(false)
    }

    pub fn or_assign(&mut self, other: &KeyMask) {
        debug_assert_eq!(self.words.len(), other.words.len());
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// True if every bit of `self` is set in `other`.
    pub fn is_subset_of(&self, other: &KeyMask) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut m = KeyMask::empty(130);
        assert!(m.is_empty());
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(129);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(128));
        assert!(!m.get(500)); // out of range reads as false
    }

    #[test]
    fn subset_and_or() {
        let mut a = KeyMask::empty(70);
        let mut b = KeyMask::empty(70);
        a.set(3);
        b.set(3);
        b.set(66);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        a.or_assign(&b);
        assert!(b.is_subset_of(&a));
        a.clear();
        assert!(a.is_empty());
        assert!(a.is_subset_of(&b)); // empty set is a subset of anything
    }
}
