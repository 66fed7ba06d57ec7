//! Document statistics backing the paper's ranking model.
//!
//! All quantities of §IV are served from here:
//!
//! * `N_T` — number of `T`-typed nodes (Formula 3);
//! * `G_T` — number of distinct keywords in subtrees of type `T`
//!   (Formula 2's normalization factor);
//! * `tf(k, T)` — term count of `k` within subtrees rooted at `T`-typed
//!   nodes (Formula 2);
//! * `f^T_k` — *XML DF*: number of `T`-typed nodes containing `k` in their
//!   subtrees (Definition 3.2, Formulas 1 and 3);
//! * `f^T_{ki,kj}` — co-occurrence: number of `T`-typed nodes whose
//!   subtrees contain both keywords (Formula 7), served by
//!   [`crate::cooccur::CoOccurrence`].

use kvstore::{KvError, Result};
use std::collections::HashMap;
use xmldom::NodeTypeId;

/// Dense id of a keyword in the index vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeywordId(pub u32);

/// Interner for the index vocabulary.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KeywordTable {
    by_text: HashMap<String, KeywordId>,
    texts: Vec<String>,
}

impl KeywordTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn intern(&mut self, keyword: &str) -> KeywordId {
        if let Some(&id) = self.by_text.get(keyword) {
            return id;
        }
        let id = KeywordId(self.texts.len() as u32);
        self.texts.push(keyword.to_string());
        self.by_text.insert(keyword.to_string(), id);
        id
    }

    /// Lookup without interning; `None` means the keyword does not occur
    /// anywhere in the document.
    pub fn get(&self, keyword: &str) -> Option<KeywordId> {
        self.by_text.get(keyword).copied()
    }

    pub fn resolve(&self, id: KeywordId) -> &str {
        &self.texts[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// Iterates the whole vocabulary in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> {
        self.texts
            .iter()
            .enumerate()
            .map(|(i, t)| (KeywordId(i as u32), t.as_str()))
    }

    /// Forgets every keyword from id `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        for text in self.texts.drain(len.min(self.texts.len())..) {
            self.by_text.remove(&text);
        }
    }
}

/// Whether a change to the statistics adds or takes away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sign {
    Plus,
    Minus,
}

impl Sign {
    /// `value` moved by `by` in this direction. Taking away more than
    /// there is means the statistics and the postings disagree: the
    /// store is corrupt.
    fn apply(self, value: u64, by: u64) -> Result<u64> {
        match self {
            Sign::Plus => value.checked_add(by),
            Sign::Minus => value.checked_sub(by),
        }
        .ok_or_else(|| {
            KvError::corrupt("the statistics disagree with the postings: a count leaves its range")
        })
    }
}

/// The frequency tables of §VII ("frequent table").
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TypeStats {
    /// `N_T` indexed by `NodeTypeId`.
    n_nodes: Vec<u64>,
    /// `G_T` indexed by `NodeTypeId`.
    distinct_keywords: Vec<u64>,
    /// `tf(k, T)`.
    tf: HashMap<(NodeTypeId, KeywordId), u64>,
    /// `f^T_k`.
    df: HashMap<(NodeTypeId, KeywordId), u64>,
}

impl TypeStats {
    pub fn new(num_types: usize) -> Self {
        TypeStats {
            n_nodes: vec![0; num_types],
            distinct_keywords: vec![0; num_types],
            tf: HashMap::new(),
            df: HashMap::new(),
        }
    }

    pub(crate) fn bump_n_nodes(&mut self, t: NodeTypeId) {
        self.n_nodes[t.0 as usize] += 1;
    }

    pub(crate) fn add_tf(&mut self, t: NodeTypeId, k: KeywordId, count: u64) {
        *self.tf.entry((t, k)).or_insert(0) += count;
    }

    pub(crate) fn add_df(&mut self, t: NodeTypeId, k: KeywordId, count: u64) {
        let slot = self.df.entry((t, k)).or_insert(0);
        if *slot == 0 && count > 0 {
            self.distinct_keywords[t.0 as usize] += 1;
        }
        *slot += count;
    }

    /// `N_T`: number of nodes of this type.
    pub fn n_nodes(&self, t: NodeTypeId) -> u64 {
        self.n_nodes.get(t.0 as usize).copied().unwrap_or(0)
    }

    /// `G_T`: distinct keywords within subtrees of this type.
    pub fn distinct_keywords(&self, t: NodeTypeId) -> u64 {
        self.distinct_keywords
            .get(t.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// `tf(k, T)`.
    pub fn tf(&self, t: NodeTypeId, k: KeywordId) -> u64 {
        self.tf.get(&(t, k)).copied().unwrap_or(0)
    }

    /// `f^T_k` (XML document frequency, Definition 3.2).
    pub fn df(&self, t: NodeTypeId, k: KeywordId) -> u64 {
        self.df.get(&(t, k)).copied().unwrap_or(0)
    }

    /// Number of (type, keyword) entries — the "frequent table" size.
    pub fn df_entries(&self) -> usize {
        self.df.len()
    }

    /// Iterates all `(T, k) -> f^T_k` entries (persistence).
    pub fn iter_df(&self) -> impl Iterator<Item = (NodeTypeId, KeywordId, u64)> + '_ {
        self.df.iter().map(|(&(t, k), &v)| (t, k, v))
    }

    /// Iterates all `(T, k) -> tf(k,T)` entries (persistence).
    pub fn iter_tf(&self) -> impl Iterator<Item = (NodeTypeId, KeywordId, u64)> + '_ {
        self.tf.iter().map(|(&(t, k), &v)| (t, k, v))
    }

    pub(crate) fn set_from_parts(
        n_nodes: Vec<u64>,
        distinct_keywords: Vec<u64>,
        tf: HashMap<(NodeTypeId, KeywordId), u64>,
        df: HashMap<(NodeTypeId, KeywordId), u64>,
    ) -> Self {
        TypeStats {
            n_nodes,
            distinct_keywords,
            tf,
            df,
        }
    }

    /// Moves `N_T` by `count` nodes.
    pub(crate) fn adjust_n_nodes(&mut self, t: NodeTypeId, count: u64, sign: Sign) -> Result<()> {
        let slot = &mut self.n_nodes[t.0 as usize];
        *slot = sign.apply(*slot, count)?;
        Ok(())
    }

    /// Moves `tf(k, T)` by `tf` and `f^T_k` by `df`. An entry that
    /// reaches 0 is removed, and `G_T` follows `f^T_k` across 0, so the
    /// tables stay what a build of the changed document counts.
    pub(crate) fn adjust(
        &mut self,
        t: NodeTypeId,
        k: KeywordId,
        tf: u64,
        df: u64,
        sign: Sign,
    ) -> Result<()> {
        let before = self.df(t, k);
        for (table, by) in [(&mut self.tf, tf), (&mut self.df, df)] {
            if by == 0 {
                continue;
            }
            let slot = table.entry((t, k)).or_insert(0);
            *slot = sign.apply(*slot, by)?;
            if *slot == 0 {
                table.remove(&(t, k));
            }
        }
        let after = self.df(t, k);
        let g = &mut self.distinct_keywords[t.0 as usize];
        match (before, after) {
            (0, 1..) => *g = Sign::Plus.apply(*g, 1)?,
            (1.., 0) => *g = Sign::Minus.apply(*g, 1)?,
            _ => {}
        }
        Ok(())
    }

    /// Sizes `N_T` and `G_T` for `num_types` types. A type given up must
    /// have no node and no keyword left.
    pub(crate) fn set_type_count(&mut self, num_types: usize) -> Result<()> {
        for v in [&mut self.n_nodes, &mut self.distinct_keywords] {
            if v.iter().skip(num_types).any(|&x| x != 0) {
                return Err(KvError::corrupt(
                    "the statistics disagree with the document: a node type given up still counts",
                ));
            }
            v.resize(num_types, 0);
        }
        Ok(())
    }

    pub(crate) fn n_nodes_vec(&self) -> &[u64] {
        &self.n_nodes
    }

    pub(crate) fn distinct_keywords_vec(&self) -> &[u64] {
        &self.distinct_keywords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_table_interns_and_resolves() {
        let mut t = KeywordTable::new();
        let a = t.intern("xml");
        let b = t.intern("database");
        assert_eq!(t.intern("xml"), a);
        assert_ne!(a, b);
        assert_eq!(t.resolve(b), "database");
        assert_eq!(t.get("nope"), None);
        assert_eq!(t.len(), 2);
        let all: Vec<&str> = t.iter().map(|(_, s)| s).collect();
        assert_eq!(all, ["xml", "database"]);
    }

    #[test]
    fn type_stats_accumulate() {
        let mut s = TypeStats::new(2);
        let t0 = NodeTypeId(0);
        let t1 = NodeTypeId(1);
        let k = KeywordId(7);
        s.bump_n_nodes(t0);
        s.bump_n_nodes(t0);
        s.bump_n_nodes(t1);
        assert_eq!(s.n_nodes(t0), 2);
        assert_eq!(s.n_nodes(t1), 1);

        s.add_tf(t0, k, 3);
        s.add_tf(t0, k, 2);
        assert_eq!(s.tf(t0, k), 5);
        assert_eq!(s.tf(t1, k), 0);

        s.add_df(t0, k, 1);
        s.add_df(t0, k, 1);
        assert_eq!(s.df(t0, k), 2);
        assert_eq!(s.distinct_keywords(t0), 1); // counted once
        assert_eq!(s.distinct_keywords(t1), 0);
        assert_eq!(s.df_entries(), 1);
    }

    #[test]
    fn missing_entries_default_to_zero() {
        let s = TypeStats::new(1);
        assert_eq!(s.n_nodes(NodeTypeId(5)), 0);
        assert_eq!(s.tf(NodeTypeId(0), KeywordId(0)), 0);
        assert_eq!(s.df(NodeTypeId(0), KeywordId(0)), 0);
    }
}
