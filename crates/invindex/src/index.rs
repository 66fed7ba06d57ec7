//! Index construction (§VII of the paper).
//!
//! A single parse-order pass assigns postings and accumulates `N_T`,
//! `tf(k,T)`; a second pass over each posting list derives `f^T_k` and
//! `G_T` using the shared-prefix structure of document-ordered Dewey
//! labels (each new ancestor of a posting appears exactly once across the
//! list, so distinct-ancestor counting is linear in `Σ|L_k| · depth`).

use crate::postings::{Posting, PostingList};
use crate::stats::{KeywordId, KeywordTable, TypeStats};
use std::collections::HashMap;
use std::sync::Arc;
use xmldom::{tokenize, Document};

/// The complete in-memory index over one document: keyword inverted lists
/// plus the frequency tables the ranking model consumes.
///
/// This is the build product, never a query-time reader: every engine
/// answers through [`crate::KvBackedIndex`], which takes it over with
/// [`crate::KvBackedIndex::from_built`] or reads it back from a store
/// [`crate::persist::persist`] wrote. Its lists are the differential
/// oracle the stored path is checked against.
pub struct Index {
    doc: Arc<Document>,
    vocab: KeywordTable,
    lists: Vec<PostingList>,
    stats: TypeStats,
}

impl Index {
    /// Builds the index over `doc`.
    pub fn build(doc: Arc<Document>) -> Self {
        let num_types = doc.node_types().len();
        let mut vocab = KeywordTable::new();
        let mut lists: Vec<PostingList> = Vec::new();
        let mut stats = TypeStats::new(num_types);

        // Pass 1: postings, N_T and tf(k,T).
        let mut counts: HashMap<KeywordId, u64> = HashMap::new();
        for (id, node) in doc.nodes() {
            stats.bump_n_nodes(node.node_type);

            counts.clear();
            for tok in tokenize(doc.tag_name(id)) {
                let k = vocab.intern(&tok);
                *counts.entry(k).or_insert(0) += 1;
            }
            for tok in tokenize(&node.text) {
                let k = vocab.intern(&tok);
                *counts.entry(k).or_insert(0) += 1;
            }
            // attribute names and values are value terms too (§III)
            for (name, value) in &node.attributes {
                for tok in tokenize(name).into_iter().chain(tokenize(value)) {
                    let k = vocab.intern(&tok);
                    *counts.entry(k).or_insert(0) += 1;
                }
            }
            if counts.is_empty() {
                continue;
            }

            let type_path = doc.node_types().path(node.node_type).to_vec();
            for (&k, &c) in counts.iter() {
                // Posting for the node itself.
                while lists.len() <= k.0 as usize {
                    lists.push(PostingList::new());
                }
                lists[k.0 as usize].push(Posting::new(node.dewey.clone(), node.node_type));
                // tf accumulates at every ancestor-or-self type.
                for m in 1..=type_path.len() {
                    let t = doc
                        .node_types()
                        .get(&type_path[..m])
                        .expect("every prefix of an interned path is interned");
                    stats.add_tf(t, k, c);
                }
            }
        }
        // Postings were appended per-node in arena (document) order, but a
        // node may emit several keywords; each list individually is pushed
        // in document order, so the invariant holds.

        // Pass 2: f^T_k and G_T via distinct-ancestor counting.
        for (kid, list) in lists.iter().enumerate() {
            let k = KeywordId(kid as u32);
            let mut prev: Option<&Posting> = None;
            for p in list.iter() {
                let shared = prev
                    .map(|q| q.dewey.common_prefix_len(&p.dewey))
                    .unwrap_or(0);
                let path = doc.node_types().path(p.node_type);
                for m in (shared + 1)..=p.dewey.len() {
                    let t = doc
                        .node_types()
                        .get(&path[..m])
                        .expect("every prefix of an interned path is interned");
                    stats.add_df(t, k, 1);
                }
                prev = Some(p);
            }
        }

        Index::from_parts(doc, vocab, lists, stats)
    }

    pub fn document(&self) -> &Arc<Document> {
        &self.doc
    }

    pub fn vocabulary(&self) -> &KeywordTable {
        &self.vocab
    }

    pub fn stats(&self) -> &TypeStats {
        &self.stats
    }

    /// The inverted list of a keyword string, if the keyword occurs at all.
    pub fn list(&self, keyword: &str) -> Option<&PostingList> {
        self.vocab
            .get(keyword)
            .and_then(|k| self.lists.get(k.0 as usize))
    }

    pub(crate) fn from_parts(
        doc: Arc<Document>,
        vocab: KeywordTable,
        lists: Vec<PostingList>,
        stats: TypeStats,
    ) -> Self {
        Index {
            doc,
            vocab,
            lists,
            stats,
        }
    }

    /// The lists, indexed by keyword id.
    pub(crate) fn lists(&self) -> &[PostingList] {
        &self.lists
    }

    /// Everything the index holds, for a reader that takes it over.
    pub(crate) fn into_parts(self) -> (Arc<Document>, KeywordTable, Vec<PostingList>, TypeStats) {
        (self.doc, self.vocab, self.lists, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::typed_ancestors_in;
    use crate::KvBackedIndex;
    use xmldom::fixtures::figure1;
    use xmldom::NodeTypeId;

    fn fig1_index() -> Index {
        Index::build(Arc::new(figure1()))
    }

    fn type_by_display(idx: &Index, display: &str) -> NodeTypeId {
        let doc = idx.document();
        doc.node_types()
            .iter()
            .find(|&t| doc.node_types().display(t, doc.symbols()) == display)
            .unwrap_or_else(|| panic!("no node type {display}"))
    }

    #[test]
    fn inverted_lists_are_document_ordered_and_complete() {
        let idx = fig1_index();
        let xml = idx.list("xml").expect("xml occurs");
        let labels: Vec<String> = xml.iter().map(|p| p.dewey.to_string()).collect();
        // titles "base line XML query processing" (0.0.2.0.0) and
        // "XML keyword search" (0.1.1.0.0)
        assert_eq!(labels, ["0.0.2.0.0", "0.1.1.0.0"]);
        assert!(idx.list("publication").is_none());
        assert!(idx.list("database").is_some());
        assert!(idx.list("hobby").is_some()); // tag names are keywords too
    }

    #[test]
    fn xml_df_matches_paper_example() {
        // Paper, Definition 3.2 example: f^inproceedings_XML = 2.
        let idx = fig1_index();
        let k = idx.vocabulary().get("xml").unwrap();
        let t1 = type_by_display(&idx, "bib/author/publications/inproceedings");
        let t2 = type_by_display(&idx, "bib/author/proceedings/inproceedings");
        assert_eq!(idx.stats().df(t1, k) + idx.stats().df(t2, k), 2);
    }

    #[test]
    fn author_df_counts_subtree_containment() {
        let idx = fig1_index();
        let author = type_by_display(&idx, "bib/author");
        let s = idx.stats();
        let k_xml = idx.vocabulary().get("xml").unwrap();
        let k_john = idx.vocabulary().get("john").unwrap();
        let k_2003 = idx.vocabulary().get("2003").unwrap();
        assert_eq!(s.n_nodes(author), 2);
        assert_eq!(s.df(author, k_xml), 2); // both authors have xml somewhere
        assert_eq!(s.df(author, k_john), 1);
        assert_eq!(s.df(author, k_2003), 1); // only Mike's pubs have 2003
    }

    #[test]
    fn tf_counts_multiplicity_through_ancestors() {
        let idx = fig1_index();
        let s = idx.stats();
        let root_t = {
            let doc = idx.document();
            doc.node(doc.root()).node_type
        };
        let k_2003 = idx.vocabulary().get("2003").unwrap();
        // "2003" occurs twice (two year leaves under Mike).
        assert_eq!(s.tf(root_t, k_2003), 2);
        let author = type_by_display(&idx, "bib/author");
        assert_eq!(s.tf(author, k_2003), 2);
        let k_database = idx.vocabulary().get("database").unwrap();
        // "database" occurs in two titles under author 0.0 only.
        assert_eq!(s.tf(author, k_database), 2);
    }

    #[test]
    fn distinct_keywords_counts_g_t() {
        let idx = fig1_index();
        let s = idx.stats();
        let hobby_t = type_by_display(&idx, "bib/author/hobby");
        // subtree of hobby: tag "hobby" + text "fishing"
        assert_eq!(s.distinct_keywords(hobby_t), 2);
    }

    #[test]
    fn typed_ancestors_lists_containing_nodes() {
        let idx = fig1_index();
        let author = type_by_display(&idx, "bib/author");
        let xml = idx.list("xml").unwrap();
        let ancs: Vec<String> = typed_ancestors_in(idx.document(), xml.as_slice(), author)
            .iter()
            .map(|d| d.to_string())
            .collect();
        assert_eq!(ancs, ["0.0", "0.1"]);
    }

    #[test]
    fn co_occurrence_counts_joint_containment() {
        let built = fig1_index();
        let author = type_by_display(&built, "bib/author");
        let idx = KvBackedIndex::from_built(built);
        let v = idx.vocabulary();
        let xml = v.get("xml").unwrap();
        let john = v.get("john").unwrap();
        let database = v.get("database").unwrap();
        // xml & john co-occur under author 0.1 only.
        assert_eq!(idx.co_occur(author, xml, john), 1);
        // symmetric
        assert_eq!(idx.co_occur(author, john, xml), 1);
        // xml & database co-occur under author 0.0 only (author 0.1 has
        // no "database" token).
        assert_eq!(idx.co_occur(author, xml, database), 1);
        // john & database never share an author subtree... author 0.1 has
        // "data base" as separate tokens, not "database".
        assert_eq!(idx.co_occur(author, john, database), 0);
    }

    #[test]
    fn empty_text_document_still_indexes_tags() {
        let mut b = xmldom::DocumentBuilder::new();
        b.open_element("root");
        b.open_element("child");
        b.close_element();
        b.close_element();
        let idx = Index::build(Arc::new(b.finish()));
        assert!(idx.list("root").is_some());
        assert!(idx.list("child").is_some());
        assert_eq!(idx.lists().iter().map(PostingList::len).sum::<usize>(), 2);
    }
}

#[cfg(test)]
mod attribute_tests {
    use super::*;

    #[test]
    fn attribute_names_and_values_are_indexed() {
        let doc = xmldom::parse_document(
            r#"<catalog><book isbn="12345" genre="fantasy dragons"><title>tale</title></book></catalog>"#,
        )
        .unwrap();
        let idx = Index::build(Arc::new(doc));
        for kw in [
            "isbn", "12345", "genre", "fantasy", "dragons", "tale", "book",
        ] {
            assert!(idx.list(kw).is_some(), "{kw} missing");
        }
        // the attribute posting points at the owning element
        let list = idx.list("fantasy").unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list.as_slice()[0].dewey.to_string(), "0.0");
    }
}
