//! Shared test/document fixtures.
//!
//! [`figure1`] reconstructs the bibliographic document of the paper's
//! Figure 1. One representational note: the paper assigns text *values*
//! their own Dewey components (a title's text sits at e.g. `0.0.1.0.0.0`),
//! while our model attaches text to its enclosing element, so every label
//! here is one level shallower than the paper's trace labels. LCA/SLCA
//! semantics are unaffected (see DESIGN.md).
//!
//! The fixture preserves all behaviours the paper derives from Figure 1:
//!
//! * `{database, publication}` has no match for `publication`; the data
//!   uses `proceedings` / `article` / `inproceedings` instead (Example 1);
//! * two `inproceedings` nodes contain "XML" (`f^inproceedings_XML = 2`);
//! * `{xml, john, 2003}` is only covered jointly by the document root
//!   (motivating query Q4);
//! * `hobby` is the last child of the second author, so a query matching
//!   it has its SLCA at `hobby:0.1.2` (Table I, Q0/RQ0);
//! * "on line data base"-style keyword fragments are scattered so the
//!   Example 4 / Example 5 refinement traces have analogues.

use crate::tree::{Document, DocumentBuilder};

/// Builds the Figure 1 bibliography document.
pub fn figure1() -> Document {
    let mut b = DocumentBuilder::new();
    b.open_element("bib");

    // author:0.0 — Mike Franklin
    b.open_element("author");
    b.leaf("name", "Mike Franklin");
    b.leaf("interest", "data stream management");
    b.open_element("publications");
    {
        b.open_element("inproceedings"); // 0.0.2.0
        b.leaf("title", "base line XML query processing");
        b.leaf("year", "2000");
        b.leaf("booktitle", "SIGMOD");
        b.close_element();

        b.open_element("inproceedings"); // 0.0.2.1
        b.leaf("title", "online database tuning");
        b.leaf("year", "2003");
        b.leaf("booktitle", "VLDB");
        b.close_element();

        b.open_element("article"); // 0.0.2.2
        b.leaf("title", "adaptive query optimization in database systems");
        b.leaf("year", "2003");
        b.leaf("journal", "TODS");
        b.close_element();
    }
    b.close_element(); // publications
    b.close_element(); // author 0.0

    // author:0.1 — John Smith
    b.open_element("author");
    b.leaf("name", "John Smith");
    b.open_element("proceedings"); // synonym container, Example 1
    {
        b.open_element("inproceedings"); // 0.1.1.0
        b.leaf("title", "XML keyword search");
        b.leaf("year", "2005");
        b.leaf("booktitle", "ICDE");
        b.close_element();

        b.open_element("article"); // 0.1.1.1
        b.leaf("title", "data base management systems");
        b.leaf("year", "2004");
        b.leaf("journal", "VLDB Journal");
        b.close_element();
    }
    b.close_element(); // proceedings
    b.leaf("hobby", "fishing"); // 0.1.2
    b.close_element(); // author 0.1

    b.close_element(); // bib
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    #[test]
    fn figure1_shape_matches_paper_constraints() {
        let doc = figure1();
        // hobby is at 0.1.2
        let hobby = doc.node_by_dewey(&"0.1.2".parse().unwrap()).unwrap();
        assert_eq!(doc.tag_name(hobby), "hobby");
        // exactly two inproceedings subtrees contain "XML"
        let n_inproc_with_xml = doc
            .nodes()
            .filter(|(id, _)| doc.tag_name(*id) == "inproceedings")
            .filter(|(id, _)| {
                doc.descendants_or_self(*id)
                    .any(|d| tokenize(&doc.node(d).text).iter().any(|t| t == "xml"))
            })
            .count();
        assert_eq!(n_inproc_with_xml, 2);
        // "publication" never appears as a token anywhere
        let has_publication = doc.nodes().any(|(id, n)| {
            tokenize(doc.tag_name(id)).contains(&"publication".to_string())
                || tokenize(&n.text).contains(&"publication".to_string())
        });
        assert!(!has_publication);
    }

    #[test]
    fn figure1_q4_only_joint_cover_is_root() {
        // {xml, john, 2003}: john appears only under author 0.1, 2003 only
        // under author 0.0, so the root is the only node covering all.
        let doc = figure1();
        let john_holders: Vec<_> = doc
            .nodes()
            .filter(|(_, n)| tokenize(&n.text).contains(&"john".to_string()))
            .map(|(_, n)| n.dewey.clone())
            .collect();
        let y2003_holders: Vec<_> = doc
            .nodes()
            .filter(|(_, n)| tokenize(&n.text).contains(&"2003".to_string()))
            .map(|(_, n)| n.dewey.clone())
            .collect();
        assert!(!john_holders.is_empty() && !y2003_holders.is_empty());
        for j in &john_holders {
            for y in &y2003_holders {
                assert_eq!(j.common_prefix_len(y), 1);
            }
        }
    }
}
