//! Pins the bytes `Document::to_xml` writes for the generated corpora.
//! Those bytes are what `xrefine-cli index`, the servers and the
//! benchmark harness ingest, so the renderer's rewrite — an explicit
//! stack instead of recursion, indentation capped at a fixed depth —
//! must leave them exactly as the recursive renderer it replaced wrote
//! them. That renderer is kept below, verbatim, as the reference.

use datagen::{generate_baseball, generate_dblp, BaseballConfig, DblpConfig};
use xmldom::tree::escape_into;
use xmldom::{Document, NodeId};

/// The recursive renderer `to_xml` used to be: two spaces per level,
/// without bound.
fn reference_xml(doc: &Document) -> String {
    let mut out = String::new();
    write_node(doc, doc.root(), &mut out, 0);
    out
}

fn write_node(doc: &Document, id: NodeId, out: &mut String, indent: usize) {
    let n = doc.node(id);
    let tag = doc.tag_name(id);
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push('<');
    out.push_str(tag);
    for (k, v) in &n.attributes {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape_into(v, out);
        out.push('"');
    }
    if n.children.is_empty() && n.text.is_empty() {
        out.push_str("/>\n");
        return;
    }
    out.push('>');
    if n.children.is_empty() {
        escape_into(&n.text, out);
        out.push_str("</");
        out.push_str(tag);
        out.push_str(">\n");
        return;
    }
    out.push('\n');
    if !n.text.is_empty() {
        for _ in 0..=indent {
            out.push_str("  ");
        }
        escape_into(&n.text, out);
        out.push('\n');
    }
    for &c in &n.children {
        write_node(doc, c, out, indent + 1);
    }
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str("</");
    out.push_str(tag);
    out.push_str(">\n");
}

#[test]
fn generated_corpora_render_as_the_recursive_renderer_did() {
    for (name, doc) in [
        ("figure1", xmldom::fixtures::figure1()),
        ("dblp", generate_dblp(&DblpConfig::default())),
        ("baseball", generate_baseball(&BaseballConfig::default())),
    ] {
        let xml = doc.to_xml();
        assert!(xml == reference_xml(&doc), "{name}: rendering moved");
        let subtree = doc.node(doc.root()).children[0];
        let mut inner = String::new();
        write_node(&doc, subtree, &mut inner, 0);
        assert_eq!(doc.subtree_to_xml(subtree), inner, "{name}");
    }
}
