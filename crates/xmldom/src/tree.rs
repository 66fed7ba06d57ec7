//! The in-memory XML document tree.
//!
//! Documents are stored as an arena of element nodes in document order.
//! Each node records its tag symbol, Dewey label, node type (interned
//! prefix path, Definition 3.1), parent/children links, attributes and the
//! text content placed directly under it.

use crate::dewey::Dewey;
use crate::intern::{NodeTypeId, NodeTypeTable, Symbol, SymbolTable};

/// Arena index of a node within its [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// An element node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Interned tag name.
    pub tag: Symbol,
    /// Dewey label; unique within the document.
    pub dewey: Dewey,
    /// Interned prefix path (node type).
    pub node_type: NodeTypeId,
    /// Parent node, `None` for the root element.
    pub parent: Option<NodeId>,
    /// Child elements in document order.
    pub children: Vec<NodeId>,
    /// Attributes in source order.
    pub attributes: Vec<(String, String)>,
    /// Concatenated character data directly under this element (child
    /// element text is *not* included; it lives on the child).
    pub text: String,
}

/// A parsed XML document.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    symbols: SymbolTable,
    node_types: NodeTypeTable,
}

impl Document {
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        symbols: SymbolTable,
        node_types: NodeTypeTable,
    ) -> Self {
        Document {
            nodes,
            symbols,
            node_types,
        }
    }

    /// The root element. Every well-formed document has one.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of element nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in document order (arena order == pre-order).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    pub fn node_types(&self) -> &NodeTypeTable {
        &self.node_types
    }

    /// Tag name of a node.
    pub fn tag_name(&self, id: NodeId) -> &str {
        self.symbols.resolve(self.node(id).tag)
    }

    /// Finds the node carrying a given Dewey label.
    ///
    /// [`DocumentBuilder`] — the only way a `Document` is made — numbers
    /// children densely, so a label's components are the child ordinals
    /// on the path from the root: the lookup follows `children[ordinal]`
    /// down, one step per component. The node reached is returned only if
    /// its own label equals the target, so a label that names nothing
    /// yields `None`, never a neighbouring node.
    pub fn node_by_dewey(&self, dewey: &Dewey) -> Option<NodeId> {
        let mut id = self.root();
        let mut node = self.nodes.first()?;
        for &ordinal in dewey.components().get(1..)? {
            id = *node.children.get(ordinal as usize)?;
            node = self.nodes.get(id.0 as usize)?;
        }
        (node.dewey == *dewey).then_some(id)
    }

    /// Pre-order subtree traversal rooted at `id` (inclusive).
    pub fn descendants_or_self(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let root_dewey = self.node(id).dewey.clone();
        let start = id.0 as usize;
        self.nodes[start..]
            .iter()
            .enumerate()
            .take_while(move |(_, n)| root_dewey.is_ancestor_or_self_of(&n.dewey))
            .map(move |(off, _)| NodeId((start + off) as u32))
    }

    /// Renders the subtree rooted at `id` back to XML text.
    pub fn subtree_to_xml(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.write_node(id, &mut out, 0);
        out
    }

    /// Renders the whole document to XML text (no declaration).
    pub fn to_xml(&self) -> String {
        self.subtree_to_xml(self.root())
    }

    fn write_node(&self, id: NodeId, out: &mut String, indent: usize) {
        let n = self.node(id);
        let tag = self.symbols.resolve(n.tag);
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
            self.write_node(c, out, indent + 1);
        }
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str("</");
        out.push_str(tag);
        out.push_str(">\n");
    }
}

/// Escapes `&`, `<`, `>`, `"` for XML output.
pub fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
}

/// Incremental builder used by the parser and by the data generators.
#[derive(Debug)]
pub struct DocumentBuilder {
    nodes: Vec<Node>,
    symbols: SymbolTable,
    node_types: NodeTypeTable,
    /// Stack of open elements (arena ids).
    open: Vec<NodeId>,
    /// Prefix path of the currently open element chain.
    path: Vec<Symbol>,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    pub fn new() -> Self {
        DocumentBuilder {
            nodes: Vec::new(),
            symbols: SymbolTable::new(),
            node_types: NodeTypeTable::new(),
            open: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Opens a child element under the current element (or the root if
    /// nothing is open yet; only one root is allowed).
    pub fn open_element(&mut self, tag: &str) -> NodeId {
        let sym = self.symbols.intern(tag);
        self.path.push(sym);
        let node_type = self.node_types.intern(&self.path);
        let (dewey, parent) = match self.open.last() {
            None => {
                assert!(self.nodes.is_empty(), "document already has a root element");
                (Dewey::root(), None)
            }
            Some(&p) => {
                let parent_node = &self.nodes[p.0 as usize];
                let ordinal = parent_node.children.len() as u32;
                (parent_node.dewey.child(ordinal), Some(p))
            }
        };
        let id = NodeId(self.nodes.len() as u32);
        if let Some(p) = parent {
            self.nodes[p.0 as usize].children.push(id);
        }
        self.nodes.push(Node {
            tag: sym,
            dewey,
            node_type,
            parent,
            children: Vec::new(),
            attributes: Vec::new(),
            text: String::new(),
        });
        self.open.push(id);
        id
    }

    /// Adds an attribute to the currently open element.
    pub fn attribute(&mut self, name: &str, value: &str) {
        let id = *self.open.last().expect("no open element for attribute");
        self.nodes[id.0 as usize]
            .attributes
            .push((name.to_string(), value.to_string()));
    }

    /// Adds an attribute to the currently open element, taking ownership
    /// of already-allocated strings (the streaming merge path).
    pub fn attribute_owned(&mut self, name: String, value: String) {
        let id = *self.open.last().expect("no open element for attribute");
        self.nodes[id.0 as usize].attributes.push((name, value));
    }

    /// Appends character data to the currently open element.
    pub fn text(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        let id = *self.open.last().expect("no open element for text");
        let node = &mut self.nodes[id.0 as usize];
        if !node.text.is_empty() {
            node.text.push(' ');
        }
        node.text.push_str(text);
    }

    /// Like [`DocumentBuilder::text`], but moves the string into the
    /// element when it is the first (usually only) segment.
    pub fn text_owned(&mut self, text: String) {
        if text.is_empty() {
            return;
        }
        let id = *self.open.last().expect("no open element for text");
        let node = &mut self.nodes[id.0 as usize];
        if node.text.is_empty() {
            node.text = text;
        } else {
            node.text.push(' ');
            node.text.push_str(&text);
        }
    }

    /// Closes the currently open element.
    pub fn close_element(&mut self) {
        self.open.pop().expect("close without open element");
        self.path.pop();
    }

    /// Read access to an already-built node. Streaming index builders
    /// replay events through the builder and need the Dewey label and
    /// node type the builder just assigned.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Convenience: a leaf element with text content.
    pub fn leaf(&mut self, tag: &str, text: &str) -> NodeId {
        let id = self.open_element(tag);
        self.text(text);
        self.close_element();
        id
    }

    /// Finishes the build. Panics if elements remain open or no root was
    /// ever produced; the parser maps these to proper errors beforehand.
    pub fn finish(self) -> Document {
        assert!(self.open.is_empty(), "unclosed elements at finish");
        assert!(!self.nodes.is_empty(), "empty document");
        Document::from_parts(self.nodes, self.symbols, self.node_types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the bibliography example of the paper's Figure 1, trimmed.
    fn small_doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.open_element("bib");
        {
            b.open_element("author");
            b.leaf("name", "Mike Franklin");
            b.open_element("publications");
            {
                b.open_element("inproceedings");
                b.leaf("title", "online database tuning");
                b.leaf("year", "2003");
                b.close_element();
            }
            b.close_element();
            b.close_element();
        }
        {
            b.open_element("author");
            b.leaf("name", "John Doe");
            b.leaf("hobby", "fishing");
            b.close_element();
        }
        b.close_element();
        b.finish()
    }

    #[test]
    fn dewey_labels_follow_structure() {
        let doc = small_doc();
        let root = doc.root();
        assert_eq!(doc.node(root).dewey.to_string(), "0");
        assert_eq!(doc.tag_name(root), "bib");
        let a0 = doc.node(root).children[0];
        assert_eq!(doc.node(a0).dewey.to_string(), "0.0");
        let a1 = doc.node(root).children[1];
        assert_eq!(doc.node(a1).dewey.to_string(), "0.1");
        let name0 = doc.node(a0).children[0];
        assert_eq!(doc.node(name0).dewey.to_string(), "0.0.0");
        assert_eq!(doc.node(name0).text, "Mike Franklin");
    }

    #[test]
    fn arena_order_is_document_order() {
        let doc = small_doc();
        let labels: Vec<Dewey> = doc.nodes().map(|(_, n)| n.dewey.clone()).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn node_by_dewey_finds_every_node() {
        let doc = small_doc();
        for (id, n) in doc.nodes() {
            assert_eq!(doc.node_by_dewey(&n.dewey), Some(id));
        }
        assert_eq!(doc.node_by_dewey(&"0.9.9".parse().unwrap()), None);
    }

    #[test]
    fn descendants_or_self_covers_subtree_only() {
        let doc = small_doc();
        let a0 = doc.node(doc.root()).children[0];
        let subtree: Vec<String> = doc
            .descendants_or_self(a0)
            .map(|id| doc.node(id).dewey.to_string())
            .collect();
        assert_eq!(
            subtree,
            ["0.0", "0.0.0", "0.0.1", "0.0.1.0", "0.0.1.0.0", "0.0.1.0.1"]
        );
    }

    #[test]
    fn node_types_distinguish_paths() {
        let doc = small_doc();
        let types = doc.node_types();
        let syms = doc.symbols();
        let a0 = doc.node(doc.root()).children[0];
        let a1 = doc.node(doc.root()).children[1];
        assert_eq!(doc.node(a0).node_type, doc.node(a1).node_type);
        assert_eq!(types.display(doc.node(a0).node_type, syms), "bib/author");
    }

    #[test]
    fn xml_rendering_mentions_all_tags() {
        let doc = small_doc();
        let xml = doc.to_xml();
        for tag in ["bib", "author", "publications", "inproceedings", "hobby"] {
            assert!(xml.contains(&format!("<{tag}")), "missing {tag} in {xml}");
        }
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn second_root_panics() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.close_element();
        b.open_element("b");
    }
}
