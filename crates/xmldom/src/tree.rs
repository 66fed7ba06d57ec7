//! The in-memory XML document tree.
//!
//! Documents are stored as an arena of element nodes in document order.
//! Each node records its tag symbol, Dewey label, node type (interned
//! tag path, Definition 3.1), parent/children links, attributes and the
//! text content placed directly under it.

use crate::dewey::Dewey;
use crate::intern::{NodeTypeId, NodeTypeTable, Symbol, SymbolTable};

/// Arena index of a node within its [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// An element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Interned tag name.
    pub tag: Symbol,
    /// Dewey label; unique within the document.
    pub dewey: Dewey,
    /// Interned node type (root-to-node tag path).
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

/// A parsed XML document, or a window of one: its root and a run of the
/// root's children, as [`DocumentBuilder::resume`] builds it.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// down, one step per component. In a window
    /// ([`DocumentBuilder::resume`]) the root's children start at the
    /// first one's ordinal, and a label under a root child the window
    /// leaves out names nothing. The node reached is returned only if its
    /// own label equals the target, so a label that names nothing yields
    /// `None`, never a neighbouring node.
    pub fn node_by_dewey(&self, dewey: &Dewey) -> Option<NodeId> {
        let mut id = self.root();
        let mut node = self.nodes.first()?;
        let mut base = self.first_record();
        for &ordinal in dewey.components().get(1..)? {
            id = *node.children.get(ordinal.checked_sub(base)? as usize)?;
            node = self.nodes.get(id.0 as usize)?;
            base = 0;
        }
        (node.dewey == *dewey).then_some(id)
    }

    /// The ordinal of the root's first child here: 0, unless the document
    /// is a window that starts after some of them.
    fn first_record(&self) -> u32 {
        let first = self.nodes.first().and_then(|root| root.children.first());
        first.map_or(0, |c| {
            let label = self.node(*c).dewey.components();
            label.last().copied().unwrap_or(0)
        })
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

    /// Renders the subtree rooted at `id` back to XML text, one element a
    /// line. The walk keeps its path on the heap: any depth renders
    /// without recursion, in bytes linear in the subtree's size.
    pub fn subtree_to_xml(&self, id: NodeId) -> String {
        let mut out = String::new();
        // The elements written open, innermost last. Arena order is
        // pre-order, so a node's parent is on the stack when it comes up.
        let mut open: Vec<NodeId> = Vec::new();
        let close = |open: &mut Vec<NodeId>, out: &mut String| {
            if let Some(o) = open.pop() {
                indent(open.len(), out);
                self.end_tag_into(o, out);
            }
        };
        for id in self.descendants_or_self(id) {
            let n = self.node(id);
            while open.last().is_some_and(|&o| Some(o) != n.parent) {
                close(&mut open, &mut out);
            }
            indent(open.len(), &mut out);
            self.start_tag_into(id, &mut out);
            if n.children.is_empty() && n.text.is_empty() {
                out.push_str("/>\n");
            } else if n.children.is_empty() {
                out.push('>');
                escape_into(&n.text, &mut out);
                self.end_tag_into(id, &mut out);
            } else {
                out.push_str(">\n");
                if !n.text.is_empty() {
                    indent(open.len() + 1, &mut out);
                    escape_into(&n.text, &mut out);
                    out.push('\n');
                }
                open.push(id);
            }
        }
        while !open.is_empty() {
            close(&mut open, &mut out);
        }
        out
    }

    /// Renders the whole document to XML text (no declaration).
    pub fn to_xml(&self) -> String {
        self.subtree_to_xml(self.root())
    }

    /// Writes `id`'s start tag up to, not including, its closing `>` or
    /// `/>`: the tag name and its attributes, values escaped.
    pub fn start_tag_into(&self, id: NodeId, out: &mut String) {
        out.push('<');
        out.push_str(self.tag_name(id));
        for (k, v) in &self.node(id).attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
    }

    fn end_tag_into(&self, id: NodeId, out: &mut String) {
        out.push_str("</");
        out.push_str(self.tag_name(id));
        out.push_str(">\n");
    }
}

/// Levels [`Document::subtree_to_xml`] indents, two spaces each; deeper
/// elements line up with the last. The generated corpora nest at most six
/// levels, so they render exactly as with unbounded indentation.
const MAX_INDENT_LEVELS: usize = 16;

fn indent(level: usize, out: &mut String) {
    for _ in 0..level.min(MAX_INDENT_LEVELS) {
        out.push_str("  ");
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
    /// The ordinal of the first root child this build opens (non-zero
    /// only when resumed).
    first_record: u32,
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
            first_record: 0,
        }
    }

    /// Reopens a document at its root, as a build of its root and first
    /// `first` root children stands before the root closes, but holding
    /// none of those children: the elements opened next become root
    /// children `first`, `first + 1`, …, and what [`Self::finish`] returns
    /// is a *window* of the document, its root and those children. The
    /// root is type 0 of `node_types`, whose tag names it, and carries
    /// `attributes` and `text`. The tables are taken as they are: an
    /// element whose tag or type they hold gets that id, and any other
    /// the next one, as in a build of the whole document when the tables
    /// are the ones its first `first` root children leave. Panics if
    /// `node_types` holds no root type.
    pub fn resume(
        symbols: SymbolTable,
        node_types: NodeTypeTable,
        attributes: Vec<(String, String)>,
        text: String,
        first: u32,
    ) -> DocumentBuilder {
        let root_type = NodeTypeId(0);
        let root = Node {
            tag: node_types.tag(root_type),
            dewey: Dewey::root(),
            node_type: root_type,
            parent: None,
            children: Vec::new(),
            attributes,
            text,
        };
        DocumentBuilder {
            nodes: vec![root],
            symbols,
            node_types,
            open: vec![NodeId(0)],
            first_record: first,
        }
    }

    /// Opens a child element under the current element (or the root if
    /// nothing is open yet; only one root is allowed).
    pub fn open_element(&mut self, tag: &str) -> NodeId {
        let sym = self.symbols.intern(tag);
        let (dewey, parent, parent_type) = match self.open.last() {
            None => {
                assert!(self.nodes.is_empty(), "document already has a root element");
                (Dewey::root(), None, None)
            }
            Some(&p) => {
                let parent_node = &self.nodes[p.0 as usize];
                let base = if p.0 == 0 { self.first_record } else { 0 };
                let ordinal = base + parent_node.children.len() as u32;
                let dewey = parent_node.dewey.child(ordinal);
                (dewey, Some(p), Some(parent_node.node_type))
            }
        };
        let node_type = self.node_types.intern(parent_type, sym);
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

    /// Resumes `full` after its first `keep` root children, with the
    /// tables those children leave.
    fn resume_after(full: &Document, keep: u32, symbols: usize, types: usize) -> DocumentBuilder {
        let mut syms = full.symbols().clone();
        syms.truncate(symbols);
        let mut node_types = full.node_types().clone();
        node_types.truncate(types);
        let root = full.node(full.root());
        DocumentBuilder::resume(
            syms,
            node_types,
            root.attributes.clone(),
            root.text.clone(),
            keep,
        )
    }

    #[test]
    fn resume_continues_a_build_after_the_kept_children() {
        let full = small_doc();
        // The second author alone brings `hobby`, a new tag and type.
        let mut b = resume_after(&full, 1, 7, 7);
        b.open_element("author");
        b.leaf("name", "John Doe");
        b.leaf("hobby", "fishing");
        b.close_element();
        b.close_element();
        let window = b.finish();
        assert_eq!(window.symbols(), full.symbols());
        assert_eq!(window.node_types(), full.node_types());
        let second = full.node(full.root()).children[1];
        let last = window.node(window.root()).children[0];
        assert_eq!(window.subtree_to_xml(last), full.subtree_to_xml(second));
        for id in full.descendants_or_self(second) {
            let n = full.node(id);
            let at = window.node_by_dewey(&n.dewey).unwrap();
            assert_eq!(
                (&window.node(at).dewey, window.node(at).node_type),
                (&n.dewey, n.node_type)
            );
        }
        // The children the window leaves out name nothing in it.
        assert_eq!(window.node_by_dewey(&"0.0".parse().unwrap()), None);
        assert_eq!(window.node_by_dewey(&"0.0.1".parse().unwrap()), None);
        assert_eq!(window.node_by_dewey(&"0.2".parse().unwrap()), None);

        // Nothing kept under the root: its tag and type alone remain.
        let mut b = resume_after(&full, 0, 1, 1);
        b.leaf("hobby", "x");
        b.close_element();
        let doc = b.finish();
        assert_eq!((doc.symbols().len(), doc.node_types().len()), (2, 2));
        assert_eq!(doc.symbols().get("author"), None);
        assert_eq!(doc.to_xml(), "<bib>\n  <hobby>x</hobby>\n</bib>\n");

        // Resumed at 0 with the whole tables, a replay is the document.
        let mut b = resume_after(&full, 0, usize::MAX, usize::MAX);
        for &c in &full.node(full.root()).children {
            replay(&full, c, &mut b);
        }
        b.close_element();
        assert_eq!(b.finish(), full);
    }

    /// Opens `id`'s subtree of `doc` in `b`.
    fn replay(doc: &Document, id: NodeId, b: &mut DocumentBuilder) {
        let n = doc.node(id);
        b.open_element(doc.tag_name(id));
        for (k, v) in &n.attributes {
            b.attribute(k, v);
        }
        b.text(&n.text);
        for &c in &n.children {
            replay(doc, c, b);
        }
        b.close_element();
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
