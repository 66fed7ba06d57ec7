//! String interning for tag names and node types.
//!
//! Both the document tree and every statistics table key off tag names and
//! node types, so we intern them once per document: a [`SymbolTable`] maps
//! tag strings to dense [`Symbol`] ids, and a [`NodeTypeTable`] maps node
//! types (root-to-node tag paths, Definition 3.1 of the paper) to dense
//! [`NodeTypeId`]s, storing each path once, as a child of its parent path.

use std::collections::HashMap;

/// Dense id of an interned tag name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// Dense id of an interned node type (root-to-node tag path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeTypeId(pub u32);

/// Interner for tag names.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SymbolTable {
    by_name: HashMap<String, Symbol>,
    names: Vec<String>,
}

impl SymbolTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = Symbol(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), s);
        s
    }

    /// Looks up a symbol without interning.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// Resolves a symbol to its string. Panics on a foreign symbol.
    pub fn resolve(&self, s: Symbol) -> &str {
        &self.names[s.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Forgets every symbol from `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len.min(self.names.len())..) {
            self.by_name.remove(&name);
        }
    }
}

/// One interned node type: its parent type, its tag and its depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeType {
    parent: Option<NodeTypeId>,
    tag: Symbol,
    depth: u32,
}

/// Interner for node types, and the one place that answers type-ancestry
/// questions. A type is stored as (parent type, tag), so it costs the same
/// whatever its depth. A path is first seen exactly when its (parent type,
/// tag) pair is, so ids come in first-open order, parents before children.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NodeTypeTable {
    by_key: HashMap<(Option<NodeTypeId>, Symbol), NodeTypeId>,
    types: Vec<NodeType>,
}

impl NodeTypeTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the type of a `tag` element under a node of type `parent`
    /// (`None` for the root element).
    pub fn intern(&mut self, parent: Option<NodeTypeId>, tag: Symbol) -> NodeTypeId {
        let next = NodeTypeId(self.types.len() as u32);
        let id = *self.by_key.entry((parent, tag)).or_insert(next);
        if id == next {
            let depth = parent.map_or(0, |p| self.types[p.0 as usize].depth + 1);
            self.types.push(NodeType { parent, tag, depth });
        }
        id
    }

    /// The type of a node's parent; `None` for the root type.
    pub fn parent(&self, id: NodeTypeId) -> Option<NodeTypeId> {
        self.types[id.0 as usize].parent
    }

    /// The tag name (last path component) of a node type.
    pub fn tag(&self, id: NodeTypeId) -> Symbol {
        self.types[id.0 as usize].tag
    }

    /// Depth of nodes of this type; the root type has depth 0.
    pub fn depth(&self, id: NodeTypeId) -> usize {
        self.types[id.0 as usize].depth as usize
    }

    /// `id` and then each ancestor type up to the root type: one per
    /// level, deepest first.
    pub fn ancestors_or_self(&self, id: NodeTypeId) -> impl Iterator<Item = NodeTypeId> + '_ {
        std::iter::successors(Some(id), |&t| self.parent(t))
    }

    /// Iterate all interned node types, parents before their children.
    pub fn iter(&self) -> impl Iterator<Item = NodeTypeId> + '_ {
        (0..self.types.len() as u32).map(NodeTypeId)
    }

    pub fn len(&self) -> usize {
        self.types.len()
    }

    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Forgets every type from `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        for t in self.types.drain(len.min(self.types.len())..) {
            self.by_key.remove(&(t.parent, t.tag));
        }
    }

    /// Renders a node type as its tag path `a/b/c`, for diagnostics.
    pub fn display(&self, id: NodeTypeId, symbols: &SymbolTable) -> String {
        let mut tags: Vec<&str> = (self.ancestors_or_self(id))
            .map(|t| symbols.resolve(self.tag(t)))
            .collect();
        tags.reverse();
        tags.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("bib");
        let b = t.intern("author");
        let a2 = t.intern("bib");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "bib");
        assert_eq!(t.resolve(b), "author");
        assert_eq!(t.get("bib"), Some(a));
        assert_eq!(t.get("nope"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn node_type_interning_and_metadata() {
        let mut syms = SymbolTable::new();
        let bib = syms.intern("bib");
        let author = syms.intern("author");
        let name = syms.intern("name");

        let mut types = NodeTypeTable::new();
        let t_root = types.intern(None, bib);
        let t_author = types.intern(Some(t_root), author);
        let t_name = types.intern(Some(t_author), name);
        assert_eq!(types.intern(Some(t_root), author), t_author);

        assert_eq!(types.depth(t_root), 0);
        assert_eq!(types.depth(t_name), 2);
        assert_eq!(types.parent(t_name), Some(t_author));
        assert_eq!(types.parent(t_root), None);
        assert_eq!(types.tag(t_author), author);
        let up: Vec<_> = types.ancestors_or_self(t_name).collect();
        assert_eq!(up, [t_name, t_author, t_root]);
        assert_eq!(types.display(t_name, &syms), "bib/author/name");
        assert_eq!(types.len(), 3);
    }

    #[test]
    fn same_tag_different_paths_are_distinct_types() {
        let mut syms = SymbolTable::new();
        let a = syms.intern("a");
        let b = syms.intern("b");
        let title = syms.intern("title");
        let mut types = NodeTypeTable::new();
        let t_a = types.intern(None, a);
        let t_b = types.intern(Some(t_a), b);
        let t1 = types.intern(Some(t_a), title);
        let t2 = types.intern(Some(t_b), title);
        assert_ne!(t1, t2);
        assert_eq!(types.tag(t1), types.tag(t2));
    }
}
