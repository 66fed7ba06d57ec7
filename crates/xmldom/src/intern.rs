//! String interning for tag names and node types (prefix paths).
//!
//! Both the document tree and every statistics table key off tag names and
//! node types, so we intern them once per document: a [`SymbolTable`] maps
//! tag strings to dense [`Symbol`] ids, and a [`NodeTypeTable`] maps prefix
//! paths (sequences of symbols, Definition 3.1 of the paper) to dense
//! [`NodeTypeId`]s.

use std::collections::HashMap;

/// Dense id of an interned tag name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// Dense id of an interned node type (root-to-node prefix path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeTypeId(pub u32);

/// Interner for tag names.
#[derive(Debug, Default, Clone)]
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
}

/// A node type: the tag-name path from the document root down to a node
/// (Definition 3.1). Two nodes share a type iff they share this path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeTypePath(pub Vec<Symbol>);

/// Interner and metadata store for node types.
#[derive(Debug, Default, Clone)]
pub struct NodeTypeTable {
    by_path: HashMap<NodeTypePath, NodeTypeId>,
    paths: Vec<NodeTypePath>,
}

impl NodeTypeTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a prefix path.
    pub fn intern(&mut self, path: &[Symbol]) -> NodeTypeId {
        let key = NodeTypePath(path.to_vec());
        if let Some(&id) = self.by_path.get(&key) {
            return id;
        }
        let id = NodeTypeId(self.paths.len() as u32);
        self.paths.push(key.clone());
        self.by_path.insert(key, id);
        id
    }

    pub fn get(&self, path: &[Symbol]) -> Option<NodeTypeId> {
        self.by_path.get(&NodeTypePath(path.to_vec())).copied()
    }

    /// The full prefix path of a node type.
    pub fn path(&self, id: NodeTypeId) -> &[Symbol] {
        &self.paths[id.0 as usize].0
    }

    /// The tag name (last path component) of a node type.
    pub fn tag(&self, id: NodeTypeId) -> Symbol {
        *self.paths[id.0 as usize]
            .0
            .last()
            .expect("node type paths are never empty")
    }

    /// Depth of nodes of this type; the root type has depth 0.
    pub fn depth(&self, id: NodeTypeId) -> usize {
        self.paths[id.0 as usize].0.len() - 1
    }

    /// Iterate all interned node types.
    pub fn iter(&self) -> impl Iterator<Item = NodeTypeId> + '_ {
        (0..self.paths.len() as u32).map(NodeTypeId)
    }

    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Renders a node type as `a/b/c` for diagnostics.
    pub fn display(&self, id: NodeTypeId, symbols: &SymbolTable) -> String {
        self.path(id)
            .iter()
            .map(|&s| symbols.resolve(s))
            .collect::<Vec<_>>()
            .join("/")
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
        let t_root = types.intern(&[bib]);
        let t_author = types.intern(&[bib, author]);
        let t_name = types.intern(&[bib, author, name]);
        assert_eq!(types.intern(&[bib, author]), t_author);

        assert_eq!(types.depth(t_root), 0);
        assert_eq!(types.depth(t_name), 2);
        assert_eq!(types.tag(t_author), author);
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
        let t1 = types.intern(&[a, title]);
        let t2 = types.intern(&[b, title]);
        assert_ne!(t1, t2);
        assert_eq!(types.tag(t1), types.tag(t2));
    }
}
