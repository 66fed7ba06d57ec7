//! Dewey labels for XML nodes.
//!
//! A Dewey label encodes the path from the document root to a node as a
//! sequence of child ordinals: the root element is `0`, its `i`-th child is
//! `0.i`, and so on (the scheme of Tatarinov et al. adopted by the paper in
//! §III). Dewey labels have two properties every algorithm in this workspace
//! relies on:
//!
//! 1. lexicographic order on the component sequence equals document order;
//! 2. the longest common prefix of two labels is the label of their lowest
//!    common ancestor (LCA).

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// A Dewey label: the component path from the root to a node.
///
/// The root element of a document carries the single-component label `0`.
///
/// There is no empty label, and so no `Default`: [`Dewey::is_empty`] is
/// constant and [`Dewey::depth`] subtracts one from the length.
///
/// ```compile_fail
/// let _ = xmldom::Dewey::default();
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Dewey {
    components: Vec<u32>,
}

impl Dewey {
    /// The label of the document root element (`0`).
    pub fn root() -> Self {
        Dewey {
            components: vec![0],
        }
    }

    /// Builds a label from raw components. Returns `None` for an empty
    /// component list, which does not denote any node.
    pub fn new(components: Vec<u32>) -> Option<Self> {
        if components.is_empty() {
            None
        } else {
            Some(Dewey { components })
        }
    }

    /// The label of this node's `ordinal`-th child.
    #[must_use]
    pub fn child(&self, ordinal: u32) -> Self {
        let mut components = Vec::with_capacity(self.components.len() + 1);
        components.extend_from_slice(&self.components);
        components.push(ordinal);
        Dewey { components }
    }

    /// The label of this node's parent, or `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        if self.components.len() <= 1 {
            None
        } else {
            Some(Dewey {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// Raw component access.
    #[inline]
    pub fn components(&self) -> &[u32] {
        &self.components
    }

    /// Number of components; the root has length 1.
    #[inline]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// A Dewey label always has at least one component.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Depth of the node, defined as `len() - 1` so the root is at depth 0.
    pub fn depth(&self) -> usize {
        self.components.len() - 1
    }

    /// True if `self` is an ancestor of `other` (proper prefix).
    #[inline]
    pub fn is_ancestor_of(&self, other: &Dewey) -> bool {
        self.components.len() < other.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }

    /// True if `self` is `other` or an ancestor of `other`.
    #[inline]
    pub fn is_ancestor_or_self_of(&self, other: &Dewey) -> bool {
        self == other || self.is_ancestor_of(other)
    }

    /// The ancestor-or-self label consisting of the first `len` components
    /// (`None` when `len` is 0 or exceeds the depth). The lowest common
    /// ancestor of two labels is `a.prefix(a.common_prefix_len(b))`: any
    /// two labels of one document share the root component, so that is
    /// never `None` there, and callers compare prefix lengths
    /// allocation-free before paying for the one label they keep.
    #[inline]
    pub fn prefix(&self, len: usize) -> Option<Dewey> {
        if len == 0 || len > self.components.len() {
            None
        } else {
            Dewey::new(self.components[..len].to_vec())
        }
    }

    /// Length of the longest common prefix with `other`.
    #[inline]
    pub fn common_prefix_len(&self, other: &Dewey) -> usize {
        self.components
            .iter()
            .zip(other.components.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The *document partition* identifier of this label (Definition 6.1):
    /// the two-component prefix `0.i` naming the subtree rooted at the
    /// `i`-th child of the document root. The root itself belongs to no
    /// partition.
    pub fn partition(&self) -> Option<Dewey> {
        if self.components.len() < 2 {
            None
        } else {
            Dewey::new(self.components[..2].to_vec())
        }
    }
}

impl PartialOrd for Dewey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dewey {
    /// Lexicographic component order == document (pre-)order, with the
    /// convention that an ancestor precedes its descendants.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.components.cmp(&other.components)
    }
}

impl fmt::Display for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dewey({self})")
    }
}

/// Error parsing a Dewey label from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeweyError(pub String);

impl fmt::Display for ParseDeweyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Dewey label: {}", self.0)
    }
}

impl std::error::Error for ParseDeweyError {}

impl FromStr for Dewey {
    type Err = ParseDeweyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseDeweyError(s.to_string()));
        }
        let mut components = Vec::new();
        for part in s.split('.') {
            let c: u32 = part.parse().map_err(|_| ParseDeweyError(s.to_string()))?;
            components.push(c);
        }
        Dewey::new(components).ok_or_else(|| ParseDeweyError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn root_label_is_zero() {
        assert_eq!(Dewey::root().to_string(), "0");
        assert_eq!(Dewey::root().depth(), 0);
    }

    #[test]
    fn child_and_parent_roundtrip() {
        let n = Dewey::root().child(1).child(2);
        assert_eq!(n.to_string(), "0.1.2");
        assert_eq!(n.parent().unwrap().to_string(), "0.1");
        assert_eq!(n.parent().unwrap().parent().unwrap(), Dewey::root());
        assert_eq!(Dewey::root().parent(), None);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["0", "0.0", "0.1.2.3", "0.0.1.0.0.0"] {
            assert_eq!(d(s).to_string(), s);
        }
        assert!("".parse::<Dewey>().is_err());
        assert!("0.x".parse::<Dewey>().is_err());
        assert!("0..1".parse::<Dewey>().is_err());
    }

    #[test]
    fn document_order_matches_component_order() {
        let mut labels = [d("0.1"), d("0"), d("0.0.1"), d("0.0"), d("0.0.2")];
        labels.sort();
        let strs: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
        assert_eq!(strs, ["0", "0.0", "0.0.1", "0.0.2", "0.1"]);
    }

    #[test]
    fn ancestor_tests() {
        assert!(d("0").is_ancestor_of(&d("0.1.2")));
        assert!(d("0.1").is_ancestor_of(&d("0.1.2")));
        assert!(!d("0.1.2").is_ancestor_of(&d("0.1.2")));
        assert!(!d("0.1").is_ancestor_of(&d("0.2.1")));
        assert!(d("0.1.2").is_ancestor_or_self_of(&d("0.1.2")));
        // component 1 vs component 10: prefix on strings would be wrong here
        assert!(!d("0.1").is_ancestor_of(&d("0.10")));
    }

    #[test]
    fn lca_is_longest_common_prefix() {
        let lca = |a: &str, b: &str| d(a).prefix(d(a).common_prefix_len(&d(b))).unwrap();
        assert_eq!(lca("0.0.1.0", "0.0.2"), d("0.0"));
        assert_eq!(lca("0.0", "0.0.2"), d("0.0"));
        assert_eq!(lca("0.1", "0.2"), d("0"));
        assert_eq!(lca("0.3", "0.3"), d("0.3"));
    }

    #[test]
    fn partition_is_two_component_prefix() {
        assert_eq!(d("0.1.2.3").partition().unwrap(), d("0.1"));
        assert_eq!(d("0.0").partition().unwrap(), d("0.0"));
        assert_eq!(d("0").partition(), None);
    }
}
