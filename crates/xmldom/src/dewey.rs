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
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Components a label holds without a heap allocation.
const INLINE: usize = 7;

/// A Dewey label: the component path from the root to a node.
///
/// The root element of a document carries the single-component label `0`.
///
/// There is no empty label, and so no `Default`: [`Dewey::is_empty`] is
/// constant and [`Dewey::depth`] subtracts one from the length.
///
/// A label of up to seven components is stored inline, in the value
/// itself; a longer one spills to a boxed slice. Seven is what fits: the
/// boxed slice (pointer and length) makes the value 8-aligned, seven
/// components take 28 bytes, and the variant tag and a one-byte length
/// round that up to exactly 32, so a [`Dewey`] is 32 bytes and a posting
/// (label plus node type) 40 — an eighth component would cost 8 more
/// bytes in every label. The bibliographic corpora this system indexes
/// label their postings with one to five components, so a decoded
/// posting, and the clone, prefix, parent, child and partition of a label
/// of that shape, allocate nothing. The representation is a function of
/// the content — every label of at most seven components is inline — and
/// equality, order and hashing are those of [`Dewey::components`].
///
/// ```compile_fail
/// let _ = xmldom::Dewey::default();
/// ```
#[derive(Clone)]
pub struct Dewey(Repr);

#[derive(Clone)]
enum Repr {
    /// `len` (`1..=INLINE`) components at the front of `comps`; the rest
    /// are zero.
    Inline { len: u8, comps: [u32; INLINE] },
    /// More than [`INLINE`] components.
    Heap(Box<[u32]>),
}

const _: () = assert!(std::mem::size_of::<Dewey>() == 32);

impl Dewey {
    /// The label of the document root element (`0`).
    pub fn root() -> Self {
        Dewey(Repr::Inline {
            len: 1,
            comps: [0; INLINE],
        })
    }

    /// Builds a label from raw components. Returns `None` for an empty
    /// component list, which does not denote any node.
    pub fn new(components: Vec<u32>) -> Option<Self> {
        if components.len() > INLINE {
            Some(Dewey(Repr::Heap(components.into_boxed_slice())))
        } else {
            Dewey::from_slice(&components)
        }
    }

    /// Builds a label from borrowed components, allocating only when
    /// there are more than seven. Returns `None` for an empty slice.
    pub fn from_slice(components: &[u32]) -> Option<Self> {
        let len = components.len();
        if len == 0 {
            return None;
        }
        if len > INLINE {
            return Some(Dewey(Repr::Heap(components.into())));
        }
        let mut comps = [0; INLINE];
        comps[..len].copy_from_slice(components);
        Some(Dewey(Repr::Inline {
            len: len as u8,
            comps,
        }))
    }

    /// Components a label holds inline, without a heap allocation: the
    /// width of [`Dewey::from_padded`]'s array.
    pub const INLINE: usize = INLINE;

    /// Builds a label from the first `len` components of an array padded
    /// to [`Dewey::INLINE`] — one fixed-size copy, for a decoder that
    /// keeps its working label that wide. What the padding holds is
    /// ignored. Returns `None` for a `len` of 0 or above
    /// [`Dewey::INLINE`]; a longer label goes through
    /// [`Dewey::from_slice`].
    #[inline]
    pub fn from_padded(len: usize, padded: &[u32; INLINE]) -> Option<Self> {
        if len == 0 || len > INLINE {
            return None;
        }
        let mut comps = *padded;
        // A fixed-length masked loop, not `comps[len..].fill(0)`: that is
        // a variable-length memset, and it doubled block decode's cost
        // per posting when measured.
        for (i, c) in comps.iter_mut().enumerate() {
            if i >= len {
                *c = 0;
            }
        }
        Some(Dewey(Repr::Inline {
            len: len as u8,
            comps,
        }))
    }

    /// The label of this node's `ordinal`-th child.
    #[must_use]
    pub fn child(&self, ordinal: u32) -> Self {
        match &self.0 {
            Repr::Inline { len, comps } if usize::from(*len) < INLINE => {
                let mut comps = *comps;
                comps[usize::from(*len)] = ordinal;
                Dewey(Repr::Inline {
                    len: len + 1,
                    comps,
                })
            }
            _ => Dewey(Repr::Heap([self.components(), &[ordinal]].concat().into())),
        }
    }

    /// The label of this node's parent, or `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        self.prefix(self.len() - 1)
    }

    /// Raw component access.
    #[inline]
    pub fn components(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, comps } => &comps[..usize::from(*len)],
            Repr::Heap(comps) => comps,
        }
    }

    /// Number of components; the root has length 1.
    #[inline]
    pub fn len(&self) -> usize {
        self.components().len()
    }

    /// A Dewey label always has at least one component.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Depth of the node, defined as `len() - 1` so the root is at depth 0.
    pub fn depth(&self) -> usize {
        self.len() - 1
    }

    /// True if `self` is an ancestor of `other` (proper prefix).
    #[inline]
    pub fn is_ancestor_of(&self, other: &Dewey) -> bool {
        let (a, b) = (self.components(), other.components());
        a.len() < b.len() && b.starts_with(a)
    }

    /// True if `self` is `other` or an ancestor of `other`.
    #[inline]
    pub fn is_ancestor_or_self_of(&self, other: &Dewey) -> bool {
        other.components().starts_with(self.components())
    }

    /// The ancestor-or-self label consisting of the first `len` components
    /// (`None` when `len` is 0 or exceeds the depth). The lowest common
    /// ancestor of two labels is `a.prefix(a.common_prefix_len(b))`: any
    /// two labels of one document share the root component, so that is
    /// never `None` there, and callers compare prefix lengths
    /// allocation-free before building the one label they keep.
    #[inline]
    pub fn prefix(&self, len: usize) -> Option<Dewey> {
        self.components().get(..len).and_then(Dewey::from_slice)
    }

    /// Length of the longest common prefix with `other`.
    #[inline]
    pub fn common_prefix_len(&self, other: &Dewey) -> usize {
        self.components()
            .iter()
            .zip(other.components())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The *document partition* identifier of this label (Definition 6.1):
    /// the two-component prefix `0.i` naming the subtree rooted at the
    /// `i`-th child of the document root. The root itself belongs to no
    /// partition.
    pub fn partition(&self) -> Option<Dewey> {
        self.prefix(2)
    }
}

impl PartialEq for Dewey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}

impl Eq for Dewey {}

impl Hash for Dewey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.components().hash(state);
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
        self.components().cmp(other.components())
    }
}

impl fmt::Display for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components().iter().enumerate() {
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
