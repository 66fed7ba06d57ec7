//! Property tests for the XML substrate: parser round-trips, Dewey
//! algebra laws, and tokenizer invariants.

use xcheck::prop::{check, Gen};
use xmldom::{parse_document, tokenize, Dewey, DocumentBuilder};

/// A random tree shape encoded as nested (tag, text, children).
#[derive(Debug, Clone)]
struct TreeSpec {
    tag: String,
    text: String,
    children: Vec<TreeSpec>,
}

/// `[a-z][a-z0-9]{0,6}`
fn tag(g: &mut Gen) -> String {
    let mut tag = String::from(g.char_in('a'..='z'));
    tag.extend(g.vec(0..=6, |g| {
        if g.weighted(&[26, 10]) == 0 {
            g.char_in('a'..='z')
        } else {
            g.char_in('0'..='9')
        }
    }));
    tag
}

fn text(g: &mut Gen) -> String {
    // Includes XML-hostile characters to exercise escaping.
    const WORDS: [&str; 6] = ["word", "x<y", "a&b", "\"q\"", "ünïcode", "2003"];
    g.vec(0..3, |g| g.pick(&WORDS)).join(" ")
}

/// At most `depth` levels below this node, at most three children each.
fn tree(g: &mut Gen, depth: u32) -> TreeSpec {
    TreeSpec {
        tag: tag(g),
        text: text(g),
        children: if depth > 0 && g.bool() {
            g.vec(0..4, |g| tree(g, depth - 1))
        } else {
            Vec::new()
        },
    }
}

fn build(spec: &TreeSpec, b: &mut DocumentBuilder) {
    b.open_element(&spec.tag);
    if !spec.text.is_empty() {
        b.text(&spec.text);
    }
    for c in &spec.children {
        build(c, b);
    }
    b.close_element();
}

fn dewey(g: &mut Gen) -> Dewey {
    let mut comps = vec![0];
    comps.extend(g.vec(0..5, |g| g.range(0u32..4)));
    Dewey::new(comps).unwrap()
}

#[test]
fn render_parse_roundtrip_preserves_structure() {
    check(128, |g| {
        let spec = tree(g, 3);
        let mut b = DocumentBuilder::new();
        build(&spec, &mut b);
        let doc = b.finish();
        let xml = doc.to_xml();
        let doc2 = parse_document(&xml).unwrap();
        assert_eq!(doc.len(), doc2.len());
        for ((_, a), (id2, b2)) in doc.nodes().zip(doc2.nodes()) {
            assert_eq!(a.dewey, b2.dewey);
            assert_eq!(doc.symbols().resolve(a.tag), doc2.tag_name(id2));
            // text survives modulo whitespace normalization
            assert_eq!(tokenize(&a.text), tokenize(&b2.text));
        }
    });
}

#[test]
fn dewey_lca_laws() {
    check(128, |g| {
        // How every caller computes an LCA: compare prefix lengths, then
        // materialise the one label kept.
        let lca = |a: &Dewey, b: &Dewey| a.prefix(a.common_prefix_len(b)).unwrap();
        let (x, y) = (dewey(g), dewey(g));
        let l = lca(&x, &y);
        // commutative
        assert_eq!(l, lca(&y, &x));
        // the LCA is an ancestor-or-self of both
        assert!(l.is_ancestor_or_self_of(&x));
        assert!(l.is_ancestor_or_self_of(&y));
        // idempotent
        assert_eq!(lca(&x, &x), x);
        // deepest: the LCA's child toward x is not an ancestor of y
        if l != x && l != y {
            let next = Dewey::new(x.components()[..l.len() + 1].to_vec()).unwrap();
            assert!(!next.is_ancestor_or_self_of(&y));
        }
    });
}

#[test]
fn tokenizer_is_idempotent_and_lowercase() {
    check(128, |g| {
        let s = g.string(0..=40, Gen::printable_char);
        let once = tokenize(&s);
        let again = tokenize(&once.join(" "));
        assert_eq!(once, again);
        for t in &once {
            assert!(!t.is_empty());
            assert!(t.chars().all(|c| c.is_alphanumeric()));
            assert_eq!(t.to_lowercase(), *t);
        }
    });
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    check(128, |g| {
        let _ = parse_document(&g.string(0..=120, Gen::printable_char));
    });
}

#[test]
fn parser_never_panics_on_tag_soup() {
    const PARTS: [&str; 10] = [
        "<a>",
        "</a>",
        "<b x='1'>",
        "text",
        "<!-- c -->",
        "<![CDATA[d]]>",
        "&amp;",
        "<?pi?>",
        "</",
        "<",
    ];
    check(128, |g| {
        let _ = parse_document(&g.vec(0..12, |g| g.pick(&PARTS)).concat());
    });
}

/// Labels around `doc`'s shape that name no node.
fn labels_naming_nothing(doc: &xmldom::Document, g: &mut Gen) -> Vec<Dewey> {
    let (_, node) = doc
        .nodes()
        .nth(g.range(0..doc.len()))
        .expect("index below len");
    // The last node in document order is always a leaf.
    let (_, leaf) = doc.nodes().last().expect("a document has a root");
    let mut nothing = vec![
        // one past the last child
        node.dewey.child(node.children.len() as u32),
        // one level below a leaf
        leaf.dewey.child(0),
        // the same path under a root that is not `0`
        Dewey::new(
            std::iter::once(1)
                .chain(node.dewey.components()[1..].iter().copied())
                .collect(),
        )
        .unwrap(),
    ];
    // a well-formed label drawn without looking at the document: its
    // prefix may exist while the rest walks into a differently shaped
    // subtree
    let blind = dewey(g);
    if doc.nodes().all(|(_, n)| n.dewey != blind) {
        nothing.push(blind);
    }
    nothing
}

#[test]
fn node_by_dewey_finds_exactly_the_labelled_nodes() {
    check(128, |g| {
        let spec = tree(g, 3);
        let mut b = DocumentBuilder::new();
        build(&spec, &mut b);
        let doc = b.finish();
        for (id, n) in doc.nodes() {
            assert_eq!(doc.node_by_dewey(&n.dewey), Some(id), "{}", n.dewey);
        }
        for label in labels_naming_nothing(&doc, g) {
            assert_eq!(doc.node_by_dewey(&label), None, "{label}");
        }
    });
}
