//! `Dewey` against a `Vec<u32>` model. Labels of one to twelve components
//! cross the boundary between the inline representation (up to seven)
//! and the boxed one, and every operation must answer what the model's
//! slice operations answer, whichever side of it either label is on —
//! hashing included, bit for bit. `Dewey::from_padded`, the decoder's
//! fixed-width constructor, must build the label `from_slice` builds
//! whatever its padding holds.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use xcheck::prop::{check, Gen};
use xmldom::Dewey;

/// Components from a small alphabet, so two labels often share a prefix.
fn model(g: &mut Gen) -> Vec<u32> {
    g.vec(1..=12, |g| {
        if g.weighted(&[6, 1]) == 0 {
            g.range(0u32..3)
        } else {
            g.any::<u32>()
        }
    })
}

/// A second label: unrelated, or an ancestor or descendant of `a`.
fn related(g: &mut Gen, a: &[u32]) -> Vec<u32> {
    match g.weighted(&[2, 1, 1]) {
        0 => model(g),
        1 => a[..g.range(1..a.len() + 1)].to_vec(),
        _ => {
            let mut b = a.to_vec();
            b.extend(g.vec(1..=5, |g| g.range(0u32..3)));
            b
        }
    }
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn common_prefix_len(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Every unary operation of `d` against its model `m`.
fn agrees(d: &Dewey, m: &[u32]) {
    assert_eq!(d.components(), m);
    assert_eq!((d.len(), d.depth()), (m.len(), m.len() - 1));
    assert_eq!(hash_of(d), hash_of(m), "hash of {m:?}");
    assert_eq!(hash_of(d), hash_of(&m.to_vec()), "hash of {m:?} as a Vec");
    assert_eq!(Dewey::from_slice(m).as_ref(), Some(d));
    assert_eq!(&d.clone(), d);
    for len in 0..=m.len() + 1 {
        let want = (1..=m.len()).contains(&len).then(|| &m[..len]);
        assert_eq!(d.prefix(len).as_ref().map(Dewey::components), want);
    }
    assert_eq!(
        d.parent().as_ref().map(Dewey::components),
        (m.len() > 1).then(|| &m[..m.len() - 1])
    );
    assert_eq!(
        d.partition().as_ref().map(Dewey::components),
        (m.len() > 1).then(|| &m[..2])
    );
    for ordinal in [0, 7, u32::MAX] {
        let mut child = m.to_vec();
        child.push(ordinal);
        assert_eq!(d.child(ordinal).components(), child.as_slice());
    }
    let text = d.to_string();
    let parts: Vec<String> = m.iter().map(u32::to_string).collect();
    assert_eq!(text, parts.join("."));
    assert_eq!(text.parse::<Dewey>().as_ref(), Ok(d));
}

#[test]
fn dewey_agrees_with_its_component_vector() {
    check(2_000, |g| {
        let ma = model(g);
        let mb = related(g, &ma);
        let a = Dewey::new(ma.clone()).unwrap();
        let b = Dewey::from_slice(&mb).unwrap();
        agrees(&a, &ma);
        agrees(&b, &mb);

        assert_eq!(a.cmp(&b), ma.cmp(&mb), "{ma:?} vs {mb:?}");
        assert_eq!(a.partial_cmp(&b), ma.partial_cmp(&mb));
        assert_eq!(a == b, ma == mb);
        assert_eq!(hash_of(&a) == hash_of(&b), ma == mb);
        assert_eq!(a.common_prefix_len(&b), common_prefix_len(&ma, &mb));
        assert_eq!(
            a.is_ancestor_of(&b),
            ma.len() < mb.len() && mb.starts_with(&ma)
        );
        assert_eq!(a.is_ancestor_or_self_of(&b), mb.starts_with(&ma));
    });
}

#[test]
fn only_an_empty_component_list_is_refused() {
    assert_eq!(Dewey::from_slice(&[]), None);
    assert_eq!(Dewey::new(Vec::new()), None);
    for len in 1..=12u32 {
        let m: Vec<u32> = (0..len).collect();
        let d = Dewey::from_slice(&m).unwrap();
        assert_eq!(Dewey::new(m.clone()).as_ref(), Some(&d));
        agrees(&d, &m);
    }
}

#[test]
fn a_padded_label_is_the_label_of_its_prefix() {
    check(2_000, |g| {
        // The padding is junk, or the components of a longer label.
        let mut padded = [0u32; Dewey::INLINE];
        for c in &mut padded {
            *c = if g.bool() { g.range(0u32..3) } else { g.any() };
        }
        let len = g.range(1..Dewey::INLINE + 1);
        let m = &padded[..len];
        let d = Dewey::from_padded(len, &padded).unwrap();
        assert_eq!(Dewey::from_slice(m).as_ref(), Some(&d));
        agrees(&d, m);

        let mb = model(g);
        let b = Dewey::from_slice(&mb).unwrap();
        assert_eq!(d.cmp(&b), m.cmp(&mb[..]), "{m:?} vs {mb:?}");
        assert_eq!(d == b, m == &mb[..]);
        assert_eq!(hash_of(&d) == hash_of(&b), m == &mb[..]);
    });
}

#[test]
fn a_padded_label_needs_a_length_within_the_inline_width() {
    let padded = [5u32; Dewey::INLINE];
    assert_eq!(Dewey::from_padded(0, &padded), None);
    for len in Dewey::INLINE + 1..Dewey::INLINE + 4 {
        assert_eq!(Dewey::from_padded(len, &padded), None, "length {len}");
    }
    for len in 1..=Dewey::INLINE {
        let d = Dewey::from_padded(len, &padded).unwrap();
        assert_eq!(d.components(), &padded[..len]);
    }
}
