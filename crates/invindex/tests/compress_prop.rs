//! Compression test battery, part 1: the v4 codec under seeded random
//! and adversarial inputs.
//!
//! * 1000+ seeded random Dewey lists plus handcrafted adversarial
//!   shapes (deep, wide, single-element, shared-prefix pathological,
//!   header-escape depths) round-trip `encode_compressed` →
//!   [`CompressedList::parse`] → `decode_all` exactly;
//! * truncated and bit-flipped *framed* values (what a store actually
//!   holds) surface [`kvstore::KvError::Corrupt`] — never a panic,
//!   never wrong postings;
//! * arbitrary payload-level mutations (behind the frame) never panic
//!   and never violate the decoded-structure invariants.

use datagen::{random_dewey_corpus, DeweyCorpusConfig};
use invindex::persist::{decode_list_value, encode_list_value};
use invindex::{CompressedList, Posting, PostingList, BLOCK_POSTINGS};
use xmldom::{Dewey, NodeTypeId};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Deterministic node type for a label: varies within and across lists
/// so type-change and type-repeat header paths both get exercised.
fn type_of(d: &Dewey) -> NodeTypeId {
    let sum: u64 = d.components().iter().map(|&c| u64::from(c)).sum();
    NodeTypeId((sum % 5) as u32)
}

fn list_from(labels: Vec<Dewey>) -> PostingList {
    PostingList::from_sorted(
        labels
            .into_iter()
            .map(|d| {
                let t = type_of(&d);
                Posting::new(d, t)
            })
            .collect(),
    )
}

fn assert_roundtrip(list: &PostingList, label: &str) {
    let payload = list.encode_compressed();
    let parsed = CompressedList::parse(&payload).unwrap_or_else(|e| panic!("{label}: parse: {e}"));
    assert_eq!(parsed.len(), list.len(), "{label}: length");
    let decoded = parsed
        .decode_all()
        .unwrap_or_else(|e| panic!("{label}: decode: {e}"));
    assert_eq!(&decoded, list, "{label}: contents");
    assert!(parsed.check_blocks().is_empty(), "{label}: block damage");
    // The framed path (what a v4 store holds) round-trips too.
    let framed = encode_list_value(list);
    let back = decode_list_value(&framed).unwrap_or_else(|e| panic!("{label}: framed decode: {e}"));
    assert_eq!(&back, list, "{label}: framed contents");
}

#[test]
fn a_thousand_seeded_random_lists_roundtrip() {
    let configs = [
        DeweyCorpusConfig::default(),
        DeweyCorpusConfig {
            lists: 4,
            max_len: 400,
            max_depth: 9,
            fanout: 6,
            allow_empty: true,
        },
        DeweyCorpusConfig {
            lists: 4,
            max_len: 80,
            max_depth: 30,
            fanout: 2,
            allow_empty: false,
        },
    ];
    let mut lists = 0usize;
    for seed in 0..100u64 {
        for (ci, cfg) in configs.iter().enumerate() {
            for (li, labels) in random_dewey_corpus(seed, cfg).into_iter().enumerate() {
                assert_roundtrip(
                    &list_from(labels),
                    &format!("seed {seed} cfg {ci} list {li}"),
                );
                lists += 1;
            }
        }
    }
    assert!(lists >= 1000, "only {lists} lists generated");
}

#[test]
fn adversarial_shapes_roundtrip() {
    // single element, shallow and deep
    assert_roundtrip(
        &list_from(vec![Dewey::new(vec![0]).unwrap()]),
        "single shallow",
    );
    assert_roundtrip(
        &list_from(vec![Dewey::new(vec![7; 200]).unwrap()]),
        "single deep",
    );

    // deep chain: each label one deeper than its ancestor (trim 0, the
    // pure-descendant path), depth past the header escape threshold
    let mut chain = Vec::new();
    for depth in 1..=120usize {
        chain.push(Dewey::new(vec![0; depth]).unwrap());
    }
    assert_roundtrip(&list_from(chain), "descending chain");

    // wide flat fan-out: thousands of siblings, many full blocks
    let wide: Vec<Dewey> = (0..5000u32)
        .map(|i| Dewey::new(vec![0, i]).unwrap())
        .collect();
    assert_roundtrip(&list_from(wide), "wide fan-out");

    // shared-prefix pathological: a 90-deep shared prefix with tails
    // diverging at the last component — front-coding must not confuse
    // the long equal runs, and trim/rest escape paths (> 7) fire
    let prefix = vec![3u32; 90];
    let mut shared = Vec::new();
    for i in 0..300u32 {
        let mut c = prefix.clone();
        c.push(i);
        shared.push(Dewey::new(c).unwrap());
        if i % 3 == 0 {
            // occasionally dive 20 deeper, forcing rest > 7 and, on the
            // way back to the next sibling, trim > 7
            let mut deep = prefix.clone();
            deep.push(i);
            deep.extend_from_slice(&[1; 20]);
            shared.push(Dewey::new(deep).unwrap());
        }
    }
    shared.sort();
    shared.dedup();
    assert_roundtrip(&list_from(shared), "shared-prefix pathological");

    // component values at the u32 edge
    let edges = vec![
        Dewey::new(vec![0]).unwrap(),
        Dewey::new(vec![0, u32::MAX - 1]).unwrap(),
        Dewey::new(vec![0, u32::MAX - 1, u32::MAX]).unwrap(),
        Dewey::new(vec![0, u32::MAX]).unwrap(),
        Dewey::new(vec![u32::MAX]).unwrap(),
    ];
    assert_roundtrip(&list_from(edges), "u32-edge components");

    // exact block-boundary sizes
    for n in [
        BLOCK_POSTINGS - 1,
        BLOCK_POSTINGS,
        BLOCK_POSTINGS + 1,
        2 * BLOCK_POSTINGS,
        2 * BLOCK_POSTINGS + 1,
    ] {
        let labels: Vec<Dewey> = (0..n as u32)
            .map(|i| Dewey::new(vec![0, i]).unwrap())
            .collect();
        assert_roundtrip(&list_from(labels), &format!("boundary size {n}"));
    }
}

#[test]
fn truncated_framed_values_surface_corrupt() {
    let labels = random_dewey_corpus(7, &DeweyCorpusConfig::default()).remove(0);
    let list = list_from(labels);
    let framed = encode_list_value(&list);
    for cut in 0..framed.len() {
        match decode_list_value(&framed[..cut]) {
            Err(e) => assert!(e.is_corrupt(), "cut {cut}: non-corrupt error {e}"),
            Ok(_) => panic!("cut {cut}: truncated frame accepted"),
        }
    }
}

#[test]
fn bit_flipped_framed_values_surface_corrupt() {
    let cfg = DeweyCorpusConfig {
        lists: 1,
        max_len: 200,
        max_depth: 6,
        fanout: 5,
        allow_empty: false,
    };
    let labels = random_dewey_corpus(11, &cfg).remove(0);
    let list = list_from(labels);
    let framed = encode_list_value(&list);
    for i in 0..framed.len() {
        for bit in 0..8 {
            let mut bad = framed.clone();
            bad[i] ^= 1 << bit;
            match decode_list_value(&bad) {
                Err(e) => assert!(e.is_corrupt(), "flip {i}.{bit}: non-corrupt error {e}"),
                // A flip in the frame's *length varint* can reframe the
                // value so the checksum window still validates (e.g. a
                // redundant-zero continuation byte). The decoded postings
                // must then still be exactly right — never silently wrong.
                Ok(decoded) => assert_eq!(decoded, list, "flip {i}.{bit}: wrong postings"),
            }
        }
    }
}

#[test]
fn payload_mutations_never_panic_and_keep_structure() {
    let mut rng = XorShift(0xDEAD_50DA);
    let cfg = DeweyCorpusConfig {
        lists: 2,
        max_len: 300,
        max_depth: 8,
        fanout: 4,
        allow_empty: false,
    };
    for seed in 0..25u64 {
        for labels in random_dewey_corpus(seed, &cfg) {
            let list = list_from(labels);
            let payload = list.encode_compressed();
            for _ in 0..200 {
                let mut bad = payload.clone();
                match rng.below(3) {
                    0 => {
                        let cut = rng.below(bad.len() as u64 + 1) as usize;
                        bad.truncate(cut);
                    }
                    1 => {
                        let i = rng.below(bad.len() as u64) as usize;
                        bad[i] ^= (1 << rng.below(8)) as u8;
                    }
                    _ => {
                        for _ in 0..=rng.below(8) {
                            let i = rng.below(bad.len() as u64) as usize;
                            bad[i] = rng.below(256) as u8;
                        }
                    }
                }
                // Must never panic; anything accepted must hold the
                // structural invariants the cursor relies on.
                if let Ok(parsed) = CompressedList::parse(&bad) {
                    let damaged = parsed.check_blocks();
                    match parsed.decode_all() {
                        Ok(decoded) => {
                            assert!(damaged.is_empty(), "seed {seed}: damage but clean decode");
                            assert_eq!(decoded.len(), parsed.len());
                            let slice = decoded.as_slice();
                            for w in slice.windows(2) {
                                assert!(w[0].dewey < w[1].dewey, "seed {seed}: disorder");
                            }
                        }
                        Err(e) => {
                            assert!(e.is_corrupt(), "seed {seed}: non-corrupt error {e}");
                            assert!(
                                !damaged.is_empty(),
                                "seed {seed}: decode failed, scrub clean"
                            );
                        }
                    }
                }
            }
        }
    }
}
