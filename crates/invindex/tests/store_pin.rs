//! Store-byte pin: what [`persist`] writes for four fixed corpora, down
//! to the byte. For each corpus the test hashes every (key, value) the
//! store holds after a persist, in key order, and pins that hash, the
//! entry count and the deltas of the two compression counters a persist
//! moves (`compress_dedup_hits_total`, `compress_encoded_bytes_total`).
//!
//! A change to an encoder that is meant to write the same bytes must
//! leave every figure here as it is; a change meant to alter the format
//! bumps `M/version` and re-pins them.
//!
//! The test owns this binary: the counters are process-wide, so nothing
//! else may persist while it reads their deltas.

use datagen::{generate_baseball, generate_dblp, BaseballConfig, DblpConfig};
use invindex::{persist, Index};
use kvstore::{KvStore, MemKv};
use std::sync::Arc;
use xmldom::{fixtures, parse_document, Document};

/// What one persist wrote: the FNV-1a hash of its entries, their count,
/// and the two counter deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    fnv: u64,
    entries: u64,
    dedup_hits: u64,
    encoded_bytes: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes each entry as `len(key) ‖ key ‖ len(value) ‖ value`, so no
/// two different entry sequences share a byte stream.
fn store_hash(store: &dyn KvStore) -> (u64, u64) {
    let entries = store.scan_range(b"", None).unwrap();
    let hash = entries.iter().fold(FNV_OFFSET, |h, (k, v)| {
        let h = fnv1a(h, &(k.len() as u64).to_le_bytes());
        let h = fnv1a(h, k);
        let h = fnv1a(h, &(v.len() as u64).to_le_bytes());
        fnv1a(h, v)
    });
    (hash, entries.len() as u64)
}

fn counter(name: &str) -> u64 {
    obs::global().counter(name).get()
}

fn pin(doc: Document) -> Pin {
    let index = Index::build(Arc::new(doc));
    let (hits, bytes) = (
        counter("compress_dedup_hits_total"),
        counter("compress_encoded_bytes_total"),
    );
    let mut store = MemKv::new();
    persist::persist(&index, &mut store).unwrap();
    let (fnv, entries) = store_hash(&store);
    Pin {
        fnv,
        entries,
        dedup_hits: counter("compress_dedup_hits_total") - hits,
        encoded_bytes: counter("compress_encoded_bytes_total") - bytes,
    }
}

/// Attributes (one on the root, which post-order interns last), empty
/// texts, repeated subtrees, and texts and attribute values equal to
/// tag names that appear only later in the walk (`volume`, `shelf`) or
/// that appeared before it (`name`, `note`).
const HAND_BUILT: &str = r#"<lib kind="shelf" owner="">
  <item id="a" kind="shelf"><name>volume</name><note/></item>
  <item id="a" kind="shelf"><name>volume</name><note/></item>
  <item id="b" lang="note"><name>name</name><note></note></item>
  <box><volume>item</volume><shelf code="volume"/></box>
  <box><volume>item</volume><shelf code="volume"/></box>
  <box><volume>box</volume><shelf code="volume" /><shelf/></box>
  <shelf>lib</shelf>
</lib>"#;

fn corpora() -> Vec<(&'static str, Document)> {
    vec![
        ("figure1", fixtures::figure1()),
        (
            "dblp_300",
            generate_dblp(&DblpConfig {
                authors: 300,
                seed: 0xD8B1,
                ..Default::default()
            }),
        ),
        ("baseball", generate_baseball(&BaseballConfig::default())),
        ("hand_built", parse_document(HAND_BUILT).unwrap()),
    ]
}

/// The figures every persist writes in format v5: `D/types` and one
/// chunk per record in place of v4's single `D/doc`.
const PINS: [(&str, Pin); 4] = [
    (
        "figure1",
        Pin {
            fnv: 0xef15_be31_90c1_837c,
            entries: 94,
            dedup_hits: 1,
            encoded_bytes: 1_098,
        },
    ),
    (
        "dblp_300",
        Pin {
            fnv: 0x99b6_94be_6c02_8bcc,
            entries: 1_630,
            dedup_hits: 301,
            encoded_bytes: 176_499,
        },
    ),
    (
        "baseball",
        Pin {
            fnv: 0xafb9_6b64_0430_bcd7,
            entries: 903,
            dedup_hits: 1_407,
            encoded_bytes: 38_710,
        },
    ),
    (
        "hand_built",
        Pin {
            fnv: 0x56db_bafb_45d9_b253,
            entries: 41,
            dedup_hits: 0,
            encoded_bytes: 519,
        },
    ),
];

#[test]
fn persisted_stores_are_pinned_byte_for_byte() {
    let actual: Vec<(&str, Pin)> = corpora()
        .into_iter()
        .map(|(name, doc)| (name, pin(doc)))
        .collect();
    for (name, p) in &actual {
        println!("{name}: {p:?}");
    }
    assert_eq!(actual, PINS);
}
