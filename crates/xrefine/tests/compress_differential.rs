//! Compression test battery, part 2: the stored-vs-resident differential.
//!
//! Over the same 200+ seeded corpus set as the ingest differential
//! (DBLP-shaped, baseball-shaped, structural edge cases), the index from
//! one `build_streaming` call is queried twice — resident, as built
//! (format-free: no encoder or decoder has touched it), and through a
//! [`KvBackedIndex`] over its persisted store (compressed lists, DAG
//! document, packed stat tables) — and the two must be *behaviourally
//! indistinguishable*: identical refinements, SLCA result sets, scores
//! and scan counters (`advances`/`random_accesses` — the cursor advance
//! sequence collapsed to its invariant), with the whole comparison
//! repeated for builds at 1 and 3 ingest threads. The store must also
//! be byte-deterministic across thread counts, which is what keeps the
//! maintenance rebuild-diff oracles meaningful.

use datagen::{generate_baseball, generate_dblp, BaseballConfig, DblpConfig};
use invindex::{build_streaming, persist, KvBackedIndex};
use kvstore::{KvStore, MemKv};
use std::sync::Arc;
use xrefine::{EngineConfig, XRefineEngine};

/// Queries chosen to hit the generator vocabularies (Zipf head terms,
/// names) plus a guaranteed miss.
const QUERIES: &[&str] = &[
    "xml query",
    "database system",
    "efficient data",
    "absentword",
];

/// The full oracle for one document.
fn check(xml: &str, label: &str) {
    let mut reference: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    for threads in [1usize, 3] {
        let built = build_streaming(xml, threads)
            .unwrap_or_else(|e| panic!("{label}: streaming ({threads}t): {e}"));
        let mut store = MemKv::new();
        persist::persist(&built, &mut store)
            .unwrap_or_else(|e| panic!("{label}: persist ({threads}t): {e}"));

        // The store is byte-deterministic across build thread counts.
        let dump = store.scan_range(b"", None).unwrap();
        match &reference {
            None => reference = Some(dump),
            Some(first) => assert_eq!(first, &dump, "{label}: store differs at {threads} threads"),
        }

        // The stored index answers every query exactly as the resident
        // one it was written from — refinements, SLCA sets, scores and
        // scan counters all live in the outcome's Debug rendering.
        let stored = KvBackedIndex::open(Box::new(store))
            .unwrap_or_else(|e| panic!("{label}: open ({threads}t): {e}"));
        let stored = XRefineEngine::from_reader(Arc::new(stored), EngineConfig::default());
        let resident = XRefineEngine::from_index(built, EngineConfig::default());
        for q in QUERIES {
            let want = resident.answer_detailed(q);
            let got = stored.answer_detailed(q);
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "{label} ({threads}t): outcome diverged for query {q:?}"
            );
        }
    }
}

#[test]
fn dblp_corpora_across_seeds() {
    for seed in 0..150u64 {
        let cfg = DblpConfig {
            authors: 2 + (seed as usize % 5),
            seed: 0x5EED_0000 + seed,
            ..Default::default()
        };
        let xml = generate_dblp(&cfg).to_xml();
        check(&xml, &format!("dblp seed {seed}"));
    }
}

#[test]
fn baseball_corpora_across_seeds() {
    for seed in 0..40u64 {
        let cfg = BaseballConfig {
            leagues: 1,
            divisions_per_league: 1 + (seed as usize % 2),
            teams_per_division: 2,
            players_per_team: 3,
            seed: 0xBA5E_0000 + seed,
        };
        let xml = generate_baseball(&cfg).to_xml();
        check(&xml, &format!("baseball seed {seed}"));
    }
}

#[test]
fn structural_edge_cases() {
    let mut cases: Vec<(String, String)> = Vec::new();

    for depth in [5usize, 120, 600] {
        let mut xml = String::new();
        for i in 0..depth {
            xml.push_str(&format!("<level{}>", i % 7));
        }
        xml.push_str("bottom text");
        for i in (0..depth).rev() {
            xml.push_str(&format!("</level{}>", i % 7));
        }
        cases.push((format!("deep-{depth}"), xml));
    }
    for width in [50usize, 1200] {
        let mut xml = String::from("<flat>");
        for i in 0..width {
            xml.push_str(&format!("<item>value {i}</item>"));
        }
        xml.push_str("</flat>");
        cases.push((format!("wide-{width}"), xml));
    }
    cases.push((
        "cdata".into(),
        "<doc><raw><![CDATA[keep <this> & that]]></raw>\
         <mix>before <![CDATA[middle]]> after</mix></doc>"
            .into(),
    ));
    cases.push((
        "entities".into(),
        "<doc a=\"x &amp; y\"><e>&lt;tag&gt; &quot;q&quot;</e></doc>".into(),
    ));
    cases.push((
        "attributes".into(),
        "<doc><node one=\"1\" two='second value' empty=\"\"/>\
         <node one=\"repeated tokens one\"/></doc>"
            .into(),
    ));
    cases.push((
        "mixed-content".into(),
        "<p>lead <b>bold</b> middle <i>ital</i> tail</p>".into(),
    ));
    cases.push((
        "unicode".into(),
        "<livre><títul attr=\"café\">über straße 北京 données</títul></livre>".into(),
    ));
    cases.push((
        "repeated-keywords".into(),
        "<doc><x>word word word</x><x>word</x><y>word other word</y></doc>".into(),
    ));
    cases.push(("single-empty-root".into(), "<root/>".into()));

    assert!(cases.len() >= 12);
    for (label, xml) in &cases {
        check(xml, label);
    }
}
