//! Compression test battery, part 2: the stored index against its build.
//!
//! Over the same 200+ seeded corpus set as the ingest differential
//! (DBLP-shaped, baseball-shaped, structural edge cases), the index from
//! one `build_streaming` call is persisted and served by a
//! [`KvBackedIndex`] over that store (compressed lists, DAG document,
//! packed stat tables). The build is the oracle — no encoder or decoder
//! has touched it: every `ListHandle` a query's session acquires must
//! equal the build's list, postings and partition runs, and Algorithm 2
//! rerun over the session holding the build's lists must give the
//! engine's outcome (refinements, SLCA result sets, scores and scan
//! counters all live in its Debug rendering). The whole comparison is
//! repeated for builds at 1 and 3 ingest threads, and the store must be
//! byte-deterministic across thread counts, which is what keeps the
//! maintenance rebuild-diff oracles meaningful.

use datagen::{generate_baseball, generate_dblp, BaseballConfig, DblpConfig};
use invindex::{build_streaming, persist, Index, KvBackedIndex, ListHandle, PostingList};
use kvstore::{KvStore, MemKv};
use std::ops::Range;
use std::sync::Arc;
use xrefine::{
    partition_refine, EngineConfig, PartitionOptions, Query, RefineSession, XRefineEngine,
};

/// Queries chosen to hit the generator vocabularies (Zipf head terms,
/// names) plus a guaranteed miss.
const QUERIES: &[&str] = &[
    "xml query",
    "database system",
    "efficient data",
    "absentword",
];

/// The partition runs visible through `h`: each run's head and range.
fn runs(h: &ListHandle) -> Vec<(u64, Range<usize>)> {
    let mut cursor = h.partition_runs();
    let mut out = Vec::new();
    while let Some((head, range)) = cursor.current() {
        out.push((head, range));
        cursor.seek(head + 1);
    }
    out
}

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

        let stored = KvBackedIndex::open(Box::new(store))
            .unwrap_or_else(|e| panic!("{label}: open ({threads}t): {e}"));
        let engine = XRefineEngine::from_reader(Arc::new(stored), EngineConfig::default());
        for q in QUERIES {
            let what = format!("{label} ({threads}t) {q:?}");
            let served = engine.answer_detailed(q);
            let query = Query::parse(q);
            let rules = engine.rules_for(&query);
            let mut session = RefineSession::new(engine.index(), query, rules)
                .unwrap_or_else(|e| panic!("{what}: session: {e}"));
            for (keyword, handle) in session.ks.iter().zip(session.lists.iter_mut()) {
                let want = built_handle(&built, keyword);
                let read: Vec<_> = handle.run_postings().flatten().cloned().collect();
                let built_list = built.list(keyword).map_or(&[][..], PostingList::as_slice);
                assert_eq!(read, built_list, "{what}: {keyword:?}");
                assert_eq!(runs(handle), runs(&want), "{what}: runs of {keyword:?}");
                *handle = want;
            }
            let oracle = partition_refine(
                &session,
                &PartitionOptions {
                    k: EngineConfig::default().k,
                    ..Default::default()
                },
            );
            assert_eq!(
                format!("{served:?}"),
                format!("{:?}", Ok::<_, xrefine::QueryFailure>(oracle)),
                "{what}: outcome diverged"
            );
        }
    }
}

/// The build's list for `keyword` as a handle: never encoded or decoded.
fn built_handle(built: &Index, keyword: &str) -> ListHandle {
    built
        .list(keyword)
        .map(|l| ListHandle::new(Arc::new(l.clone())))
        .unwrap_or_default()
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
