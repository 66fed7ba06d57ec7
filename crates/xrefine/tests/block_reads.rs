//! A stored posting list is read block by block: a query decodes the
//! blocks its cursors reach, not the list, and a block that does not
//! decode fails the query that reads it — never a panic, never an
//! answer built from what the block was supposed to hold.
//!
//! Its own binary: `compress_blocks_decoded_total` is process-wide, so
//! the tests take turns on it.

use std::sync::{Arc, Mutex};

use invindex::postings::{read_varint, write_varint};
use invindex::{CompressedList, KvBackedIndex, BLOCK_POSTINGS};
use kvstore::{KvStore, MemKv};
use xrefine::{EngineConfig, XRefineEngine};

/// Held while a test reads the counter around its calls.
static COUNTER: Mutex<()> = Mutex::new(());

fn blocks_decoded() -> u64 {
    obs::global()
        .snapshot()
        .counters
        .get("compress_blocks_decoded_total")
        .copied()
        .unwrap_or(0)
}

/// `partitions` records, each holding `alpha` three times; `rare` in two
/// of them and `beta` in every tenth.
fn corpus(partitions: usize) -> String {
    let mut xml = String::from("<bib>");
    for i in 0..partitions {
        let extra = match i {
            _ if i == partitions / 3 || i == 2 * partitions / 3 => " rare",
            _ if i % 10 == 0 => " beta",
            _ => "",
        };
        xml.push_str(&format!(
            "<paper><title>alpha{extra}</title><venue>alpha</venue><note>alpha</note></paper>"
        ));
    }
    xml.push_str("</bib>");
    xml
}

/// The corpus persisted, and the store key of `keyword`'s list.
fn store_of(xml: &str, keyword: &str) -> (MemKv, Vec<u8>) {
    let built = invindex::build_streaming(xml, 1).unwrap();
    let mut store = MemKv::new();
    invindex::persist::persist(&built, &mut store).unwrap();
    let id = built.vocabulary().get(keyword).unwrap();
    (store, [b"L/".as_slice(), &id.0.to_be_bytes()].concat())
}

#[test]
fn a_query_over_a_long_list_decodes_a_few_of_its_blocks() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    // No list stays cached, so every query reads its lists afresh, as a
    // cold request does.
    let (store, _) = store_of(&corpus(1000), "alpha");
    let reader = KvBackedIndex::open(Box::new(store))
        .unwrap()
        .with_cache_budget(0);
    let blocks = reader
        .list_handle("alpha")
        .unwrap()
        .len()
        .div_ceil(BLOCK_POSTINGS) as u64;
    let engine = XRefineEngine::from_reader(Arc::new(reader), EngineConfig::default());
    // The first answer also fills the co-occurrence memo, which reads
    // the lists whole once.
    let first = engine.answer("alpha rare").unwrap();
    let before = blocks_decoded();
    let again = engine.answer("alpha rare").unwrap();
    let decoded = blocks_decoded() - before;
    println!("alpha rare: {decoded} blocks decoded; alpha's list has {blocks}");
    assert_eq!(format!("{again:?}"), format!("{first:?}"));
    assert!(!again.refinements.is_empty());
    assert!(
        decoded * 4 <= blocks,
        "{decoded} blocks decoded of a {blocks}-block list"
    );
}

/// `value` with the second posting header of every block from
/// `first_block` on given its reserved bit, and a frame checksum that
/// matches: the skip table still parses, and none of those blocks
/// decodes.
fn forge(value: &[u8], first_block: usize) -> Vec<u8> {
    let mut pos = 0;
    let len = read_varint(value, &mut pos).unwrap() as usize;
    let mut payload = value[pos + 4..].to_vec();
    assert_eq!(payload.len(), len);
    let list = CompressedList::parse(&payload).unwrap();
    let data_at = payload.len() - list.blocks().iter().map(|m| m.len).sum::<usize>();
    let headers: Vec<usize> = (list.blocks().iter())
        .skip(first_block)
        .filter(|m| m.count > 1)
        .map(|m| {
            let mut at = data_at + m.offset;
            read_varint(&payload, &mut at).unwrap(); // the first node type
            at
        })
        .collect();
    for at in headers {
        payload[at] |= 0x80;
    }
    let mut framed = Vec::new();
    write_varint(&mut framed, payload.len() as u64);
    framed.extend_from_slice(&kvstore::crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    framed
}

/// An engine over the corpus whose stored list for `keyword` is forged
/// from block `first_block` on.
fn forged_engine(keyword: &str, first_block: usize) -> XRefineEngine {
    let (mut store, key) = store_of(&corpus(300), keyword);
    let forged = forge(&store.get(&key).unwrap().unwrap(), first_block);
    store.put(&key, &forged).unwrap();
    let reader = KvBackedIndex::open(Box::new(store)).unwrap();
    XRefineEngine::from_reader(Arc::new(reader), EngineConfig::default())
}

#[test]
fn a_forged_block_of_a_query_keyword_fails_the_query() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let engine = forged_engine("alpha", 0);
    for round in 0..2 {
        match engine.answer_detailed("alpha rare") {
            Err(failure) => {
                assert_eq!(failure.keyword.as_deref(), Some("alpha"), "round {round}");
                assert!(
                    failure.error.is_corrupt(),
                    "round {round}: {}",
                    failure.error
                );
            }
            Ok(outcome) => panic!("round {round}: answered from a forged list: {outcome:?}"),
        }
    }
    // A query that does not name the keyword is answered.
    assert!(engine.answer_detailed("rare").is_ok());
}

#[test]
fn a_forged_block_of_a_generated_keyword_drops_the_keyword() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let engine = forged_engine("alpha", 0);
    let query = xrefine::Query::parse("alphx rare");
    assert!(
        engine
            .rules_for(&query)
            .rhs_keywords()
            .contains(&"alpha".to_string()),
        "the typo generates the forged keyword"
    );
    let outcome = engine.answer_query_detailed(query).unwrap();
    assert!(
        outcome.degraded.iter().any(|d| d.keyword == "alpha"),
        "{:?}",
        outcome.degraded
    );
    for r in &outcome.refinements {
        assert!(
            !r.candidate.keywords.contains(&"alpha".to_string()),
            "{r:?}"
        );
    }
}

#[test]
fn a_whole_result_set_read_past_a_forged_block_reports_the_damage() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    // `alpha`'s 900 postings fill 14 blocks and 4 postings of a 15th;
    // only that last one is forged.
    let last = 900 / BLOCK_POSTINGS;
    // Forged from past its last block, the list is sound.
    let healthy = forged_engine("alpha", last + 1).answer("alpha").unwrap();
    let best = healthy.best().unwrap();
    assert_eq!(best.slcas.len(), 900);
    assert!(best.slcas.damage().is_none());

    let engine = forged_engine("alpha", last);
    let outcome = engine.answer_detailed("alpha").unwrap();
    let best = outcome.best().unwrap();
    // The page is read from the first block, and says there is more.
    assert_eq!(best.slcas.page().len(), xrefine::RESULT_PAGE);
    assert!(best.slcas.more());
    assert!(best.slcas.damage().is_none(), "nothing read past the page");
    // The whole set is short by what the forged block held, and says so.
    assert_eq!(best.slcas.len(), 900 - 4);
    let damage = best
        .slcas
        .damage()
        .expect("the whole set read the forged block");
    assert!(damage.is_corrupt(), "{damage}");
    assert!(
        damage.to_string().contains("reserved header bit"),
        "{damage}"
    );
}
