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
use invindex::{CompressedList, Posting, PostingList, BLOCK_POSTINGS, HEAD_AT_ROOT};
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

// ----- block-lazy reading ---------------------------------------------

/// A list over a few partitions, each holding none, a few, or hundreds
/// of postings, so runs start, end and continue across block boundaries;
/// sometimes with a posting on the root.
fn partitioned_list(g: &mut xcheck::prop::Gen) -> PostingList {
    let mut labels = std::collections::BTreeSet::new();
    if g.weighted(&[3, 1]) == 1 {
        labels.insert(vec![0]);
    }
    for p in 0..g.range(1u32..10) {
        let n = match g.weighted(&[2, 3, 2, 1]) {
            0 => 0,
            1 => g.range(1usize..4),
            2 => g.range(20usize..90),
            _ => g.range(100usize..220),
        };
        for _ in 0..n {
            let mut label = vec![0, p * 3];
            for _ in 0..g.range(0usize..4) {
                label.push(g.range(0u32..40));
            }
            labels.insert(label);
        }
    }
    list_from(labels.into_iter().map(|l| Dewey::new(l).unwrap()).collect())
}

/// The runs of `list` visible through the view `from..to`, view-relative
/// and clamped to it: what a cursor must report, read off the labels. A
/// run is a maximal stretch of postings in one partition, keyed
/// [`HEAD_AT_ROOT`] on the root and `ordinal + 1` inside `0.ordinal`.
fn visible_runs(list: &PostingList, from: usize, to: usize) -> Vec<(u64, std::ops::Range<usize>)> {
    let mut runs: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
    for (i, p) in list.iter().enumerate() {
        let head = (p.dewey.components().get(1)).map_or(HEAD_AT_ROOT, |&o| u64::from(o) + 1);
        match runs.last_mut() {
            Some((h, range)) if *h == head => range.end = i + 1,
            _ => runs.push((head, i..i + 1)),
        }
    }
    runs.into_iter()
        .map(|(head, range)| (head, range.start.max(from)..range.end.min(to)))
        .filter(|(_, range)| range.start < range.end)
        .map(|(head, range)| (head, range.start - from..range.end - from))
        .collect()
}

#[test]
fn lazy_lists_read_the_runs_and_postings_decode_all_does() {
    use invindex::{ListHandle, PartitionRuns, StoredList};
    use std::sync::Arc;
    xcheck::prop::check(300, |g| {
        let list = partitioned_list(g);
        let stored = StoredList::read(encode_list_value(&list)).unwrap();
        let oracle = CompressedList::parse(&list.encode_compressed())
            .unwrap()
            .decode_all()
            .unwrap();
        assert_eq!(oracle, list);
        let lazy = ListHandle::stored(Arc::new(stored));
        let in_memory = ListHandle::new(Arc::new(list.clone()));
        let from = g.range(0..list.len() + 1);
        let to = g.range(from..list.len() + 1);
        let want = visible_runs(&oracle, from, to);
        let postings = &oracle.as_slice()[from..to];
        let heads: Vec<u64> = want.iter().map(|(h, _)| *h).collect();
        let ops: Vec<u64> = g.vec(0..12, |g| match g.weighted(&[3, 1]) {
            0 if !heads.is_empty() => g.pick(&heads) + g.range(0u64..2),
            _ => g.range(0u64..12),
        });
        for fresh in [&lazy, &in_memory] {
            // Bounds on a whole list come from the skip table alone.
            let all = visible_runs(&oracle, 0, list.len());
            let below = all.iter().filter(|(h, _)| *h != HEAD_AT_ROOT).count();
            let (lo, hi) = fresh.partition_bounds();
            assert!(
                lo <= below && below <= hi,
                "whole list: {lo} <= {below} <= {hi}"
            );
        }
        for handle in [&lazy, &in_memory] {
            let view = handle.slice(from..to);
            // Forward iteration, run by run.
            let read: Vec<&[invindex::Posting]> = view.run_postings().collect();
            assert_eq!(read.len(), want.len());
            assert_eq!(read.concat(), postings);
            let mut blocks = Vec::new();
            view.for_each_block(|block| blocks.extend_from_slice(block));
            assert_eq!(blocks, postings);
            // The partitions below the root, bounded before any cursor runs
            // on a whole list.
            let below = want.iter().filter(|(h, _)| *h != HEAD_AT_ROOT).count();
            let (lo, hi) = view.partition_bounds();
            assert!(lo <= below && below <= hi, "{lo} <= {below} <= {hi}");
            assert_eq!(
                view.last_partition(),
                postings.last().map(|p| {
                    let c = p.dewey.components();
                    c.get(1).map_or(0, |&o| u64::from(o) + 1)
                })
            );
            // Seeks: the cursor stands where the run table says.
            let mut runs = view.partition_runs();
            let mut at = 0;
            for &head in &ops {
                runs.seek(head);
                while at < want.len() && want[at].0 < head {
                    at += 1;
                }
                assert_eq!(runs.current(), want.get(at).cloned(), "seek {head}");
                // Exactly `left` runs from here on.
                let left = want.len() - at;
                let here = std::slice::from_ref(&runs);
                assert!(
                    PartitionRuns::at_least(here, left),
                    "{left} left after {head}"
                );
                assert!(
                    !PartitionRuns::at_least(here, left + 1),
                    "{left} left after {head}"
                );
                let (lo, hi) = runs.remaining_bounds();
                assert!(lo <= left && left <= hi);
                let run = want.get(at).map(|(_, r)| &postings[r.clone()]);
                assert_eq!(runs.current_postings(), run);
            }
        }
    });
}

#[test]
fn a_block_that_does_not_decode_reads_empty_and_is_reported() {
    use invindex::{ListHandle, StoredList};
    use std::sync::Arc;
    let list = list_from(
        (0..300u32)
            .map(|i| Dewey::new(vec![0, i / 7, i]).unwrap())
            .collect(),
    );
    let mut payload = list.encode_compressed();
    // The first header byte of the last block's second posting: its
    // reserved bit fails the block, and nothing the skip table checks.
    let parsed = CompressedList::parse(&payload).unwrap();
    let last = parsed.blocks().last().unwrap().clone();
    let data_at = payload.len() - parsed.blocks().iter().map(|m| m.len).sum::<usize>();
    let mut pos = data_at + last.offset;
    invindex::postings::read_varint(&payload, &mut pos).unwrap();
    payload[pos] |= 0x80;
    let handle = ListHandle::stored(Arc::new(StoredList::read(frame(&payload)).unwrap()));
    assert!(
        handle.damage().is_none(),
        "the frame and skip table are sound"
    );
    // Blocks before the damaged one read as they should.
    let mut runs = handle.partition_runs();
    assert_eq!(runs.current_postings().unwrap(), &list.as_slice()[..7]);
    assert!(handle.damage().is_none());
    // The damaged block reads as empty, and the list says so.
    runs.seek(u64::MAX);
    let read: usize = handle.run_postings().map(<[_]>::len).sum();
    assert_eq!(read, list.len() - last.count);
    let damage = handle.damage().expect("the block was read");
    assert!(damage.is_corrupt(), "{damage}");
    assert!(
        damage.to_string().contains("reserved header bit"),
        "{damage}"
    );
}

/// `payload` framed as a store holds it, with a checksum that matches.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    invindex::postings::write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&kvstore::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn forged_block_bytes_never_panic_a_reader() {
    use invindex::{ListHandle, StoredList};
    use std::sync::Arc;
    let mut rng = XorShift(0xB10C_5EED);
    let list = list_from(
        (0..400u32)
            .map(|i| Dewey::new(vec![0, i / 9, i % 9, i % 4]).unwrap())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect(),
    );
    let payload = list.encode_compressed();
    let parsed = CompressedList::parse(&payload).unwrap();
    let data_at = payload.len() - parsed.blocks().iter().map(|m| m.len).sum::<usize>();
    for _ in 0..2_000 {
        let mut bad = payload.clone();
        // Block bytes only: the skip table, which acquisition checks,
        // stays sound.
        for _ in 0..=rng.below(3) {
            let i = data_at + rng.below((bad.len() - data_at) as u64) as usize;
            bad[i] ^= 1 << rng.below(8);
        }
        let Ok(stored) = StoredList::read(frame(&bad)) else {
            continue;
        };
        let handle = ListHandle::stored(Arc::new(stored));
        let read: Vec<Posting> = handle.run_postings().flatten().cloned().collect();
        let mut runs = handle.partition_runs();
        while let Some((head, range)) = runs.current() {
            assert!(range.end <= handle.len());
            runs.seek(head + 1 + rng.below(3));
        }
        let _ = (handle.partition_bounds(), handle.last_partition());
        let view = handle.slice(handle.len() / 3..handle.len() / 2);
        let _ = view.run_postings().count();
        match handle.damage() {
            // Read as it decodes, when nothing was damaged.
            None => {
                let decoded = CompressedList::parse(&bad).unwrap().decode_all().unwrap();
                assert_eq!(read, decoded.as_slice());
            }
            Some(e) => assert!(e.is_corrupt(), "{e}"),
        }
    }
}
