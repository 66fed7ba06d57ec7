//! The block decoder that serves equals the block decoder that was.
//!
//! `reference` below is `postings.rs` as it stood before decoding went
//! through one in-place block decoder: `CompressedList::decode_block`
//! and `decode_all`, `PostingList::from_sorted` (which `decode_all`
//! ended in) and the helpers they called — `read_varint`,
//! `read_u32_varint`, `partition_key`, `extend_runs` and the header
//! constants — kept verbatim as a test-only oracle. The methods sit on
//! `RefList`, a stand-in holding what a parsed `CompressedList` holds
//! (its posting count, skip table and block bytes), so their bodies are
//! unchanged; `parse` is shared, since the skip table's validation did
//! not change.
//!
//! The old `read_varint` (here `read_varint_wrapping`) kept a tenth
//! byte's bits above the 64th by dropping them; the varint reader now
//! refuses such a value. That is the one intended difference, so the
//! reference decoder reads through the crate's `read_varint`, and a
//! property of its own checks that the two readers agree on every byte
//! string except one whose tenth byte is above 1.
//!
//! The properties compare the two on:
//! * random lists — labels of one to twelve components, so both sides
//!   of `Dewey`'s seven-component inline width, a root posting, node
//!   types that change and repeat, one block to many — where the
//!   postings must be equal, and the reference's partition-run table
//!   must equal the runs a `ListHandle` over the same payload reports
//!   through `partition_runs()`;
//! * every truncation and every single-bit flip of encoded payloads,
//!   where `decode_all` and every `decode_block` must agree on `Ok` or
//!   `Err`, with the identical error string.
//!
//! In release builds a last test times both decoders over corpus_m's
//! stored lists and prints ns per posting. It reports; it asserts no
//! speed.

use std::collections::BTreeSet;
use std::sync::Mutex;

use invindex::{CompressedList, ListHandle, Posting, PostingList, StoredList};
use kvstore::Result;
use reference::Run;
use xcheck::prop::{check, Gen};
use xmldom::{Dewey, NodeTypeId};

mod reference {
    use invindex::postings::read_varint;
    use invindex::{BlockMeta, Posting, HEAD_AT_ROOT};
    use kvstore::{KvError, Result};
    use xmldom::{Dewey, NodeTypeId};

    /// What a parsed `CompressedList` holds.
    pub struct RefList<'a> {
        pub n: usize,
        pub blocks: &'a [BlockMeta],
        pub data: &'a [u8],
    }

    /// One maximal run of a list's postings that share a partition.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Run {
        /// The run's partition as one integer ordered the way the labels
        /// are: `HEAD_AT_ROOT` for the document root itself, `ordinal + 1`
        /// inside partition `0.ordinal`.
        pub head: u64,
        /// Index of the run's first posting in the list.
        pub start: usize,
    }

    /// A decoded list: its postings and their partition runs.
    pub struct PostingList {
        pub postings: Vec<Posting>,
        pub runs: Vec<Run>,
    }

    pub(crate) fn partition_key(dewey: &Dewey) -> u64 {
        match dewey.components().get(1) {
            None => HEAD_AT_ROOT,
            // At most 2^32, so below `u64::MAX`.
            Some(&ordinal) => u64::from(ordinal).saturating_add(1),
        }
    }

    impl PostingList {
        /// Builds from a vector that must already be in document order.
        pub fn from_sorted(postings: Vec<Posting>) -> Self {
            debug_assert!(
                postings.windows(2).all(|w| w[0].dewey < w[1].dewey),
                "postings must be strictly document-ordered"
            );
            let mut runs = Vec::new();
            for (i, p) in postings.iter().enumerate() {
                extend_runs(&mut runs, i, &p.dewey);
            }
            // Decoded lists are cached whole and never grow: no slack.
            runs.shrink_to_fit();
            PostingList { postings, runs }
        }
    }

    /// Accounts the posting at index `i`, labelled `dewey`, in the run table:
    /// it opens a run unless it stands where the last run does.
    fn extend_runs(runs: &mut Vec<Run>, i: usize, dewey: &Dewey) {
        let head = partition_key(dewey);
        if runs.last().map(|r| r.head) != Some(head) {
            runs.push(Run { head, start: i });
        }
    }

    /// Reads a LEB128 varint, advancing `pos`. `None` on truncation/overflow.
    pub fn read_varint_wrapping(bytes: &[u8], pos: &mut usize) -> Option<u64> {
        let mut result = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *bytes.get(*pos)?;
            *pos += 1;
            if shift >= 64 {
                return None;
            }
            result |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(result);
            }
            shift += 7;
        }
    }

    const HDR_FIELD_ESCAPE: u8 = 7;
    const HDR_SAME_TYPE: u8 = 0x40;
    const HDR_RESERVED: u8 = 0x80;

    impl RefList<'_> {
        /// Decodes one block, validating the posting stream against the
        /// block's skip entry (count, strict document order by construction,
        /// max label).
        pub fn decode_block(&self, i: usize) -> Result<Vec<Posting>> {
            let corrupt =
                |what: String| KvError::corrupt(format!("compressed list block {i}: {what}"));
            let meta = self
                .blocks
                .get(i)
                .ok_or_else(|| corrupt("no such block".into()))?;
            let end = meta
                .offset
                .checked_add(meta.len)
                .ok_or_else(|| corrupt("byte extent overflow".into()))?;
            let bytes = self
                .data
                .get(meta.offset..end)
                .ok_or_else(|| corrupt("byte extent outside payload".into()))?;
            let mut pos = 0usize;
            let t0 = read_u32_varint(bytes, &mut pos)
                .ok_or_else(|| corrupt("bad first node type".into()))?;
            let mut out = Vec::with_capacity(meta.count);
            out.push(Posting::new(meta.min.clone(), NodeTypeId(t0)));
            // The one working buffer: the predecessor's label, rewritten in
            // place into each posting's, which `Dewey::from_slice` copies —
            // inline, so a posting allocates nothing unless its label is
            // longer than seven components.
            let mut comps: Vec<u32> = meta.min.components().to_vec();
            let mut prev_type = t0;
            for _ in 1..meta.count {
                let header = *bytes
                    .get(pos)
                    .ok_or_else(|| corrupt("truncated posting header".into()))?;
                pos += 1;
                if header & HDR_RESERVED != 0 {
                    return Err(corrupt("reserved header bit set".into()));
                }
                let mut trim = usize::from(header & 7);
                if trim == usize::from(HDR_FIELD_ESCAPE) {
                    trim = read_varint(bytes, &mut pos)
                        .ok_or_else(|| corrupt("truncated trim escape".into()))?
                        as usize;
                    if trim < usize::from(HDR_FIELD_ESCAPE) {
                        return Err(corrupt("non-canonical trim escape".into()));
                    }
                }
                let mut rest = usize::from((header >> 3) & 7);
                if rest == usize::from(HDR_FIELD_ESCAPE) {
                    rest = read_varint(bytes, &mut pos)
                        .ok_or_else(|| corrupt("truncated rest escape".into()))?
                        as usize;
                    if rest < usize::from(HDR_FIELD_ESCAPE) {
                        return Err(corrupt("non-canonical rest escape".into()));
                    }
                }
                if rest == 0 {
                    return Err(corrupt(
                        "posting repeats or precedes its predecessor".into(),
                    ));
                }
                if rest > bytes.len() {
                    return Err(corrupt("component count exceeds block size".into()));
                }
                let shared = comps
                    .len()
                    .checked_sub(trim)
                    .ok_or_else(|| corrupt("trim deeper than predecessor".into()))?;
                let base = comps.get(shared).copied().unwrap_or(0);
                comps.truncate(shared);
                let d0 = read_varint(bytes, &mut pos)
                    .ok_or_else(|| corrupt("truncated component".into()))?;
                let c0 = if trim > 0 {
                    let v = u64::from(base)
                        .checked_add(1)
                        .and_then(|b| b.checked_add(d0))
                        .ok_or_else(|| corrupt("component overflow".into()))?;
                    u32::try_from(v).map_err(|_| corrupt("component overflow".into()))?
                } else {
                    u32::try_from(d0).map_err(|_| corrupt("component overflow".into()))?
                };
                comps.push(c0);
                for _ in 1..rest {
                    let c = read_u32_varint(bytes, &mut pos)
                        .ok_or_else(|| corrupt("bad component".into()))?;
                    comps.push(c);
                }
                let node_type = if header & HDR_SAME_TYPE != 0 {
                    prev_type
                } else {
                    read_u32_varint(bytes, &mut pos)
                        .ok_or_else(|| corrupt("bad node type".into()))?
                };
                let dewey = Dewey::from_slice(&comps)
                    .ok_or_else(|| corrupt("empty posting label".into()))?;
                out.push(Posting::new(dewey, NodeTypeId(node_type)));
                prev_type = node_type;
            }
            if pos != bytes.len() {
                return Err(corrupt("trailing bytes".into()));
            }
            match out.last() {
                Some(last) if last.dewey == meta.max => Ok(out),
                _ => Err(corrupt("last posting does not match skip-table max".into())),
            }
        }

        /// Decodes every block into a full [`PostingList`] (the serving
        /// path: cached handles hold fully materialized lists).
        pub fn decode_all(&self) -> Result<PostingList> {
            let mut postings = Vec::with_capacity(self.n.min(self.data.len() + self.blocks.len()));
            for i in 0..self.blocks.len() {
                postings.extend(self.decode_block(i)?);
            }
            Ok(PostingList::from_sorted(postings))
        }
    }

    fn read_u32_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
        u32::try_from(read_varint(bytes, pos)?).ok()
    }
}

/// The parent of `list`, parsed from `payload`: the block bytes are the
/// payload's tail, as long as the skip table's lengths add up to.
fn reference_of<'a>(list: &'a CompressedList<'_>, payload: &'a [u8]) -> reference::RefList<'a> {
    let data_len: usize = list.blocks().iter().map(|m| m.len).sum();
    reference::RefList {
        n: list.len(),
        blocks: list.blocks(),
        data: &payload[payload.len() - data_len..],
    }
}

/// A decode as the properties compare it: the postings and runs, or the
/// error's text.
type Decoded = std::result::Result<(Vec<Posting>, Vec<Run>), String>;

/// `decode_all`'s postings, with the runs a cursor over a handle on
/// `payload`, read from the store, reports.
fn new_decode_all(list: &CompressedList<'_>, payload: &[u8]) -> Decoded {
    list.decode_all()
        .map(|l| (l.as_slice().to_vec(), stored_runs(payload)))
        .map_err(|e| e.to_string())
}

/// The runs a cursor over a [`ListHandle`] on `payload`, framed as a
/// store holds it, reports, with their whole-list starts.
fn stored_runs(payload: &[u8]) -> Vec<Run> {
    let mut value = Vec::new();
    invindex::postings::write_varint(&mut value, payload.len() as u64);
    value.extend_from_slice(&kvstore::crc32(payload).to_le_bytes());
    value.extend_from_slice(payload);
    let handle = ListHandle::stored(std::sync::Arc::new(StoredList::read(value).unwrap()));
    let mut cursor = handle.partition_runs();
    let mut runs = Vec::new();
    while let Some((head, range)) = cursor.current() {
        runs.push(Run {
            head,
            start: range.start,
        });
        cursor.seek(head + 1);
    }
    assert!(handle.damage().is_none(), "a payload decode_all accepts");
    runs
}

fn reference_decode_all(list: &reference::RefList<'_>) -> Decoded {
    list.decode_all()
        .map(|l| (l.postings, l.runs))
        .map_err(|e| e.to_string())
}

fn as_text<T>(r: Result<T>) -> std::result::Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Both decoders on one payload: `parse` is shared, then `decode_all`
/// and each block's `decode_block` must agree exactly. Returns whether
/// the new `decode_all` accepted it.
fn agree_on(payload: &[u8]) -> bool {
    let Ok(list) = CompressedList::parse(payload) else {
        return false;
    };
    let oracle = reference_of(&list, payload);
    let decoded = new_decode_all(&list, payload);
    assert_eq!(decoded, reference_decode_all(&oracle), "decode_all");
    for i in 0..=list.blocks().len() {
        assert_eq!(
            as_text(list.decode_block(i)),
            as_text(oracle.decode_block(i)),
            "decode_block({i})"
        );
    }
    decoded.is_ok()
}

/// A component: mostly from a small alphabet, so labels share prefixes
/// and partitions hold runs, sometimes a multi-byte varint.
fn component(g: &mut Gen) -> u32 {
    match g.weighted(&[12, 2, 1]) {
        0 => g.range(0u32..4),
        1 => g.range(0u32..400),
        _ => g.any::<u32>(),
    }
}

/// A label under the root `0`: the root itself, a short one, or one
/// longer than `Dewey`'s inline width.
fn label(g: &mut Gen) -> Vec<u32> {
    let len = match g.weighted(&[1, 12, 4]) {
        0 => 1,
        1 => g.range(2usize..8),
        _ => g.range(8usize..13),
    };
    let mut l = vec![0];
    while l.len() < len {
        l.push(component(g));
    }
    l
}

/// A list of up to `max` postings whose node types change and repeat.
fn list(g: &mut Gen, max: usize) -> PostingList {
    let labels: BTreeSet<Vec<u32>> = g.btree_set(1..=max, label);
    let mut node_type = 0u32;
    let postings = labels
        .into_iter()
        .map(|l| {
            if g.weighted(&[3, 1]) == 1 {
                node_type = g.range(0u32..6);
            }
            Posting::new(Dewey::new(l).unwrap(), NodeTypeId(node_type))
        })
        .collect();
    PostingList::from_sorted(postings)
}

#[test]
fn read_varint_differs_from_the_old_reader_only_on_overflow() {
    check(5_000, |g| {
        // Mostly continuation bytes, so reads run to ten bytes and past.
        let bytes = g.vec(0..=12, |g| {
            if g.weighted(&[3, 1]) == 0 {
                0x80 | g.range(0u8..0x80)
            } else {
                g.any::<u8>()
            }
        });
        let (mut new_pos, mut old_pos) = (0, 0);
        let new = invindex::postings::read_varint(&bytes, &mut new_pos);
        let old = reference::read_varint_wrapping(&bytes, &mut old_pos);
        match (new, old) {
            // Where a read fails, `pos` is of no account.
            (None, None) => {}
            (Some(_), _) => assert_eq!((new, new_pos), (old, old_pos), "{bytes:02x?}"),
            (None, Some(_)) => {
                assert_eq!(old_pos, 10, "{bytes:02x?}: only a ten-byte read may differ");
                assert!(
                    bytes[9] & 0x7F > 1,
                    "{bytes:02x?}: only a tenth byte above 1"
                );
            }
        }
    });
}

/// The property tests and the timing test share two cores: the timing
/// runs alone.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn decoded_postings_and_runs_equal_the_reference() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    check(400, |g| {
        let max = match g.weighted(&[2, 2, 1]) {
            0 => 64,
            1 => 300,
            _ => 900,
        };
        let list = list(g, max);
        let payload = list.encode_compressed();
        assert!(agree_on(&payload), "a clean payload must decode");
        let decoded = CompressedList::parse(&payload)
            .unwrap()
            .decode_all()
            .unwrap();
        assert_eq!(decoded, list);
    });
}

#[test]
fn damage_is_reported_exactly_as_the_reference_reports_it() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Debug builds take every third flip position, release all of them.
    let stride = if cfg!(debug_assertions) { 3 } else { 1 };
    check(60, |g| {
        let max = if g.bool() { 64 } else { 150 };
        let payload = list(g, max).encode_compressed();
        for cut in 0..payload.len() {
            agree_on(&payload[..cut]);
        }
        let mut mutated = payload.clone();
        for i in (0..payload.len()).step_by(stride) {
            for bit in 0..8 {
                mutated[i] ^= 1 << bit;
                agree_on(&mutated);
                mutated[i] ^= 1 << bit;
            }
        }
    });
}

#[cfg(not(debug_assertions))]
#[test]
fn reports_decode_ns_per_posting_over_corpus_m() {
    use std::time::Instant;

    use datagen::{generate_dblp, DblpConfig};
    use kvstore::{KvStore, MemKv};

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let doc = generate_dblp(&DblpConfig {
        authors: 2_500,
        seed: 7,
        ..Default::default()
    });
    let index = invindex::build_streaming(&doc.to_xml(), 1).unwrap();
    let mut store = MemKv::new();
    invindex::persist::persist(&index, &mut store).unwrap();
    // Each stored value is `varint(len) ‖ crc32 ‖ payload`.
    let payloads: Vec<Vec<u8>> = store
        .scan_prefix(b"L/")
        .unwrap()
        .into_iter()
        .map(|(_, value)| {
            let mut pos = 0;
            invindex::postings::read_varint(&value, &mut pos).unwrap();
            value[pos + 4..].to_vec()
        })
        .collect();
    let postings: usize = payloads
        .iter()
        .map(|p| CompressedList::parse(p).unwrap().len())
        .sum();
    for payload in &payloads {
        assert!(agree_on(payload));
    }

    let time = |decode: &dyn Fn(&[u8]) -> usize| {
        let started = Instant::now();
        let mut decoded = 0;
        for payload in &payloads {
            decoded += decode(payload);
        }
        assert_eq!(decoded, postings);
        started.elapsed().as_nanos() as f64 / postings as f64
    };
    let reference = |p: &[u8]| {
        let list = CompressedList::parse(p).unwrap();
        std::hint::black_box(reference_of(&list, p).decode_all().unwrap())
            .postings
            .len()
    };
    let new = |p: &[u8]| {
        std::hint::black_box(CompressedList::parse(p).unwrap().decode_all().unwrap()).len()
    };
    // Alternate the two, and keep each one's best round.
    let (mut best_reference, mut best_new) = (f64::MAX, f64::MAX);
    for _ in 0..15 {
        best_reference = best_reference.min(time(&reference));
        best_new = best_new.min(time(&new));
    }
    println!(
        "{} lists, {postings} postings: parse + decode_all {best_new:.1} ns per posting, \
         reference {best_reference:.1} ns per posting ({:.2}x)",
        payloads.len(),
        best_new / best_reference
    );
}
