//! Property tests for posting-list range operations (the stored
//! encoding has its own battery in `compress_prop.rs`).

use invindex::{ListHandle, Posting};
use std::collections::BTreeMap;
use xcheck::prop::{check, Gen};
use xmldom::{Dewey, NodeTypeId};

fn dewey(g: &mut Gen) -> Dewey {
    let mut comps = vec![0u32];
    comps.extend(g.vec(0..5, |g| g.range(0u32..5)));
    Dewey::new(comps).unwrap()
}

/// Up to 23 postings in document order, one per distinct Dewey label.
fn posting_set(g: &mut Gen) -> Vec<Posting> {
    let typed: BTreeMap<Dewey, u32> = g
        .vec(0..24, |g| (dewey(g), g.range(0u32..8)))
        .into_iter()
        .collect();
    typed
        .into_iter()
        .map(|(dewey, ty)| Posting::new(dewey, NodeTypeId(ty)))
        .collect()
}

#[test]
fn bounds_partition_the_list() {
    check(256, |g| {
        let list = ListHandle::from_postings(posting_set(g));
        let target = dewey(g);

        let lb = list.lower_bound(&target);
        for (i, p) in list.iter().enumerate() {
            assert_eq!(i < lb, p.dewey < target);
        }

        let range = list.partition_range(&target);
        for (i, p) in list.iter().enumerate() {
            let inside = target.is_ancestor_or_self_of(&p.dewey);
            assert_eq!(
                range.contains(&i),
                inside,
                "posting {} vs partition {}",
                p.dewey,
                target
            );
        }
    });
}

/// A cursor's partition skip (`ListCursor::skip_run`) against its
/// binary-search definition (`ListHandle::partition_range`, which reads
/// labels, not the run table), on the walk Algorithm 2 takes: the
/// partition of the smallest head across all cursors, every cursor
/// standing in it skipped past it — the others hold nothing of it —
/// root-level postings consumed one by one with `next()`.
#[test]
fn skip_partition_matches_the_binary_search_definition() {
    use invindex::{ListCursor, ScanStats};

    check(256, |g| {
        let handles: Vec<ListHandle> = g
            .vec(1..5, |g| ListHandle::from_postings(posting_set(g)))
            .into_iter()
            .collect();
        let stats: Vec<_> = handles.iter().map(|_| ScanStats::new()).collect();
        let mut cursors: Vec<ListCursor<'_>> = handles
            .iter()
            .zip(&stats)
            .map(|(h, s)| ListCursor::new(h, s.clone()))
            .collect();

        let mut visited = 0usize;
        while let Some(v) = cursors
            .iter()
            .filter_map(|c| c.peek())
            .map(|p| p.dewey.clone())
            .min()
        {
            let Some(root) = v.partition() else {
                for c in cursors.iter_mut() {
                    if c.peek().is_some_and(|p| p.dewey == v) {
                        c.next();
                    }
                }
                continue;
            };
            let head = u64::from(root.components()[1]) + 1;
            for ((c, handle), stats) in cursors.iter_mut().zip(&handles).zip(&stats) {
                // The walk leaves every cursor at or before the
                // partition, so the whole range is what gets consumed.
                let expected = handle.partition_range(&root);
                let before = stats.advances();
                if c.head_partition() == head {
                    assert_eq!(c.skip_run(), expected, "partition {root}");
                } else {
                    assert!(expected.is_empty(), "partition {root} missed");
                    assert!(c.head_partition() > head);
                }
                assert_eq!(stats.advances() - before, expected.len() as u64);
                assert_eq!(c.peek(), handle.postings().get(expected.end));
            }
            visited += 1;
        }
        // One scan: every posting of every list was advanced over once.
        for (handle, stats) in handles.iter().zip(&stats) {
            assert_eq!(stats.advances(), handle.len() as u64);
        }
        assert!(visited <= 5);
    });
}

/// Up to 23 postings in document order whose labels cover what the run
/// table must get right: a posting on the root itself, partitions of one
/// and of several postings, and the last ordinal, `u32::MAX`.
fn partitioned_set(g: &mut Gen) -> Vec<Posting> {
    let mut labels: std::collections::BTreeSet<Vec<u32>> = g
        .vec(0..24, |g| {
            let ordinal = match g.weighted(&[6, 1]) {
                0 => g.range(0u32..6),
                _ => u32::MAX,
            };
            let mut label = vec![0, ordinal];
            label.extend(g.vec(0..3, |g| g.range(0u32..3)));
            label
        })
        .into_iter()
        .collect();
    if g.bool() {
        labels.insert(vec![0]);
    }
    labels
        .into_iter()
        .map(|l| Posting::new(Dewey::new(l).unwrap(), NodeTypeId(0)))
        .collect()
}

/// The run table by its definition: postings grouped into maximal runs
/// by their second component (none for the root: `HEAD_AT_ROOT`, else
/// `ordinal + 1`), each run as (partition, start).
fn runs_by_label(postings: &[Posting]) -> Vec<(u64, usize)> {
    let mut runs: Vec<(u64, usize)> = Vec::new();
    for (i, p) in postings.iter().enumerate() {
        let head = match p.dewey.components().get(1) {
            None => invindex::HEAD_AT_ROOT,
            Some(&ordinal) => u64::from(ordinal) + 1,
        };
        if runs.last().map(|r| r.0) != Some(head) {
            runs.push((head, i));
        }
    }
    runs
}

/// Every way a list comes into being — `from_sorted`, `push` one by one,
/// and `encode_compressed` → `decode_all` — carries the by-label run
/// table, and a cursor over any view of it (starting and ending mid-run
/// included) reports exactly the runs of the view's own postings.
#[test]
fn partition_runs_match_the_by_label_definition_however_the_list_is_built() {
    use invindex::{CompressedList, ListCursor, PostingList, ScanStats, HEAD_AT_END};
    use std::sync::Arc;

    check(256, |g| {
        let postings = partitioned_set(g);
        let expected = runs_by_label(&postings);

        let sorted = PostingList::from_sorted(postings.clone());
        let mut pushed = PostingList::new();
        for p in &postings {
            pushed.push(p.clone());
        }
        let bytes = sorted.encode_compressed();
        let decoded = CompressedList::parse(&bytes).unwrap().decode_all().unwrap();
        for list in [&sorted, &pushed, &decoded] {
            let runs: Vec<(u64, usize)> = list.runs().iter().map(|r| (r.head, r.start)).collect();
            assert_eq!(runs, expected);
        }

        let n = postings.len();
        let from = g.range(0..n + 1);
        let to = g.range(from..n + 1);
        let view = invindex::ListHandle::new(Arc::new(sorted)).slice(from..to);
        let in_view = runs_by_label(view.postings());
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&view, Arc::clone(&stats));
        for (r, &(head, start)) in in_view.iter().enumerate() {
            let end = in_view.get(r + 1).map_or(view.len(), |next| next.1);
            assert_eq!(c.head_partition(), head, "run {r} of view {from}..{to}");
            assert_eq!(c.skip_run(), start..end, "run {r} of view {from}..{to}");
        }
        assert_eq!(c.head_partition(), HEAD_AT_END);
        assert_eq!(c.skip_run(), view.len()..view.len());
        assert_eq!(stats.advances(), view.len() as u64);
    });
}
