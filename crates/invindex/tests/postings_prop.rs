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

/// A run cursor's partition skip (`PartitionRuns::current`, then
/// `seek` past it) against its binary-search definition
/// (`ListHandle::partition_range`, which reads labels, not the run
/// table), on the walk Algorithm 2 takes when it visits every partition:
/// the partition of the smallest head across all cursors, every cursor
/// standing in it skipped past it — the others hold nothing of it —
/// root-level runs sought past.
#[test]
fn skip_partition_matches_the_binary_search_definition() {
    check(256, |g| {
        let handles: Vec<ListHandle> = g
            .vec(1..5, |g| ListHandle::from_postings(posting_set(g)))
            .into_iter()
            .collect();
        let mut cursors: Vec<_> = handles.iter().map(|h| h.partition_runs()).collect();
        for c in &mut cursors {
            c.seek(invindex::HEAD_AT_ROOT + 1);
        }

        let mut visited = 0usize;
        let mut consumed = vec![0usize; handles.len()];
        while let Some(head) = cursors
            .iter()
            .filter_map(|c| c.current())
            .map(|r| r.0)
            .min()
        {
            let root = Dewey::new(vec![0, u32::try_from(head - 1).unwrap()]).unwrap();
            for ((c, handle), consumed) in cursors.iter_mut().zip(&handles).zip(&mut consumed) {
                // The walk leaves every cursor at or before the
                // partition, so the whole range is what gets consumed.
                let expected = handle.partition_range(&root);
                match c.current() {
                    Some((h, range)) if h == head => {
                        assert_eq!(range, expected, "partition {root}");
                        c.seek(head + 1);
                    }
                    other => {
                        assert!(expected.is_empty(), "partition {root} missed");
                        assert!(other.is_none_or(|(h, _)| h > head));
                    }
                }
                *consumed += expected.len();
                let next = c.current().map_or(handle.len(), |(_, r)| r.start);
                assert_eq!(next, expected.end, "cursor after partition {root}");
            }
            visited += 1;
        }
        // Every posting below the root lies in exactly one partition
        // visited.
        for (handle, consumed) in handles.iter().zip(&consumed) {
            let below_root = handle.iter().filter(|p| p.dewey.len() > 1).count();
            assert_eq!(*consumed, below_root);
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
/// table, and a run cursor over any view of it (starting and ending
/// mid-run included) reports exactly the runs of the view's own
/// postings.
#[test]
fn partition_runs_match_the_by_label_definition_however_the_list_is_built() {
    use invindex::{CompressedList, PostingList};
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
        let mut c = view.partition_runs();
        for (r, &(head, start)) in in_view.iter().enumerate() {
            let end = in_view.get(r + 1).map_or(view.len(), |next| next.1);
            let want = Some((head, start..end));
            assert_eq!(c.current(), want, "run {r} of view {from}..{to}");
            c.seek(head + 1);
        }
        assert_eq!(c.current(), None);
    });
}
