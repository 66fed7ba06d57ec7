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

/// `ListCursor::skip_partition` against its binary-search definition,
/// on the walk Algorithm 2 takes: the partition of the smallest head
/// across all cursors, every cursor skipped past it, root-level postings
/// consumed one by one with `next()`.
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
            for ((c, handle), stats) in cursors.iter_mut().zip(&handles).zip(&stats) {
                // The walk leaves every cursor at or before the
                // partition, so the whole range is what gets consumed.
                let expected = handle.partition_range(&root);
                let before = stats.advances();
                assert_eq!(
                    c.skip_partition(root.components()),
                    expected,
                    "partition {root}"
                );
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
