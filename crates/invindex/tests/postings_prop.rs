//! Property tests for posting-list range operations (the stored
//! encoding has its own battery in `compress_prop.rs`).

use invindex::{Posting, PostingList};
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
        let list = PostingList::from_sorted(posting_set(g));
        let target = dewey(g);

        let lb = list.lower_bound(&target);
        let ub = list.upper_bound(&target);
        assert!(lb <= ub);
        for (i, p) in list.iter().enumerate() {
            if i < lb {
                assert!(p.dewey < target);
            }
            if i >= ub {
                assert!(p.dewey > target);
            }
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
