//! Property tests for posting-list range operations (the stored
//! encoding has its own battery in `compress_prop.rs`).

use invindex::{Posting, PostingList};
use proptest::prelude::*;
use xmldom::{Dewey, NodeTypeId};

fn posting_set() -> impl Strategy<Value = Vec<Posting>> {
    proptest::collection::btree_set(
        (
            proptest::collection::vec(0u32..5, 0..5),
            0u32..8, // node type id
        ),
        0..24,
    )
    .prop_map(|set| {
        set.into_iter()
            .map(|(tail, ty)| {
                let mut comps = vec![0u32];
                comps.extend(tail);
                (comps, ty)
            })
            // btree_set dedups on (comps, ty); dedup again on comps alone
            .collect::<std::collections::BTreeMap<Vec<u32>, u32>>()
            .into_iter()
            .map(|(comps, ty)| Posting::new(Dewey::new(comps).unwrap(), NodeTypeId(ty)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounds_partition_the_list(postings in posting_set(), probe in proptest::collection::vec(0u32..5, 0..5)) {
        let list = PostingList::from_sorted(postings);
        let mut comps = vec![0u32];
        comps.extend(probe);
        let target = Dewey::new(comps).unwrap();

        let lb = list.lower_bound(&target);
        let ub = list.upper_bound(&target);
        prop_assert!(lb <= ub);
        for (i, p) in list.iter().enumerate() {
            if i < lb { prop_assert!(p.dewey < target); }
            if i >= ub { prop_assert!(p.dewey > target); }
        }

        let range = list.partition_range(&target);
        for (i, p) in list.iter().enumerate() {
            let inside = target.is_ancestor_or_self_of(&p.dewey);
            prop_assert_eq!(range.contains(&i), inside,
                "posting {} vs partition {}", p.dewey, target);
        }
    }
}
