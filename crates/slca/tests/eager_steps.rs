//! Scan Eager's work is bounded by the partitions every list holds: on
//! lists that share one partition, the process-wide
//! `slca_eager_steps_total` moves by at most that partition's postings
//! plus the lists' partition runs — not by the lists' lengths.
//!
//! One test, its own binary: the counter is process-wide.

use invindex::{ListHandle, Posting};
use slca::{slca_brute_force, slca_scan_eager};
use xmldom::{Dewey, NodeTypeId};

fn eager_steps() -> u64 {
    obs::global()
        .snapshot()
        .counters
        .get("slca_eager_steps_total")
        .copied()
        .unwrap_or(0)
}

/// `per` postings under each of the partitions `0.p`, `p` in `partitions`.
fn list(partitions: impl Iterator<Item = u32>, per: u32) -> ListHandle {
    let postings = partitions
        .flat_map(|p| (0..per).map(move |i| vec![0, p, i]))
        .map(|l| Posting::new(Dewey::new(l).expect("non-empty"), NodeTypeId(0)))
        .collect();
    ListHandle::from_postings(postings)
}

#[test]
fn steps_are_bounded_by_the_shared_partition_and_the_runs() {
    // Only partition 0.5 holds all three keywords.
    let lists = [
        list(0..20, 3),
        list((5..6).chain(20..40), 2),
        list((5..6).chain(20..40), 1),
    ];
    let shared: u64 = (lists.iter())
        .map(|l| l.iter().filter(|p| p.dewey.components()[1] == 5).count() as u64)
        .sum();
    // A list's runs: the partitions it holds.
    let runs: u64 = (lists.iter())
        .map(|l| {
            let mut partitions: Vec<u32> = l.iter().map(|p| p.dewey.components()[1]).collect();
            partitions.dedup();
            partitions.len() as u64
        })
        .sum();
    let postings: Vec<&[Posting]> = lists.iter().map(ListHandle::postings).collect();

    let before = eager_steps();
    let found = slca_scan_eager(&lists);
    let steps = eager_steps() - before;

    assert_eq!(found, slca_brute_force(&postings));
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(steps <= shared + runs, "{steps} > {shared} + {runs}");
    // Well below a scan of the lists, which passes every posting.
    let total: u64 = lists.iter().map(|l| l.len() as u64).sum();
    assert!(steps < total, "{steps} >= {total}");
}
