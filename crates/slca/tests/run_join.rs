//! Property test: Scan Eager joined on the lists' partition runs equals
//! the brute-force reference on lists shaped to stress the join — root
//! postings, single lists, partitions only some lists hold, and
//! [`ListHandle::slice`] views that start and end in the middle of a run.

use invindex::{ListHandle, Posting};
use slca::{slca_brute_force, slca_scan_eager};
use xcheck::prop::{check, Gen};
use xmldom::{Dewey, NodeTypeId};

/// A list over a few of the partitions `0.0` … `0.7` (so the lists of a
/// case share some partitions and not others), now and then with a
/// posting on the root itself.
fn list(g: &mut Gen) -> ListHandle {
    let held = g.vec(1..=4, |g| g.range(0u32..8));
    let mut labels: Vec<Vec<u32>> = g.vec(0..=10, |g| {
        let mut label = vec![0, g.pick(&held)];
        label.extend(g.vec(0..=2, |g| g.range(0u32..3)));
        label
    });
    if g.weighted(&[3, 1]) == 1 {
        labels.push(vec![0]);
    }
    labels.sort();
    labels.dedup();
    let postings = labels
        .into_iter()
        .map(|l| Posting::new(Dewey::new(l).expect("non-empty"), NodeTypeId(0)))
        .collect();
    ListHandle::from_postings(postings)
}

/// The whole list or, half the time, a view cut at arbitrary positions —
/// mostly inside a run.
fn view(g: &mut Gen, whole: ListHandle) -> ListHandle {
    if g.bool() {
        return whole;
    }
    let start = g.range(0..whole.len() + 1);
    let end = g.range(start..whole.len() + 1);
    whole.slice(start..end)
}

#[test]
fn run_joined_scan_eager_equals_brute_force() {
    check(1024, |g| {
        let lists: Vec<ListHandle> = g.vec(1..=4, |g| {
            let whole = list(g);
            view(g, whole)
        });
        let postings: Vec<&[Posting]> = lists.iter().map(ListHandle::postings).collect();
        assert_eq!(slca_scan_eager(&lists), slca_brute_force(&postings));
    });
}
