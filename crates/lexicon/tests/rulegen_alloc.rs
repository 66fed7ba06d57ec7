//! Allocation budget of rule generation, as a scale-free gate: what
//! `generate_rules` allocates follows the rules it makes, not the
//! vocabulary it scans. The same typo query runs against a 1 000-word and
//! a 16 000-word synthetic vocabulary that share their near words; the
//! filler words differ, and none of them is a rule's target. Both runs
//! must make the same rules with exactly the same number of allocations.
//! (Before the spelling scan ran a banded DP over bytes, every
//! vocabulary word of four or more characters cost three allocations for
//! each out-of-vocabulary keyword: two `Vec<char>` and a matrix.)
//!
//! A second test times the same query at 10³, 10⁴ and 10⁵ words and
//! prints the scan's cost per vocabulary word (`--nocapture`); it
//! asserts only the allocation counts.
//!
//! The tests own this binary: the counting allocator is process-wide,
//! and they take `SERIAL` so that the timed one runs alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use lexicon::{
    damerau_levenshtein, generate_rules, porter_stem, AcronymTable, Rule, RuleSet, Thesaurus,
    VocabIndex,
};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the allocations of a thread that asked for it.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        // SAFETY: as for `alloc` and `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Two misspelt keywords, next to each other so the merge probe runs.
const QUERY: [&str; 2] = ["serch", "databse"];

/// The words every vocabulary starts with: the spelling and stemming
/// targets of [`QUERY`], and a few that are close but not close enough.
const NEAR: [&str; 9] = [
    "search",
    "searches",
    "database",
    "databases",
    "data",
    "base",
    "dataset",
    "research",
    "serial",
];

/// Letters in rough English frequency order, with their weights, so that
/// fillers share letters with the query the way real vocabulary does.
const LETTERS: &[u8] = b"etaoinshrdlcumwfgypbvkjxqz";
const WEIGHTS: [u32; 26] = [
    127, 91, 82, 75, 70, 67, 63, 61, 60, 43, 40, 28, 28, 24, 24, 22, 20, 20, 19, 15, 10, 8, 2, 2,
    1, 1,
];

/// SplitMix64: a fixed stream, so both vocabularies are the same every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn letter(&mut self) -> char {
        let total: u64 = WEIGHTS.iter().map(|&w| u64::from(w)).sum();
        let mut ticket = self.next() % total;
        for (&letter, &w) in LETTERS.iter().zip(&WEIGHTS) {
            if ticket < u64::from(w) {
                return char::from(letter);
            }
            ticket -= u64::from(w);
        }
        unreachable!("ticket below the weight total")
    }
}

/// Whether `word` could become a rule's target for [`QUERY`]: a spelling
/// neighbour, a stem variant, a split part or a merge.
fn could_be_a_target(word: &str) -> bool {
    QUERY.iter().any(|k| {
        damerau_levenshtein(k, word) <= 2
            || porter_stem(k) == porter_stem(word)
            || k.starts_with(word)
            || k.ends_with(word)
    }) || word == QUERY.concat()
}

/// [`NEAR`] followed by fillers of 3–12 letters, `size` words in all.
fn vocabulary(size: usize) -> Vec<String> {
    let mut rng = Rng(size as u64);
    let mut words: Vec<String> = NEAR.iter().map(|w| w.to_string()).collect();
    while words.len() < size {
        let len = 3 + (rng.next() % 10) as usize;
        let word: String = (0..len).map(|_| rng.letter()).collect();
        if !could_be_a_target(&word) {
            words.push(word);
        }
    }
    words
}

struct Measured {
    allocations: u64,
    rules: Vec<Rule>,
    ns_per_word: f64,
}

fn measure(size: usize, reps: u32) -> Measured {
    let vocab = VocabIndex::new(vocabulary(size));
    assert!(vocab.len() > size * 9 / 10, "the fillers must be distinct");
    let query: Vec<String> = QUERY.iter().map(|k| k.to_string()).collect();
    let (thesaurus, acronyms) = (Thesaurus::bibliographic(), AcronymTable::computer_science());
    let run = || generate_rules(&query, &vocab, &thesaurus, &acronyms);
    let rules: RuleSet = run();

    ALLOCATIONS.set(0);
    COUNTING.set(true);
    let counted = run();
    COUNTING.set(false);
    let allocations = ALLOCATIONS.get();
    drop(counted);

    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(run());
    }
    let ns_per_word = started.elapsed().as_nanos() as f64 / f64::from(reps) / vocab.len() as f64;
    Measured {
        allocations,
        rules: rules.iter().map(|(_, r)| r.clone()).collect(),
        ns_per_word,
    }
}

#[test]
fn allocations_do_not_grow_with_the_vocabulary() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let small = measure(1_000, 1);
    let large = measure(16_000, 1);
    for (size, m) in [(1_000, &small), (16_000, &large)] {
        println!(
            "{size} words: {} allocations, {} rules",
            m.allocations,
            m.rules.len()
        );
    }
    assert!(
        small.rules.iter().any(|r| r.rhs == ["search"]) && small.rules.len() >= 4,
        "the query must make spelling and stemming rules: {:?}",
        small.rules
    );
    assert_eq!(small.rules, large.rules, "the fillers must make no rule");
    assert_eq!(
        small.allocations, large.allocations,
        "allocations must follow the rules, not the vocabulary"
    );
}

#[test]
fn reports_the_scan_cost_per_vocabulary_word() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runs: Vec<(usize, Measured)> = [1_000, 10_000, 100_000]
        .into_iter()
        .map(|size| (size, measure(size, (2_000_000 / size) as u32)))
        .collect();
    for (size, m) in &runs {
        println!(
            "{size} words: {:.2} ns per word, {} allocations",
            m.ns_per_word, m.allocations
        );
    }
    assert!(runs
        .iter()
        .all(|(_, m)| m.allocations == runs[0].1.allocations));
}
