//! Property runner: seeded random cases with shrinking, in closure style.
//!
//! ```
//! use xcheck::prop::check;
//!
//! check(256, |g| {
//!     let xs = g.vec(0..20, |g| g.range(0u32..1000));
//!     let mut sorted = xs.clone();
//!     sorted.sort();
//!     assert_eq!(sorted.len(), xs.len());
//! });
//! ```
//!
//! A property draws its inputs from a [`Gen`] and fails by panicking
//! (`assert!`, `unwrap`, an index out of bounds — anything). Every draw
//! bottoms out in one recorded `u64` *choice*, so an input is fully
//! described by its choice stream, the same idea as the `Choice` prefixes
//! [`crate::sched`] records and replays for interleavings. That buys two
//! things with no per-type machinery:
//!
//! * **Shrinking.** On a failure the runner edits the stream — deletes
//!   runs of choices, zeroes them, lowers them by bisection — replays
//!   the property on each edit and keeps it whenever the property still
//!   fails on a shortlex-smaller stream. Generators are written so that
//!   smaller choices mean simpler values (`range` shrinks towards its
//!   lower bound, collections towards fewer elements).
//! * **Replay.** The failure report prints the shrunk stream;
//!   `replay(&[..], |g| ..)` with the same closure reruns exactly that
//!   input under a debugger or as a pinned regression test.
//!
//! Cases are a pure function of the test's name (the harness names each
//! test thread after its test) and the case count: there is no
//! environment variable, no regression file and no wall-clock seed.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Bound, Range, RangeBounds, RangeInclusive};
use std::panic::{self, AssertUnwindSafe, Location};
use std::sync::Once;

/// Property executions the shrinker may spend on one failure.
const SHRINK_BUDGET: usize = 5_000;

/// splitmix64: the seed expander and the case generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..=max` (widening multiply; the bias is below 2^-32
    /// for every span a test draws from).
    fn upto(&mut self, max: u64) -> u64 {
        match max.checked_add(1) {
            Some(span) => ((u128::from(self.next()) * u128::from(span)) >> 64) as u64,
            None => self.next(),
        }
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

enum Source {
    Fresh(SplitMix),
    /// Choices past the end of the stream read as 0, the simplest value.
    Replay(std::vec::IntoIter<u64>),
}

/// The source of a property's inputs. See the module comment.
pub struct Gen {
    source: Source,
    record: Vec<u64>,
}

/// Unsigned integer types [`Gen::range`] and [`Gen::any`] can draw.
pub trait Int: Copy + PartialOrd {
    const MAX: Self;
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

macro_rules! int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MAX: $t = <$t>::MAX;
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> $t {
                v as $t
            }
        }
    )*};
}
int!(u8, u32, u64, usize);

/// `(min, max)` of a collection-length range, both inclusive.
fn len_bounds(len: impl RangeBounds<usize>) -> (usize, usize) {
    let min = match len.start_bound() {
        Bound::Included(&n) => n,
        Bound::Excluded(&n) => n + 1,
        Bound::Unbounded => 0,
    };
    let max = match len.end_bound() {
        Bound::Included(&n) => n,
        Bound::Excluded(&n) => n.checked_sub(1).expect("empty length range"),
        Bound::Unbounded => panic!("a length range needs an upper bound"),
    };
    assert!(min <= max, "empty length range");
    (min, max)
}

impl Gen {
    fn fresh(seed: u64) -> Gen {
        Gen {
            source: Source::Fresh(SplitMix(seed)),
            record: Vec::new(),
        }
    }

    fn replaying(stream: Vec<u64>) -> Gen {
        Gen {
            source: Source::Replay(stream.into_iter()),
            record: Vec::new(),
        }
    }

    /// One recorded choice in `0..=max`; `fresh` supplies it when
    /// generating, the stream when replaying.
    fn choose(&mut self, max: u64, fresh: impl FnOnce(&mut SplitMix) -> u64) -> u64 {
        let v = match &mut self.source {
            Source::Fresh(rng) => fresh(rng),
            Source::Replay(stream) => stream.next().unwrap_or(0).min(max),
        };
        self.record.push(v);
        v
    }

    fn uniform(&mut self, max: u64) -> u64 {
        self.choose(max, |rng| rng.upto(max))
    }

    /// Uniform in `range`; shrinks towards `range.start`.
    pub fn range<T: Int>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "empty range");
        let lo = range.start.to_u64();
        T::from_u64(lo + self.uniform(range.end.to_u64() - lo - 1))
    }

    /// Uniform over all of `T`; shrinks towards 0.
    pub fn any<T: Int>(&mut self) -> T {
        T::from_u64(self.uniform(T::MAX.to_u64()))
    }

    /// Uniform in `range` (53 bits of it); shrinks towards `range.start`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        let unit = self.uniform((1 << 53) - 1) as f64 / (1u64 << 53) as f64;
        range.start + (range.end - range.start) * unit
    }

    /// Shrinks towards `false`.
    pub fn bool(&mut self) -> bool {
        self.uniform(1) == 1
    }

    /// A uniformly chosen element; shrinks towards the first.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.range(0..items.len())].clone()
    }

    /// An index into `weights`, chosen with probability proportional to
    /// its weight; shrinks towards index 0.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let mut ticket = self.range(0..total);
        for (arm, &w) in weights.iter().enumerate() {
            if ticket < u64::from(w) {
                return arm;
            }
            ticket -= u64::from(w);
        }
        unreachable!("ticket below the weight total")
    }

    /// Uniform in `range`, which must not span the surrogate gap;
    /// shrinks towards its first character.
    pub fn char_in(&mut self, range: RangeInclusive<char>) -> char {
        let (lo, hi) = (*range.start() as u32, *range.end() as u32);
        assert!(lo <= hi, "empty char range");
        let offset = self.uniform(u64::from(hi - lo)) as u32;
        char::from_u32(lo + offset).expect("char range spans the surrogate gap")
    }

    /// A non-control character (regex `\PC`): mostly printable ASCII —
    /// where every delimiter a parser cares about lives — otherwise one
    /// of a few assigned blocks covering accents, non-Latin scripts,
    /// exotic whitespace, wide CJK and astral-plane code points.
    pub fn printable_char(&mut self) -> char {
        const BLOCKS: [RangeInclusive<char>; 8] = [
            ' '..='~',
            '\u{a1}'..='\u{ac}',     // Latin-1 punctuation, up to the soft hyphen
            '\u{c0}'..='\u{17f}',    // accented Latin
            '\u{391}'..='\u{3a1}',   // Greek capitals
            '\u{430}'..='\u{44f}',   // Cyrillic
            '\u{2000}'..='\u{200a}', // typographic spaces
            '\u{4e00}'..='\u{9fa5}', // CJK
            '\u{1f600}'..='\u{1f64f}', // emoticons
        ];
        let block = self.weighted(&[9, 1, 1, 1, 1, 1, 1, 1]);
        self.char_in(BLOCKS[block].clone())
    }

    /// The "one more element?" choice of a collection. Generating, the
    /// answer is `want` — fixed by a length drawn up front, so lengths
    /// are uniform over their range — but what is recorded is one flag
    /// per element, so the shrinker drops an element by deleting its
    /// flag together with its choices.
    fn more(&mut self, want: bool) -> bool {
        self.choose(1, |_| u64::from(want)) == 1
    }

    /// The unrecorded target length behind [`Gen::more`].
    fn target_len(&mut self, min: usize, max: usize) -> usize {
        match &mut self.source {
            Source::Fresh(rng) => min + rng.upto((max - min) as u64) as usize,
            Source::Replay(_) => max,
        }
    }

    /// A vector with a length uniform in `len` (`1..4`, `0..=10`);
    /// shrinks towards fewer, then simpler, elements.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let (min, max) = len_bounds(len);
        let target = self.target_len(min, max);
        let mut out = Vec::new();
        while out.len() < max {
            if out.len() >= min && !self.more(out.len() < target) {
                break;
            }
            out.push(element(self));
        }
        out
    }

    /// A string of `len` characters drawn by `element`.
    pub fn string(
        &mut self,
        len: impl RangeBounds<usize>,
        element: impl FnMut(&mut Gen) -> char,
    ) -> String {
        self.vec(len, element).into_iter().collect()
    }

    /// A set with a size in `size`, as far as `element` yields that many
    /// distinct values: duplicates are redrawn a bounded number of times.
    ///
    /// # Panics
    ///
    /// If fewer than the minimum size could be drawn.
    pub fn btree_set<T: Ord>(
        &mut self,
        size: impl RangeBounds<usize>,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> BTreeSet<T> {
        let (min, max) = len_bounds(size);
        let target = self.target_len(min, max);
        let mut out = BTreeSet::new();
        for _ in 0..4 * max + 16 {
            if out.len() == max || (out.len() >= min && !self.more(out.len() < target)) {
                break;
            }
            out.insert(element(self));
        }
        assert!(
            out.len() >= min,
            "btree_set: the element generator is too narrow for {min} distinct values"
        );
        out
    }
}

/// A failed property: the shrunk input and what it did.
#[derive(Debug)]
struct Failure {
    name: String,
    /// 1-based index of the first failing case.
    case: u32,
    shrink_runs: usize,
    /// The shrunk choice stream.
    stream: Vec<u64>,
    /// The panic the shrunk stream raises, with its location.
    panic: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "property `{}` failed at case {}; shrunk over {} runs to the choice stream\n  {:?}",
            self.name, self.case, self.shrink_runs, self.stream
        )?;
        writeln!(f, "on which it {}", self.panic)?;
        write!(
            f,
            "rerun exactly this input with xcheck::prop::replay(&{:?}, |g| ..)",
            self.stream
        )
    }
}

thread_local! {
    /// Set while this thread runs a property under the runner: panics
    /// are expected, so they are captured instead of printed.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Chains a process-wide panic hook that stays silent (and keeps the
/// message and location) for threads inside [`attempt`], and defers to
/// the previous hook for everything else.
fn install_panic_capture() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CAPTURING.get() {
                LAST_PANIC.set(info.to_string());
            } else {
                previous(info);
            }
        }));
    });
}

/// Runs the property once; `Err` carries the panic it raised.
fn attempt(property: &dyn Fn(&mut Gen), g: &mut Gen) -> Result<(), String> {
    install_panic_capture();
    CAPTURING.set(true);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| property(g)));
    CAPTURING.set(false);
    outcome.map_err(|_| LAST_PANIC.take())
}

struct Shrinker<'a> {
    property: &'a dyn Fn(&mut Gen),
    /// The shortlex-smallest failing stream so far, and its panic.
    best: Vec<u64>,
    panic: String,
    runs: usize,
}

impl Shrinker<'_> {
    /// Replays `candidate`; adopts what it recorded if the property still
    /// fails and the recording is shortlex-smaller than `best`.
    fn accept(&mut self, candidate: Vec<u64>) -> bool {
        if self.runs >= SHRINK_BUDGET {
            return false;
        }
        self.runs += 1;
        let mut g = Gen::replaying(candidate);
        let Err(panic) = attempt(self.property, &mut g) else {
            return false;
        };
        let smaller = (g.record.len(), &g.record) < (self.best.len(), &self.best);
        if smaller {
            self.best = g.record;
            self.panic = panic;
        }
        smaller
    }

    fn accept_with(&mut self, i: usize, value: u64) -> bool {
        let mut candidate = self.best.clone();
        candidate[i] = value;
        self.accept(candidate)
    }

    /// Deletes runs of choices, long runs first. Long runs are tried at
    /// aligned offsets only, short ones at every offset, which keeps a
    /// pass linear in the stream length.
    fn delete_runs(&mut self) {
        let mut size = self.best.len().next_power_of_two();
        while size > 0 {
            let stride = if size > 8 { size } else { 1 };
            let mut i = self.best.len().saturating_sub(size);
            loop {
                if i + size <= self.best.len() {
                    let mut candidate = self.best.clone();
                    candidate.drain(i..i + size);
                    if self.accept(candidate) {
                        continue;
                    }
                }
                if i == 0 {
                    break;
                }
                i = i.saturating_sub(stride);
            }
            size /= 2;
        }
    }

    /// Minimises each choice in place: zero if that still fails, else the
    /// smallest failing value found by bisection.
    fn lower_values(&mut self) {
        let mut i = 0;
        while i < self.best.len() {
            if self.best[i] > 0 && !self.accept_with(i, 0) {
                let mut passes = 0;
                while i < self.best.len() && passes + 1 < self.best[i] {
                    let mid = passes + (self.best[i] - passes) / 2;
                    if !self.accept_with(i, mid) {
                        passes = mid;
                    }
                }
            }
            i += 1;
        }
    }

    fn run(&mut self) {
        loop {
            let before = self.best.clone();
            self.delete_runs();
            self.lower_values();
            if self.best == before || self.runs >= SHRINK_BUDGET {
                break;
            }
        }
    }
}

fn run(name: &str, cases: u32, property: &dyn Fn(&mut Gen)) -> Result<(), Failure> {
    let mut seeds = SplitMix(fnv1a(name));
    for case in 1..=cases {
        let mut g = Gen::fresh(seeds.next());
        if let Err(panic) = attempt(property, &mut g) {
            let mut shrinker = Shrinker {
                property,
                best: g.record,
                panic,
                runs: 0,
            };
            shrinker.run();
            return Err(Failure {
                name: name.to_string(),
                case,
                shrink_runs: shrinker.runs,
                stream: shrinker.best,
                panic: shrinker.panic,
            });
        }
    }
    Ok(())
}

/// Runs `property` on `cases` generated inputs. The inputs depend only
/// on the calling test's name — the name of its thread, or the call
/// site when the harness runs tests on its unnamed main thread.
///
/// # Panics
///
/// If a case fails, with the shrunk choice stream, the panic that stream
/// raises, and the [`replay`] call that reruns it.
#[track_caller]
pub fn check(cases: u32, property: impl Fn(&mut Gen)) {
    let thread = std::thread::current();
    let name = match thread.name() {
        Some(name) if name != "main" => name.to_string(),
        _ => Location::caller().to_string(),
    };
    if let Err(failure) = run(&name, cases, &property) {
        panic!("{failure}");
    }
}

/// Runs `property` once on the input a choice stream describes, with
/// panics left alone: for a stream printed by a failed [`check`].
pub fn replay(stream: &[u64], property: impl FnOnce(&mut Gen)) {
    property(&mut Gen::replaying(stream.to_vec()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn some_element_at_least_10(g: &mut Gen) {
        let xs = g.vec(0..20, |g| g.range(0u32..1000));
        assert!(xs.iter().all(|&x| x < 10), "planted bug on {xs:?}");
    }

    #[test]
    fn the_same_name_generates_the_same_cases() {
        let cases_of = |name: &str| {
            let seen = RefCell::new(Vec::new());
            let outcome = run(name, 40, &|g| {
                let case = (
                    g.vec(0..6, |g| g.any::<u64>()),
                    g.string(0..=8, Gen::printable_char),
                    g.f64_in(0.0..6.0),
                );
                seen.borrow_mut().push(case);
            });
            assert!(outcome.is_ok());
            seen.into_inner()
        };
        let first = cases_of("a_test");
        assert_eq!(first.len(), 40);
        assert_eq!(first, cases_of("a_test"));
        assert_ne!(first, cases_of("another_test"));
    }

    #[test]
    fn a_planted_bug_shrinks_to_the_minimal_input() {
        let failure = run("planted", 256, &some_element_at_least_10).unwrap_err();
        replay(&failure.stream, |g| {
            assert_eq!(g.vec(0..20, |g| g.range(0u32..1000)), [10]);
        });
        assert!(failure.panic.contains("planted bug on [10]"), "{failure}");
        assert!(failure.shrink_runs <= SHRINK_BUDGET);
    }

    #[test]
    fn the_printed_stream_replays_the_failure() {
        let failure = run("planted", 256, &some_element_at_least_10).unwrap_err();
        let printed = format!("replay(&{:?}, |g| ..)", failure.stream);
        assert!(failure.to_string().contains(&printed), "{failure}");
        let replayed = panic::catch_unwind(|| replay(&failure.stream, some_element_at_least_10));
        let payload = replayed.expect_err("the shrunk stream must fail again");
        let message = payload.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("planted bug on [10]"), "{message}");
    }

    /// Not an assertion but a genuine crash — an index past the end — in
    /// code under test: the runner returns a report, it does not unwind.
    #[test]
    fn a_panic_inside_the_property_is_reported_with_the_shrunk_input() {
        let failure = run("crash", 256, &|g| {
            let xs = g.vec(0..8, |g| g.any::<u8>());
            let i = g.range(0usize..8);
            let _ = xs[..i].len();
        })
        .unwrap_err();
        // Smallest crash: an empty vector sliced to 1.
        assert_eq!(failure.stream, [0, 1]);
        let report = failure.to_string();
        assert!(report.contains("property `crash` failed"), "{report}");
        assert!(report.contains("[0, 1]"), "{report}");
        assert!(report.contains("out of range"), "{report}");
        assert!(report.contains("prop.rs"), "no panic location: {report}");
    }

    #[test]
    fn check_runs_every_case_of_a_property_that_holds() {
        let ran = Cell::new(0);
        check(64, |g| {
            let (lo, hi) = (g.range(3u32..9), g.f64_in(1.0..2.0));
            assert!((3..9).contains(&lo) && (1.0..2.0).contains(&hi));
            let set = g.btree_set(1..4, |g| g.pick(&["a", "b", "c", "d"]));
            assert!((1..4).contains(&set.len()));
            assert!(g.weighted(&[4, 2, 1, 1]) < 4);
            ran.set(ran.get() + 1);
        });
        assert_eq!(ran.get(), 64);
    }

    #[test]
    fn lengths_and_values_cover_their_ranges() {
        let lens = RefCell::new(BTreeSet::new());
        let values = RefCell::new(BTreeSet::new());
        run("coverage", 400, &|g| {
            let xs = g.vec(1..5, |g| g.range(0u8..3));
            lens.borrow_mut().insert(xs.len());
            values.borrow_mut().extend(xs);
        })
        .unwrap();
        assert_eq!(lens.into_inner(), BTreeSet::from([1, 2, 3, 4]));
        assert_eq!(values.into_inner(), BTreeSet::from([0, 1, 2]));
    }
}
