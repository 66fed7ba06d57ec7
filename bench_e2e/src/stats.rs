//! Order statistics over latency samples.

/// Nearest-rank percentile of a sorted slice: index `⌈q·n⌉ − 1`, the
/// definition `bench::percentile` uses. Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
}

/// Median of unsorted values (nearest rank, so always a measured value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), for `compare`'s spread column.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |k: usize| {
        // position k·(n+1)/4 in 1-based ranks, linearly interpolated
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// FNV-1a, the body and store-dump fingerprint. Not cryptographic:
/// it detects a wrong answer, not an adversary.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, by counting: the smallest sample with at least
    /// `q·n` samples at or below it.
    fn counting_reference(samples: &[f64], q: f64) -> f64 {
        let mut best = f64::INFINITY;
        for &x in samples {
            let at_or_below = samples.iter().filter(|&&y| y <= x).count();
            if at_or_below as f64 >= q * samples.len() as f64 && x < best {
                best = x;
            }
        }
        best
    }

    #[test]
    fn nearest_rank_matches_counting_reference() {
        let mut state = 12345u64;
        for n in 1..60 {
            let mut v: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 40) % 50) as f64
                })
                .collect();
            sort(&mut v);
            for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(percentile(&v, q), counting_reference(&v, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
