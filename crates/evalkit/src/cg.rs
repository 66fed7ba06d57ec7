//! Cumulated-Gain evaluation (Järvelin & Kekäläinen \[27\], §VIII-C).
//!
//! Given a ranked result list turned into a gain vector `G` (graded
//! relevance per rank), `CG[i] = G\[1\] + ... + G[i]`. The paper reports
//! CG@1..4 averaged over queries.

/// Cumulated gain vector: `CG[i] = Σ_{j<=i} G[j]` (1-based in the paper;
/// index 0 here is CG@1).
pub fn cumulated_gain(gains: &[f64]) -> Vec<f64> {
    gains
        .iter()
        .scan(0.0, |acc, &g| {
            *acc += g;
            Some(*acc)
        })
        .collect()
}

/// Averages CG vectors of equal length `k` across queries (vectors
/// shorter than `k` are zero-padded: a missing result gains nothing).
pub fn average_cg(per_query: &[Vec<f64>], k: usize) -> Vec<f64> {
    if per_query.is_empty() {
        return vec![0.0; k];
    }
    let mut sums = vec![0.0; k];
    for cg in per_query {
        for (i, slot) in sums.iter_mut().enumerate() {
            // CG is monotone; pad by carrying the last value forward.
            let v = cg
                .get(i)
                .copied()
                .or_else(|| cg.last().copied())
                .unwrap_or(0.0);
            *slot += v;
        }
    }
    for s in &mut sums {
        *s /= per_query.len() as f64;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_accumulates() {
        assert_eq!(cumulated_gain(&[3.0, 2.0, 0.0, 1.0]), [3.0, 5.0, 5.0, 6.0]);
        assert!(cumulated_gain(&[]).is_empty());
    }

    #[test]
    fn average_pads_with_carry() {
        let a = vec![vec![3.0, 5.0], vec![1.0]];
        // query 2 has one result: CG@2 carries 1.0
        assert_eq!(average_cg(&a, 2), [2.0, 3.0]);
        assert_eq!(average_cg(&[], 3), [0.0, 0.0, 0.0]);
    }
}
