//! Multiply-xor hashing (the FxHash construction) for maps that are
//! private to one computation and never face adversarial keys, so the
//! default hasher's DoS resistance buys nothing: the streaming builder's
//! chunk-local token maps (~one lookup per token occurrence) and the
//! refinement DP's per-mask memo (one lookup per partition).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Builds [`FxHasher`]s; the `S` parameter of an [`FxMap`].
#[derive(Clone, Copy, Default)]
pub struct FxBuildHasher;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// One word of state, folded with each input word by rotate, xor and
/// multiply.
pub struct FxHasher {
    hash: u64,
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: 0 }
    }
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            if let Ok(word) = <[u8; 8]>::try_from(chunk) {
                self.add(u64::from_le_bytes(word));
            }
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The state multiplied once more at full width, the high half of
    /// the product folded into the low one. A wrapping multiply carries
    /// entropy only upwards, so the low bits of the raw state depend only
    /// on the low bits of the input — and a table picks its bucket by the
    /// low bits: masks that differ only in keyword bits above the
    /// bucket-index width would share a bucket. The high half of the
    /// 128-bit product depends on every bit of the state.
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(SEED);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(word: u64) -> u64 {
        let mut h = FxBuildHasher.build_hasher();
        h.write_u64(word);
        h.finish()
    }

    #[test]
    fn high_input_bits_reach_the_low_output_bits() {
        // Words that differ only in bit 40 and above land in different
        // buckets of a 64-bucket table.
        let buckets: std::collections::BTreeSet<u64> =
            (40..64).map(|bit| hash_of(1u64 << bit) & 63).collect();
        assert!(buckets.len() >= 12, "{} distinct buckets", buckets.len());
    }
}
