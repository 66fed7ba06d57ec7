//! Pins the generator every corpus, workload and frozen benchmark seed
//! runs on. `rand` resolves to the in-tree xoshiro256++ stand-in (see
//! DESIGN.md §5); when that stand-in is relocated, or ever swapped,
//! these two tests are the proof that the streams — and therefore
//! `results/*.txt` and the `bench_e2e` baseline — did not move.

use datagen::{generate_dblp, DblpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn std_rng_stream_is_pinned() {
    let mut rng = StdRng::seed_from_u64(42);
    let first: [u64; 8] = std::array::from_fn(|_| rng.random());
    assert_eq!(
        first,
        [
            15021278609987233951,
            5881210131331364753,
            18149643915985481100,
            12933668939759105464,
            14637574242682825331,
            10848501901068131965,
            2312344417745909078,
            11162538943635311430,
        ]
    );
}

#[test]
fn default_dblp_corpus_is_pinned() {
    let xml = generate_dblp(&DblpConfig::default()).to_xml();
    // FNV-1a 64 over the rendered bytes.
    let hash = xml.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    assert_eq!((xml.len(), hash), (161_742, 14806773169643313727));
}
