//! `crc32` against the byte-at-a-time table loop it replaced, which lives
//! here only, as the reference: every length from 0 to 9 000 bytes at
//! each of the 16 start offsets a slice-by-16 step can be misaligned by,
//! random contents on top, and the published check values.
//!
//! Debug builds stride the length sweep to keep `cargo test` responsive;
//! the CI torture job runs this in release, where every length is covered.

use kvstore::crc32;
use xcheck::prop::check;

/// The byte-at-a-time reference: one 256-entry table, one lookup a byte.
struct Reference([u32; 256]);

impl Reference {
    fn new() -> Self {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    (c >> 1) ^ 0xEDB8_8320
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        Reference(table)
    }

    /// The register after `data`, not yet inverted: feeding bytes one at
    /// a time gives the checksum of every prefix along the way.
    fn step(&self, mut register: u32, data: &[u8]) -> u32 {
        for &b in data {
            register = (register >> 8) ^ self.0[((register ^ u32::from(b)) & 0xFF) as usize];
        }
        register
    }

    fn crc(&self, data: &[u8]) -> u32 {
        !self.step(0xFFFF_FFFF, data)
    }
}

const MAX_LEN: usize = 9_000;

/// Deterministic, unstructured bytes (xorshift64 from `seed`).
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

#[test]
fn every_length_at_every_offset_matches_the_byte_loop() {
    let reference = Reference::new();
    let stride = if cfg!(debug_assertions) { 61 } else { 1 };
    let data = noise(0x9E37_79B9_7F4A_7C15, MAX_LEN + 16);
    for offset in 0..16 {
        let bytes = &data[offset..offset + MAX_LEN];
        let mut register = 0xFFFF_FFFF;
        let mut checked = 0;
        for len in 0..=MAX_LEN {
            if len > 0 {
                register = reference.step(register, &bytes[len - 1..len]);
            }
            // Every block boundary and tail length near the start, then
            // the stride.
            if len < 64 || len % stride == 0 || len == MAX_LEN {
                assert_eq!(
                    crc32(&bytes[..len]),
                    !register,
                    "length {len} at offset {offset}"
                );
                checked += 1;
            }
        }
        assert!(checked > 64);
    }
}

#[test]
fn random_contents_match_the_byte_loop() {
    let reference = Reference::new();
    check(200, |g| {
        let offset = g.range(0usize..16);
        let len = g.range(0usize..MAX_LEN + 1);
        let seed = g.any::<u64>();
        // A few chosen bytes over noise from the drawn seed.
        let picks = g.vec(0..8, |g| (g.range(0usize..MAX_LEN + 16), g.any::<u8>()));
        let mut data = noise(seed, MAX_LEN + 16);
        for (at, b) in picks {
            data[at] = b;
        }
        let bytes = &data[offset..offset + len];
        assert_eq!(crc32(bytes), reference.crc(bytes));
    });
}

#[test]
fn published_check_values() {
    let reference = Reference::new();
    for (input, want) in [
        (&b""[..], 0x0000_0000),
        (b"123456789", 0xCBF4_3926),
        (b"hello", 0x3610_A686),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ] {
        assert_eq!(crc32(input), want, "{input:?}");
        assert_eq!(reference.crc(input), want, "reference on {input:?}");
    }
    // 4 KiB of zeros and of ones: whole slice-by-16 steps only.
    for fill in [0x00u8, 0xFF] {
        let page = vec![fill; 4096];
        assert_eq!(crc32(&page), reference.crc(&page));
    }
}
