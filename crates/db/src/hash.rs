//! [`CellHash`]: the hasher of every map keyed by cell values.
//!
//! The row maps ([`crate::row::KeyMap`]) and the SQL engine's hash-join
//! and GROUP BY tables hash
//! [`Key`](crate::row::Key)s and `Vec<Value>`s built from wire input. Each
//! word a `Hash` impl writes costs one folded multiply: a 64×64→128-bit
//! product whose two halves are XORed (the construction of foldhash and of
//! ahash's portable fallback). Byte strings are read 16 bytes per
//! multiply. `finish` folds once more, so both the low bits (the bucket
//! index) and the top 7 bits (the control tag) depend on every input bit.
//!
//! The same folded multiply, under fixed seeds, hashes the rows and the
//! catalog of a state digest ([`crate::Database::digest_at`]).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Fractional digits of π: fixed, structure-free constants for mixing
/// the per-instance seeds and the finishing key.
const PI: [u64; 3] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
];

/// The full 128-bit product of `a` and `b`, its halves XORed.
#[inline(always)]
const fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = a as u128 * b as u128;
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process secret, drawn once from std's randomly keyed SipHash.
fn secret() -> [u64; 2] {
    static SECRET: OnceLock<[u64; 2]> = OnceLock::new();
    *SECRET.get_or_init(|| {
        let random = RandomState::new();
        [random.hash_one(PI[0]), random.hash_one(PI[1])]
    })
}

/// Counts the [`CellHash`] instances made, so each gets its own seed.
static INSTANCES: AtomicU64 = AtomicU64::new(0);

/// A [`BuildHasher`] for maps keyed by cell values: a seeded
/// folded-multiply hash (see the [module docs](self)).
///
/// **Seeding.** Keys come off the wire, so the hash is keyed by a process
/// secret drawn once from std's [`RandomState`]; without it a client could
/// send keys that all land in one bucket. Every instance made by
/// [`Default`] mixes that secret with its own instance number, so no two
/// maps share a hash function: filling one map in another's iteration
/// order under a shared function is a known clustering trap of
/// open-addressing tables, and an index rebuild does exactly that (it
/// walks the row map). A [`Clone`] hashes like its original.
///
/// **Limits.** The hash is fast, not cryptographic: it resists inputs
/// chosen without knowledge of the secret, and nothing more. Nothing may
/// persist or compare its values across processes or instances.
///
/// **The one exception** is the fixed-seed pair that hashes state
/// digests ([`crate::Database::digest_at`]): two databases, or one
/// database at two timestamps, compare by it, so its seeds cannot be
/// secret or per instance. Flooding does not apply to it: it keys no map, so inputs
/// chosen to collide cost no probe, and its values are a sum compared
/// for equality, never bucketed.
#[derive(Clone)]
pub struct CellHash {
    seed: u64,
    key: u64,
}

impl Default for CellHash {
    fn default() -> Self {
        let [s0, s1] = secret();
        let n = INSTANCES.fetch_add(1, Ordering::Relaxed);
        CellHash {
            seed: folded_multiply(s0 ^ n, PI[0]),
            key: folded_multiply(s1 ^ n, PI[1]),
        }
    }
}

/// The two lanes of a state digest: fixed seeds drawn from π, the same in
/// every process of one build.
const DIGEST_LANES: [CellHash; 2] = [
    CellHash {
        seed: folded_multiply(PI[0], PI[1]),
        key: folded_multiply(PI[1], PI[2]),
    },
    CellHash {
        seed: folded_multiply(PI[2], PI[0]),
        key: folded_multiply(PI[0] ^ PI[1], PI[2]),
    },
];

/// The 128-bit fixed-seed hash of `value`: one 64-bit lane per half. The
/// summand of [`crate::Database::digest_at`]; not a map hasher.
pub(crate) fn digest_of(value: impl Hash) -> u128 {
    let [hi, lo] = DIGEST_LANES.map(|lane| lane.hash_one(&value));
    u128::from(hi) << 64 | u128::from(lo)
}

// The seeds are the secret: never print them.
impl fmt::Debug for CellHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellHash").finish_non_exhaustive()
    }
}

impl BuildHasher for CellHash {
    type Hasher = CellHasher;

    #[inline]
    fn build_hasher(&self) -> CellHasher {
        CellHasher {
            acc: self.seed,
            key: self.key,
        }
    }
}

/// The [`Hasher`] a [`CellHash`] builds.
pub struct CellHasher {
    acc: u64,
    key: u64,
}

impl fmt::Debug for CellHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellHasher").finish_non_exhaustive()
    }
}

/// The little-endian word in `bytes`, which holds exactly 8.
#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// The little-endian half-word in `bytes`, which holds exactly 4.
#[inline(always)]
fn half_word(bytes: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

// `Value` and `Key` write tags, lengths, integers, float bits and byte
// strings: the widths overridden here. Others fall back to `write`.
impl Hasher for CellHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = folded_multiply(self.acc ^ x, self.key);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The length rotates the state in, so inputs of different
        // lengths whose (overlapping) reads give the same words part ways.
        let mut acc = self.acc.rotate_right(bytes.len() as u32);
        let mut rest = bytes;
        while rest.len() > 16 {
            let (block, tail) = rest.split_at(16);
            acc = folded_multiply(acc ^ word(&block[..8]), self.key ^ word(&block[8..]));
            rest = tail;
        }
        // The last 0..=16 bytes as two words, the second read backwards
        // from the end so that no byte is missed.
        let n = rest.len();
        let (lo, hi) = match n {
            9.. => (word(&rest[..8]), word(&rest[n - 8..])),
            4..=8 => (half_word(&rest[..4]), half_word(&rest[n - 4..])),
            1..=3 => (
                u64::from(rest[0]),
                u64::from(rest[n - 1]) << 8 | u64::from(rest[n / 2]),
            ),
            0 => (0, 0),
        };
        self.acc = folded_multiply(acc ^ lo, self.key ^ hi);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, self.key ^ PI[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Key;
    use crate::value::Value;
    use std::collections::HashSet;

    const N: u64 = 100_000;

    /// Asserts that `hashes` spread over the `2^bits` buckets `bucket`
    /// picks, no bucket holding more than `max_over_mean` times the mean.
    fn assert_spread(
        what: &str,
        hashes: &[u64],
        bits: u32,
        bucket: impl Fn(u64) -> usize,
        max_over_mean: f64,
    ) {
        let mut counts = vec![0u32; 1 << bits];
        for &h in hashes {
            counts[bucket(h)] += 1;
        }
        let mean = hashes.len() as f64 / counts.len() as f64;
        let max = *counts.iter().max().unwrap();
        assert!(
            f64::from(max) <= max_over_mean * mean,
            "{what}: fullest of 2^{bits} buckets holds {max}, mean {mean:.2}"
        );
    }

    /// A hash that ignores part of its input keeps every map correct but
    /// makes it a linear list; no other test would notice. Sequential
    /// integers and near-identical strings must fill both the bucket
    /// index (low 16 bits) and the control tag (top 7 bits) evenly.
    /// With fully random hashes the fullest of the 65,536 low buckets
    /// holds about 6× their mean of 1.5 and the fullest of the 128 tags
    /// under 1.2× their mean of 781; the bounds (10× and 1.25×) fail a
    /// fair hash about once in a million runs.
    #[test]
    fn sequential_keys_spread_over_the_bucket_bits_and_the_tag_bits() {
        let cells = CellHash::default();
        let ints: Vec<u64> = (0..N as i64)
            .map(|i| cells.hash_one(Key::single(i)))
            .collect();
        let texts: Vec<u64> = (0..N)
            .map(|i| cells.hash_one(Key::single(format!("s{i}"))))
            .collect();
        for (what, hashes) in [("Int keys", &ints), ("Text keys", &texts)] {
            assert_spread(what, hashes, 16, |h| (h & 0xffff) as usize, 10.0);
            assert_spread(what, hashes, 7, |h| (h >> 57) as usize, 1.25);
        }
    }

    #[test]
    fn every_instance_has_its_own_seed() {
        let (a, b) = (CellHash::default(), CellHash::default());
        for key in [
            Key::single(0i64),
            Key::single(1i64),
            Key::single("order-1"),
            Key::new(vec![Value::Int(7), Value::Text(String::new())]),
        ] {
            assert_ne!(a.hash_one(&key), b.hash_one(&key), "{key}");
        }
        let c = a.clone();
        assert_eq!(a.hash_one(Key::single(9i64)), c.hash_one(Key::single(9i64)));
    }

    /// Byte strings of every length around the word and block edges hash
    /// apart: no byte of any length is skipped, and no two lengths
    /// collide on the same words.
    #[test]
    fn byte_strings_of_every_length_hash_apart() {
        let cells = CellHash::default();
        let mut inputs = HashSet::new();
        for len in 0..=48usize {
            for fill in [0u8, 1, 0xff] {
                let base = vec![fill; len];
                for at in 0..len {
                    let mut flipped = base.clone();
                    flipped[at] ^= 0x10;
                    inputs.insert(flipped);
                }
                inputs.insert(base);
            }
        }
        let hashes: HashSet<u64> = inputs
            .iter()
            .map(|bytes| cells.hash_one(Value::Bytes(bytes.clone())))
            .collect();
        assert_eq!(hashes.len(), inputs.len());
        // Raw `write`s with no length prefix: a shorter input is not a
        // longer one's prefix padded with zeros.
        let raw = |bytes: &[u8]| {
            let mut h = cells.build_hasher();
            h.write(bytes);
            h.finish()
        };
        for len in 0..32 {
            assert_ne!(raw(&vec![0; len]), raw(&vec![0; len + 1]), "len {len}");
        }
    }
}
