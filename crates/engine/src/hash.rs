//! The seeded key hash shared by the hash join and the grouped temporal
//! aggregate: FNV-1a over strings, each value finished by splitmix64.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use storage::{Row, Value};

/// A map keyed by hashes this module made, which it takes as they are.
pub(crate) type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<Prehashed>>;

/// Identity [`Hasher`]: the map's keys already are [`mix`]es.
#[derive(Default)]
pub(crate) struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("Prehashed maps are keyed by u64 only")
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A fresh seed. Unequal keys may collide, but which ones depends on the
/// seed, so colliding keys cannot be prepared offline.
pub(crate) fn seed() -> u64 {
    RandomState::new().hash_one(0u64)
}

/// splitmix64's finalizer: the map takes bucket and tag bits from both ends
/// of the word, so every input bit has to reach both.
fn finish(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// `h` with `v` mixed in; `None` for NULL. Values equal under SQL
/// comparison mix alike — an integral `Double` as the `Int` it equals (the
/// cast saturates, so doubles beyond `i64` merely collide).
fn mix(h: u64, v: &Value) -> Option<u64> {
    Some(finish(match v {
        Value::Null => return None,
        Value::Bool(b) => h ^ *b as u64,
        Value::Int(i) => h ^ *i as u64,
        Value::Double(d) if d.fract() == 0.0 => h ^ *d as i64 as u64,
        Value::Double(d) => h ^ d.to_bits(),
        Value::Str(s) => s.bytes().fold(h ^ 0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3) // FNV-1a
        }),
    }))
}

/// Hashes the key columns of `row` where they sit; `None` for a NULL key,
/// which never joins.
pub(crate) fn key_hash(row: &Row, cols: &[usize], seed: u64) -> Option<u64> {
    cols.iter().try_fold(seed, |h, &c| mix(h, row.get(c)))
}

/// Hashes a group key, in which NULL is a value like any other.
pub(crate) fn group_hash<'v>(key: impl IntoIterator<Item = &'v Value>, seed: u64) -> u64 {
    key.into_iter()
        .fold(seed, |h, v| mix(h, v).unwrap_or_else(|| finish(!h)))
}
