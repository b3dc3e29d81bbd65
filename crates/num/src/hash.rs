//! A fast, deterministic hasher for the decision-diagram tables.
//!
//! The DD package's unique tables, compute caches and NZRV memos, and the
//! [`ComplexTable`](crate::ComplexTable) buckets, are hashed on every DD
//! operation; hash-table speed is the core of DD-package efficiency
//! (Viamontes et al., "Improving Gate-Level Simulation of Quantum
//! Circuits"). Their keys are small fixed-width integers built inside the
//! process, so they need no flooding resistance, and std's SipHash costs
//! more than the lookup it serves. [`FxHasher`] folds each integer in with
//! one add and one multiply (the scheme of rustc's `FxHasher`); the final
//! rotation moves the well-mixed high bits to the low bits a table indexes
//! by. It is unseeded: a key hashes to the same value in every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// The (stateless) `BuildHasher` of [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-fold hasher for small integer keys. Not DoS-resistant: use it
/// only for keys the process generates itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_deterministic_across_builders_and_processes() {
        let key = (3u8, [7u32, 11, 0, u32::MAX], -5i64);
        let a = FxBuildHasher::default().hash_one(key);
        let b = FxBuildHasher::default().hash_one(key);
        assert_eq!(a, b, "two builders must agree");
        // Pinned: an unseeded hasher gives the same value in every run, on
        // every machine (the words are folded in little-endian order).
        assert_eq!(
            FxBuildHasher::default().hash_one(42u32),
            0xae70_bf69_4a4b_18a9
        );
        assert_ne!(
            FxBuildHasher::default().hash_one(1u32),
            FxBuildHasher::default().hash_one(2u32)
        );
    }

    #[test]
    fn byte_slices_fold_every_byte() {
        let h = |s: &[u8]| {
            let mut x = FxHasher::default();
            x.write(s);
            x.finish()
        };
        assert_ne!(h(b"abcdefgh1"), h(b"abcdefgh2"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefgi"));
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(7)), i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u32).all(|i| m[&(i, i.wrapping_mul(7))] == i));
    }
}
