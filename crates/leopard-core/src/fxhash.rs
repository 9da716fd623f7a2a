//! A minimal Fx-style hasher for the verifier's hot-path maps.
//!
//! Keys in the verifier are small integers (`Key`, `TxnId`); SipHash's
//! HashDoS protection buys nothing here and costs measurably (see the Rust
//! Performance Book's hashing chapter). This is the well-known FxHash
//! multiply-rotate scheme, self-contained to stay within the approved
//! dependency set.

// The one place the std maps are named: the aliases below wrap them.
#![allow(clippy::disallowed_types)]

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (64-bit golden-ratio-derived, as used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Key, TxnId};

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<Key, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(Key(i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&Key(500)), Some(&500));
        assert!(!m.contains_key(&Key(1000)));
    }

    #[test]
    fn set_distinguishes_values() {
        let mut s: FxHashSet<TxnId> = FxHashSet::default();
        assert!(s.insert(TxnId(1)));
        assert!(!s.insert(TxnId(1)));
        assert!(s.insert(TxnId(2)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn hasher_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(43);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn write_handles_unaligned_tails() {
        let mut a = FxHasher::default();
        a.write(b"hello world"); // 11 bytes: one chunk + 3-byte tail
        let mut b = FxHasher::default();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }
}
