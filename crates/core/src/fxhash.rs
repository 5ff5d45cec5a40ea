//! A fast, non-cryptographic hasher for the simulator's hot maps.
//!
//! The manager-side structures keyed by line address (the cache status
//! map's and the directory banks' line tables) sit on the
//! boundary-servicing critical path of every engine: each bus event costs
//! a map probe. The standard library's default SipHash is
//! DoS-resistant but pays ~10x the cost of a multiply-rotate mix on
//! 8-byte keys, which profiling shows dominates `uncore.service`. Keys
//! here are line addresses from a simulated workload, not attacker input,
//! so the Firefox/rustc "Fx" polynomial mix is the right trade.
//!
//! The algorithm is the classic FxHash: per 8-byte word,
//! `hash = (hash.rotate_left(5) ^ word) * K` with a fixed odd constant.
//! Hash-dependent iteration order changes with the hasher, which is why
//! every persistence path sorts before serializing (see e.g.
//! `CacheMap::save_state`) — equality, deltas and fingerprints are all
//! order-independent.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The rustc/Firefox FxHash multiplier (a large odd constant close to
/// 2^64 / golden ratio).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher for small fixed-size keys (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Bulk path for compound keys: fold the length (so a ragged tail's
        // zero padding can't collide with real zero bytes, and the empty
        // slice doesn't fix at 0), then 8 bytes at a time, then the tail.
        // Hot keys (line addresses) never take this path — they hash
        // through `write_u64` below.
        self.mix(bytes.len() as u64 ^ K);
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (stateless, so `Default` everywhere).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher. Construct with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly() {
        // Not a distribution test — just a sanity check that the mix
        // actually depends on the input and on position.
        let h = |n: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(n);
            hasher.finish()
        };
        assert_ne!(h(0x40), h(0x80));
        assert_ne!(h(0), h(1));
        assert_ne!(h(1) ^ h(2), 0);
    }

    #[test]
    fn byte_slices_cover_the_ragged_tail() {
        let h = |b: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        };
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
        assert_ne!(h(b"abcdefghi"), h(b"abcdefgh"));
        assert_ne!(h(b""), h(b"\0"));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 3) as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&((i * 3) as u32)));
        }
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 500);
    }
}
