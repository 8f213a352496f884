//! A minimal FNV-1a hasher for the crate's internal lookup tables and
//! the model fingerprint.
//!
//! The semantics crate is deliberately dependency-light, so it carries
//! its own copy of this ~20-line hasher instead of pulling one in. The
//! keys hashed here (tokens) come from the firmware image under
//! analysis, not from untrusted network peers, so the cheap non-keyed
//! hash is appropriate — and it is measurably faster than the standard
//! library's SipHash on the short strings the hot classify loop looks
//! up in bulk.

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a over the written bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`], for map type parameters.
pub(crate) type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// FNV-1a over 64 bits, folded over little-endian 64-bit words: the
/// tail is zero-padded into a final word and the length is folded last.
/// The same digest as `firmres_firmware::content_hash_packed`, which
/// keys the analysis cache; `tests/cache_invalidation.rs` pins the
/// equality on the model fingerprint ([`crate::Classifier::fingerprint`]).
pub(crate) fn fnv64_words(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let chunks = bytes.chunks_exact(8);
    let rem = chunks.remainder();
    for c in chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}
