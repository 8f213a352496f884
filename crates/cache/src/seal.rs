//! The one sealed-file framing every persisted artifact shares: `.frac`
//! analysis entries, `.fru` unit banks, `.frv` stage-1 verdicts,
//! `shard.fridx` eviction indexes and `.flix` known-library indexes.
//!
//! ```text
//! [u8; 4]  magic          one per artifact kind
//! u16      version        SCHEMA_VERSION, or FLIX_SCHEMA_VERSION for .flix
//! [u8]     key echo       fixed length per kind (empty for indexes)
//! [u8]     payload
//! u64      FNV-64 of everything above
//! ```
//!
//! [`open`] checks the checksum before it interprets any field, so a
//! truncated or bit-flipped file is caught before its header is read.
//! Every failure is a typed [`SealError`], never a panic: callers degrade
//! a damaged artifact to a miss.

use firmres_firmware::content_hash_packed;
use std::fmt;

/// Why [`open`] refused a sealed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The file is too short to hold the framing.
    Truncated,
    /// The file does not start with the expected magic.
    BadMagic,
    /// The file was sealed under a different version.
    SchemaMismatch {
        /// The version found in the header.
        found: u16,
    },
    /// The key echo disagrees with the key the file was looked up by.
    KeyMismatch,
    /// The trailing checksum does not match the file's bytes.
    BadChecksum,
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::Truncated => write!(f, "truncated"),
            SealError::BadMagic => write!(f, "has wrong magic"),
            SealError::SchemaMismatch { found } => write!(f, "schema v{found} unsupported"),
            SealError::KeyMismatch => write!(f, "key echo mismatch"),
            SealError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for SealError {}

/// Frame `payload` as a sealed file of kind `magic` at `version`,
/// echoing the lookup key `echo`.
pub fn seal(magic: &[u8; 4], version: u16, echo: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + 2 + echo.len() + payload.len() + 8);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(echo);
    out.extend_from_slice(payload);
    let sum = content_hash_packed(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Verify a sealed file and return its payload: the checksum first, then
/// the magic, the version and the key echo.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u16,
    echo: &[u8],
) -> Result<&'a [u8], SealError> {
    let header = magic.len() + 2 + echo.len();
    if bytes.len() < header + 8 {
        return Err(SealError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(trailer);
    let magic_ok = &body[..magic.len()] == magic;
    if u64::from_le_bytes(stored) != content_hash_packed(body) {
        // A short read and a flipped byte are indistinguishable here;
        // report the more precise condition when the magic is gone.
        return Err(if magic_ok {
            SealError::BadChecksum
        } else {
            SealError::BadMagic
        });
    }
    if !magic_ok {
        return Err(SealError::BadMagic);
    }
    let found = u16::from_le_bytes([body[magic.len()], body[magic.len() + 1]]);
    if found != version {
        return Err(SealError::SchemaMismatch { found });
    }
    if &body[magic.len() + 2..header] != echo {
        return Err(SealError::KeyMismatch);
    }
    Ok(&body[header..])
}

/// Decode a hex string, for golden-bytes tests.
#[cfg(test)]
pub(crate) fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::INDEX_MAGIC;
    use crate::store::{MAGIC, SCHEMA_VERSION};
    use crate::unit::{BANK_MAGIC, VERDICT_MAGIC};
    use proptest::prelude::*;

    /// Every artifact kind's magic, version and key-echo length. `.flix`
    /// belongs to firmres-libid and seals at its own schema version 1.
    const KINDS: [(&[u8; 4], u16, usize); 5] = [
        (MAGIC, SCHEMA_VERSION, 36),
        (BANK_MAGIC, SCHEMA_VERSION, 16),
        (VERDICT_MAGIC, SCHEMA_VERSION, 16),
        (INDEX_MAGIC, SCHEMA_VERSION, 0),
        (b"FLIX", 1, 0),
    ];

    /// Apply `edit` to the bytes the checksum covers, then seal them
    /// again with a valid checksum.
    fn reseal(mut sealed: Vec<u8>, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let body = sealed.len() - 8;
        edit(&mut sealed[..body]);
        let sum = content_hash_packed(&sealed[..body]);
        sealed[body..].copy_from_slice(&sum.to_le_bytes());
        sealed
    }

    proptest! {
        #[test]
        fn open_returns_the_sealed_payload_and_types_all_damage(
            kind in 0usize..KINDS.len(),
            key in proptest::collection::vec(any::<u8>(), 36..37),
            payload in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let (magic, version, echo_len) = KINDS[kind];
            let echo = &key[..echo_len];
            let sealed = seal(magic, version, echo, &payload);
            prop_assert_eq!(open(&sealed, magic, version, echo), Ok(&payload[..]));

            for n in 0..sealed.len() {
                prop_assert!(open(&sealed[..n], magic, version, echo).is_err(), "cut to {}", n);
            }
            for i in 0..sealed.len() {
                for bit in 0..8 {
                    let mut flipped = sealed.clone();
                    flipped[i] ^= 1 << bit;
                    prop_assert!(
                        open(&flipped, magic, version, echo).is_err(),
                        "bit {} of byte {}", bit, i
                    );
                }
            }

            let foreign = reseal(sealed.clone(), |b| b[0] ^= 0x20);
            prop_assert_eq!(open(&foreign, magic, version, echo), Err(SealError::BadMagic));
            let future = reseal(sealed.clone(), |b| b[4..6].copy_from_slice(&(version + 1).to_le_bytes()));
            prop_assert_eq!(
                open(&future, magic, version, echo),
                Err(SealError::SchemaMismatch { found: version + 1 })
            );
            if echo_len > 0 {
                let renamed = reseal(sealed.clone(), |b| b[6 + echo_len - 1] ^= 1);
                prop_assert_eq!(open(&renamed, magic, version, echo), Err(SealError::KeyMismatch));
            }
        }
    }

    #[test]
    fn short_and_foreign_files_are_typed() {
        assert_eq!(open(&[], MAGIC, 4, &[]), Err(SealError::Truncated));
        assert_eq!(open(b"FRAC", MAGIC, 4, &[]), Err(SealError::Truncated));
        assert_eq!(
            open(b"not a sealed artifact", MAGIC, 4, &[]),
            Err(SealError::BadMagic)
        );
        let mut sealed = seal(MAGIC, 4, &[], b"payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(open(&sealed, MAGIC, 4, &[]), Err(SealError::BadChecksum));
    }
}
