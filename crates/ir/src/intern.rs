//! String interning.
//!
//! The cold analysis path (first sight of an image, nothing cached)
//! spends a measurable share of its time hashing, comparing and cloning
//! short strings: function names, callee names, symbol names. An
//! [`Interner`] maps each distinct string to a dense [`Sym`] handle —
//! a `u32` — so the hot loops hash and compare 4-byte integers and only
//! touch the character data when a name is actually materialized into
//! output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Interned handle for a string: dense, `Copy`, 4 bytes.
///
/// Handles are only meaningful relative to the [`Interner`] that issued
/// them; two interners number their strings independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

/// A string interner: each distinct string gets one [`Sym`], equal
/// strings always get the same one.
///
/// # Examples
///
/// ```
/// use firmres_ir::Interner;
///
/// let mut names = Interner::new();
/// let a = names.intern("SSL_write");
/// let b = names.intern("sprintf");
/// assert_ne!(a, b);
/// assert_eq!(a, names.intern("SSL_write"));
/// assert_eq!(names.resolve(a), "SSL_write");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    index: HashMap<Box<str>, Sym, FnvBuildHasher>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`, returning its handle (allocating one if unseen).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.strings.len()).expect("interner overflow"));
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.index.insert(boxed, sym);
        sym
    }

    /// The handle of `s` if it was interned before, without interning it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.index.get(s).copied()
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics when `sym` was not issued by this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// FNV-1a, the workspace's standard hasher for small keys.
///
/// The standard library's default hasher (SipHash) is keyed and
/// DoS-resistant but noticeably slower on the 4–40 byte keys the
/// analysis hashes in bulk (interned symbols, op positions, region
/// keys). All inputs here are derived from the firmware image under
/// analysis, not from untrusted network peers, so the cheaper
/// non-keyed hash is appropriate.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// [`std::hash::BuildHasher`] for [`FnvHasher`], for `HashMap`/`HashSet`
/// type parameters.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn intern_round_trips() {
        let mut i = Interner::new();
        let names = ["sprintf", "SSL_write", "nvram_get", "", "日本語"];
        let syms: Vec<Sym> = names.iter().map(|n| i.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(*sym), *name);
            assert_eq!(i.get(name), Some(*sym));
        }
        assert_eq!(i.len(), names.len());
    }

    #[test]
    fn equal_strings_share_a_handle() {
        let mut i = Interner::new();
        let a = i.intern("strcat");
        let b = i.intern("strcat");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn get_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.get("missing"), None);
        assert!(i.is_empty());
    }

    proptest::proptest! {
        #[test]
        fn interning_round_trips(names in proptest::collection::vec("[a-zA-Z0-9_=%. -]{0,24}", 0..40)) {
            let mut i = Interner::new();
            let syms: Vec<Sym> = names.iter().map(|n| i.intern(n)).collect();
            for (name, sym) in names.iter().zip(&syms) {
                proptest::prop_assert_eq!(i.resolve(*sym), name.as_str());
            }
        }

        #[test]
        fn distinct_strings_never_conflate(names in proptest::collection::vec("[a-zA-Z0-9_]{0,16}", 0..40)) {
            let mut i = Interner::new();
            let syms: Vec<Sym> = names.iter().map(|n| i.intern(n)).collect();
            for (a, sa) in names.iter().zip(&syms) {
                for (b, sb) in names.iter().zip(&syms) {
                    // Same handle exactly when the strings are equal.
                    proptest::prop_assert_eq!(sa == sb, a == b);
                }
            }
            proptest::prop_assert_eq!(
                i.len(),
                names.iter().collect::<HashSet<_>>().len()
            );
        }
    }

    #[test]
    fn fnv_hasher_is_deterministic_and_spreads() {
        use std::hash::BuildHasher;
        let bh = FnvBuildHasher::default();
        let h = |s: &str| bh.hash_one(s);
        assert_eq!(h("mac"), h("mac"));
        let distinct: HashSet<u64> = ["mac", "sn", "uid", "token", ""]
            .iter()
            .map(|s| h(s))
            .collect();
        assert_eq!(distinct.len(), 5);
    }
}
