//! Cache keying: content hash of the firmware image plus pipeline,
//! configuration and classifier fingerprints.
//!
//! A cached analysis is only valid for the exact bytes it was computed
//! from, under the exact pipeline, configuration and (optional)
//! semantics model that computed it. [`CacheKey`] captures all four,
//! and the on-disk file name is derived from the full key — so a
//! pipeline-version bump, a configuration change or swapping the
//! classifier simply makes the store look for a file that is not there
//! (a miss), never for a file holding stale results.

use crate::codec::put_config;
use firmres::AnalysisConfig;
use firmres_firmware::{content_hash_packed, content_hash_packed_wide, FirmwareImage};
use firmres_semantics::Classifier;

/// Version of the analysis pipeline whose results the cache stores.
///
/// Bump this whenever any pipeline stage, the on-disk entry schema, or a
/// codec in this crate changes observable output: every existing cache
/// entry then misses and is recomputed. The value is baked into both the
/// cache key (and thus the file name) and the entry header.
///
/// History: 2 — executable pinpointing ranks all qualifying candidates
/// by score instead of stopping at the first hit, changing counters and
/// diagnostics on multi-candidate images. (The message-unit execution
/// model shipped alongside did *not* require a bump: output is
/// byte-identical at any job count.) 3 — the cached counter record grew
/// the three known-library counters, changing the entry encoding.
/// 4 — the counter record grew the three semantics batching counters,
/// and argmax tie-breaking in the classifier became first-max-wins
/// under a total order (previously position-dependent on NaN scores),
/// which can relabel slices whose class scores tie exactly.
pub const PIPELINE_VERSION: u32 = 4;

/// The [`CacheKey::classifier`] fingerprint of an analysis run with no
/// trained semantics model.
///
/// [`classifier_fingerprint`] never returns this value for a real model,
/// so a model-less run and a model-driven run can never share an entry.
pub const NO_CLASSIFIER: u64 = 0;

/// The full content-addressed identity of one analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-128 of the packed firmware image bytes.
    pub image: u128,
    /// [`PIPELINE_VERSION`] at key-computation time.
    pub pipeline: u32,
    /// Fingerprint of the [`AnalysisConfig`] knobs that affect output.
    pub config: u64,
    /// Fingerprint of the semantics classifier ([`NO_CLASSIFIER`] when
    /// the analysis ran without one).
    pub classifier: u64,
}

impl CacheKey {
    /// Key for analyzing `fw` with `classifier` under `config` with the
    /// current pipeline.
    pub fn compute(
        fw: &FirmwareImage,
        classifier: Option<&Classifier>,
        config: &AnalysisConfig,
    ) -> CacheKey {
        CacheKey::of_packed(&fw.pack(), classifier, config)
    }

    /// Key for the packed container bytes directly.
    ///
    /// Useful when the caller already holds the packed form, and the only
    /// way to key bytes that do not unpack (the byte-flip invalidation
    /// tests rely on this).
    pub fn of_packed(
        packed: &[u8],
        classifier: Option<&Classifier>,
        config: &AnalysisConfig,
    ) -> CacheKey {
        CacheKey {
            image: content_hash_packed_wide(packed),
            pipeline: PIPELINE_VERSION,
            config: config_fingerprint(config),
            classifier: classifier_fingerprint(classifier),
        }
    }

    /// Key for an image known only by its content hash (the FNV-128 of
    /// the packed bytes, [`content_hash_packed_wide`]).
    ///
    /// This is the hash-addressed lookup path: a client that already
    /// knows an image's hash can ask a shared store (or the analysis
    /// service) for the entry without shipping the image bytes at all.
    /// The key is identical to what [`CacheKey::of_packed`] computes for
    /// the bytes hashing to `image`, so hits are exactly the entries a
    /// by-bytes submission of the same image would find.
    pub fn of_hash(
        image: u128,
        classifier: Option<&Classifier>,
        config: &AnalysisConfig,
    ) -> CacheKey {
        CacheKey {
            image,
            pipeline: PIPELINE_VERSION,
            config: config_fingerprint(config),
            classifier: classifier_fingerprint(classifier),
        }
    }

    /// The key echo a sealed entry carries: all four parts, little-endian.
    pub(crate) fn echo(&self) -> [u8; 36] {
        let mut out = [0u8; 36];
        out[..16].copy_from_slice(&self.image.to_le_bytes());
        out[16..20].copy_from_slice(&self.pipeline.to_le_bytes());
        out[20..28].copy_from_slice(&self.config.to_le_bytes());
        out[28..].copy_from_slice(&self.classifier.to_le_bytes());
        out
    }

    /// The store file name this key maps to (hex of all four parts).
    pub fn file_name(&self) -> String {
        format!(
            "{:032x}-{:08x}-{:016x}-{:016x}.frac",
            self.image, self.pipeline, self.config, self.classifier
        )
    }
}

/// FNV-64 fingerprint of every configuration knob that can change
/// analysis output.
///
/// Hashes the [`put_config`] bytes (the exeid score threshold's bit
/// pattern and the four output-bearing [`TaintConfig`] fields, the same
/// bytes a submit carries over the wire) followed by the effective
/// index fingerprint below. A new knob goes into [`put_config`] —
/// missing one would let two differently-configured runs share entries.
///
/// The [`TaintConfig::libid`] toggle is excluded — summary replay is
/// report-byte-identical to full traversal — but the *effective index*
/// is fingerprinted: an entry computed with a loaded known-library index
/// records that index's skip counters, so swapping or removing the index
/// must miss. An analysis with libid off, or on
/// without an index, consults no index at all; both fold
/// [`LibIndex::EMPTY_FINGERPRINT`] and therefore share entries.
///
/// [`TaintConfig`]: firmres_dataflow::TaintConfig
/// [`TaintConfig::libid`]: firmres_dataflow::TaintConfig
/// [`LibIndex::EMPTY_FINGERPRINT`]: firmres_dataflow::LibIndex::EMPTY_FINGERPRINT
pub fn config_fingerprint(config: &AnalysisConfig) -> u64 {
    let mut bytes = Vec::with_capacity(42);
    put_config(&mut bytes, config);
    let lib_fp = match (config.taint.libid, config.taint.lib_index.as_ref()) {
        (firmres_dataflow::LibId::On, Some(index)) => index.fingerprint(),
        _ => firmres_dataflow::LibIndex::EMPTY_FINGERPRINT,
    };
    bytes.extend_from_slice(&lib_fp.to_le_bytes());
    content_hash_packed(&bytes)
}

/// FNV-64 fingerprint of the semantics model the analysis ran with.
///
/// The Semantics stage's output (and the "no trained classifier"
/// diagnostic) depends on which model — if any — was supplied, so the
/// model is part of the analysis identity. `None` maps to the reserved
/// [`NO_CLASSIFIER`] marker; a trained model maps to
/// [`Classifier::fingerprint`], the [`content_hash_packed`] of its
/// serialized form ([`Classifier::to_bytes`], which covers every weight
/// bit), nudged off the marker value in the astronomically unlikely case
/// the hash lands on it. The model memoizes that hash, so keying a
/// request costs the image hash alone after the first call.
pub fn classifier_fingerprint(classifier: Option<&Classifier>) -> u64 {
    match classifier {
        None => NO_CLASSIFIER,
        Some(model) => match model.fingerprint() {
            NO_CLASSIFIER => 1,
            h => h,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres_semantics::{Primitive, TrainConfig};

    #[test]
    fn config_fingerprint_sees_every_knob() {
        let base = AnalysisConfig::default();
        let f0 = config_fingerprint(&base);
        assert_eq!(f0, config_fingerprint(&AnalysisConfig::default()));

        let mut c = AnalysisConfig::default();
        c.exeid.score_threshold = 0.5;
        assert_ne!(f0, config_fingerprint(&c));

        let mut c = AnalysisConfig::default();
        c.taint.max_depth += 1;
        assert_ne!(f0, config_fingerprint(&c));

        let mut c = AnalysisConfig::default();
        c.taint.max_nodes += 1;
        assert_ne!(f0, config_fingerprint(&c));

        let mut c = AnalysisConfig::default();
        c.taint.overtaint = !c.taint.overtaint;
        assert_ne!(f0, config_fingerprint(&c));

        let mut c = AnalysisConfig::default();
        c.taint.decompose_buffers = !c.taint.decompose_buffers;
        assert_ne!(f0, config_fingerprint(&c));
    }

    /// Fingerprints captured from the hand-listed field encoding that
    /// preceded `put_config`: existing stores keep their keys.
    #[test]
    fn config_fingerprints_are_pinned() {
        assert_eq!(
            config_fingerprint(&AnalysisConfig::default()),
            0xa506_bed9_341a_bf5b
        );
        let mut c = AnalysisConfig::default();
        c.exeid.score_threshold = 0.625;
        c.taint.max_depth = 7;
        c.taint.max_nodes = 1234;
        c.taint.overtaint = !c.taint.overtaint;
        c.taint.decompose_buffers = !c.taint.decompose_buffers;
        assert_eq!(config_fingerprint(&c), 0x9811_e24e_9d94_2674);
    }

    #[test]
    fn libid_fingerprint_distinguishes_index_but_not_bare_toggle() {
        use firmres_dataflow::{LibFunc, LibFuncScripts, LibId, LibIndex};
        use std::sync::Arc;

        let f0 = config_fingerprint(&AnalysisConfig::default());

        // Off and On-without-an-index both consult nothing: same keys.
        let mut on_bare = AnalysisConfig::default();
        on_bare.taint.libid = LibId::On;
        assert_eq!(f0, config_fingerprint(&on_bare), "bare toggle is free");

        let index = |lib: &str| {
            LibIndex::new(
                vec![(
                    7u128,
                    LibFunc {
                        lib: lib.to_string(),
                        version: "1.0".to_string(),
                        func: "f".to_string(),
                        entry: 0x40,
                        scripts: LibFuncScripts::default(),
                    },
                )],
                0x1000,
            )
        };

        // A loaded index changes the fingerprint; a *different* index
        // changes it again (swap forces a miss).
        let mut with_a = AnalysisConfig::default();
        with_a.taint.libid = LibId::On;
        with_a.taint.lib_index = Some(Arc::new(index("liba")));
        let fa = config_fingerprint(&with_a);
        assert_ne!(f0, fa, "a loaded index must not share bare entries");

        let mut with_b = AnalysisConfig::default();
        with_b.taint.libid = LibId::On;
        with_b.taint.lib_index = Some(Arc::new(index("libb")));
        assert_ne!(fa, config_fingerprint(&with_b), "index swap misses");

        // Same index content → same fingerprint (entries are reusable).
        let mut with_a2 = AnalysisConfig::default();
        with_a2.taint.libid = LibId::On;
        with_a2.taint.lib_index = Some(Arc::new(index("liba")));
        assert_eq!(fa, config_fingerprint(&with_a2));

        // An index loaded but toggled Off is never consulted: bare keys.
        let mut off_loaded = AnalysisConfig::default();
        off_loaded.taint.lib_index = Some(Arc::new(index("liba")));
        assert_eq!(f0, config_fingerprint(&off_loaded));
    }

    #[test]
    fn file_name_is_stable_and_key_dependent() {
        let config = AnalysisConfig::default();
        let a = CacheKey::of_packed(b"image-a", None, &config);
        let b = CacheKey::of_packed(b"image-b", None, &config);
        assert_eq!(a, CacheKey::of_packed(b"image-a", None, &config));
        assert_ne!(a.file_name(), b.file_name());
        assert!(a.file_name().ends_with(".frac"));
    }

    #[test]
    fn hash_addressed_key_equals_by_bytes_key() {
        let config = AnalysisConfig::default();
        let by_bytes = CacheKey::of_packed(b"image-a", None, &config);
        let by_hash = CacheKey::of_hash(by_bytes.image, None, &config);
        assert_eq!(by_bytes, by_hash, "same entry whichever way it is keyed");
        assert_ne!(
            by_hash,
            CacheKey::of_hash(by_bytes.image ^ 1, None, &config)
        );
    }

    fn trained(seed: u64) -> Classifier {
        let data = vec![
            ("mac address".to_string(), Primitive::DevIdentifier),
            ("password login".to_string(), Primitive::UserCred),
        ];
        Classifier::train(
            &data,
            &TrainConfig {
                epochs: 3,
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn classifier_presence_and_identity_change_the_key() {
        let config = AnalysisConfig::default();
        let bare = CacheKey::of_packed(b"image", None, &config);
        assert_eq!(bare.classifier, NO_CLASSIFIER);

        let m1 = trained(1);
        let with_model = CacheKey::of_packed(b"image", Some(&m1), &config);
        assert_ne!(
            bare, with_model,
            "a model-less run must not share the model run's entry"
        );
        assert_ne!(bare.file_name(), with_model.file_name());

        // Same model → same key; a differently-trained model → different key.
        assert_eq!(
            with_model,
            CacheKey::of_packed(b"image", Some(&m1), &config)
        );
        let m2 = trained(2);
        assert_ne!(
            with_model,
            CacheKey::of_packed(b"image", Some(&m2), &config)
        );
    }
}
