//! # firmres-cache
//!
//! Content-addressed persistence for FIRMRES analyses, and the
//! incremental corpus driver built on it.
//!
//! The FIRMRES pipeline is deterministic: the same firmware bytes under
//! the same pipeline, configuration and (optional) semantics model
//! always produce the same [`FirmwareAnalysis`]. This crate exploits
//! that to make corpus re-analysis (the paper's 22-device evaluation
//! sweep, CI runs, iterative triage) incremental:
//!
//! * [`CacheKey`] — the content-addressed identity of one analysis:
//!   an FNV-128 hash of the packed firmware image, the
//!   [`PIPELINE_VERSION`], a fingerprint of every configuration knob
//!   that can change output, and a fingerprint of the semantics
//!   classifier (or the absence of one). Any of the four changing
//!   changes the key, so stale results are structurally unreachable.
//! * [`AnalysisCache`] — a one-file-per-key on-disk store holding each
//!   completed analysis in a checksummed file. Every artifact the store
//!   keeps shares one framing ([`seal`]).
//! * [`analyze_corpus_incremental`] — the drop-in corpus driver: hits
//!   skip the pipeline entirely, misses run on the shared worker pool
//!   and populate the store. Damaged entries are diagnosed
//!   ([`firmres::StageKind::Cache`]) and re-analyzed, never fatal.
//!   Warm runs return byte-identical results to the cold run that
//!   filled the store.
//!
//! # Examples
//!
//! ```
//! use firmres::{AnalysisConfig, NullObserver};
//! use firmres_cache::{analyze_corpus_incremental, AnalysisCache};
//! use firmres_corpus::generate_device;
//!
//! let dev = generate_device(10, 7);
//! let dir = std::env::temp_dir().join(format!("frc-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let cache = AnalysisCache::new(&dir);
//! let config = AnalysisConfig::default();
//!
//! let cold = analyze_corpus_incremental(
//!     &[&dev.firmware], None, &config, 1, &cache, &mut NullObserver);
//! assert_eq!(cold.stats.misses, 1);
//!
//! let warm = analyze_corpus_incremental(
//!     &[&dev.firmware], None, &config, 1, &cache, &mut NullObserver);
//! assert_eq!(warm.stats.hits, 1);
//! assert_eq!(warm.analyses[0].executable, cold.analyses[0].executable);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! [`FirmwareAnalysis`]: firmres::FirmwareAnalysis
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod driver;
mod key;
mod policy;
pub mod seal;
mod store;
pub mod unit;

pub use driver::{analyze_corpus_incremental, CacheStats, CorpusOutcome};
pub use key::{
    classifier_fingerprint, config_fingerprint, CacheKey, NO_CLASSIFIER, PIPELINE_VERSION,
};
pub use policy::{parse_byte_size, GcOutcome, ShardOccupancy, StorePolicy, MAX_SHARDS};
pub use store::{
    AnalysisCache, CacheError, CachedEntry, ClassifyStats, LibUsage, StoreStats, SCHEMA_VERSION,
};
pub use unit::{analyze_image_units_incremental, UnitFunnelOutcome, UnitStats};
