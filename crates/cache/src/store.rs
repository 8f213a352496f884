//! The on-disk analysis store: one sealed file per [`CacheKey`].
//!
//! # Entry layout
//!
//! An entry is the shared framing of [`crate::seal`] around one payload:
//!
//! ```text
//! "FRAC"                      magic
//! u16  schema version         (SCHEMA_VERSION)
//! u128 image hash       ┐
//! u32  pipeline version │     key echo — must match the lookup key
//! u64  config hash      │
//! u64  classifier hash  ┘
//! bytes  analysis             (put_analysis of the FirmwareAnalysis)
//! u64  FNV-64 of everything above
//! ```
//!
//! Entries are written to a temp file in the store directory and
//! renamed into place, so a crash mid-write or a concurrent reader in a
//! shared cache directory never observes a torn entry.
//!
//! Every failure mode — missing file, foreign magic, schema or key
//! mismatch, truncation, checksum or decode failure — is a typed
//! [`CacheError`]. Only [`CacheError::Miss`] is silent; callers treat
//! everything else as *diagnosed* misses (the incremental driver logs a
//! [`StageKind::Cache`] diagnostic and re-analyzes).
//!
//! [`StageKind::Cache`]: firmres::StageKind

use crate::codec::{get_analysis, put_analysis, DecodeError, Reader};
use crate::key::CacheKey;
use crate::policy::{self, Evictor, GcOutcome, ShardOccupancy, StorePolicy};
use crate::seal::{open, seal, SealError};
use firmres::stages::ClassifyTally;
use firmres::FirmwareAnalysis;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version of the sealed framing of every store artifact (`.frac`
/// entries, `.fru` banks, `.frv` verdicts and `shard.fridx` indexes), as
/// opposed to [`PIPELINE_VERSION`] which covers what an analysis
/// *contains*. An artifact at any other version reads as stale.
///
/// # History
///
/// * v4 — an entry's payload is the analysis alone: the handler and
///   taint-summary sections are gone.
/// * v3 — the store gained unit-granular sibling artifacts (`.fru` bank
///   and `.frv` verdict files, see [`crate::unit`]).
/// * v2 — sectioned payload with per-stage artifacts.
///
/// [`PIPELINE_VERSION`]: crate::PIPELINE_VERSION
pub const SCHEMA_VERSION: u16 = 4;

pub(crate) const MAGIC: &[u8; 4] = b"FRAC";

/// Why a cache lookup did not produce a usable entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// No entry for this key — the ordinary cold-cache case.
    Miss,
    /// The entry exists but could not be read.
    Io(String),
    /// The file does not start with the `FRAC` magic.
    BadMagic,
    /// The entry was written by a different store layout.
    SchemaMismatch {
        /// The schema version found in the entry header.
        found: u16,
    },
    /// The entry's key echo disagrees with the lookup key (a hash
    /// collision in the file name, or a renamed file).
    KeyMismatch,
    /// The entry ends before its declared contents.
    Truncated,
    /// The trailing checksum does not match the entry bytes.
    BadChecksum,
    /// The payload does not decode.
    Decode(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Miss => write!(f, "cache miss"),
            CacheError::Io(e) => write!(f, "cache io error: {e}"),
            CacheError::BadMagic => write!(f, "cache entry has wrong magic"),
            CacheError::SchemaMismatch { found } => {
                write!(
                    f,
                    "cache entry schema v{found} does not match v{SCHEMA_VERSION}"
                )
            }
            CacheError::KeyMismatch => write!(f, "cache entry key echo mismatch"),
            CacheError::Truncated => write!(f, "cache entry truncated"),
            CacheError::BadChecksum => write!(f, "cache entry checksum mismatch"),
            CacheError::Decode(e) => write!(f, "cache entry decode failed: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<DecodeError> for CacheError {
    fn from(e: DecodeError) -> Self {
        CacheError::Decode(e.0)
    }
}

impl From<SealError> for CacheError {
    fn from(e: SealError) -> Self {
        match e {
            SealError::Truncated => CacheError::Truncated,
            SealError::BadMagic => CacheError::BadMagic,
            SealError::SchemaMismatch { found } => CacheError::SchemaMismatch { found },
            SealError::KeyMismatch => CacheError::KeyMismatch,
            SealError::BadChecksum => CacheError::BadChecksum,
        }
    }
}

impl CacheError {
    /// Whether this is the silent no-entry case rather than a damaged or
    /// incompatible entry worth diagnosing.
    pub fn is_miss(&self) -> bool {
        matches!(self, CacheError::Miss)
    }
}

/// A fully decoded cache entry.
#[derive(Debug)]
pub struct CachedEntry {
    /// The persisted analysis result.
    pub analysis: FirmwareAnalysis,
    /// The entry's payload exactly as stored: the [`put_analysis`]
    /// encoding of `analysis`, which decoded with no byte left over.
    /// A server answers a hit with these bytes instead of re-encoding.
    pub analysis_bytes: Vec<u8>,
    /// Bytes read from disk for this entry.
    pub bytes: u64,
}

/// Point-in-time totals of the batched classification path under one
/// store handle ([`AnalysisCache::class_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyStats {
    /// Always 0 since the corpus-wide class cache was removed. Kept so
    /// the outside-in benchmark (`firmres-benchmark/`) still builds.
    pub hits: u64,
    /// Always 0, like `hits`, and kept for the same reason.
    pub misses: u64,
    /// Slice texts classified while analyzing misses.
    pub batched: u64,
    /// Slices the certified None pre-filter resolved without scoring.
    pub prefilter_skips: u64,
}

/// A content-addressed store of completed firmware analyses.
///
/// One directory (or N shard subdirectories, see [`StorePolicy`]), one
/// file per [`CacheKey`]; directories are created on first write.
/// Lookups for keys with no file are [`CacheError::Miss`]; any other
/// failure names what is wrong with the entry that *was* there.
#[derive(Debug, Clone)]
pub struct AnalysisCache {
    dir: PathBuf,
    policy: StorePolicy,
    orphans_removed: u64,
    /// Present iff the policy sets a byte budget. Clones share the
    /// accounting, so a daemon's workers see one LRU ordering.
    evictor: Option<Arc<Evictor>>,
    /// Running totals of slice classification under this store.
    /// In-memory only; clones share it, so a daemon's workers add to
    /// one tally.
    class_tally: Arc<ClassifyTally>,
}

impl AnalysisCache {
    /// A store rooted at `dir` with the default (flat, unbounded)
    /// [`StorePolicy`] — the historical behavior.
    ///
    /// Opening also sweeps the store for orphaned temp files — the
    /// `.{name}.{pid}-{seq}.tmp` intermediates of the atomic
    /// write-then-rename protocol whose writer process died mid-write.
    /// A temp file whose embedded pid is no longer alive can never be
    /// renamed into place, so it is deleted; the count is surfaced in
    /// [`StoreStats::orphans_removed`]. Temps of live processes
    /// (including this one) are left untouched.
    pub fn new(dir: impl Into<PathBuf>) -> AnalysisCache {
        AnalysisCache::with_policy(dir, StorePolicy::default())
    }

    /// A store rooted at `dir` under an explicit [`StorePolicy`]. The
    /// orphan sweep covers the root and every shard subdirectory. When
    /// the policy sets a byte budget, the accounting scan runs here and
    /// an initial eviction pass brings a store inherited over budget
    /// (e.g. after the budget was lowered) back under it.
    pub fn with_policy(dir: impl Into<PathBuf>, policy: StorePolicy) -> AnalysisCache {
        let dir = dir.into();
        let mut orphans_removed = 0;
        for (_, d) in policy::store_dirs(&dir, &policy) {
            orphans_removed += sweep_orphan_temps(&d);
        }
        let evictor = policy
            .byte_budget
            .map(|_| Arc::new(Evictor::open(&dir, &policy)));
        let cache = AnalysisCache {
            dir,
            policy,
            orphans_removed,
            evictor,
            class_tally: Arc::default(),
        };
        // Only an inherited store already over the trigger watermark is
        // collected at open; inside the hysteresis band writes accumulate.
        if let (Some(e), Some(budget)) = (&cache.evictor, cache.policy.byte_budget) {
            if e.total_bytes() as f64 > cache.policy.high_watermark * budget as f64 {
                let _ = e.collect(&cache.dir);
            }
        }
        cache
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The storage policy this store was opened under.
    pub fn store_policy(&self) -> &StorePolicy {
        &self.policy
    }

    /// The directory an artifact named `name` belongs in (the root for a
    /// flat store, the name's shard subdirectory otherwise).
    pub(crate) fn artifact_dir(&self, name: &str) -> PathBuf {
        policy::artifact_dir_in(&self.dir, &self.policy, name)
    }

    /// The full path of an artifact named `name`.
    pub(crate) fn artifact_path(&self, name: &str) -> PathBuf {
        self.artifact_dir(name).join(name)
    }

    /// Record a successful artifact read with the eviction accounting.
    pub(crate) fn note_read_artifact(&self, name: &str) {
        if let Some(e) = &self.evictor {
            e.note_read(name);
        }
    }

    /// Record an artifact deleted outside the GC.
    pub(crate) fn note_removed_artifact(&self, name: &str) {
        if let Some(e) = &self.evictor {
            e.note_removed(name);
        }
    }

    /// Force an eviction pass now: if the store is over
    /// `low_watermark × budget`, least-recently-used artifacts are
    /// deleted until it is not. A no-op without a byte budget.
    pub fn gc_now(&self) -> GcOutcome {
        match &self.evictor {
            Some(e) => e.collect(&self.dir),
            None => GcOutcome::default(),
        }
    }

    /// Bytes currently tracked by the eviction accounting (`None`
    /// without a byte budget).
    pub fn tracked_bytes(&self) -> Option<u64> {
        self.evictor.as_ref().map(|e| e.total_bytes())
    }

    /// The file path an entry for `key` lives at.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.artifact_path(&key.file_name())
    }

    /// The classification tally every miss analyzed through this store
    /// counts into.
    pub(crate) fn class_tally(&self) -> &ClassifyTally {
        &self.class_tally
    }

    /// Slice-classification totals since this store was opened (shared
    /// by its clones).
    pub fn class_cache_stats(&self) -> ClassifyStats {
        ClassifyStats {
            hits: 0,
            misses: 0,
            batched: self.class_tally.batched(),
            prefilter_skips: self.class_tally.prefilter_skips(),
        }
    }

    /// Persist a finished analysis under `key`. Returns the number of
    /// bytes written.
    pub fn store(&self, key: &CacheKey, analysis: &FirmwareAnalysis) -> Result<u64, CacheError> {
        let mut encoded = Vec::new();
        put_analysis(&mut encoded, analysis);
        self.store_encoded(key, &encoded)
    }

    /// Persist an analysis whose [`put_analysis`] encoding the caller
    /// already holds (the unit funnel's output): `encoded` becomes the
    /// entry's payload verbatim. Returns the number of bytes written.
    pub fn store_encoded(&self, key: &CacheKey, encoded: &[u8]) -> Result<u64, CacheError> {
        let sealed = seal(MAGIC, SCHEMA_VERSION, &key.echo(), encoded);
        self.write_artifact(&key.file_name(), &sealed)
            .map_err(CacheError::Io)
    }

    /// Load and decode the entry for `key`. The payload must decode with
    /// no byte left over, so an entry that loads can be served verbatim.
    pub fn load(&self, key: &CacheKey) -> Result<CachedEntry, CacheError> {
        let name = key.file_name();
        let data = self
            .read_artifact(&name)
            .map_err(|e| CacheError::Io(e.to_string()))?
            .ok_or(CacheError::Miss)?;
        let payload = open(&data, MAGIC, SCHEMA_VERSION, &key.echo())?;
        self.note_read_artifact(&name);
        let mut r = Reader::new(payload);
        let analysis = get_analysis(&mut r)?;
        if r.remaining() != 0 {
            return Err(CacheError::Decode(format!(
                "{} trailing byte(s) in payload",
                r.remaining()
            )));
        }
        Ok(CachedEntry {
            analysis,
            analysis_bytes: payload.to_vec(),
            bytes: data.len() as u64,
        })
    }

    /// Whether an entry file exists for `key` (no validation).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entry_path(key).exists()
    }

    /// Read the artifact named `name` whole; `Ok(None)` when there is no
    /// such file.
    pub(crate) fn read_artifact(&self, name: &str) -> std::io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.artifact_path(name)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Write a sealed artifact atomically and record it with the eviction
    /// accounting, running an eviction pass if the write pushed the store
    /// over its trigger watermark. Returns the number of bytes written.
    pub(crate) fn write_artifact(&self, name: &str, sealed: &[u8]) -> Result<u64, String> {
        write_file_atomic(&self.artifact_dir(name), name, sealed)?;
        let bytes = sealed.len() as u64;
        if let Some(e) = &self.evictor {
            if e.note_write(name, bytes) {
                let _ = e.collect(&self.dir);
            }
        }
        Ok(bytes)
    }
}

/// Atomic write-then-rename with the store's temp naming convention, so
/// a crash mid-write or a concurrent reader never sees a torn artifact:
/// the final path either holds the old bytes or the complete new ones.
/// The temp name is unique per process and write, so parallel writers
/// cannot collide, and the orphan sweep covers crashed writes.
pub(crate) fn write_file_atomic(dir: &Path, file_name: &str, data: &[u8]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(".{file_name}.{}-{seq}.tmp", std::process::id()));
    let final_path = dir.join(file_name);
    std::fs::write(&tmp, data).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, &final_path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        e.to_string()
    })?;
    Ok(())
}

/// Aggregate shape of one store directory, as reported by
/// [`AnalysisCache::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entry files bearing the `FRAC` magic.
    pub entries: u64,
    /// Total bytes across those entries.
    pub total_bytes: u64,
    /// Entry count per schema version found, ascending by version.
    /// Anything not at [`SCHEMA_VERSION`] is dead weight a future
    /// garbage-collection pass could reclaim.
    pub by_schema: Vec<(u16, u64)>,
    /// `.frac`-named files that do not start with the magic (foreign or
    /// mangled files sharing the directory).
    pub foreign: u64,
    /// Unit-granular bank artifacts (`.fru` files, see [`crate::unit`]).
    pub unit_banks: u64,
    /// Executable-identification verdict artifacts (`.frv` files).
    pub verdicts: u64,
    /// Total bytes across the unit-granular artifact files.
    pub unit_bytes: u64,
    /// Orphaned write temps deleted when this store was opened.
    pub orphans_removed: u64,
    /// Lifetime artifacts evicted by the byte-budget GC, summed over the
    /// persisted shard indexes.
    pub evicted_entries: u64,
    /// Lifetime bytes reclaimed by the byte-budget GC.
    pub reclaimed_bytes: u64,
    /// The byte budget recorded by the most recent GC pass (`0` when no
    /// eviction has ever run).
    pub budget_bytes: u64,
    /// Per-directory occupancy: one row for the root of a flat store,
    /// one per shard subdirectory otherwise. Directories with no
    /// artifacts and no eviction history are omitted.
    pub shards: Vec<ShardOccupancy>,
}

impl StoreStats {
    /// Entries at the current [`SCHEMA_VERSION`].
    pub fn current(&self) -> u64 {
        self.by_schema
            .iter()
            .find(|(v, _)| *v == SCHEMA_VERSION)
            .map_or(0, |(_, n)| *n)
    }
}

impl AnalysisCache {
    /// Survey the store: entry count, total bytes, the schema-version
    /// breakdown, per-shard occupancy and the persisted eviction
    /// counters.
    ///
    /// Only each file's 6-byte header is inspected — no entry is decoded
    /// or checksummed, so this stays cheap on large stores. A store whose
    /// directory does not exist yet reports all-zero stats rather than an
    /// error (it is simply empty). Temp files from in-flight writes (no
    /// `.frac` suffix) are skipped; unit-granular sibling artifacts
    /// (`.fru` banks, `.frv` verdicts) are counted separately. The root
    /// and every shard subdirectory are surveyed, so the aggregate is
    /// layout-independent.
    pub fn stats(&self) -> Result<StoreStats, CacheError> {
        let mut stats = StoreStats {
            orphans_removed: self.orphans_removed,
            ..StoreStats::default()
        };
        let mut by_schema = std::collections::BTreeMap::new();
        for (_, dir) in policy::store_dirs(&self.dir, &self.policy) {
            let entries = match std::fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(CacheError::Io(e.to_string())),
            };
            let mut row = ShardOccupancy {
                name: if dir == self.dir {
                    "root".to_string()
                } else {
                    dir.file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("?")
                        .to_string()
                },
                ..ShardOccupancy::default()
            };
            if let Some(index) = policy::read_index(&dir.join(policy::INDEX_NAME)) {
                row.evicted = index.evicted;
                row.reclaimed_bytes = index.reclaimed_bytes;
                stats.evicted_entries += index.evicted;
                stats.reclaimed_bytes += index.reclaimed_bytes;
                stats.budget_bytes = stats.budget_bytes.max(index.budget_bytes);
            }
            for entry in entries {
                let entry = entry.map_err(|e| CacheError::Io(e.to_string()))?;
                let path = entry.path();
                let ext = path.extension().and_then(|e| e.to_str());
                if let Some("fru" | "frv") = ext {
                    let meta = entry
                        .metadata()
                        .map_err(|e| CacheError::Io(e.to_string()))?;
                    if meta.is_file() {
                        if ext == Some("fru") {
                            stats.unit_banks += 1;
                        } else {
                            stats.verdicts += 1;
                        }
                        stats.unit_bytes += meta.len();
                        row.files += 1;
                        row.bytes += meta.len();
                    }
                    continue;
                }
                if ext != Some("frac") {
                    continue;
                }
                let meta = entry
                    .metadata()
                    .map_err(|e| CacheError::Io(e.to_string()))?;
                if !meta.is_file() {
                    continue;
                }
                let mut header = [0u8; 6];
                let ok = std::fs::File::open(&path)
                    .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut header))
                    .is_ok();
                if !ok || &header[..4] != MAGIC {
                    stats.foreign += 1;
                    continue;
                }
                stats.entries += 1;
                stats.total_bytes += meta.len();
                row.files += 1;
                row.bytes += meta.len();
                let schema = u16::from_le_bytes([header[4], header[5]]);
                *by_schema.entry(schema).or_insert(0u64) += 1;
            }
            if row.files > 0 || row.bytes > 0 || row.evicted > 0 || row.reclaimed_bytes > 0 {
                stats.shards.push(row);
            }
        }
        stats
            .shards
            .sort_by(|a, b| (a.name != "root", &a.name).cmp(&(b.name != "root", &b.name)));
        stats.by_schema = by_schema.into_iter().collect();
        Ok(stats)
    }
}

/// Known-library summary usage aggregated over a store's decodable
/// entries, as reported by [`AnalysisCache::survey_lib_usage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibUsage {
    /// Functions hash-matched against a known-library index.
    pub fns_matched: u64,
    /// Library-body traversals replaced by summary replay.
    pub traversals_skipped: u64,
    /// Taint-tree nodes emitted by summary replay.
    pub summary_applies: u64,
}

impl LibUsage {
    /// Whether any libid counter is nonzero.
    pub fn any(&self) -> bool {
        self.fns_matched > 0 || self.traversals_skipped > 0 || self.summary_applies > 0
    }
}

/// Reconstruct a [`CacheKey`] from an entry file stem (the inverse of
/// [`CacheKey::file_name`]); `None` for foreign names.
fn parse_entry_stem(stem: &str) -> Option<CacheKey> {
    let mut parts = stem.split('-');
    let key = CacheKey {
        image: u128::from_str_radix(parts.next()?, 16).ok()?,
        pipeline: u32::from_str_radix(parts.next()?, 16).ok()?,
        config: u64::from_str_radix(parts.next()?, 16).ok()?,
        classifier: u64::from_str_radix(parts.next()?, 16).ok()?,
    };
    parts.next().is_none().then_some(key)
}

impl AnalysisCache {
    /// Sum the known-library counters recorded in every decodable entry
    /// of the store.
    ///
    /// Unlike [`AnalysisCache::stats`] this decodes each entry (the
    /// counters live in the payload), so it is proportional to
    /// store size — fine for the `cache-stats` survey, not for hot
    /// paths. Entries that fail to decode (stale schema, damage,
    /// foreign files) are skipped silently: the survey reports what is
    /// readable, never errors.
    pub fn survey_lib_usage(&self) -> LibUsage {
        let mut usage = LibUsage::default();
        for (_, dir) in policy::store_dirs(&self.dir, &self.policy) {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some("frac") {
                    continue;
                }
                let Some(key) = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(parse_entry_stem)
                else {
                    continue;
                };
                let Ok(cached) = self.load(&key) else {
                    continue;
                };
                let c = &cached.analysis.counters;
                usage.fns_matched += c.lib_fns_matched;
                usage.traversals_skipped += c.lib_traversals_skipped;
                usage.summary_applies += c.lib_summary_applies;
            }
        }
        usage
    }
}

/// Delete orphaned write temps in `dir`, returning how many were removed.
///
/// A temp is an orphan when its embedded writer pid is provably not this
/// process and not alive (checked via `/proc` where available). Files
/// that do not parse as our temp naming convention are never touched.
fn sweep_orphan_temps(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = temp_writer_pid(name) else {
            continue;
        };
        if pid == std::process::id() {
            continue;
        }
        // Without /proc there is no portable liveness probe; err on the
        // side of keeping the file rather than racing a live writer.
        if !Path::new("/proc").is_dir() || Path::new(&format!("/proc/{pid}")).exists() {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Parse the writer pid out of a `.{name}.{pid}-{seq}.tmp` file name, or
/// `None` when the name is not one of our write temps.
fn temp_writer_pid(name: &str) -> Option<u32> {
    let rest = name.strip_prefix('.')?.strip_suffix(".tmp")?;
    let (_, pid_seq) = rest.rsplit_once('.')?;
    let (pid, seq) = pid_seq.split_once('-')?;
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres::{analyze_firmware, AnalysisConfig};
    use firmres_corpus::generate_device;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("firmres-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn class_stats_are_shared_by_clones_and_count_no_hits() {
        let dev = generate_device(10, 7);
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::new(temp_dir("classstats"));
        let clone = cache.clone();
        crate::analyze_image_units_incremental(
            &dev.firmware,
            None,
            &config,
            1,
            &clone,
            &mut firmres::NullObserver,
            None,
        )
        .expect("uncancelled funnel runs");
        let rendered = analyze_firmware(&dev.firmware, None, &config)
            .counters
            .slices_rendered;
        let stats = cache.class_cache_stats();
        assert!(rendered > 0);
        assert_eq!(stats.batched, rendered);
        assert_eq!((stats.hits, stats.misses, stats.prefilter_skips), (0, 0, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn store_load_round_trip() {
        let dev = generate_device(10, 7);
        let config = AnalysisConfig::default();
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let cache = AnalysisCache::new(temp_dir("roundtrip"));
        let key = CacheKey::compute(&dev.firmware, None, &config);

        assert!(matches!(cache.load(&key), Err(CacheError::Miss)));
        let written = cache.store(&key, &analysis).unwrap();
        assert!(written > 0);

        let entry = cache.load(&key).unwrap();
        assert_eq!(entry.bytes, written);
        assert_eq!(entry.analysis.executable, analysis.executable);
        assert_eq!(entry.analysis.messages.len(), analysis.messages.len());
        assert_eq!(entry.analysis.counters, analysis.counters);
        assert_eq!(entry.analysis.handlers.len(), analysis.handlers.len());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entries_are_typed_errors() {
        let dev = generate_device(6, 7);
        let config = AnalysisConfig::default();
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let cache = AnalysisCache::new(temp_dir("corrupt"));
        let key = CacheKey::compute(&dev.firmware, None, &config);
        cache.store(&key, &analysis).unwrap();
        let path = cache.entry_path(&key);
        let good = std::fs::read(&path).unwrap();

        // Truncation: checksum can no longer match.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            cache.load(&key),
            Err(CacheError::BadChecksum | CacheError::Truncated)
        ));

        // Byte flip in the body.
        let mut flipped = good.clone();
        flipped[MAGIC.len() + 3] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(cache.load(&key).unwrap_err(), CacheError::BadChecksum);

        // Foreign file.
        std::fs::write(&path, b"not a cache entry at all").unwrap();
        assert!(matches!(
            cache.load(&key),
            Err(CacheError::BadMagic | CacheError::BadChecksum | CacheError::Truncated)
        ));

        // Restored entry loads again.
        std::fs::write(&path, &good).unwrap();
        assert!(cache.load(&key).is_ok());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn schema_bump_is_a_schema_mismatch() {
        let dev = generate_device(6, 7);
        let config = AnalysisConfig::default();
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let cache = AnalysisCache::new(temp_dir("schema"));
        let key = CacheKey::compute(&dev.firmware, None, &config);
        cache.store(&key, &analysis).unwrap();
        let path = cache.entry_path(&key);
        let data = std::fs::read(&path).unwrap();
        // Re-seal the payload under another schema version, emulating an
        // entry from a future store layout.
        let payload = &data[6 + 36..data.len() - 8];
        std::fs::write(&path, seal(MAGIC, 0xFFFE, &key.echo(), payload)).unwrap();
        assert_eq!(
            cache.load(&key).unwrap_err(),
            CacheError::SchemaMismatch { found: 0xFFFE }
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_survey_entries_schemas_and_foreign_files() {
        let cache = AnalysisCache::new(temp_dir("stats"));
        // A store that was never written to is empty, not an error.
        assert_eq!(cache.stats().unwrap(), StoreStats::default());

        let config = AnalysisConfig::default();
        let mut written = 0;
        for id in [6u8, 10] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            written += cache.store(&key, &analysis).unwrap();
        }
        // One foreign .frac file and one non-entry file alongside.
        std::fs::write(cache.dir().join("junk.frac"), b"not FRAC at all").unwrap();
        std::fs::write(cache.dir().join("notes.txt"), b"ignored").unwrap();

        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.total_bytes, written);
        assert_eq!(stats.by_schema, vec![(SCHEMA_VERSION, 2)]);
        assert_eq!(stats.current(), 2);
        assert_eq!(stats.foreign, 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_survey_is_exact_at_a_thousand_plus_entries() {
        // ISSUE 7 scale audit: with synthesized fleets the store routinely
        // holds 1k+ image entries plus unit artifacts. Fabricate a large
        // mixed population from raw headers (the survey reads only the
        // 6-byte prefix) and check every counter is exact — no narrow
        // types, no skipped banks, no drift between count and byte total.
        let cache = AnalysisCache::new(temp_dir("stats1k"));
        std::fs::create_dir_all(cache.dir()).unwrap();
        let entry_bytes = |schema: u16, pad: usize| {
            let mut b = Vec::new();
            b.extend_from_slice(MAGIC);
            b.extend_from_slice(&schema.to_le_bytes());
            b.resize(6 + pad, 0xAB);
            b
        };
        let mut expect_total = 0u64;
        let mut expect_current = 0u64;
        let mut expect_stale = 0u64;
        for i in 0..1200u32 {
            // 1 in 6 entries carries the previous (stale) schema.
            let schema = if i % 6 == 5 {
                SCHEMA_VERSION - 1
            } else {
                SCHEMA_VERSION
            };
            let body = entry_bytes(schema, (i % 97) as usize);
            expect_total += body.len() as u64;
            if schema == SCHEMA_VERSION {
                expect_current += 1;
            } else {
                expect_stale += 1;
            }
            std::fs::write(cache.dir().join(format!("e{i:04}.frac")), &body).unwrap();
        }
        let mut expect_unit_bytes = 0u64;
        for i in 0..40u32 {
            let body = vec![0x55u8; 32 + (i as usize % 11)];
            expect_unit_bytes += body.len() as u64;
            std::fs::write(cache.dir().join(format!("u{i:03}.fru")), &body).unwrap();
        }
        for i in 0..25u32 {
            let body = vec![0x66u8; 16 + (i as usize % 7)];
            expect_unit_bytes += body.len() as u64;
            std::fs::write(cache.dir().join(format!("v{i:03}.frv")), &body).unwrap();
        }
        for i in 0..7u32 {
            std::fs::write(
                cache.dir().join(format!("alien{i}.frac")),
                format!("no magic here {i}"),
            )
            .unwrap();
        }
        std::fs::write(cache.dir().join("README"), b"ignored entirely").unwrap();

        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 1200);
        assert_eq!(stats.total_bytes, expect_total);
        assert_eq!(
            stats.by_schema,
            vec![
                (SCHEMA_VERSION - 1, expect_stale),
                (SCHEMA_VERSION, expect_current),
            ]
        );
        assert_eq!(stats.current(), expect_current);
        assert_eq!(stats.foreign, 7);
        assert_eq!(stats.unit_banks, 40);
        assert_eq!(stats.verdicts, 25);
        assert_eq!(stats.unit_bytes, expect_unit_bytes);
        assert_eq!(stats.orphans_removed, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// An entry as schema v3 laid it out: the v3 header, then three
    /// length-prefixed sections (handlers, taint summaries, analysis).
    /// The summaries carry node counts only: the schema check refuses
    /// the entry before any section is read.
    fn v3_entry(key: &CacheKey, analysis: &FirmwareAnalysis) -> Vec<u8> {
        let mut handlers = (analysis.handlers.len() as u32).to_le_bytes().to_vec();
        for h in &analysis.handlers {
            crate::codec::put_handler(&mut handlers, h);
        }
        let mut summaries = (analysis.messages.len() as u32).to_le_bytes().to_vec();
        for m in &analysis.messages {
            summaries.extend_from_slice(&(m.mft.len() as u64).to_le_bytes());
            summaries.extend_from_slice(&0u32.to_le_bytes());
        }
        let mut encoded = Vec::new();
        put_analysis(&mut encoded, analysis);
        let mut payload = Vec::new();
        for section in [&handlers, &summaries, &encoded] {
            payload.extend_from_slice(&(section.len() as u32).to_le_bytes());
            payload.extend_from_slice(section);
        }
        seal(MAGIC, 3, &key.echo(), &payload)
    }

    #[test]
    fn v3_entries_read_as_stale_and_are_rederived() {
        let dev = generate_device(6, 7);
        let config = AnalysisConfig::default();
        let plain = analyze_firmware(&dev.firmware, None, &config);
        let cache = AnalysisCache::new(temp_dir("v3read"));
        let key = CacheKey::compute(&dev.firmware, None, &config);
        std::fs::create_dir_all(cache.dir()).unwrap();
        std::fs::write(cache.entry_path(&key), v3_entry(&key, &plain)).unwrap();
        assert_eq!(
            cache.load(&key).unwrap_err(),
            CacheError::SchemaMismatch { found: 3 }
        );
        assert_eq!(cache.stats().unwrap().by_schema, vec![(3, 1)]);

        let normalized = |mut a: FirmwareAnalysis| {
            a.timings = Default::default();
            let mut out = Vec::new();
            put_analysis(&mut out, &a);
            out
        };
        let expect = normalized(plain);
        let images = [&dev.firmware];
        let mut obs = firmres::CollectingObserver::default();
        let rerun = crate::analyze_corpus_incremental(&images, None, &config, 1, &cache, &mut obs);
        assert_eq!((rerun.stats.hits, rerun.stats.misses), (0, 1));
        let warnings: Vec<_> = obs
            .diagnostics
            .iter()
            .filter(|d| d.stage == firmres::StageKind::Cache)
            .collect();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].detail.contains("schema v3"), "{warnings:?}");

        // The stale entry was overwritten with a v4 entry of the same
        // analysis, and the next run is a hit on it.
        let stored = cache.load(&key).expect("re-derived entry loads");
        assert_eq!(normalized(stored.analysis), expect);
        assert_eq!(cache.stats().unwrap().by_schema, vec![(SCHEMA_VERSION, 1)]);
        let warm = crate::analyze_corpus_incremental(
            &images,
            None,
            &config,
            1,
            &cache,
            &mut firmres::NullObserver,
        );
        assert_eq!((warm.stats.hits, warm.stats.misses), (1, 0));
        let hit = warm.analyses.into_iter().next().unwrap();
        assert_eq!(normalized(hit), expect);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn opening_a_store_reaps_orphaned_write_temps() {
        let dir = temp_dir("orphans");
        std::fs::create_dir_all(&dir).unwrap();
        // A crashed writer's temp: valid naming, provably dead pid.
        let orphan = dir.join(".00aa.frac.999999999-3.tmp");
        std::fs::write(&orphan, b"half-written").unwrap();
        // A live writer's temp (our own pid): must survive.
        let live = dir.join(format!(".00bb.frac.{}-0.tmp", std::process::id()));
        std::fs::write(&live, b"in flight").unwrap();
        // Not our naming convention: must survive.
        let foreign = dir.join(".gitignore");
        std::fs::write(&foreign, b"*").unwrap();

        let cache = AnalysisCache::new(&dir);
        assert!(!orphan.exists(), "dead writer's temp should be reaped");
        assert!(live.exists(), "live writer's temp must survive");
        assert!(foreign.exists(), "unrelated dotfiles must survive");
        assert_eq!(cache.stats().unwrap().orphans_removed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_writer_pid_parses_only_our_convention() {
        assert_eq!(temp_writer_pid(".abc.frac.1234-7.tmp"), Some(1234));
        assert_eq!(temp_writer_pid(".a.fru.99-0.tmp"), Some(99));
        assert_eq!(temp_writer_pid("abc.frac.1234-7.tmp"), None);
        assert_eq!(temp_writer_pid(".abc.frac.1234-7.txt"), None);
        assert_eq!(temp_writer_pid(".gitignore"), None);
        assert_eq!(temp_writer_pid(".abc.frac.x-7.tmp"), None);
        assert_eq!(temp_writer_pid(".abc.frac.12-x.tmp"), None);
    }

    #[test]
    fn sharded_store_round_trips_and_surveys_per_shard() {
        let dir = temp_dir("sharded");
        let policy = StorePolicy {
            shards: 4,
            ..StorePolicy::default()
        };
        let cache = AnalysisCache::with_policy(&dir, policy);
        let config = AnalysisConfig::default();
        let mut keys = Vec::new();
        for id in [4u8, 6, 10, 14, 21] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            cache.store(&key, &analysis).unwrap();
            keys.push((key, analysis));
        }
        // Entries land in shard subdirectories, never the root.
        for (key, _) in &keys {
            let path = cache.entry_path(key);
            assert_ne!(path.parent().unwrap(), dir.as_path());
            assert!(path.exists());
        }
        // Every entry loads back through the sharded paths.
        for (key, analysis) in &keys {
            let entry = cache.load(key).unwrap();
            assert_eq!(entry.analysis.executable, analysis.executable);
        }
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 5);
        assert!(!stats.shards.is_empty());
        assert_eq!(stats.shards.iter().map(|s| s.files).sum::<u64>(), 5);
        assert_eq!(
            stats.shards.iter().map(|s| s.bytes).sum::<u64>(),
            stats.total_bytes
        );
        // A flat-opened view of the same directory still surveys the
        // aggregate (shard subdirectories are always swept).
        let flat = AnalysisCache::new(&dir);
        assert_eq!(flat.stats().unwrap().entries, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_the_store_under_budget_and_persists_counters() {
        let dir = temp_dir("evict");
        let config = AnalysisConfig::default();
        // First, learn how big one entry is.
        let probe = AnalysisCache::new(&dir);
        let dev = generate_device(4, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let key = CacheKey::compute(&dev.firmware, None, &config);
        let entry_bytes = probe.store(&key, &analysis).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        // Budget fits roughly three entries; write five.
        let budget = entry_bytes * 3 + entry_bytes / 2;
        let policy = StorePolicy {
            shards: 2,
            byte_budget: Some(budget),
            low_watermark: 0.9,
            ..StorePolicy::default()
        };
        let cache = AnalysisCache::with_policy(&dir, policy.clone());
        for id in [4u8, 6, 10, 14, 21] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            cache.store(&key, &analysis).unwrap();
        }
        let stats = cache.stats().unwrap();
        assert!(
            stats.total_bytes + stats.unit_bytes <= budget,
            "store must end at or under its budget ({} > {budget})",
            stats.total_bytes + stats.unit_bytes
        );
        assert!(stats.evicted_entries > 0, "evictions must have happened");
        assert!(stats.reclaimed_bytes > 0);
        assert_eq!(stats.budget_bytes, budget, "budget persists via the index");
        assert_eq!(cache.tracked_bytes(), Some(stats.total_bytes));

        // A fresh open (fresh process would be the same) still sees the
        // lifetime counters from the persisted shard indexes.
        let reopened = AnalysisCache::with_policy(&dir, policy);
        let restat = reopened.stats().unwrap();
        assert_eq!(restat.evicted_entries, stats.evicted_entries);
        assert_eq!(restat.reclaimed_bytes, stats.reclaimed_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_lru() {
        let dir = temp_dir("evict-lru");
        let config = AnalysisConfig::default();
        // Probe the actual size of each entry so the budget is exactly
        // one byte short of holding all three.
        let probe = AnalysisCache::new(&dir);
        let mut total = 0u64;
        for id in [4u8, 6, 10] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            total += probe.store(&key, &analysis).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);

        let cache = AnalysisCache::with_policy(
            &dir,
            StorePolicy {
                byte_budget: Some(total - 1),
                low_watermark: 1.0,
                ..StorePolicy::default()
            },
        );
        let mut keys = Vec::new();
        for id in [4u8, 6, 10] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            keys.push(key);
            if id == 10 {
                // Touch the oldest entry before the overflow write: LRU
                // must now pick the middle entry instead.
                cache.load(&keys[0]).unwrap();
            }
            cache.store(&key, &analysis).unwrap();
        }
        assert!(cache.contains(&keys[0]), "recently read entry survives");
        assert!(!cache.contains(&keys[1]), "least-recently-used is evicted");
        assert!(cache.contains(&keys[2]), "freshest write survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_echo_guards_renamed_entries() {
        let dev_a = generate_device(6, 7);
        let dev_b = generate_device(10, 7);
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::new(temp_dir("echo"));
        let key_a = CacheKey::compute(&dev_a.firmware, None, &config);
        let key_b = CacheKey::compute(&dev_b.firmware, None, &config);
        let analysis = analyze_firmware(&dev_a.firmware, None, &config);
        cache.store(&key_a, &analysis).unwrap();
        // Pretend a's entry is b's by renaming the file.
        std::fs::rename(cache.entry_path(&key_a), cache.entry_path(&key_b)).unwrap();
        assert_eq!(cache.load(&key_b).unwrap_err(), CacheError::KeyMismatch);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
