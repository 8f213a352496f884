//! Store policy: shard layout and budget-driven eviction.
//!
//! The FRAC store started life as one flat directory that only ever
//! grows. Fleet-scale serving (ROADMAP item 2) needs two more degrees of
//! freedom, both declarative and both defaulting to the historical
//! behavior:
//!
//! * **Sharding** — with [`StorePolicy::shards`] > 1 the store spreads
//!   its artifacts over `N` subdirectories (`s000`…), selected by the
//!   leading hex byte of the artifact file name. Every artifact name
//!   (`.frac` entries, `.fru` banks, `.frv` verdicts) starts with 32 hex
//!   characters of a content hash, so the split is uniform without any
//!   extra bookkeeping. Each shard carries its own persisted index and
//!   is swept for write-temp orphans independently.
//! * **Eviction** — with [`StorePolicy::byte_budget`] set the store
//!   tracks per-artifact size and last access in memory (seeded from the
//!   persisted shard indexes, falling back to file mtimes) and garbage
//!   collects least-recently-used artifacts whenever a write pushes the
//!   total over `high_watermark × budget`, down to
//!   `low_watermark × budget`. Because every artifact is re-derivable
//!   from the submitted firmware bytes, eviction can never lose data —
//!   an evicted entry is simply a future cache miss.
//!
//! The eviction pass persists its counters (and the surviving LRU table)
//! into a small sealed `shard.fridx` file per shard, so an offline
//! `cache-stats` run — a different process — still reports evictions and
//! a restarted daemon resumes with the previous access ordering.
//!
//! ```text
//! eviction state machine (per write, budget B):
//!
//!            total ≤ high·B                   total > high·B
//!   ┌──────┐ ───────────────▶ stays FILLING ┌────────────┐
//!   │ FILL │                                │ COLLECTING │
//!   └──────┘ ◀─────────────────────────────┘────────────┘
//!            evict LRU until total ≤ low·B
//!
//!   0 ──────────── low·B ────────── high·B = B
//!   │   hysteresis band: writes      │ trigger
//!   │   accumulate, no GC            │
//! ```

use crate::seal::{open, seal};
use crate::store::SCHEMA_VERSION;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Declarative storage policy for an [`AnalysisCache`]. The default
/// reproduces the pre-policy store exactly: one flat directory, no
/// eviction, no accounting overhead.
///
/// [`AnalysisCache`]: crate::AnalysisCache
#[derive(Debug, Clone, PartialEq)]
pub struct StorePolicy {
    /// Number of shard subdirectories. `1` keeps the flat layout.
    /// Changing the shard count of an existing store is a re-keying
    /// event: artifacts written under the old layout are no longer
    /// reachable (they survey as occupancy and remain evictable).
    pub shards: usize,
    /// Total byte budget across all artifacts (`.frac` + `.fru` +
    /// `.frv`). `None` disables eviction entirely.
    pub byte_budget: Option<u64>,
    /// GC trigger point as a fraction of the budget (`0 < low ≤ high
    /// ≤ 1`). The store is collected when a write leaves it above
    /// `high_watermark × budget`.
    pub high_watermark: f64,
    /// GC target point: a pass evicts least-recently-used artifacts
    /// until the total is at or below `low_watermark × budget`.
    pub low_watermark: f64,
}

impl Default for StorePolicy {
    fn default() -> StorePolicy {
        StorePolicy {
            shards: 1,
            byte_budget: None,
            high_watermark: 1.0,
            low_watermark: 0.85,
        }
    }
}

/// Hard cap on [`StorePolicy::shards`]; beyond this the per-shard
/// directories stop paying for themselves.
pub const MAX_SHARDS: usize = 256;

impl StorePolicy {
    /// Validate the policy's invariants, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(format!("shards must be in 1..={MAX_SHARDS}"));
        }
        if !(self.low_watermark > 0.0 && self.low_watermark <= self.high_watermark) {
            return Err("low_watermark must satisfy 0 < low ≤ high".to_string());
        }
        if self.high_watermark > 1.0 {
            return Err(
                "high_watermark must be ≤ 1.0 (the store may never exceed its budget)".to_string(),
            );
        }
        Ok(())
    }

    /// Apply one `key = value` pair from a config file's `[store]`
    /// section. Unknown keys are an error so typos cannot silently
    /// revert to defaults.
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "shards" => {
                self.shards = value
                    .parse()
                    .map_err(|_| format!("shards: not a count: {value:?}"))?;
            }
            "byte_budget" => {
                self.byte_budget = parse_byte_size(value).map_err(|e| format!("{key}: {e}"))?;
            }
            "high_watermark" => {
                self.high_watermark = parse_fraction(key, value)?;
            }
            "low_watermark" => {
                self.low_watermark = parse_fraction(key, value)?;
            }
            _ => return Err(format!("unknown [store] key: {key}")),
        }
        Ok(())
    }
}

fn parse_fraction(key: &str, value: &str) -> Result<f64, String> {
    let f: f64 = value
        .parse()
        .map_err(|_| format!("{key}: not a number: {value:?}"))?;
    if !(f.is_finite() && f > 0.0 && f <= 1.0) {
        return Err(format!("{key}: must be in (0, 1], got {value}"));
    }
    Ok(f)
}

/// Parse a byte size with an optional `K`/`M`/`G` suffix (powers of
/// 1024); `none` / `unlimited` / `0` mean no budget.
pub fn parse_byte_size(value: &str) -> Result<Option<u64>, String> {
    let v = value.trim();
    if v.eq_ignore_ascii_case("none") || v.eq_ignore_ascii_case("unlimited") || v == "0" {
        return Ok(None);
    }
    let (digits, scale) = match v.as_bytes().last() {
        Some(b'K' | b'k') => (&v[..v.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&v[..v.len() - 1], 1u64 << 20),
        Some(b'G' | b'g') => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v, 1),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("byte size: not a number: {value:?}"))?;
    n.checked_mul(scale)
        .filter(|&b| b > 0)
        .map(Some)
        .ok_or_else(|| format!("byte size out of range: {value:?}"))
}

/// What one eviction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Artifacts deleted by this pass.
    pub evicted: u64,
    /// Bytes those artifacts occupied.
    pub reclaimed_bytes: u64,
}

/// Occupancy of one physical store directory (a shard subdirectory, or
/// the root for a flat store), as surveyed by `stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Directory label: `root` for the flat layout, `s000`… for shards.
    pub name: String,
    /// Artifact files (`.frac` + `.fru` + `.frv`) in this directory.
    pub files: u64,
    /// Bytes across those files.
    pub bytes: u64,
    /// Lifetime artifacts evicted from this shard (from its index).
    pub evicted: u64,
    /// Lifetime bytes reclaimed from this shard (from its index).
    pub reclaimed_bytes: u64,
}

/// The directory name of shard `idx`.
pub(crate) fn shard_dir_name(idx: usize) -> String {
    format!("s{idx:03}")
}

/// Parse a shard directory name back to its index.
pub(crate) fn parse_shard_dir(name: &str) -> Option<usize> {
    let digits = name.strip_prefix('s')?;
    if digits.len() != 3 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Which shard an artifact file name belongs to. Every artifact name
/// starts with 32 hex characters of a content hash, so the leading byte
/// is uniform; a name that somehow is not hex falls back to a character
/// sum, which is still deterministic.
pub(crate) fn shard_of_name(name: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let lead = u8::from_str_radix(name.get(..2).unwrap_or("00"), 16)
        .unwrap_or_else(|_| name.bytes().fold(0u8, u8::wrapping_add));
    lead as usize % shards
}

// ---------------------------------------------------------------------------
// In-memory LRU accounting
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct FileMeta {
    bytes: u64,
    /// Logical access tick — monotonically increasing, larger = fresher.
    tick: u64,
}

/// Shared accounting for an eviction-enabled store. Clones of the cache
/// share one of these, so the daemon's workers see one LRU ordering.
#[derive(Debug, Default)]
pub(crate) struct GcState {
    clock: u64,
    entries: HashMap<String, FileMeta>,
    total_bytes: u64,
    /// Lifetime counters, per shard index.
    evicted: Vec<u64>,
    reclaimed: Vec<u64>,
}

impl GcState {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// The eviction engine owned by an [`AnalysisCache`] when a byte budget
/// is configured.
///
/// [`AnalysisCache`]: crate::AnalysisCache
#[derive(Debug)]
pub(crate) struct Evictor {
    policy: StorePolicy,
    state: Mutex<GcState>,
}

fn lock_state(m: &Mutex<GcState>) -> std::sync::MutexGuard<'_, GcState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Evictor {
    /// Build the accounting by scanning the store's directories, seeding
    /// access order from the persisted shard indexes where available and
    /// from file mtimes otherwise.
    pub(crate) fn open(root: &Path, policy: &StorePolicy) -> Evictor {
        let shards = policy.shards.max(1);
        let mut state = GcState {
            evicted: vec![0; shards],
            reclaimed: vec![0; shards],
            ..GcState::default()
        };
        // (name, bytes, mtime, index tick if known)
        let mut found: Vec<(String, u64, std::time::SystemTime, Option<u64>)> = Vec::new();
        for (idx, dir) in store_dirs(root, policy) {
            let index = read_index(&dir.join(INDEX_NAME));
            if let Some(index) = &index {
                if idx < shards {
                    state.evicted[idx] = index.evicted;
                    state.reclaimed[idx] = index.reclaimed_bytes;
                }
            }
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if !is_artifact_name(name) {
                    continue;
                }
                let Ok(meta) = entry.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                let tick = index.as_ref().and_then(|i| i.ticks.get(name)).copied();
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                found.push((name.to_string(), meta.len(), mtime, tick));
            }
        }
        // Index ticks win; mtime-only files slot in by modification
        // time. Sorting oldest-first and re-ticking preserves both
        // orders relative to each other well enough for LRU.
        found.sort_by(|a, b| a.3.cmp(&b.3).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
        for (name, bytes, _, _) in found {
            let tick = state.tick();
            state.total_bytes += bytes;
            state.entries.insert(name, FileMeta { bytes, tick });
        }
        Evictor {
            policy: policy.clone(),
            state: Mutex::new(state),
        }
    }

    /// Record a read hit: refresh the artifact's access tick.
    pub(crate) fn note_read(&self, name: &str) {
        let mut st = lock_state(&self.state);
        let tick = st.tick();
        if let Some(meta) = st.entries.get_mut(name) {
            meta.tick = tick;
        }
    }

    /// Record a (re)write. Returns `true` when the store is now over the
    /// trigger watermark and a GC pass should run.
    pub(crate) fn note_write(&self, name: &str, bytes: u64) -> bool {
        let mut st = lock_state(&self.state);
        let tick = st.tick();
        if let Some(old) = st
            .entries
            .insert(name.to_string(), FileMeta { bytes, tick })
        {
            st.total_bytes = st.total_bytes.saturating_sub(old.bytes);
        }
        st.total_bytes += bytes;
        match self.policy.byte_budget {
            Some(budget) => st.total_bytes as f64 > self.policy.high_watermark * budget as f64,
            None => false,
        }
    }

    /// Drop accounting for an artifact deleted outside the GC (e.g. a
    /// lying verdict removed by the funnel).
    pub(crate) fn note_removed(&self, name: &str) {
        let mut st = lock_state(&self.state);
        if let Some(old) = st.entries.remove(name) {
            st.total_bytes = st.total_bytes.saturating_sub(old.bytes);
        }
    }

    /// Run one eviction pass: delete least-recently-used artifacts until
    /// the total is at or below `low_watermark × budget`, then persist
    /// the updated per-shard indexes. The most recently touched artifact
    /// is never evicted, so a store whose budget is smaller than a
    /// single entry still serves the entry it just wrote.
    pub(crate) fn collect(&self, root: &Path) -> GcOutcome {
        let Some(budget) = self.policy.byte_budget else {
            return GcOutcome::default();
        };
        let target = (self.policy.low_watermark * budget as f64) as u64;
        let shards = self.policy.shards.max(1);
        let mut st = lock_state(&self.state);
        if st.total_bytes <= target {
            return GcOutcome::default();
        }
        let mut victims: Vec<(u64, String, u64)> = st
            .entries
            .iter()
            .map(|(name, meta)| (meta.tick, name.clone(), meta.bytes))
            .collect();
        victims.sort_unstable();
        if !victims.is_empty() {
            victims.pop(); // the freshest survivor
        }
        let mut outcome = GcOutcome::default();
        let mut touched_shards = vec![false; shards];
        let all_dirs = store_dirs(root, &self.policy);
        for (_, name, bytes) in victims {
            if st.total_bytes <= target {
                break;
            }
            let shard = shard_of_name(&name, shards);
            let path = artifact_path_in(root, &self.policy, &name);
            if std::fs::remove_file(&path).is_err() {
                // Already gone (a concurrent actor won the race), or the
                // artifact predates a shard-layout change and lives in a
                // legacy directory — sweep those before giving up.
                for (_, dir) in &all_dirs {
                    if std::fs::remove_file(dir.join(&name)).is_ok() {
                        break;
                    }
                }
            }
            st.entries.remove(&name);
            st.total_bytes = st.total_bytes.saturating_sub(bytes);
            st.evicted[shard] += 1;
            st.reclaimed[shard] += bytes;
            outcome.evicted += 1;
            outcome.reclaimed_bytes += bytes;
            touched_shards[shard] = true;
        }
        if outcome.evicted > 0 {
            persist_indexes(root, &self.policy, &st, &touched_shards);
        }
        outcome
    }

    /// Bytes currently accounted across all artifacts.
    pub(crate) fn total_bytes(&self) -> u64 {
        lock_state(&self.state).total_bytes
    }
}

/// Whether a file name is a store artifact (and thus accountable).
fn is_artifact_name(name: &str) -> bool {
    name.ends_with(".frac") || name.ends_with(".fru") || name.ends_with(".frv")
}

/// The directory an artifact named `name` lives in under `policy`.
pub(crate) fn artifact_dir_in(root: &Path, policy: &StorePolicy, name: &str) -> PathBuf {
    if policy.shards <= 1 {
        root.to_path_buf()
    } else {
        root.join(shard_dir_name(shard_of_name(name, policy.shards)))
    }
}

fn artifact_path_in(root: &Path, policy: &StorePolicy, name: &str) -> PathBuf {
    artifact_dir_in(root, policy, name).join(name)
}

/// Every physical directory the store under `policy` may keep artifacts
/// in: configured shard dirs first, then any other shard-named dirs left
/// by a previous layout, then the root (index `usize::MAX` marks dirs
/// outside the configured shard range).
pub(crate) fn store_dirs(root: &Path, policy: &StorePolicy) -> Vec<(usize, PathBuf)> {
    let mut dirs = vec![(0usize, root.to_path_buf())];
    if policy.shards > 1 {
        dirs.clear();
        dirs.push((usize::MAX, root.to_path_buf()));
        for idx in 0..policy.shards {
            dirs.push((idx, root.join(shard_dir_name(idx))));
        }
    }
    if let Ok(entries) = std::fs::read_dir(root) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(idx) = parse_shard_dir(name) {
                let path = entry.path();
                if path.is_dir() && !dirs.iter().any(|(_, d)| *d == path) {
                    dirs.push((idx, path));
                }
            }
        }
    }
    dirs
}

// ---------------------------------------------------------------------------
// The persisted shard index
// ---------------------------------------------------------------------------

/// File name of the per-shard index (sealed, see [`write_index`]).
pub(crate) const INDEX_NAME: &str = "shard.fridx";

pub(crate) const INDEX_MAGIC: &[u8; 4] = b"FRIX";

/// A decoded shard index: lifetime eviction counters plus the last known
/// access tick per surviving artifact.
#[derive(Debug, Default)]
pub(crate) struct ShardIndex {
    pub(crate) evicted: u64,
    pub(crate) reclaimed_bytes: u64,
    pub(crate) budget_bytes: u64,
    pub(crate) ticks: HashMap<String, u64>,
}

/// Read a shard index; any damage (missing, truncated, bad checksum,
/// foreign magic) reads as absent — the index is an accelerator, never
/// a source of truth.
pub(crate) fn read_index(path: &Path) -> Option<ShardIndex> {
    let data = std::fs::read(path).ok()?;
    let mut r = crate::codec::Reader::new(open(&data, INDEX_MAGIC, SCHEMA_VERSION, &[]).ok()?);
    let mut index = ShardIndex {
        evicted: r.u64().ok()?,
        reclaimed_bytes: r.u64().ok()?,
        budget_bytes: r.u64().ok()?,
        ticks: HashMap::new(),
    };
    let n = r.u32().ok()? as usize;
    for _ in 0..n {
        let len = r.u32().ok()? as usize;
        let name = String::from_utf8(r.bytes(len).ok()?.to_vec()).ok()?;
        let tick = r.u64().ok()?;
        index.ticks.insert(name, tick);
    }
    Some(index)
}

/// Persist the indexes of every shard marked in `touched`, using the
/// store's atomic temp-then-rename convention so a crash mid-write
/// leaves the previous index intact (and the orphan sweep reaps the
/// temp).
fn persist_indexes(root: &Path, policy: &StorePolicy, st: &GcState, touched: &[bool]) {
    let shards = policy.shards.max(1);
    for (shard, touched) in touched.iter().enumerate() {
        if !touched {
            continue;
        }
        let payload = put_index(st, shard, shards, policy.byte_budget.unwrap_or(0));
        let dir = if policy.shards <= 1 {
            root.to_path_buf()
        } else {
            root.join(shard_dir_name(shard))
        };
        let sealed = seal(INDEX_MAGIC, SCHEMA_VERSION, &[], &payload);
        let _ = crate::store::write_file_atomic(&dir, INDEX_NAME, &sealed);
    }
}

/// One shard's index payload: its lifetime counters, the budget, and the
/// access tick of every artifact it still holds.
fn put_index(st: &GcState, shard: usize, shards: usize, budget: u64) -> Vec<u8> {
    use bytes::BufMut;
    let mut payload = Vec::new();
    payload.put_u64_le(st.evicted[shard]);
    payload.put_u64_le(st.reclaimed[shard]);
    payload.put_u64_le(budget);
    let survivors: Vec<(&String, &FileMeta)> = st
        .entries
        .iter()
        .filter(|(name, _)| shard_of_name(name, shards) == shard)
        .collect();
    payload.put_u32_le(survivors.len() as u32);
    for (name, meta) in survivors {
        payload.put_u32_le(name.len() as u32);
        payload.put_slice(name.as_bytes());
        payload.put_u64_le(meta.tick);
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_bytes_are_the_v3_layout_with_a_new_version() {
        // What `persist_indexes` wrote for this state at schema v3, before
        // the framing moved into `seal`.
        const V3: &str = "46524958030002000000000000002c01000000000000001000000000000001\
                          00000009000000303061612e6672616304000000000000006d4d501e5f8aac3d";
        let mut st = GcState {
            evicted: vec![2],
            reclaimed: vec![300],
            ..GcState::default()
        };
        let meta = FileMeta {
            bytes: 100,
            tick: 4,
        };
        st.entries.insert("00aa.frac".to_string(), meta);
        let payload = put_index(&st, 0, 1, 4096);
        assert_eq!(
            seal(INDEX_MAGIC, 3, &[], &payload),
            crate::seal::from_hex(V3)
        );

        // A persisted index reads back through the same framing.
        let dir = std::env::temp_dir().join(format!("firmres-index-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let policy = StorePolicy {
            byte_budget: Some(4096),
            ..StorePolicy::default()
        };
        persist_indexes(&dir, &policy, &st, &[true]);
        let index = read_index(&dir.join(INDEX_NAME)).expect("index reads back");
        assert_eq!((index.evicted, index.reclaimed_bytes), (2, 300));
        assert_eq!(index.budget_bytes, 4096);
        assert_eq!(index.ticks.get("00aa.frac"), Some(&4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_policy_is_the_historical_store() {
        let p = StorePolicy::default();
        assert_eq!(p.shards, 1);
        assert_eq!(p.byte_budget, None);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("4096"), Ok(Some(4096)));
        assert_eq!(parse_byte_size("64K"), Ok(Some(64 << 10)));
        assert_eq!(parse_byte_size("3M"), Ok(Some(3 << 20)));
        assert_eq!(parse_byte_size("2G"), Ok(Some(2 << 30)));
        assert_eq!(parse_byte_size("none"), Ok(None));
        assert_eq!(parse_byte_size("0"), Ok(None));
        assert!(parse_byte_size("lots").is_err());
        assert!(parse_byte_size("-5").is_err());
    }

    #[test]
    fn policy_keys_apply_and_reject_typos() {
        let mut p = StorePolicy::default();
        p.apply("shards", "8").unwrap();
        p.apply("byte_budget", "128K").unwrap();
        p.apply("low_watermark", "0.5").unwrap();
        assert_eq!(p.shards, 8);
        assert_eq!(p.byte_budget, Some(128 << 10));
        assert_eq!(p.low_watermark, 0.5);
        assert!(p.apply("bite_budget", "1M").is_err());
        let err = p.apply("byte_budget", "lots").unwrap_err();
        assert!(err.starts_with("byte_budget: byte size"), "{err}");
        assert!(p.apply("low_watermark", "1.5").is_err());
    }

    #[test]
    fn watermark_invariants_are_validated() {
        let mut p = StorePolicy {
            low_watermark: 0.9,
            high_watermark: 0.5,
            ..StorePolicy::default()
        };
        assert!(p.validate().is_err());
        p.high_watermark = 0.95;
        assert!(p.validate().is_ok());
        p.shards = 0;
        assert!(p.validate().is_err());
        p.shards = MAX_SHARDS + 1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn shard_selection_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 16, 256] {
            for lead in 0..=255u8 {
                let name = format!("{lead:02x}{}", "0".repeat(30));
                let s = shard_of_name(&name, shards);
                assert!(s < shards.max(1));
                assert_eq!(s, shard_of_name(&name, shards), "deterministic");
            }
        }
        assert_eq!(shard_of_name("00aa.frac", 1), 0);
    }

    #[test]
    fn shard_dir_names_round_trip() {
        for idx in [0usize, 7, 99, 255] {
            assert_eq!(parse_shard_dir(&shard_dir_name(idx)), Some(idx));
        }
        assert_eq!(parse_shard_dir("s12"), None);
        assert_eq!(parse_shard_dir("shard1"), None);
        assert_eq!(parse_shard_dir("t000"), None);
    }
}
