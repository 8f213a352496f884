//! Eviction vs. incremental splicing.
//!
//! The budget-driven GC may remove unit banks (`.fru`), stage-1
//! verdicts (`.frv`) or whole image entries (`.frac`) at any moment —
//! including between the funnel's read of one artifact and its splice
//! of the next. These tests pin the contract: an evicted artifact
//! degrades to a clean re-analysis (byte-identical output, counted as
//! a miss), never an error.

use firmres::{AnalysisConfig, NullObserver};
use firmres_cache::codec::{get_analysis, put_analysis, Reader};
use firmres_cache::{
    analyze_corpus_incremental, analyze_image_units_incremental, AnalysisCache, StorePolicy,
};
use firmres_corpus::generate_device;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmres-evict-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Re-encode with timings cleared: the funnel's byte-identity contract
/// excludes wall-clock fields (re-executed stages report fresh times).
fn normalized(bytes: &[u8]) -> Vec<u8> {
    let mut a = get_analysis(&mut Reader::new(bytes)).expect("funnel bytes decode");
    a.timings = Default::default();
    let mut out = Vec::new();
    put_analysis(&mut out, &a);
    out
}

fn funnel(
    fw: &firmres_firmware::FirmwareImage,
    cache: &AnalysisCache,
) -> firmres_cache::UnitFunnelOutcome {
    analyze_image_units_incremental(
        fw,
        None,
        &AnalysisConfig::default(),
        1,
        cache,
        &mut NullObserver,
        None,
    )
    .expect("funnel never fails on cache trouble")
}

#[test]
fn evicted_unit_artifacts_degrade_to_clean_misses() {
    let dir = temp_dir("degrade");
    // Generous budget for the cold run: nothing is evicted while the
    // bank is being built.
    let cache = AnalysisCache::with_policy(
        &dir,
        StorePolicy {
            byte_budget: Some(64 << 20),
            ..StorePolicy::default()
        },
    );
    let dev = generate_device(10, 7);
    let cold = funnel(&dev.firmware, &cache);
    assert!(cold.stats.unit_misses > 0, "cold run builds the bank");

    // Warm control: everything replays.
    let warm = funnel(&dev.firmware, &cache);
    assert_eq!(warm.stats.unit_misses, 0);

    // Now evict under a one-byte budget. The GC spares the single
    // freshest artifact; everything else — banks and verdicts alike —
    // is removed.
    let before = cache.tracked_bytes().unwrap();
    let squeezed = AnalysisCache::with_policy(
        &dir,
        StorePolicy {
            byte_budget: Some(1),
            low_watermark: 1.0,
            ..StorePolicy::default()
        },
    );
    // Opening over the high watermark collects immediately; `gc_now`
    // then finds an already-trimmed store. Both paths land in the
    // persisted counters.
    let _ = squeezed.gc_now();
    let stats = squeezed.stats().unwrap();
    assert!(stats.evicted_entries > 0, "eviction must actually fire");
    assert!(stats.reclaimed_bytes > 0 && stats.reclaimed_bytes <= before);

    // The next run degrades: re-executed units are counted as misses,
    // the output is byte-identical, and no error surfaces.
    let after = funnel(&dev.firmware, &cache);
    assert!(
        after.stats.unit_misses + after.stats.verdict_misses > 0,
        "evicted artifacts must be re-derived as misses: {:?}",
        after.stats
    );
    assert_eq!(
        after.stats.unit_hits + after.stats.unit_misses,
        cold.stats.unit_misses,
        "unit population is stable across eviction"
    );
    assert_eq!(
        normalized(&cold.bytes),
        normalized(&after.bytes),
        "re-derived analysis is byte-identical"
    );
    // And the re-derivation refills the store for the following run.
    let refilled = funnel(&dev.firmware, &cache);
    assert_eq!(normalized(&cold.bytes), normalized(&refilled.bytes));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_fleet_survives_eviction_between_passes() {
    let dir = temp_dir("fleet");
    let config = AnalysisConfig::default();
    let devices: Vec<_> = [4u8, 6, 10, 14, 21]
        .iter()
        .map(|&id| generate_device(id, 7))
        .collect();
    let images: Vec<_> = devices.iter().map(|d| &d.firmware).collect();

    // Budget sized to hold three quarters of the fleet's entries: the
    // cold pass already evicts its own oldest entries. The driver writes
    // every unit artifact before the first entry, so the LRU evicts all
    // of them first, and only the entry bytes decide what survives.
    let probe = AnalysisCache::new(&dir);
    let cold_free =
        analyze_corpus_incremental(&images, None, &config, 1, &probe, &mut NullObserver);
    let full_bytes = probe.tracked_bytes();
    assert_eq!(full_bytes, None, "no budget, no accounting");
    let full = probe.stats().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let budget = full.total_bytes * 3 / 4;
    let cache = AnalysisCache::with_policy(
        &dir,
        StorePolicy {
            shards: 4,
            byte_budget: Some(budget),
            ..StorePolicy::default()
        },
    );
    let cold = analyze_corpus_incremental(&images, None, &config, 1, &cache, &mut NullObserver);
    assert_eq!(cold.stats.misses, images.len() as u64);

    // The warm pass sees a mix of hits and (evicted → re-derived)
    // misses, and every analysis matches the unconstrained run.
    let warm = analyze_corpus_incremental(&images, None, &config, 1, &cache, &mut NullObserver);
    assert_eq!(
        warm.stats.hits + warm.stats.misses,
        images.len() as u64,
        "every image is served"
    );
    assert!(
        warm.stats.misses > 0,
        "a partial-fleet budget forces misses"
    );
    for (free, constrained) in cold_free.analyses.iter().zip(warm.analyses.iter()) {
        let encode = |a: &firmres::FirmwareAnalysis| {
            let copy = firmres::FirmwareAnalysis {
                executable: a.executable.clone(),
                handlers: a.handlers.clone(),
                messages: a.messages.clone(),
                timings: Default::default(),
                counters: a.counters,
                diagnostics: a.diagnostics.clone(),
            };
            let mut out = Vec::new();
            put_analysis(&mut out, &copy);
            out
        };
        assert_eq!(encode(free), encode(constrained));
    }
    assert!(
        cache.tracked_bytes().unwrap() <= budget,
        "fleet ends at or under budget"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_racing_a_live_funnel_is_harmless() {
    let dir = temp_dir("race");
    let cache = AnalysisCache::with_policy(
        &dir,
        StorePolicy {
            shards: 2,
            byte_budget: Some(1),
            low_watermark: 1.0,
            ..StorePolicy::default()
        },
    );
    let dev = generate_device(10, 7);
    let baseline = normalized(&funnel(&dev.firmware, &cache).bytes);

    // One thread hammers the GC while another splices analyses from
    // whatever artifacts survive each collection. `fs::remove_file` is
    // atomic: a concurrent reader either has the file open (and keeps
    // reading the old bytes) or sees NotFound and re-derives. Either
    // way the output bytes cannot change.
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let gc_cache = cache.clone();
        let stop_ref = &stop;
        let collector = scope.spawn(move || {
            let mut evicted = 0u64;
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                evicted += gc_cache.gc_now().evicted;
                std::thread::yield_now();
            }
            evicted
        });
        for _ in 0..12 {
            let out = funnel(&dev.firmware, &cache);
            assert_eq!(
                normalized(&out.bytes),
                baseline,
                "splicing under concurrent eviction stays byte-identical"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = collector.join().unwrap();
    });
    // Writes self-collect and the GC thread collects concurrently;
    // between them the race must have actually evicted artifacts.
    assert!(
        cache.stats().unwrap().evicted_entries > 0,
        "the race must actually evict artifacts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
