//! End-to-end contract of known-library identification: replaying
//! recorded taint summaries (`LibId::On` + a roster `.flix` index) is
//! byte-identical to full traversal over the library-aware synthetic
//! fleet — at any job count — while actually skipping traversals, and
//! the index fingerprint invalidates both whole-image cache entries
//! and unit banks.

use firmres::{analyze_firmware, analyze_firmware_jobs, AnalysisConfig, NullObserver};
use firmres_cache::{analyze_corpus_incremental, codec, AnalysisCache};
use firmres_corpus::synth_device_with_libraries;
use firmres_dataflow::{LibId, LibIndex};
use firmres_firmware::FirmwareImage;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmres-libid-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build the roster index exactly as `libid build` does.
fn roster_index() -> Arc<LibIndex> {
    // Tests run on parallel threads: each build writes its own fixture
    // directory, or one test's cleanup deletes another's fixtures.
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    let dir = temp_dir(&format!(
        "fixtures-{}",
        BUILDS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for k in 0..firmres_corpus::ROSTER.len() {
        std::fs::write(
            dir.join(firmres_corpus::library_fixture_file(k)),
            firmres_corpus::library_fixture_source(k),
        )
        .unwrap();
    }
    let (index, _) = firmres_libid::build_index_from_dir(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(index)
}

fn on_config(index: &Arc<LibIndex>) -> AnalysisConfig {
    let mut config = AnalysisConfig::default();
    config.taint.libid = LibId::On;
    config.taint.lib_index = Some(Arc::clone(index));
    config
}

/// Canonical comparison bytes: the cache codec's encoding with timings
/// and the three libid usage meters zeroed (the meters report the
/// replay mechanism itself, so they differ between modes by design —
/// every other byte must match).
fn canonical(mut analysis: firmres::FirmwareAnalysis) -> Vec<u8> {
    analysis.timings = Default::default();
    analysis.counters.lib_fns_matched = 0;
    analysis.counters.lib_traversals_skipped = 0;
    analysis.counters.lib_summary_applies = 0;
    let mut out = Vec::new();
    codec::put_analysis(&mut out, &analysis);
    out
}

/// A device from the library-aware fleet that links at least one
/// roster library (fixed probe keeps the test deterministic).
fn linked_device() -> FirmwareImage {
    for index in 0..16 {
        let dev = synth_device_with_libraries(index, 7);
        if !dev.spec.linked_libraries.is_empty() {
            return FirmwareImage::unpack(&dev.packed).unwrap();
        }
    }
    panic!("no device in the first 16 links a library");
}

#[test]
fn replay_is_byte_identical_and_skips_traversals() {
    let index = roster_index();
    let fw = linked_device();
    let off = analyze_firmware(&fw, None, &AnalysisConfig::default());
    let on = analyze_firmware(&fw, None, &on_config(&index));

    assert!(on.counters.lib_fns_matched > 0, "roster functions match");
    assert!(on.counters.lib_traversals_skipped > 0, "traversals skipped");
    assert!(on.counters.lib_summary_applies > 0, "summaries applied");
    assert_eq!(off.counters.lib_fns_matched, 0, "Off meters stay zero");
    assert_eq!(canonical(off), canonical(on), "replay is byte-identical");
}

#[test]
fn unlinked_devices_are_untouched_by_the_index() {
    let index = roster_index();
    for probe in 0..16 {
        let dev = synth_device_with_libraries(probe, 7);
        if !dev.spec.linked_libraries.is_empty() {
            continue;
        }
        let fw = FirmwareImage::unpack(&dev.packed).unwrap();
        let on = analyze_firmware(&fw, None, &on_config(&index));
        // Decoy slots hash differently from real roster functions, so
        // nothing matches and nothing is skipped.
        assert_eq!(on.counters.lib_fns_matched, 0, "device {probe}");
        assert_eq!(on.counters.lib_traversals_skipped, 0, "device {probe}");
        return;
    }
    panic!("no unlinked device in the first 16");
}

proptest! {
    /// On == Off report bytes for any seeded device at one worker and
    /// at eight — replay is deterministic under unit parallelism.
    #[test]
    fn replay_matches_traversal_at_any_job_count(seed in 0u64..1000, index in 0u32..40) {
        let idx = roster_index();
        let fw = FirmwareImage::unpack(&synth_device_with_libraries(index, seed).packed).unwrap();
        let off = canonical(analyze_firmware_jobs(&fw, None, &AnalysisConfig::default(), 1));
        for jobs in [1usize, 8] {
            let on = canonical(analyze_firmware_jobs(&fw, None, &on_config(&idx), jobs));
            prop_assert_eq!(&off, &on, "jobs {}", jobs);
        }
    }
}

#[test]
fn index_fingerprint_invalidates_image_entries_and_unit_banks() {
    let index = roster_index();
    let fw = linked_device();
    let images = [&fw];
    let off = AnalysisConfig::default();
    let on = on_config(&index);
    // Off with a loaded index keeps the toggle authoritative: identical
    // keys to plain Off, so preloading an index is free until enabled.
    let mut off_loaded = AnalysisConfig::default();
    off_loaded.taint.lib_index = Some(Arc::clone(&index));

    let cache = AnalysisCache::new(temp_dir("invalidate"));
    let run = |config: &AnalysisConfig| {
        let out = analyze_corpus_incremental(&images, None, config, 1, &cache, &mut NullObserver);
        (out.stats.hits, out.stats.misses, out.stats.unit_hits)
    };

    assert_eq!(run(&off), (0, 1, 0), "cold Off populates");
    assert_eq!(run(&off).0, 1, "warm Off hits");
    assert_eq!(run(&off_loaded).0, 1, "loaded-but-Off shares the key");

    // Enabling the index changes the whole-image key AND the unit-bank
    // family key: full miss, no units spliced from the Off bank.
    let (hits, misses, unit_hits) = run(&on);
    assert_eq!((hits, misses), (0, 1), "On misses the Off entry");
    assert_eq!(unit_hits, 0, "On does not splice Off unit banks");

    assert_eq!(run(&on).0, 1, "warm On hits its own entry");

    // Swapping to a different index (subset roster) misses again.
    let dir = temp_dir("subset");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(firmres_corpus::library_fixture_file(0)),
        firmres_corpus::library_fixture_source(0),
    )
    .unwrap();
    let (subset, _) = firmres_libid::build_index_from_dir(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let mut swapped = AnalysisConfig::default();
    swapped.taint.libid = LibId::On;
    swapped.taint.lib_index = Some(Arc::new(subset));
    assert_eq!(run(&swapped).1, 1, "a swapped index forces a miss");

    let _ = std::fs::remove_dir_all(cache.dir());
}
