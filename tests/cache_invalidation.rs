//! The analysis cache's correctness contract: warm runs are
//! byte-identical to the cold run that populated the store, and any
//! change to the image bytes, the pipeline version, the analysis
//! configuration, or the semantics classifier invalidates the entry
//! (forces a miss).

use firmres::{AnalysisConfig, NullObserver};
use firmres_cache::{analyze_corpus_incremental, codec, AnalysisCache, CacheKey, PIPELINE_VERSION};
use firmres_corpus::generate_corpus;
use firmres_firmware::FirmwareImage;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("firmres-invalidation-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The exact bytes the store persists for an analysis — timings, MFTs,
/// IR operations and all. Byte equality here is the strongest
/// observable-equality statement the system can make.
fn encoded(analysis: &firmres::FirmwareAnalysis) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_analysis(&mut out, analysis);
    out
}

#[test]
fn warm_rerun_is_byte_identical_over_the_full_corpus() {
    let corpus = generate_corpus(7);
    let images: Vec<&FirmwareImage> = corpus.iter().map(|d| &d.firmware).collect();
    let config = AnalysisConfig::default();
    let cache = AnalysisCache::new(temp_dir("full-corpus"));

    let cold = analyze_corpus_incremental(&images, None, &config, 4, &cache, &mut NullObserver);
    assert_eq!(cold.stats.misses, images.len() as u64);
    assert_eq!(cold.stats.hits, 0);

    let warm = analyze_corpus_incremental(&images, None, &config, 4, &cache, &mut NullObserver);
    assert_eq!(warm.stats.hits, images.len() as u64);
    assert_eq!(warm.stats.misses, 0);
    assert_eq!(warm.stats.hit_rate(), 1.0);

    for ((dev, c), w) in corpus.iter().zip(&cold.analyses).zip(&warm.analyses) {
        assert_eq!(
            encoded(c),
            encoded(w),
            "device {} warm result is not byte-identical to cold",
            dev.spec.id
        );
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn image_byte_flip_forces_a_miss() {
    let dev = firmres_corpus::generate_device(10, 7);
    let config = AnalysisConfig::default();
    let packed = dev.firmware.pack();

    let key = CacheKey::of_packed(&packed, None, &config);
    let mut flipped = packed.to_vec();
    // Flip one payload byte: a genuinely different firmware image.
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let flipped_key = CacheKey::of_packed(&flipped, None, &config);

    assert_ne!(
        key, flipped_key,
        "one flipped byte must change the cache key"
    );
    assert_ne!(key.file_name(), flipped_key.file_name());

    // And therefore a populated store has no entry for the flipped image.
    let cache = AnalysisCache::new(temp_dir("byteflip"));
    let analysis = firmres::analyze_firmware(&dev.firmware, None, &config);
    cache.store(&key, &analysis).unwrap();
    assert!(cache.load(&key).is_ok());
    assert!(cache.load(&flipped_key).unwrap_err().is_miss());
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn pipeline_version_bump_forces_a_miss() {
    let dev = firmres_corpus::generate_device(10, 7);
    let config = AnalysisConfig::default();
    let key = CacheKey::compute(&dev.firmware, None, &config);
    assert_eq!(key.pipeline, PIPELINE_VERSION);

    // A future pipeline's key: same image, same config, bumped version.
    let future = CacheKey {
        pipeline: PIPELINE_VERSION + 1,
        ..key
    };
    assert_ne!(key.file_name(), future.file_name());

    let cache = AnalysisCache::new(temp_dir("version"));
    let analysis = firmres::analyze_firmware(&dev.firmware, None, &config);
    cache.store(&key, &analysis).unwrap();
    assert!(cache.load(&key).is_ok());
    assert!(cache.load(&future).unwrap_err().is_miss());
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn classifier_change_forces_a_miss() {
    use firmres_semantics::{Classifier, Primitive, TrainConfig};
    let dev = firmres_corpus::generate_device(10, 7);
    let config = AnalysisConfig::default();
    let image: &FirmwareImage = &dev.firmware;
    let cache = AnalysisCache::new(temp_dir("classifier"));

    // Cold run without a model, as `analyze img --cache d` would do.
    let bare = analyze_corpus_incremental(&[image], None, &config, 1, &cache, &mut NullObserver);
    assert_eq!(bare.stats.misses, 1);

    // `analyze img model.fsm --cache d` over the same store must re-run
    // the pipeline, not silently serve the no-model analysis.
    let data = vec![
        ("mac address".to_string(), Primitive::DevIdentifier),
        ("password login".to_string(), Primitive::UserCred),
    ];
    let model = Classifier::train(
        &data,
        &TrainConfig {
            epochs: 3,
            ..Default::default()
        },
    );
    let with_model = analyze_corpus_incremental(
        &[image],
        Some(&model),
        &config,
        1,
        &cache,
        &mut NullObserver,
    );
    assert_eq!(with_model.stats.misses, 1);

    // A differently-trained model is a different key again.
    let other = Classifier::train(
        &data,
        &TrainConfig {
            epochs: 4,
            ..Default::default()
        },
    );
    let with_other = analyze_corpus_incremental(
        &[image],
        Some(&other),
        &config,
        1,
        &cache,
        &mut NullObserver,
    );
    assert_eq!(with_other.stats.misses, 1);

    // All three variants now coexist and hit independently.
    let warm = analyze_corpus_incremental(
        &[image],
        Some(&model),
        &config,
        1,
        &cache,
        &mut NullObserver,
    );
    assert_eq!(warm.stats.hits, 1);
    assert_eq!(encoded(&warm.analyses[0]), encoded(&with_model.analyses[0]));
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn memoized_classifier_fingerprint_is_the_serialized_model_hash() {
    use firmres_cache::{classifier_fingerprint, NO_CLASSIFIER};
    use firmres_firmware::content_hash_packed;
    use firmres_semantics::{Classifier, Primitive, TrainConfig};
    let data = vec![
        ("mac address".to_string(), Primitive::DevIdentifier),
        ("password login".to_string(), Primitive::UserCred),
    ];
    let train = |epochs| {
        Classifier::train(
            &data,
            &TrainConfig {
                epochs,
                ..Default::default()
            },
        )
    };
    // The fingerprint's definition: the hash of the serialized model,
    // nudged off the no-model marker.
    let expected = |m: &Classifier| match content_hash_packed(&m.to_bytes()) {
        NO_CLASSIFIER => 1,
        h => h,
    };
    let trained = train(3);
    let loaded = Classifier::from_bytes(&trained.to_bytes()).expect("model round trip");
    let cloned = trained.clone();
    for (what, m) in [
        ("trained", &trained),
        ("loaded", &loaded),
        ("cloned", &cloned),
    ] {
        let want = expected(m);
        assert_eq!(classifier_fingerprint(Some(m)), want, "{what}: first call");
        assert_eq!(classifier_fingerprint(Some(m)), want, "{what}: memoized");
    }
    // A clone of a model whose memo is filled carries the same value.
    assert_eq!(
        classifier_fingerprint(Some(&trained.clone())),
        expected(&trained)
    );
    assert_ne!(
        classifier_fingerprint(Some(&trained)),
        classifier_fingerprint(Some(&train(4))),
        "a differently-trained model keys differently"
    );
}

#[test]
fn config_change_forces_a_miss() {
    let dev = firmres_corpus::generate_device(10, 7);
    let base = AnalysisConfig::default();
    let mut ablated = AnalysisConfig::default();
    ablated.taint.overtaint = false;

    let cache = AnalysisCache::new(temp_dir("config"));
    let image: &FirmwareImage = &dev.firmware;

    let first = analyze_corpus_incremental(&[image], None, &base, 1, &cache, &mut NullObserver);
    assert_eq!(first.stats.misses, 1);

    // Same image, different taint config: a fresh analysis, not the
    // cached over-taint result.
    let second = analyze_corpus_incremental(&[image], None, &ablated, 1, &cache, &mut NullObserver);
    assert_eq!(second.stats.misses, 1, "config change must not hit");

    // Both configurations are now cached independently.
    let warm_base = analyze_corpus_incremental(&[image], None, &base, 1, &cache, &mut NullObserver);
    let warm_ablated =
        analyze_corpus_incremental(&[image], None, &ablated, 1, &cache, &mut NullObserver);
    assert_eq!(warm_base.stats.hits, 1);
    assert_eq!(warm_ablated.stats.hits, 1);
    assert_eq!(encoded(&warm_base.analyses[0]), encoded(&first.analyses[0]));
    assert_eq!(
        encoded(&warm_ablated.analyses[0]),
        encoded(&second.analyses[0])
    );
    let _ = std::fs::remove_dir_all(cache.dir());
}
