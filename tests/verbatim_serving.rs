//! What makes serving stored bytes verbatim safe. A daemon with a store
//! never re-encodes an analysis: a miss ships the unit funnel's output
//! and stores those bytes as the entry's analysis section, and a hit
//! ships that section as it is. That equals the old decode-and-re-encode
//! output only if the codec is canonical on funnel output, and it is
//! sound only if an entry whose section does not decode exactly is never
//! served.

use firmres::{analyze_firmware, AnalysisConfig, NullObserver};
use firmres_cache::codec::{self, Reader};
use firmres_cache::{analyze_image_units_incremental, AnalysisCache, CacheError, CacheKey};
use firmres_corpus::{generate_corpus, mutate_firmware, synth_device};
use firmres_firmware::{content_hash_packed, content_hash_packed_wide, FirmwareImage};
use firmres_service::{Client, ClientError, RejectReason, Server, ServerConfig, SubmitImage};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmres-verbatim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn encoded(analysis: &firmres::FirmwareAnalysis) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_analysis(&mut out, analysis);
    out
}

/// `put_analysis(get_analysis(b)) == b`, with no byte left over.
fn assert_canonical(bytes: &[u8], what: &str) {
    let mut r = Reader::new(bytes);
    let analysis = codec::get_analysis(&mut r).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(r.remaining(), 0, "{what}: trailing bytes");
    assert!(
        encoded(&analysis) == bytes,
        "{what}: re-encoding changed the bytes"
    );
}

#[test]
fn codec_is_canonical_on_cold_and_spliced_funnel_output() {
    let cache = AnalysisCache::new(temp_dir("canonical"));
    let config = AnalysisConfig::default();
    let funnel = |fw: &FirmwareImage| {
        analyze_image_units_incremental(fw, None, &config, 1, &cache, &mut NullObserver, None)
            .expect("no cancellation token")
    };
    let corpus = generate_corpus(7).into_iter().map(|d| d.firmware);
    let fleet = (0..64).map(|i| synth_device(i, 7).unpack());
    let (mut images, mut spliced) = (0, 0);
    for (i, fw) in corpus.chain(fleet).enumerate() {
        let cold = funnel(&fw);
        assert_canonical(&cold.bytes, &format!("image {i}, cold"));
        // Any share above zero flips at least one function; this small a
        // share flips exactly one.
        let update = mutate_firmware(&fw, 1e-9, i as u64).image;
        let warm = funnel(&update);
        assert_canonical(&warm.bytes, &format!("image {i}, one-function update"));
        images += 1;
        spliced += usize::from(warm.stats.unit_hits > 0);
    }
    assert_eq!(images, 22 + 64);
    assert!(
        spliced * 2 > images,
        "most updates splice stored units ({spliced} of {images})"
    );
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// The byte range of an entry's analysis section: its whole payload,
/// after the 42-byte header and before the 8-byte checksum.
fn analysis_section(entry: &[u8]) -> std::ops::Range<usize> {
    42..entry.len() - 8
}

/// Rewrite an entry's analysis section and seal the result with a valid
/// checksum, as a writer with a codec bug (or a hand edit) would.
fn reseal(entry: &[u8], section: &[u8]) -> Vec<u8> {
    let mut out = entry[..analysis_section(entry).start].to_vec();
    out.extend_from_slice(section);
    out.extend_from_slice(&content_hash_packed(&out).to_le_bytes());
    out
}

fn rewrite_analysis_section(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
    let entry = std::fs::read(path).unwrap();
    let mut section = entry[analysis_section(&entry)].to_vec();
    edit(&mut section);
    std::fs::write(path, reseal(&entry, &section)).unwrap();
}

#[test]
fn resealed_entry_whose_section_does_not_decode_exactly_misses() {
    let dev = firmres_corpus::generate_device(10, 7);
    let config = AnalysisConfig::default();
    let cache = AnalysisCache::new(temp_dir("resealed-store"));
    let key = CacheKey::compute(&dev.firmware, None, &config);
    let analysis = analyze_firmware(&dev.firmware, None, &config);
    cache.store(&key, &analysis).unwrap();
    let path = cache.entry_path(&key);
    let good = std::fs::read(&path).unwrap();

    // A good entry hands back its section, which is the encoding.
    let entry = cache.load(&key).unwrap();
    assert_eq!(entry.analysis_bytes, encoded(&analysis));
    assert_eq!(entry.analysis_bytes, good[analysis_section(&good)]);

    // The section's first byte is the executable's presence flag; 2 is
    // not a boolean, so the section no longer decodes.
    rewrite_analysis_section(&path, |s| s[0] = 2);
    assert!(
        matches!(cache.load(&key), Err(CacheError::Decode(_))),
        "an undecodable section is a diagnosed miss"
    );

    // A section that decodes but carries a byte more is not the
    // encoding of what it decodes to, so it is unusable too.
    std::fs::write(&path, &good).unwrap();
    rewrite_analysis_section(&path, |s| s.push(0));
    assert!(
        matches!(cache.load(&key), Err(CacheError::Decode(_))),
        "trailing bytes are a diagnosed miss"
    );

    std::fs::write(&path, &good).unwrap();
    assert!(cache.load(&key).is_ok());
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn daemon_never_serves_a_resealed_entry() {
    let dev = firmres_corpus::generate_device(10, 7);
    let packed = dev.firmware.pack().to_vec();
    let config = AnalysisConfig::default();
    let dir = temp_dir("resealed-daemon");
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    let submit = |client: &mut Client, image: SubmitImage| client.submit(image, &config, false, 0);
    let by_hash = || SubmitImage::Hash(content_hash_packed_wide(&packed));

    let first = submit(&mut client, SubmitImage::Bytes(packed.clone())).expect("cold");
    assert!(!first.from_cache);
    let path = AnalysisCache::new(&dir).entry_path(&CacheKey::of_packed(&packed, None, &config));
    rewrite_analysis_section(&path, |s| s[0] = 2);

    // The damaged entry answers nothing: a by-hash submit is an unknown
    // image, and a by-bytes submit runs the pipeline again.
    match submit(&mut client, by_hash()) {
        Err(ClientError::Rejected(RejectReason::UnknownImage)) => {}
        other => panic!("expected UnknownImage, got {other:?}"),
    }
    let rerun = submit(&mut client, SubmitImage::Bytes(packed.clone())).expect("rerun");
    assert!(!rerun.from_cache, "a resealed entry is never a hit");
    let zero_timings = |mut a: firmres::FirmwareAnalysis| {
        a.timings = Default::default();
        encoded(&a)
    };
    assert_eq!(zero_timings(rerun.analysis), zero_timings(first.analysis));

    // The re-run repaired the entry, and hits now serve its bytes.
    let hit = submit(&mut client, by_hash()).expect("repaired hit");
    assert!(hit.from_cache);
    assert_eq!(hit.payload, rerun.payload);

    let status = client.status().expect("status");
    assert_eq!((status.cache_misses, status.cache_hits), (2, 1));
    client.drain().expect("drain");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
