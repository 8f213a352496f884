//! `.flix` codec round-trip contract: encode → decode → encode is the
//! identity on bytes, write → load is the identity on the index, and
//! the builder indexes the synthetic roster fixtures completely.

use firmres_dataflow::LibIndex;
use firmres_libid::{
    build_index_from_dir, decode_index, encode_index, inspect_lines, load_index, write_index,
    FLIX_MAGIC,
};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flix-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build the roster index the way `libid build` does: from fixture
/// sources on disk.
fn roster_index(tag: &str) -> LibIndex {
    let dir = temp_dir(tag);
    for k in 0..firmres_corpus::ROSTER.len() {
        std::fs::write(
            dir.join(firmres_corpus::library_fixture_file(k)),
            firmres_corpus::library_fixture_source(k),
        )
        .unwrap();
    }
    let (index, report) = build_index_from_dir(&dir).expect("roster fixtures index");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.rejected_roles(), 0, "roster records every role");
    index
}

#[test]
fn builder_indexes_the_full_roster() {
    let index = roster_index("build");
    // Two functions per roster library; decoys and `main` are skipped.
    assert_eq!(index.len(), 2 * firmres_corpus::ROSTER.len());
    let lines = inspect_lines(&index).join("\n");
    for lib in &firmres_corpus::ROSTER {
        assert!(lines.contains(lib.name), "{lines}");
        assert!(lines.contains(lib.pack_fn), "{lines}");
        assert!(lines.contains(lib.fmt_fn), "{lines}");
    }
}

#[test]
fn encode_decode_encode_is_identity_on_bytes() {
    let index = roster_index("codec");
    let bytes = encode_index(&index);
    assert_eq!(&bytes[..4], FLIX_MAGIC);
    let back = decode_index(&bytes).expect("own encoding decodes");
    assert_eq!(back.len(), index.len());
    assert_eq!(back.fingerprint(), index.fingerprint());
    assert_eq!(back.const_ceiling(), index.const_ceiling());
    assert_eq!(encode_index(&back), bytes, "re-encoding is byte-stable");
}

#[test]
fn empty_index_round_trips() {
    let index = LibIndex::new(Vec::new(), 0x40_0000);
    let back = decode_index(&encode_index(&index)).unwrap();
    assert!(back.is_empty());
    assert_eq!(back.fingerprint(), index.fingerprint());
}

#[test]
fn write_then_load_round_trips_and_leaves_no_temp_file() {
    let index = roster_index("disk");
    let dir = temp_dir("disk-out");
    let path = dir.join("known.flix");
    write_index(&path, &index).expect("seal to disk");
    let back = load_index(&path).expect("load sealed index");
    assert_eq!(back.fingerprint(), index.fingerprint());
    assert_eq!(encode_index(&back), encode_index(&index));
    // The temp file was renamed into place, not left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n != "known.flix")
        .collect();
    assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_tracks_content() {
    let full = roster_index("fp-full");
    // An index built from a subset of the fixtures fingerprints
    // differently — swapping index files forces cache misses.
    let dir = temp_dir("fp-subset");
    std::fs::write(
        dir.join(firmres_corpus::library_fixture_file(0)),
        firmres_corpus::library_fixture_source(0),
    )
    .unwrap();
    let (subset, _) = build_index_from_dir(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(subset.len() < full.len());
    assert_ne!(subset.fingerprint(), full.fingerprint());
    assert_ne!(full.fingerprint(), LibIndex::EMPTY_FINGERPRINT);
}

#[test]
fn roster_index_bytes_are_unchanged() {
    // Length and FNV digests of the roster index's `.flix` bytes before
    // the framing moved into the cache crate's `seal`.
    let bytes = encode_index(&roster_index("golden"));
    assert_eq!(bytes.len(), 14621);
    assert_eq!(
        firmres_firmware::content_hash_packed_wide(&bytes),
        0xa9a93edd709a476e5254fdf2bd5db5fb
    );
    assert_eq!(
        firmres_firmware::content_hash_packed(&bytes),
        0xd466e6098925699b
    );
}
