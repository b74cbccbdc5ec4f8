//! Snapshot artifact guarantees:
//!
//! 1. `to_snapshot(map(save(m)))` equals `m` field by field (floats by
//!    their bits), and re-saving it reproduces the artifact bit for bit.
//! 2. Queries over the mapped artifact match the same queries over the
//!    owned model.
//! 3. Other formats and versions — a TSV file, a format-v1 header, a
//!    skewed version field — are typed errors, reported before the
//!    checksum.
//! 4. Truncation, byte flips, and misaligned buffers surface as typed
//!    [`SnapshotError`]s (or load correctly via the aligned-copy
//!    fallback) — never panics, never silently wrong data.

mod common;

use common::assert_same_model;
use lesm_core::export::hierarchy_to_json;
use lesm_core::pipeline::{LatentStructureMiner, MinedStructure, MinerConfig};
use lesm_core::ModelView;
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::{Corpus, Doc, EntityRef};
use lesm_hier::hierarchy::HierTopic;
use lesm_hier::TopicHierarchy;
use lesm_net::TypedNetwork;
use lesm_phrases::TopicalPhrase;
use lesm_serve::{
    describe_artifact, load_model_file, save_snapshot_v2, save_snapshot_v2_with_ids,
    save_snapshot_v2_with_lineage, DeltaInfo, MappedSnapshot, Model, SnapshotError,
    FORMAT_VERSION_V2,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// Mines a small real structure with the actual pipeline.
fn mined_fixture() -> (Corpus, MinedStructure) {
    let papers = SyntheticPapers::generate(&PapersConfig::dblp(60, 42)).expect("synth corpus");
    let mut config = MinerConfig::default();
    config.hierarchy.max_depth = 1;
    config.phrase_min_support = 2;
    config.threads = 2;
    let mined = LatentStructureMiner::mine(&papers.corpus, &config).expect("mine");
    (papers.corpus, mined)
}

/// Hand-builds a two-topic structure whose every field is populated from
/// the given words and raw score bits, including documents, segments,
/// topical frequency tables, and doc-topic rows.
fn synthetic_structure(words: &[String], score_bits: &[u64]) -> (Corpus, MinedStructure) {
    let mut corpus = Corpus::new();
    let etype = corpus.entities.add_type("author");
    let mut ids = Vec::new();
    for w in words {
        ids.push(corpus.vocab.intern(w));
    }
    for (i, w) in words.iter().enumerate() {
        corpus.entities.intern(etype, w).expect("known type");
        corpus.docs.push(Doc {
            tokens: ids.clone(),
            entities: vec![EntityRef::new(etype, i as u32)],
            label: if i % 2 == 0 { Some(i as u32) } else { None },
            year: if i % 3 == 0 { Some(2000 + i as i32) } else { None },
        });
    }
    let score = |i: usize| f64::from_bits(score_bits[i % score_bits.len()]);
    let topic = |parent, level, path: &str, children: Vec<usize>| HierTopic {
        parent,
        children,
        level,
        path: path.into(),
        phi: vec![vec![score(0), score(1)]],
        rho: score(2),
        network: TypedNetwork::new(vec![], vec![]),
    };
    let hierarchy = TopicHierarchy {
        type_names: vec!["author".into()],
        topics: vec![topic(None, 0, "o", vec![1]), topic(Some(0), 1, "o/1", vec![])],
        fits: vec![None, None],
        alphas: vec![Some(vec![score(3)]), None],
    };
    let phrases: Vec<TopicalPhrase> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| TopicalPhrase { tokens: vec![id], score: score(i), topic_freq: score(i + 1) })
        .collect();
    let entities: Vec<(u32, f64)> =
        (0..corpus.entities.count(etype) as u32).map(|i| (i, score(i as usize))).collect();
    let mut freq = HashMap::new();
    for (i, &id) in ids.iter().enumerate() {
        freq.insert(vec![id], score(i));
        if i + 1 < ids.len() {
            freq.insert(vec![id, ids[i + 1]], score(i + 2));
        }
    }
    let n_docs = corpus.docs.len();
    let mined = MinedStructure {
        hierarchy,
        topic_phrases: vec![phrases.clone(), phrases],
        topic_entities: vec![vec![entities.clone()], vec![entities]],
        phrase_topic_freq: vec![freq.clone(), freq],
        segments: (0..n_docs).map(|_| vec![ids.clone()]).collect(),
        doc_topic: (0..n_docs).map(|d| vec![score(d), score(d + 1)]).collect(),
    };
    (corpus, mined)
}

/// Round-trip: the decoded snapshot equals the original field by field,
/// and re-saving it reproduces the artifact bit-for-bit.
fn assert_v2_round_trip(corpus: &Corpus, mined: &MinedStructure) -> Vec<u8> {
    let bytes = save_snapshot_v2(corpus, mined).expect("save");
    let mapped = MappedSnapshot::from_bytes(&bytes).expect("load v2 back");
    let snap = mapped.to_snapshot().expect("full decode");
    assert_same_model((corpus, mined), (&snap.corpus, &snap.mined));
    assert_eq!(
        bytes,
        save_snapshot_v2(&snap.corpus, &snap.mined).expect("save"),
        "re-saving the round-tripped value changed the v2 artifact"
    );
    bytes
}

#[test]
fn real_mined_structure_round_trips_through_v2() {
    let (corpus, mined) = mined_fixture();
    assert_v2_round_trip(&corpus, &mined);
}

#[test]
fn shard_doc_ids_rename_rendered_documents() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into(), "structures".into()],
        &[1.0f64.to_bits(), 0.25f64.to_bits()],
    );
    let ids: Vec<u64> = vec![100, 205, 310];
    let bytes = save_snapshot_v2_with_ids(&corpus, &mined, Some(&ids)).expect("save");
    let mapped = MappedSnapshot::from_bytes(&bytes).expect("load v2");
    for (d, &g) in ids.iter().enumerate() {
        assert_eq!(mapped.doc_id(d), g);
    }
    let lines = Model::Mapped(Box::new(mapped)).search_lines("mining", 10);
    assert!(!lines.is_empty());
    for line in &lines {
        let doc: u64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("doc number in line");
        assert!(ids.contains(&doc), "rendered doc {doc} is not a global id: {line}");
    }
}

#[test]
fn format_v1_header_is_a_version_mismatch_everywhere() {
    // No v1 encoder is kept: the magic plus version 1, then filler, is
    // what an old build's artifact looks like to this one.
    let mut v1 = b"LESM".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&[0u8; 64]);
    let is_v1_mismatch =
        |r: &SnapshotError| matches!(r, SnapshotError::VersionMismatch { found: 1, supported: 2 });
    let err = MappedSnapshot::from_bytes(&v1).expect_err("v1 must not map");
    assert!(is_v1_mismatch(&err), "from_bytes: {err:?}");
    let err = describe_artifact(&v1).expect_err("v1 must not describe");
    assert!(is_v1_mismatch(&err), "describe_artifact: {err:?}");
    let path = std::env::temp_dir().join(format!("lesm-v2test-{}-v1.lesm", std::process::id()));
    std::fs::write(&path, &v1).expect("write v1");
    let err = load_model_file(&path.to_string_lossy()).expect_err("v1 must not load");
    assert!(is_v1_mismatch(&err), "load_model_file: {err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_magic_is_reported_with_the_found_bytes() {
    let (corpus, mined) = synthetic_structure(&["x".into()], &[1.0f64.to_bits()]);
    let mut bytes = save_snapshot_v2(&corpus, &mined).expect("save");
    bytes[0] = b'X';
    match MappedSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::BadMagic { found }) => assert_eq!(&found, b"XESM"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // TSV input (the other CLI input format) is also just a bad magic.
    match MappedSnapshot::from_bytes(b"id\ttext\tauthors\n0\thello world\ta") {
        Err(SnapshotError::BadMagic { found }) => assert_eq!(&found, b"id\tt"),
        other => panic!("expected BadMagic for TSV bytes, got {other:?}"),
    }
}

#[test]
fn version_skew_is_reported_before_the_checksum() {
    let (corpus, mined) = synthetic_structure(&["x".into()], &[1.0f64.to_bits()]);
    let mut bytes = save_snapshot_v2(&corpus, &mined).expect("save");
    // Bump the version field without fixing the trailer: the loader must
    // still say "version mismatch", not "checksum mismatch".
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION_V2 + 1).to_le_bytes());
    match MappedSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::VersionMismatch { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION_V2 + 1);
            assert_eq!(supported, FORMAT_VERSION_V2);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn payload_corruption_fails_the_checksum() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into()],
        &[1.0f64.to_bits()],
    );
    let mut bytes = save_snapshot_v2(&corpus, &mined).expect("save");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    match MappedSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::ChecksumMismatch { expected, actual }) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_v2_artifacts_report_typed_errors_never_panic() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into(), "structures".into()],
        &[1.0f64.to_bits(), 0.25f64.to_bits()],
    );
    let bytes = assert_v2_round_trip(&corpus, &mined);
    for len in 0..bytes.len() {
        let err = MappedSnapshot::from_bytes(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncated v2 artifact of {len} bytes must not load"));
        match err {
            SnapshotError::Truncated { .. }
            | SnapshotError::ChecksumMismatch { .. }
            | SnapshotError::Malformed { .. } => {}
            other => panic!("unexpected error for prefix of {len} bytes: {other}"),
        }
    }
}

#[test]
fn misaligned_buffers_load_through_the_aligned_copy() {
    let (corpus, mined) = mined_fixture();
    let bytes = save_snapshot_v2(&corpus, &mined).expect("save");
    let reference = hierarchy_to_json(&(&corpus, &mined), 10);
    // Shift the artifact to every misalignment of an 8-byte window; the
    // loader must still produce identical views.
    for shift in 1..8 {
        let mut buf = vec![0u8; shift];
        buf.extend_from_slice(&bytes);
        let mapped = MappedSnapshot::from_bytes(&buf[shift..])
            .unwrap_or_else(|e| panic!("misaligned by {shift}: {e}"));
        assert_eq!(reference, hierarchy_to_json(&mapped, 10), "shift {shift}");
    }
}

#[test]
fn describe_artifact_reports_sections_and_checksum() {
    let (corpus, mined) = synthetic_structure(&["x".into()], &[1.0f64.to_bits()]);
    let v2 = save_snapshot_v2(&corpus, &mined).expect("save");

    let d2 = describe_artifact(&v2).expect("describe v2");
    assert!(d2.contains("format version: 2"), "{d2}");
    for name in ["vocab", "entities", "docs", "topics", "phrase-topic-freq", "cold"] {
        assert!(d2.contains(name), "missing section {name} in:\n{d2}");
    }
    assert!(d2.contains("(ok)"), "{d2}");
    // Section offsets are 64-byte aligned, so every align column is 64.
    for line in d2.lines().filter(|l| l.contains("vocab") || l.contains("cold")) {
        assert!(line.trim_end().ends_with("64"), "unaligned section: {line}");
    }

    // Corruption is visible but does not abort inspection.
    let mut broken = v2.clone();
    let mid = broken.len() / 2;
    broken[mid] ^= 0xff;
    let db = describe_artifact(&broken).expect("describe corrupt v2");
    assert!(db.contains("MISMATCH"), "{db}");

    // Non-snapshot input is a typed error.
    match describe_artifact(b"id\ttext\tauthors\n0\thello\ta") {
        Err(SnapshotError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn delta_lineage_round_trips_and_is_optional() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into(), "structures".into()],
        &[1.0f64.to_bits(), 0.25f64.to_bits()],
    );
    let lineage = DeltaInfo {
        base_artifact: "v0007.lesm".into(),
        base_docs: 2,
        base_words: 2,
        base_entities: vec![1],
        chain_depth: 3,
    };
    let with = save_snapshot_v2_with_lineage(&corpus, &mined, None, Some(&lineage)).expect("save");
    let mapped = MappedSnapshot::from_bytes(&with).expect("load delta artifact");
    assert_eq!(mapped.delta_info(), Some(&lineage));
    // The artifact stays full: it decodes to the whole value, which
    // re-saves without lineage to the lineage-free artifact.
    let plain = save_snapshot_v2(&corpus, &mined).expect("save");
    let snap = mapped.to_snapshot().expect("decode delta artifact");
    assert_same_model((&corpus, &mined), (&snap.corpus, &snap.mined));
    assert_eq!(plain, save_snapshot_v2(&snap.corpus, &snap.mined).expect("save"));
    assert_eq!(MappedSnapshot::from_bytes(&plain).expect("load").delta_info(), None);
    // Inspection names the extra section.
    let d = describe_artifact(&with).expect("describe");
    assert!(d.contains("delta-lineage"), "{d}");
    assert!(d.contains("sections: 11"), "{d}");
}

#[test]
fn invalid_delta_lineage_is_a_typed_load_error() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into()],
        &[1.0f64.to_bits()],
    );
    let cases = [
        // Base ranges exceeding the artifact's own ranges.
        DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: 99,
            base_words: 0,
            base_entities: vec![0],
            chain_depth: 1,
        },
        // Zero chain depth.
        DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: 1,
            base_words: 1,
            base_entities: vec![0],
            chain_depth: 0,
        },
        // Entity-type arity mismatch.
        DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: 1,
            base_words: 1,
            base_entities: vec![0, 0],
            chain_depth: 1,
        },
        // Base entity count exceeding the catalog.
        DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: 1,
            base_words: 1,
            base_entities: vec![99],
            chain_depth: 1,
        },
    ];
    for lineage in &cases {
        let bytes = save_snapshot_v2_with_lineage(&corpus, &mined, None, Some(lineage)).expect("save");
        match MappedSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::Malformed { .. }) => {}
            other => panic!("lineage {lineage:?}: expected Malformed, got {other:?}"),
        }
    }
}

// Words drawn from a deliberately hostile alphabet (quotes, backslashes,
// control characters, whitespace) and scores from arbitrary bit patterns
// (NaNs with payloads, infinities, subnormals, -0.0).
const NASTY: &str = "[a-z\"\\\u{0}-\u{8} ]{1,6}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomized_structures_round_trip_through_v2(
        words in vec(NASTY, 1..5),
        score_bits in vec(0u64..=u64::MAX, 1..6),
    ) {
        let (corpus, mined) = synthetic_structure(&words, &score_bits);
        let bytes = save_snapshot_v2(&corpus, &mined).expect("save");
        let mapped = MappedSnapshot::from_bytes(&bytes).expect("load v2");
        let snap = mapped.to_snapshot().expect("decode");
        assert_same_model((&corpus, &mined), (&snap.corpus, &snap.mined));
        prop_assert_eq!(&bytes, &save_snapshot_v2(&snap.corpus, &snap.mined).expect("save"));
        // Rendering stays identical across backends even for hostile
        // vocab/scores.
        prop_assert_eq!(
            hierarchy_to_json(&(&corpus, &mined), 10),
            hierarchy_to_json(&mapped, 10)
        );
    }

    #[test]
    fn any_single_byte_flip_in_v2_is_a_typed_error(flip in 1u8..=255) {
        let (corpus, mined) = synthetic_structure(
            &["mining".into(), "latent".into()],
            &[0.5f64.to_bits(), 2.0f64.to_bits()],
        );
        let bytes = save_snapshot_v2(&corpus, &mined).expect("save");
        // Every byte position, so every section, the header, the table
        // and the trailer. Every lane of the word checksum absorbs its
        // words through bijective steps and the fold is bijective in each
        // lane digest, so any body flip trips the trailer check; flips in
        // the magic, version, or table hit their own typed checks.
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= flip;
            prop_assert!(MappedSnapshot::from_bytes(&flipped).is_err(), "flip at byte {}", pos);
        }
    }
}
