//! Golden hashes for one fixed small model: the v2 artifact bytes and the
//! served `/search`, `/topics/{t}`, `/hierarchy` and `POST /query` bodies.
//!
//! Refactors of the snapshot format or the query path must leave every
//! hash here unchanged. A deliberate format or rendering change updates
//! the constants in the same commit, and says why.

use lesm_core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_query::fnv1a64;
use lesm_serve::client::{http_get, http_post};
use lesm_serve::server::{Server, ServerConfig};
use lesm_serve::{save_snapshot_v2, MappedSnapshot, Model};
use std::time::Duration;

/// The fixed fixture's v2 artifact: 60 synthetic DBLP-style papers,
/// mined to depth 1.
fn golden_artifact() -> Vec<u8> {
    let papers = SyntheticPapers::generate(&PapersConfig::dblp(60, 42)).expect("synth corpus");
    let mut config = MinerConfig::default();
    config.hierarchy.max_depth = 1;
    config.phrase_min_support = 2;
    config.threads = 2;
    let mined = LatentStructureMiner::mine(&papers.corpus, &config).expect("mine");
    save_snapshot_v2(&papers.corpus, &mined).expect("save v2")
}

const ARTIFACT: u64 = 0x79a6b52bf4dadaaa;

/// `(GET target, FNV-1a64 of the 200 body)`.
const GETS: &[(&str, u64)] = &[
    ("/search?q=t16w4", 0x51f3bcc99aac17d3),
    ("/search?q=t8w0+t8w1&top=5", 0x1aa2b2f3f07f2177),
    ("/search?q=t4w8+zzz-unknown", 0xf359ebf43cd0123d),
    // No known query word: the empty body.
    ("/search?q=zzz-unknown", 0xcbf29ce484222325),
    ("/hierarchy", 0x197894a6c92f60dd),
    ("/topics/0", 0x6cabd6dc599dec7d),
    ("/topics/1", 0x4def279644163661),
    ("/topics/2", 0xc1da73a3d545b8f7),
    ("/topics/3", 0x72e0f2d5faebda40),
    ("/topics/4", 0x2cdeae21773bf48c),
];

/// `(POST /query body, FNV-1a64 of the 200 body)`: one program per step
/// kind.
const QUERIES: &[(&str, u64)] = &[
    (r#"{"steps":[{"filter":{"type":"author"}}],"page":7}"#, 0xf6608a9d6d77cb00),
    (
        r#"{"steps":[{"filter":{"type":"author"}},{"traverse":{"edge":"coauthor"}},{"traverse":{"edge":"topics"}}]}"#,
        0x962e0f0301122f8f,
    ),
    (
        r#"{"steps":[{"filter":{"type":"author"}},{"path":{"to":{"type":"topic"},"edges":["topics","parent"],"max_depth":3}}],"page":13}"#,
        0x5b98a4b1ab646a65,
    ),
    (r#"{"steps":[{"filter":{"type":"author"}},{"rank":{"by":"combined","topic":0,"limit":10}}]}"#, 0xab5aec2f4a458f3a),
];

#[test]
fn artifact_and_served_bodies_match_their_golden_hashes() {
    let bytes = golden_artifact();
    let model = Model::Mapped(Box::new(MappedSnapshot::from_bytes(&bytes).expect("map")));
    let handle = Server::start_model(model, ServerConfig::default()).expect("bind");
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(10);

    let mut got = vec![("artifact".to_string(), fnv1a64(&bytes), ARTIFACT)];
    for &(target, want) in GETS {
        let r = http_get(&addr, target, timeout).expect("GET");
        assert_eq!(r.status, 200, "GET {target}: {}", r.text());
        got.push((format!("GET {target}"), fnv1a64(&r.body), want));
    }
    for &(body, want) in QUERIES {
        let r = http_post(&addr, "/query", body, timeout).expect("POST");
        assert_eq!(r.status, 200, "POST /query {body}: {}", r.text());
        got.push((format!("POST /query {body}"), fnv1a64(&r.body), want));
    }
    handle.shutdown();

    let wrong: Vec<String> = got
        .iter()
        .filter(|(_, hash, want)| hash != want)
        .map(|(what, hash, want)| format!("{what}: got {hash:#018x}, golden {want:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "golden hashes changed:\n{}", wrong.join("\n"));
}
