//! Helpers shared by the serve integration tests.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use lesm_core::pipeline::MinedStructure;
use lesm_corpus::Corpus;
use lesm_serve::server::{Server, ServerConfig, ServerHandle};
use lesm_serve::{save_snapshot_v2, MappedSnapshot, Model};

/// Saves `(corpus, mined)` as an artifact, maps it, and serves it.
pub fn serve(corpus: &Corpus, mined: &MinedStructure, config: ServerConfig) -> ServerHandle {
    let bytes = save_snapshot_v2(corpus, mined).expect("save");
    let mapped = MappedSnapshot::from_bytes(&bytes).expect("map");
    Server::start_model(Model::Mapped(Box::new(mapped)), config).expect("bind ephemeral port")
}

/// Asserts that two models are the same value, field by field: floats
/// compare by their bits (so NaN payloads and `-0.0` count) and hash maps
/// in sorted-key order. Panics naming the first field that differs.
pub fn assert_same_model(want: (&Corpus, &MinedStructure), got: (&Corpus, &MinedStructure)) {
    let (a, b) = (model_fields(want.0, want.1), model_fields(got.0, got.1));
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        panic!("models differ at field {i}:\n want {:?}\n  got {:?}", a.get(i), b.get(i));
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every field of the model as one `name = value` line, floats as bits.
fn model_fields(corpus: &Corpus, mined: &MinedStructure) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = |name: String, value: String| out.push(format!("{name} = {value}"));

    field("vocab".into(), format!("{:?}", corpus.vocab.iter().collect::<Vec<_>>()));
    for t in 0..corpus.entities.num_types() {
        let names: Option<Vec<_>> = corpus.entities.table(t).map(|v| v.iter().collect());
        field(format!("entities[{t}]"), format!("{:?} {names:?}", corpus.entities.type_name(t)));
    }
    for (d, doc) in corpus.docs.iter().enumerate() {
        let links: Vec<_> = doc.entities.iter().map(|e| (e.etype, e.id)).collect();
        field(
            format!("docs[{d}]"),
            format!("{:?} {links:?} {:?} {:?}", doc.tokens, doc.label, doc.year),
        );
    }

    let h = &mined.hierarchy;
    field("type_names".into(), format!("{:?}", h.type_names));
    for (t, topic) in h.topics.iter().enumerate() {
        let phi: Vec<_> = topic.phi.iter().map(|r| bits(r)).collect();
        field(
            format!("topics[{t}]"),
            format!(
                "{:?} {:?} {} {:?} {phi:?} {}",
                topic.parent,
                topic.children,
                topic.level,
                topic.path,
                topic.rho.to_bits()
            ),
        );
        let net = &topic.network;
        field(format!("topics[{t}].network"), format!("{:?} {:?}", net.type_names, net.node_counts));
        for (b, block) in net.blocks.iter().enumerate() {
            let edges: Vec<_> = block.edges.iter().map(|&(i, j, w)| (i, j, w.to_bits())).collect();
            field(format!("topics[{t}].blocks[{b}]"), format!("{} {} {edges:?}", block.tx, block.ty));
        }
    }
    for (t, fit) in h.fits.iter().enumerate() {
        let value = fit.as_ref().map(|f| {
            let phi: Vec<Vec<_>> = f.phi.iter().map(|m| m.iter().map(|r| bits(r)).collect()).collect();
            let phi0: Vec<_> = f.phi0.iter().map(|r| bits(r)).collect();
            let parent: Vec<_> = f.parent_phi.iter().map(|r| bits(r)).collect();
            format!(
                "{} {phi:?} {phi0:?} {:?} {:?} {:?} {} {:?} {} {parent:?}",
                f.k,
                bits(&f.rho),
                bits(&f.alpha),
                bits(&f.theta),
                f.objective.to_bits(),
                bits(&f.objective_trace),
                f.loglik.to_bits()
            )
        });
        field(format!("fits[{t}]"), format!("{value:?}"));
    }
    for (t, alpha) in h.alphas.iter().enumerate() {
        field(format!("alphas[{t}]"), format!("{:?}", alpha.as_deref().map(bits)));
    }

    for (t, list) in mined.topic_phrases.iter().enumerate() {
        let phrases: Vec<_> =
            list.iter().map(|p| (&p.tokens, p.score.to_bits(), p.topic_freq.to_bits())).collect();
        field(format!("topic_phrases[{t}]"), format!("{phrases:?}"));
    }
    for (t, cells) in mined.topic_entities.iter().enumerate() {
        let cells: Vec<Vec<_>> =
            cells.iter().map(|l| l.iter().map(|&(id, s)| (id, s.to_bits())).collect()).collect();
        field(format!("topic_entities[{t}]"), format!("{cells:?}"));
    }
    for (t, table) in mined.phrase_topic_freq.iter().enumerate() {
        let mut entries: Vec<_> = table.iter().map(|(k, v)| (k, v.to_bits())).collect();
        entries.sort_unstable();
        field(format!("phrase_topic_freq[{t}]"), format!("{entries:?}"));
    }
    for (d, segs) in mined.segments.iter().enumerate() {
        field(format!("segments[{d}]"), format!("{segs:?}"));
    }
    for (d, row) in mined.doc_topic.iter().enumerate() {
        field(format!("doc_topic[{d}]"), format!("{:?}", bits(row)));
    }
    out
}
