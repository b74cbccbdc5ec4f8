//! Read access to a mined model, whatever holds it.
//!
//! The query-time functions — [`crate::search::search`],
//! [`crate::search::render_hits`], [`crate::export::render_topic`] and
//! [`crate::export::hierarchy_to_json`] — are written once, over
//! [`ModelView`]. Core implements it for the owned
//! `(&Corpus, &MinedStructure)` pair; `lesm-serve` implements it for a
//! memory-mapped snapshot. One implementation of each query means one
//! answer per query, whichever backend serves it.

use crate::MinedStructure;
use lesm_corpus::{Corpus, EntityRef};

/// The read surface the query functions need. Topic, document and
/// entity-type indices are assumed in range unless a method says
/// otherwise.
pub trait ModelView {
    /// Number of topics.
    fn num_topics(&self) -> usize;
    /// Number of documents.
    fn num_docs(&self) -> usize;
    /// The id of vocabulary word `name`.
    fn word_id(&self, name: &str) -> Option<u32>;
    /// A word's surface form, `"<unk>"` out of range.
    fn word(&self, id: u32) -> &str;
    /// Token ids of document `d`.
    fn doc_tokens(&self, d: usize) -> &[u32];
    /// The number a rendered hit prints for document `d`: its global id,
    /// which is `d` unless the model is one shard of a larger one.
    fn doc_id(&self, d: usize) -> u64 {
        d as u64
    }
    /// Document `d`'s weight for topic `t`.
    fn doc_topic(&self, d: usize, t: usize) -> f64;
    /// Path string of topic `t` (e.g. `"o/2/1"`).
    fn path(&self, t: usize) -> &str;
    /// Parent of topic `t`.
    fn parent(&self, t: usize) -> Option<usize>;
    /// Hierarchy level of topic `t`.
    fn level(&self, t: usize) -> usize;
    /// Background mixing weight of topic `t`.
    fn rho(&self, t: usize) -> f64;
    /// Child topics of `t`, in stored order.
    fn child_topics(&self, t: usize) -> impl Iterator<Item = usize>;
    /// Topic `t`'s ranked phrases: (tokens, score, topical frequency).
    fn phrases(&self, t: usize) -> impl Iterator<Item = (&[u32], f64, f64)>;
    /// Topic `t`'s phrase-frequency entries in ascending phrase order, so
    /// sums over them do not depend on how the model is stored.
    fn phrase_freqs(&self, t: usize) -> impl Iterator<Item = (&[u32], f64)>;
    /// Number of per-type ranked entity lists of topic `t`.
    fn entity_cells(&self, t: usize) -> usize;
    /// Topic `t`'s ranked `(entity id, score)` list for entity type `x`.
    fn entities(&self, t: usize, x: usize) -> impl Iterator<Item = (u32, f64)>;
    /// Name of entity type `x`, if in range.
    fn type_name(&self, x: usize) -> Option<&str>;
    /// An entity's surface name, `"<unk-entity>"` out of range.
    fn entity_name(&self, x: usize, id: u32) -> &str;

    /// Renders token ids as space-separated words.
    fn render(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.word(id));
        }
        out
    }
}

impl ModelView for (&Corpus, &MinedStructure) {
    fn num_topics(&self) -> usize {
        self.1.hierarchy.len()
    }
    fn num_docs(&self) -> usize {
        self.0.docs.len()
    }
    fn word_id(&self, name: &str) -> Option<u32> {
        self.0.vocab.get(name)
    }
    fn word(&self, id: u32) -> &str {
        self.0.vocab.name_or_unk(id)
    }
    fn doc_tokens(&self, d: usize) -> &[u32] {
        &self.0.docs[d].tokens
    }
    fn doc_topic(&self, d: usize, t: usize) -> f64 {
        self.1.doc_topic[d][t]
    }
    fn path(&self, t: usize) -> &str {
        &self.1.hierarchy.topics[t].path
    }
    fn parent(&self, t: usize) -> Option<usize> {
        self.1.hierarchy.topics[t].parent
    }
    fn level(&self, t: usize) -> usize {
        self.1.hierarchy.topics[t].level
    }
    fn rho(&self, t: usize) -> f64 {
        self.1.hierarchy.topics[t].rho
    }
    fn child_topics(&self, t: usize) -> impl Iterator<Item = usize> {
        self.1.hierarchy.topics[t].children.iter().copied()
    }
    fn phrases(&self, t: usize) -> impl Iterator<Item = (&[u32], f64, f64)> {
        self.1.topic_phrases[t].iter().map(|p| (p.tokens.as_slice(), p.score, p.topic_freq))
    }
    fn phrase_freqs(&self, t: usize) -> impl Iterator<Item = (&[u32], f64)> {
        // The table is a hash map, whose iteration order is process-random:
        // sort by key so float sums over it are reproducible.
        let mut entries: Vec<(&[u32], f64)> =
            self.1.phrase_topic_freq[t].iter().map(|(k, &v)| (k.as_slice(), v)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }
    fn entity_cells(&self, t: usize) -> usize {
        self.1.topic_entities[t].len()
    }
    fn entities(&self, t: usize, x: usize) -> impl Iterator<Item = (u32, f64)> {
        self.1.topic_entities[t][x].iter().copied()
    }
    fn type_name(&self, x: usize) -> Option<&str> {
        self.0.entities.type_name(x)
    }
    fn entity_name(&self, x: usize, id: u32) -> &str {
        self.0.entities.name(EntityRef::new(x, id))
    }
}
