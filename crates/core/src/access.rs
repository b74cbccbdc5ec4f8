//! Typed read accessors over a mined model for traversal-style consumers
//! (the query engine, exploration UIs).
//!
//! Everything here is either integer-exact or accumulated in a fixed
//! canonical order, so downstream float arithmetic cannot depend on
//! iteration grouping (DESIGN.md §11). In particular the per-topic entity
//! frequencies are **integer occurrence counts** keyed by each document's
//! leaf-topic assignment: integer addition is associative, so a sharded
//! reconstruction that sums per-shard subtotals lands on bit-identical
//! values to a single pass over the whole corpus.

use crate::MinedStructure;
use lesm_corpus::Corpus;
use lesm_hier::TopicHierarchy;

/// Publication year per document, in document order.
pub fn doc_years(corpus: &Corpus) -> Vec<Option<i32>> {
    corpus.docs.iter().map(|d| d.year).collect()
}

/// For every entity of `etype`, the ascending list of documents that link
/// it (each document listed once, however many times the entity occurs).
pub fn entity_doc_lists(corpus: &Corpus, etype: usize) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); corpus.entities.count(etype)];
    for (d, doc) in corpus.docs.iter().enumerate() {
        for e in doc.entities_of(etype) {
            let list: &mut Vec<u32> = &mut out[e as usize];
            if list.last() != Some(&(d as u32)) {
                list.push(d as u32);
            }
        }
    }
    out
}

/// Same-type co-occurrence adjacency: for every entity of `etype`, the
/// ascending, deduplicated list of other `etype` entities sharing at least
/// one document with it (the coauthor relation when `etype` is `author`).
pub fn cooccur_adjacency(corpus: &Corpus, etype: usize) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); corpus.entities.count(etype)];
    for doc in &corpus.docs {
        let mut members: Vec<u32> = doc.entities_of(etype).collect();
        members.sort_unstable();
        members.dedup();
        for &a in &members {
            for &b in &members {
                if a != b {
                    out[a as usize].push(b);
                }
            }
        }
    }
    for list in &mut out {
        list.sort_unstable();
        list.dedup();
    }
    out
}

/// The subtree rooted at topic `t` (inclusive), ascending by topic index.
pub fn subtree_topics(hierarchy: &TopicHierarchy, t: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack = vec![t];
    while let Some(n) = stack.pop() {
        out.push(n);
        stack.extend(hierarchy.topics[n].children.iter().copied());
    }
    out.sort_unstable();
    out
}

/// Integer entity-occurrence counts per topic for one entity type:
/// `counts[t][e]` is the number of occurrences of entity `e` in documents
/// whose leaf-topic assignment ([`MinedStructure::doc_leaf`]) is `t`.
/// Rows for non-leaf topics are zero; subtree aggregates are exact integer
/// sums over descendant leaves.
pub fn leaf_entity_counts(
    corpus: &Corpus,
    mined: &MinedStructure,
    etype: usize,
) -> Vec<Vec<u64>> {
    let mut counts = vec![vec![0u64; corpus.entities.count(etype)]; mined.hierarchy.len()];
    for (d, doc) in corpus.docs.iter().enumerate() {
        let leaf = mined.doc_leaf(d);
        for e in doc.entities_of(etype) {
            counts[leaf][e as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesm_corpus::{Corpus, Doc, EntityRef};

    fn tiny_corpus() -> Corpus {
        let mut c = Corpus::default();
        let a = c.entities.add_type("author");
        for &(year, authors) in &[(2000, [0u32, 1].as_slice()), (2001, &[1, 2]), (2002, &[1])] {
            let mut doc = Doc { year: Some(year), ..Doc::default() };
            for &id in authors {
                while c.entities.count(a) <= id as usize {
                    let next = c.entities.count(a);
                    let _ = c.entities.intern(a, &format!("a{next}"));
                }
                doc.entities.push(EntityRef::new(a, id));
            }
            c.docs.push(doc);
        }
        c
    }

    #[test]
    fn doc_lists_are_ascending_and_unique() {
        let c = tiny_corpus();
        let lists = entity_doc_lists(&c, 0);
        assert_eq!(lists[0], vec![0]);
        assert_eq!(lists[1], vec![0, 1, 2]);
        assert_eq!(lists[2], vec![1]);
    }

    #[test]
    fn cooccurrence_is_symmetric_and_sorted() {
        let c = tiny_corpus();
        let adj = cooccur_adjacency(&c, 0);
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[2], vec![1]);
    }

    #[test]
    fn years_follow_doc_order() {
        let c = tiny_corpus();
        assert_eq!(doc_years(&c), vec![Some(2000), Some(2001), Some(2002)]);
    }
}
