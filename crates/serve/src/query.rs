//! Query evaluation over a loaded model.
//!
//! Search, topic rendering and hierarchy export are `lesm_core`'s own
//! functions, run over the mapped snapshot through
//! [`lesm_core::ModelView`]: the server answers every query with the
//! code the offline CLI runs, so responses match it byte for byte. That
//! identity is what lets a sharded tier answer underneath the DESIGN.md
//! §11 determinism contract.

use crate::v2::MappedSnapshot;
use crate::SnapshotError;
use lesm_core::export::{hierarchy_to_json, render_topic};
use lesm_core::search::{render_hits, search};
use lesm_core::ModelView;

/// A loaded model: a zero-copy mapped snapshot.
#[derive(Debug)]
pub enum Model {
    /// A zero-copy mapped snapshot.
    Mapped(Box<MappedSnapshot>),
}

/// Maps and validates the artifact at `path`. Short files, other
/// formats and other format versions are typed [`SnapshotError`]s.
pub fn load_model_file(path: &str) -> Result<Model, SnapshotError> {
    Ok(Model::Mapped(Box::new(MappedSnapshot::open(path)?)))
}

impl Model {
    fn view(&self) -> &MappedSnapshot {
        let Model::Mapped(m) = self;
        m
    }

    /// Ranked search over the model: one rendered line per hit, exactly
    /// as `lesm search` prints them. Document numbers are global ids.
    pub fn search_lines(&self, query: &str, top: usize) -> Vec<String> {
        let m = self.view();
        render_hits(m, &search(m, query, top))
    }

    /// Search lines for shard fan-out: each line carries the raw score
    /// bits (hex) and the global document id ahead of the rendered line,
    /// so a front tier can merge shard results in the exact total order
    /// a single server would produce, then strip the prefix.
    pub fn internal_search_lines(&self, query: &str, top: usize) -> Vec<String> {
        let m = self.view();
        let hits = search(m, query, top);
        hits.iter()
            .zip(render_hits(m, &hits))
            .map(|(h, line)| format!("{:016x} {} {}", h.score.to_bits(), m.doc_id(h.doc), line))
            .collect()
    }

    /// Renders topic `t` (phrases + entities), or `None` out of range.
    pub fn render_topic(&self, t: usize, n: usize) -> Option<String> {
        let m = self.view();
        (t < m.num_topics()).then(|| render_topic(m, t, n))
    }

    /// The full hierarchy as pretty-printed JSON.
    pub fn hierarchy_json(&self, top_n: usize) -> String {
        hierarchy_to_json(self.view(), top_n)
    }

    /// Extracts the canonical [`lesm_query::IndexParts`] for the query
    /// engine. Fully decodes the cold section once (query-index
    /// construction is a cold, memoized event — see `ServerState`) and
    /// keys documents by their **global** ids, so sharded and unsharded
    /// builds are byte-identical downstream (DESIGN.md §14).
    pub fn query_parts(&self) -> Result<lesm_query::IndexParts, String> {
        let m = self.view();
        let ids: Vec<u64> = (0..m.num_docs()).map(|d| m.doc_id(d)).collect();
        let snap = m.to_snapshot().map_err(|e| e.to_string())?;
        lesm_query::IndexParts::from_model(&snap.corpus, &snap.mined, Some(&ids))
            .map_err(|e| e.to_string())
    }
}
