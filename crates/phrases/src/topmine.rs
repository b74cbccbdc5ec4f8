//! ToPMine — topical phrase mining for general text (§4.3).
//!
//! Three stages:
//!
//! 1. [`FrequentPhrases::mine`] — contiguous frequent phrase mining with
//!    position-based Apriori pruning and data antimonotonicity
//!    (Algorithm 1);
//! 2. [`Segmenter::segment`] — bottom-up agglomerative merging guided by
//!    the significance score of eq. 4.7 (Algorithm 2), inducing a
//!    "bag of phrases" partition of every document;
//! 3. [`ToPMine::run`] — PhraseLDA over the segments followed by topical
//!    phrase ranking (eqs. 4.8–4.9).

use crate::kert::TopicalPhrase;
use crate::PhraseError;
use lesm_topicmodel::{PhraseLda, PhraseLdaConfig, PhraseLdaModel};
use std::collections::HashMap;
use std::ops::Range;

/// Chunk count for parallel phrase counting — fixed so the chunking (and
/// thus the order in which keys are collected) never depends on thread
/// count.
const MINE_PIECES: usize = 32;

/// Position id of a phrase that is not in the table.
const NONE: u32 = u32::MAX;

/// The key of the length-`n` candidate at position `i`, given the ids `at`
/// of the length-(n-1) phrases. It needs frequent length-(n-1) phrases at
/// both `i` and `i + 1` (downward closure). The suffix check only prunes:
/// a phrase with an infrequent suffix cannot reach the support itself.
fn candidate(at: &[u32], doc: &[u32], i: usize, n: usize) -> Option<u64> {
    (at[i] != NONE && at[i + 1] != NONE).then(|| u64::from(at[i]) << 32 | u64::from(doc[i + n - 1]))
}

/// Frequent contiguous phrases with their corpus counts.
///
/// Phrases are stored as a prefix-id table. A phrase's id is its index in
/// `keys`/`counts`; ids are grouped by length, and sorted by key within a
/// length. A length-1 phrase's key is its token; a length-n phrase's key is
/// `(id of its length-(n-1) prefix) << 32 | last token`. Every prefix and
/// suffix of a stored phrase is stored too (Apriori closure), so looking a
/// phrase up is one binary search per token.
///
/// ```
/// use lesm_phrases::topmine::FrequentPhrases;
///
/// // "0 1" is a frequent bigram; "1 2" crosses it only once.
/// let docs = vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 1, 4]];
/// let fp = FrequentPhrases::mine(&docs, 2, 4);
/// assert_eq!(fp.count(&[0, 1]), 3);
/// assert_eq!(fp.count(&[1, 2]), 0);
/// assert!(fp.significance(&[0], &[1]).unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrequentPhrases {
    keys: Vec<u64>,
    counts: Vec<u64>,
    /// `level_end[n - 1]` is one past the last id of length `n`.
    level_end: Vec<usize>,
    total_tokens: u64,
}

impl FrequentPhrases {
    /// Mines all contiguous phrases with count `>= min_support` and length
    /// `<= max_len` (Algorithm 1).
    pub fn mine(docs: &[Vec<u32>], min_support: u64, max_len: usize) -> Self {
        Self::mine_threads(docs, min_support, max_len, 1)
    }

    /// [`mine`](Self::mine) with the per-document passes fanned out over
    /// `threads` workers (`0` = all available cores). Phrase counts are
    /// exact integer counts of sorted keys, so the result is identical for
    /// any thread count.
    ///
    /// # Panics
    ///
    /// If the corpus has `u32::MAX` or more frequent phrases, the limit of
    /// the 32-bit phrase ids.
    pub fn mine_threads(
        docs: &[Vec<u32>],
        min_support: u64,
        max_len: usize,
        threads: usize,
    ) -> Self {
        let total_tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
        let mut table = Self { total_tokens, ..Self::default() };
        if max_len == 0 {
            return table;
        }
        let grain = lesm_par::grain_for_pieces(docs.len(), MINE_PIECES);
        let ranges = lesm_par::chunk_ranges(docs.len(), grain);
        let collect = |keys_of: &(dyn Fn(usize, &mut Vec<u64>) + Sync)| -> Vec<u64> {
            lesm_par::par_map_collect(ranges.len(), threads, |c| {
                let mut keys = Vec::new();
                for d in ranges[c].clone() {
                    keys_of(d, &mut keys);
                }
                keys
            })
            .concat()
        };
        // Length 1: count the sorted tokens.
        let unigrams = collect(&|d, keys| keys.extend(docs[d].iter().map(|&w| u64::from(w))));
        if !table.push_level(unigrams, min_support) {
            return table;
        }
        // `ids[d][i]` is the id of the frequent length-(n-1) phrase starting
        // at position `i` of document `d`, or `NONE` (position-based
        // Apriori). It holds only the positions where such a phrase fits,
        // and is emptied once none is frequent (data antimonotonicity).
        let mut ids: Vec<Vec<u32>> = lesm_par::par_map_collect(docs.len(), threads, |d| {
            docs[d].iter().map(|&w| table.lookup(1, u64::from(w)).unwrap_or(NONE)).collect()
        });
        for n in 2..=max_len {
            let keys = collect(&|d, keys| {
                let (doc, at) = (&docs[d], &ids[d]);
                let fits = at.len().saturating_sub(1);
                keys.extend((0..fits).filter_map(|i| candidate(at, doc, i, n)));
            });
            if !table.push_level(keys, min_support) || n == max_len {
                break;
            }
            let table_ref = &table;
            lesm_par::par_for_each_mut(&mut ids, threads, |d, at| {
                let fits = at.len().saturating_sub(1);
                let mut alive = false;
                for i in 0..fits {
                    let key = candidate(at, &docs[d], i, n);
                    at[i] = key.and_then(|k| table_ref.lookup(n, k)).unwrap_or(NONE);
                    alive |= at[i] != NONE;
                }
                at.truncate(if alive { fits } else { 0 });
            });
        }
        table
    }

    /// Sorts one length's candidate keys, appends those occurring at least
    /// `min_support` times as the next length, and reports whether any did.
    fn push_level(&mut self, mut keys: Vec<u64>, min_support: u64) -> bool {
        keys.sort_unstable();
        let start = self.keys.len();
        for run in keys.chunk_by(|a, b| a == b) {
            let count = run.len() as u64;
            if count >= min_support {
                self.keys.push(run[0]);
                self.counts.push(count);
            }
        }
        assert!(self.keys.len() < NONE as usize, "more than u32::MAX - 1 frequent phrases");
        self.level_end.push(self.keys.len());
        self.keys.len() > start
    }

    /// The ids of the stored length-`n` phrases.
    fn level(&self, n: usize) -> Option<Range<usize>> {
        let end = *self.level_end.get(n.checked_sub(1)?)?;
        Some(if n == 1 { 0 } else { self.level_end[n - 2] }..end)
    }

    /// The id of the length-`n` phrase with `key`.
    fn lookup(&self, n: usize, key: u64) -> Option<u32> {
        let ids = self.level(n)?;
        let rank = self.keys[ids.clone()].binary_search(&key).ok()?;
        // Below `NONE` by the assertion in `push_level`.
        Some((ids.start + rank) as u32)
    }

    /// The id of `prefix ⊕ tokens`, where `prefix` is the id of a stored
    /// phrase of length `len`.
    fn extend(&self, prefix: u32, len: usize, tokens: &[u32]) -> Option<u32> {
        tokens.iter().enumerate().try_fold(prefix, |id, (k, &w)| {
            self.lookup(len + k + 1, u64::from(id) << 32 | u64::from(w))
        })
    }

    /// The id of a non-empty stored phrase.
    fn id_of(&self, phrase: &[u32]) -> Option<u32> {
        let (&first, rest) = phrase.split_first()?;
        self.extend(self.lookup(1, u64::from(first))?, 1, rest)
    }

    /// Count of the phrase with id `id`, `0` for `NONE`.
    fn count_id(&self, id: u32) -> u64 {
        self.counts.get(id as usize).copied().unwrap_or(0)
    }

    /// Count of a phrase (0 when not frequent).
    pub fn count(&self, phrase: &[u32]) -> u64 {
        self.id_of(phrase).map_or(0, |id| self.count_id(id))
    }

    /// Total token count `L` of the mined corpus.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Number of stored frequent phrases (all lengths).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no phrase met the support threshold.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(phrase, count)` pairs in id order: shorter phrases first,
    /// and phrases of one length in token order (a prefix's id follows
    /// the token order of its length, so keys do too). The order is a
    /// function of the mined phrases alone.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<u32>, u64)> + '_ {
        (1..=self.level_end.len()).flat_map(move |n| {
            self.level(n).into_iter().flatten().map(move |id| (self.phrase(id, n), self.counts[id]))
        })
    }

    /// The tokens of the length-`n` phrase with id `id`.
    fn phrase(&self, mut id: usize, n: usize) -> Vec<u32> {
        let mut out = vec![0u32; n];
        for slot in out.iter_mut().rev() {
            let key = self.keys[id];
            *slot = key as u32;
            id = (key >> 32) as usize;
        }
        out
    }

    /// Significance of merging adjacent phrases `p1 ⊕ p2` (eq. 4.7):
    /// `(f(p1⊕p2) - L p(p1) p(p2)) / sqrt(f(p1⊕p2))`.
    ///
    /// Returns `None` if the concatenation is not itself frequent (it then
    /// can never be merged).
    pub fn significance(&self, p1: &[u32], p2: &[u32]) -> Option<f64> {
        let (c1, cat) = match self.id_of(p1) {
            Some(id) => (self.count_id(id), self.extend(id, p1.len(), p2)?),
            None if p1.is_empty() => (0, self.id_of(p2)?),
            None => return None,
        };
        Some(self.merge_score(cat, c1, self.count(p2)))
    }

    /// Eq. 4.7 for the stored concatenation `cat` of phrases counted `c1`
    /// and `c2` times.
    fn merge_score(&self, cat: u32, c1: u64, c2: u64) -> f64 {
        let f_cat = self.count_id(cat) as f64;
        let l = self.total_tokens.max(1) as f64;
        let mu = l * (c1 as f64 / l) * (c2 as f64 / l);
        (f_cat - mu) / f_cat.sqrt()
    }
}

/// Configuration for the bottom-up segmenter.
#[derive(Debug, Clone)]
pub struct SegmenterConfig {
    /// Merge threshold α on the significance score.
    pub alpha: f64,
}

impl Default for SegmenterConfig {
    fn default() -> Self {
        Self { alpha: 2.0 }
    }
}

/// One segment under construction: `doc[start..end]`, stored phrase id `id`
/// (`NONE` when the segment is not a stored phrase).
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    id: u32,
}

/// Reusable per-worker buffers for [`Segmenter::segment_doc`]: the current
/// spans and, for each adjacent pair, the merged id and its significance.
#[derive(Debug, Default)]
struct SegScratch {
    spans: Vec<Span>,
    gains: Vec<Option<(u32, f64)>>,
}

/// Bottom-up agglomerative phrase construction (Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct Segmenter;

impl Segmenter {
    /// Induces a bag-of-phrases partition on one document.
    pub fn segment_doc(
        doc: &[u32],
        phrases: &FrequentPhrases,
        config: &SegmenterConfig,
    ) -> Vec<Vec<u32>> {
        Self::segment_with(doc, phrases, config, &mut SegScratch::default())
    }

    fn segment_with(
        doc: &[u32],
        phrases: &FrequentPhrases,
        config: &SegmenterConfig,
        scratch: &mut SegScratch,
    ) -> Vec<Vec<u32>> {
        // The merged phrase's id and significance, if it is stored.
        let gain = |l: Span, r: Span| -> Option<(u32, f64)> {
            if l.id == NONE {
                return None;
            }
            let cat = phrases.extend(l.id, l.end - l.start, &doc[r.start..r.end])?;
            Some((cat, phrases.merge_score(cat, phrases.count_id(l.id), phrases.count_id(r.id))))
        };
        let SegScratch { spans, gains } = scratch;
        spans.clear();
        spans.extend(doc.iter().enumerate().map(|(i, &w)| Span {
            start: i,
            end: i + 1,
            id: phrases.lookup(1, u64::from(w)).unwrap_or(NONE),
        }));
        gains.clear();
        gains.extend(spans.windows(2).map(|p| gain(p[0], p[1])));
        loop {
            // Titles and sentences are short: a linear scan for the best
            // adjacent merge beats heap maintenance at these lengths.
            let mut best: Option<(usize, u32, f64)> = None;
            for (i, g) in gains.iter().enumerate() {
                if let Some((id, sig)) = *g {
                    if sig >= config.alpha && best.is_none_or(|(_, _, b)| sig > b) {
                        best = Some((i, id, sig));
                    }
                }
            }
            let Some((i, id, _)) = best else { break };
            spans[i] = Span { start: spans[i].start, end: spans[i + 1].end, id };
            spans.remove(i + 1);
            gains.remove(i);
            if i > 0 {
                gains[i - 1] = gain(spans[i - 1], spans[i]);
            }
            if i < gains.len() {
                gains[i] = gain(spans[i], spans[i + 1]);
            }
        }
        spans.iter().map(|s| doc[s.start..s.end].to_vec()).collect()
    }

    /// Segments every document.
    pub fn segment(
        docs: &[Vec<u32>],
        phrases: &FrequentPhrases,
        config: &SegmenterConfig,
    ) -> Vec<Vec<Vec<u32>>> {
        Self::segment_threads(docs, phrases, config, 1)
    }

    /// [`segment`](Self::segment) fanned out over `threads` workers (`0` =
    /// all available cores). Each document is segmented independently, so
    /// the partition is identical for any thread count.
    pub fn segment_threads(
        docs: &[Vec<u32>],
        phrases: &FrequentPhrases,
        config: &SegmenterConfig,
        threads: usize,
    ) -> Vec<Vec<Vec<u32>>> {
        lesm_par::par_map_collect_scratch(
            docs.len(),
            threads,
            lesm_par::WorkHint::HEAVY,
            SegScratch::default,
            |d, scratch| Self::segment_with(&docs[d], phrases, config, scratch),
        )
    }
}

/// Configuration for the full ToPMine pipeline.
#[derive(Debug, Clone)]
pub struct ToPMineConfig {
    /// Minimum phrase support μ.
    pub min_support: u64,
    /// Maximum phrase length mined.
    pub max_len: usize,
    /// Segmentation significance threshold α.
    pub seg_alpha: f64,
    /// PhraseLDA settings (`k` topics live here).
    pub lda: PhraseLdaConfig,
    /// Mix weight ω between pointwise-KL rank and significance bonus in the
    /// final ranking `(1-ω) r_t(P) + ω p(P|t) log sig(P)` (§4.3.3).
    pub omega: f64,
    /// Number of ranked phrases kept per topic.
    pub top_n: usize,
    /// Worker threads for phrase counting and segmentation (`0` = all
    /// available cores). Any value produces identical results.
    pub threads: usize,
}

impl Default for ToPMineConfig {
    fn default() -> Self {
        Self {
            min_support: 5,
            max_len: 5,
            seg_alpha: 2.0,
            lda: PhraseLdaConfig::default(),
            omega: 0.3,
            top_n: 30,
            threads: 1,
        }
    }
}

/// Result of the ToPMine pipeline.
#[derive(Debug, Clone)]
pub struct ToPMineResult {
    /// The bag-of-phrases partition of every document.
    pub segments: Vec<Vec<Vec<u32>>>,
    /// The fitted phrase-constrained LDA model.
    pub model: PhraseLdaModel,
    /// Ranked topical phrases per topic.
    pub topical_phrases: Vec<Vec<TopicalPhrase>>,
    /// The mined frequent-phrase table.
    pub phrases: FrequentPhrases,
}

/// The ToPMine pipeline runner.
#[derive(Debug, Default)]
pub struct ToPMine;

impl ToPMine {
    /// Runs phrase mining → segmentation → PhraseLDA → ranking.
    pub fn run(
        docs: &[Vec<u32>],
        vocab_size: usize,
        config: &ToPMineConfig,
    ) -> Result<ToPMineResult, PhraseError> {
        if config.min_support == 0 {
            return Err(PhraseError::InvalidConfig("min_support must be >= 1".into()));
        }
        if config.max_len < 2 {
            return Err(PhraseError::InvalidConfig("max_len must be >= 2".into()));
        }
        if !(0.0..=1.0).contains(&config.omega) {
            return Err(PhraseError::InvalidConfig("omega must be in [0,1]".into()));
        }
        let phrases =
            FrequentPhrases::mine_threads(docs, config.min_support, config.max_len, config.threads);
        let seg_cfg = SegmenterConfig { alpha: config.seg_alpha };
        let segments = Segmenter::segment_threads(docs, &phrases, &seg_cfg, config.threads);
        let model = PhraseLda::fit(&segments, vocab_size, &config.lda);
        let topical_phrases = rank_topical_phrases(&segments, &model, &phrases, config);
        Ok(ToPMineResult { segments, model, topical_phrases, phrases })
    }
}

/// Topical phrase ranking (eqs. 4.8–4.9 for a flat hierarchy: the parent of
/// each topic is the whole collection).
fn rank_topical_phrases(
    segments: &[Vec<Vec<u32>>],
    model: &PhraseLdaModel,
    phrases: &FrequentPhrases,
    config: &ToPMineConfig,
) -> Vec<Vec<TopicalPhrase>> {
    let k = model.k;
    // Segment occurrence counts (phrases of any length, as segmented).
    let mut seg_count: HashMap<&[u32], f64> = HashMap::new();
    for doc in segments {
        for seg in doc {
            if !seg.is_empty() {
                *seg_count.entry(seg.as_slice()).or_insert(0.0) += 1.0;
            }
        }
    }
    // Fix the segment order before ranking: HashMap iteration order varies
    // per process, and both the float total and the emitted lists must not
    // inherit that arbitrariness.
    let mut seg_list: Vec<(&[u32], f64)> = seg_count.iter().map(|(&s, &c)| (s, c)).collect();
    seg_list.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let total: f64 = seg_list.iter().map(|&(_, c)| c).sum();
    // Topical frequency via eq. 4.8's posterior p(t | P) ∝ ρ_t Π_v φ_{t,v}.
    let mut per_topic: Vec<Vec<TopicalPhrase>> = vec![Vec::new(); k];
    for &(seg, count) in &seg_list {
        let mut post = vec![0.0f64; k];
        let mut norm = 0.0;
        for (t, p_slot) in post.iter_mut().enumerate() {
            let mut lp = model.topic_weight[t].max(1e-12).ln();
            for &w in seg.iter() {
                lp += model.topic_word[t][w as usize].max(1e-300).ln();
            }
            *p_slot = lp;
        }
        let max_lp = post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for p in post.iter_mut() {
            *p = (*p - max_lp).exp();
            norm += *p;
        }
        let sig_bonus = if seg.len() >= 2 {
            let head = &seg[..1];
            let tail = &seg[1..];
            phrases.significance(head, tail).unwrap_or(1.0).max(1.0).ln()
        } else {
            0.0
        };
        for t in 0..k {
            let ft = count * post[t] / norm;
            let p_t = ft / total.max(1.0) / model.topic_weight[t].max(1e-12);
            let p_parent = count / total.max(1.0);
            if ft < 1.0 {
                continue;
            }
            // r_t(P) = p(P|t) log (p(P|t)/p(P|parent))  (eq. 4.9)
            let r = p_t * (p_t / p_parent.max(1e-300)).ln();
            let score = (1.0 - config.omega) * r + config.omega * p_t * sig_bonus;
            per_topic[t].push(TopicalPhrase {
                tokens: seg.to_vec(),
                score,
                topic_freq: ft,
            });
        }
    }
    for list in &mut per_topic {
        list.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.tokens.cmp(&b.tokens)));
        list.truncate(config.top_n);
    }
    per_topic
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "mining frequent patterns" style docs: (0,1) and (1,2) frequent,
    /// (0,1,2) frequent trigram in theme A; (7,8) bigram in theme B.
    fn docs() -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                out.push(vec![0, 1, 2, 3, 0, 1, 2]);
            } else {
                out.push(vec![7, 8, 9, 7, 8, 5]);
            }
        }
        out
    }

    #[test]
    fn mining_finds_contiguous_phrases() {
        let fp = FrequentPhrases::mine(&docs(), 5, 5);
        assert!(fp.count(&[0, 1]) >= 15);
        assert!(fp.count(&[0, 1, 2]) >= 15);
        assert!(fp.count(&[7, 8]) >= 15);
        assert_eq!(fp.count(&[3, 7]), 0, "cross-theme n-gram never frequent");
        assert_eq!(fp.count(&[3, 0]), 15, "mid-title bigram occurs once per theme-A doc");
    }

    #[test]
    fn downward_closure_holds() {
        let fp = FrequentPhrases::mine(&docs(), 5, 5);
        for (p, c) in fp.iter() {
            if p.len() >= 2 {
                assert!(fp.count(&p[..p.len() - 1]) >= c, "prefix less frequent than {p:?}");
                assert!(fp.count(&p[1..]) >= c, "suffix less frequent than {p:?}");
            }
        }
    }

    #[test]
    fn min_support_respected() {
        let fp = FrequentPhrases::mine(&docs(), 5, 5);
        for (_, c) in fp.iter() {
            assert!(c >= 5);
        }
        let fp_hi = FrequentPhrases::mine(&docs(), 10_000, 5);
        assert!(fp_hi.is_empty());
    }

    #[test]
    fn significance_positive_for_collocations() {
        let fp = FrequentPhrases::mine(&docs(), 5, 5);
        let sig = fp.significance(&[0], &[1]).unwrap();
        assert!(sig > 2.0, "collocation should be significant, got {sig}");
        assert!(fp.significance(&[3], &[7]).is_none(), "non-frequent merge impossible");
    }

    #[test]
    fn segmentation_reconstructs_and_groups() {
        let d = docs();
        let fp = FrequentPhrases::mine(&d, 5, 5);
        let segs = Segmenter::segment(&d, &fp, &SegmenterConfig { alpha: 2.0 });
        for (doc, seg) in d.iter().zip(&segs) {
            let flat: Vec<u32> = seg.iter().flatten().copied().collect();
            assert_eq!(&flat, doc, "partition property violated");
        }
        // The trigram (0,1,2) should be a single segment somewhere.
        let found = segs.iter().flatten().any(|s| s.as_slice() == [0, 1, 2]);
        assert!(found, "expected [0,1,2] segment, got {:?}", &segs[0]);
    }

    #[test]
    fn full_pipeline_ranks_topical_phrases() {
        let d = docs();
        let cfg = ToPMineConfig {
            min_support: 5,
            max_len: 4,
            seg_alpha: 2.0,
            lda: PhraseLdaConfig { k: 2, iters: 60, ..Default::default() },
            omega: 0.3,
            top_n: 10,
            threads: 2,
        };
        let r = ToPMine::run(&d, 10, &cfg).unwrap();
        assert_eq!(r.topical_phrases.len(), 2);
        // One topic should rank a theme-A phrase on top, the other theme-B.
        let top_of = |t: usize| r.topical_phrases[t].first().map(|p| p.tokens.clone());
        let t0 = top_of(0).expect("topic 0 has phrases");
        let t1 = top_of(1).expect("topic 1 has phrases");
        let a_words = [0u32, 1, 2, 3];
        let t0_is_a = a_words.contains(&t0[0]);
        let t1_is_a = a_words.contains(&t1[0]);
        assert_ne!(t0_is_a, t1_is_a, "topics should specialize: {t0:?} vs {t1:?}");
        // Multi-word phrases must survive ranking (comparability property).
        let has_multi = r.topical_phrases.iter().flatten().any(|p| p.tokens.len() >= 2);
        assert!(has_multi);
    }

    #[test]
    fn parallel_mining_and_segmentation_identical_to_serial() {
        let d = docs();
        let serial = FrequentPhrases::mine(&d, 5, 5);
        let seg_cfg = SegmenterConfig::default();
        let serial_segs = Segmenter::segment(&d, &serial, &seg_cfg);
        for threads in 2..=8 {
            let par = FrequentPhrases::mine_threads(&d, 5, 5, threads);
            assert_eq!(serial, par, "threads={threads}");
            let par_segs = Segmenter::segment_threads(&d, &par, &seg_cfg, threads);
            assert_eq!(serial_segs, par_segs, "threads={threads}");
        }
    }

    #[test]
    fn max_len_zero_mines_nothing_and_segments_like_unigrams() {
        let d = docs();
        let none = FrequentPhrases::mine(&d, 5, 0);
        assert!(none.is_empty(), "length <= 0 admits no phrase");
        assert_eq!(none.total_tokens(), d.iter().map(|x| x.len() as u64).sum::<u64>());
        // Length 1 keeps the frequent unigrams, which length 0 used to
        // return as well; neither table admits a merge.
        let unigrams = FrequentPhrases::mine(&d, 5, 1);
        assert_eq!(unigrams.len(), 8);
        let cfg = SegmenterConfig::default();
        let segs = Segmenter::segment(&d, &none, &cfg);
        assert_eq!(segs, Segmenter::segment(&d, &unigrams, &cfg));
        for (doc, seg) in d.iter().zip(&segs) {
            let singles: Vec<Vec<u32>> = doc.iter().map(|&w| vec![w]).collect();
            assert_eq!(seg, &singles);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let d = docs();
        let bad1 = ToPMineConfig { min_support: 0, ..Default::default() };
        assert!(ToPMine::run(&d, 10, &bad1).is_err());
        let bad2 = ToPMineConfig { max_len: 1, ..Default::default() };
        assert!(ToPMine::run(&d, 10, &bad2).is_err());
        let bad3 = ToPMineConfig { omega: 1.5, ..Default::default() };
        assert!(ToPMine::run(&d, 10, &bad3).is_err());
    }
}
