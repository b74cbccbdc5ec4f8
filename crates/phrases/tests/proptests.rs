//! Property-based tests for phrase-mining invariants.

use lesm_phrases::kert::{Kert, KertConfig};
use lesm_phrases::topmine::{FrequentPhrases, Segmenter, SegmenterConfig};
use proptest::prelude::*;
use std::collections::HashMap;

fn random_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..15, 0..25), 1..25)
}

/// Token ids from the whole `u32` range, drawn so that repeats are common:
/// `u32::MAX`, `u32::MAX - 1`, an arbitrary id, or one of `0..5`.
fn wide_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    let token = (0u32..8, 0u32..=u32::MAX).prop_map(|(pick, raw)| match pick {
        0 => u32::MAX,
        1 => u32::MAX - 1,
        2 => raw,
        v => v - 3,
    });
    proptest::collection::vec(proptest::collection::vec(token, 0..12), 0..16)
}

/// Brute force: every window of length `1..=max_len` counted in a hash
/// map, kept when its count reaches `min_support`, in length-then-token
/// order.
fn reference(docs: &[Vec<u32>], min_support: u64, max_len: usize) -> Vec<(Vec<u32>, u64)> {
    let mut counts: HashMap<Vec<u32>, u64> = HashMap::new();
    for doc in docs {
        for n in 1..=max_len {
            for w in doc.windows(n) {
                *counts.entry(w.to_vec()).or_insert(0) += 1;
            }
        }
    }
    let mut out: Vec<(Vec<u32>, u64)> =
        counts.into_iter().filter(|&(_, c)| c >= min_support).collect();
    out.sort_unstable_by(|a, b| (a.0.len(), &a.0).cmp(&(b.0.len(), &b.0)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn phrase_table_matches_a_hash_map_reference(
        docs in wide_docs(),
        min_support in 0u64..=5,
        max_len in 0usize..=6,
    ) {
        let want = reference(&docs, min_support, max_len);
        for threads in [1, 2, 4] {
            let fp = FrequentPhrases::mine_threads(&docs, min_support, max_len, threads);
            prop_assert_eq!(fp.len(), want.len(), "threads={}", threads);
            prop_assert_eq!(fp.is_empty(), want.is_empty());
            let total: u64 = docs.iter().map(|d| d.len() as u64).sum();
            prop_assert_eq!(fp.total_tokens(), total);
            let got: Vec<(Vec<u32>, u64)> = fp.iter().collect();
            prop_assert_eq!(&got, &want, "threads={}", threads);
            // Every window up to one token past the limit: stored ones
            // report their count, the rest (too long, below support) zero.
            let stored: HashMap<&[u32], u64> =
                want.iter().map(|(p, c)| (p.as_slice(), *c)).collect();
            for doc in &docs {
                for n in 1..=max_len + 1 {
                    for w in doc.windows(n) {
                        let c = stored.get(w).copied().unwrap_or(0);
                        prop_assert_eq!(fp.count(w), c, "count of {:?}", w);
                    }
                }
            }
            prop_assert_eq!(fp.count(&[]), 0);
        }
    }

    #[test]
    fn downward_closure_and_support(docs in random_docs(), min_sup in 1u64..5) {
        let fp = FrequentPhrases::mine(&docs, min_sup, 5);
        for (p, c) in fp.iter() {
            prop_assert!(c >= min_sup, "{p:?} below support");
            if p.len() >= 2 {
                prop_assert!(fp.count(&p[..p.len() - 1]) >= c, "prefix of {p:?}");
                prop_assert!(fp.count(&p[1..]) >= c, "suffix of {p:?}");
            }
        }
    }

    #[test]
    fn counts_match_brute_force(docs in random_docs()) {
        let fp = FrequentPhrases::mine(&docs, 2, 4);
        for (p, c) in fp.iter().take(20) {
            let brute: u64 = docs
                .iter()
                .map(|d| d.windows(p.len()).filter(|w| *w == p.as_slice()).count() as u64)
                .sum();
            prop_assert_eq!(c, brute, "count mismatch for {:?}", p);
        }
    }

    #[test]
    fn segmentation_is_a_partition(docs in random_docs(), alpha in 0.5f64..5.0) {
        let fp = FrequentPhrases::mine(&docs, 2, 4);
        let segs = Segmenter::segment(&docs, &fp, &SegmenterConfig { alpha });
        prop_assert_eq!(segs.len(), docs.len());
        for (doc, seg) in docs.iter().zip(&segs) {
            let flat: Vec<u32> = seg.iter().flatten().copied().collect();
            prop_assert_eq!(&flat, doc, "partition property violated");
            // Every multi-word segment must be a frequent phrase.
            for s in seg {
                if s.len() >= 2 {
                    prop_assert!(fp.count(s) >= 2, "segment {s:?} not frequent");
                }
            }
        }
    }

    #[test]
    fn higher_alpha_never_creates_longer_segments(docs in random_docs()) {
        let fp = FrequentPhrases::mine(&docs, 2, 4);
        let loose = Segmenter::segment(&docs, &fp, &SegmenterConfig { alpha: 1.0 });
        let strict = Segmenter::segment(&docs, &fp, &SegmenterConfig { alpha: 6.0 });
        let count_multi = |segs: &Vec<Vec<Vec<u32>>>| -> usize {
            segs.iter().flatten().filter(|s| s.len() >= 2).map(|s| s.len()).sum()
        };
        prop_assert!(count_multi(&strict) <= count_multi(&loose));
    }

    #[test]
    fn kert_scores_are_finite_and_sorted(docs in random_docs(), k in 1usize..4) {
        let topics: Vec<Vec<u16>> = docs
            .iter()
            .map(|d| d.iter().map(|&w| (w as usize % k) as u16).collect())
            .collect();
        let cfg = KertConfig { min_support: 2, max_len: 3, ..Default::default() };
        let ranked = Kert::run(&docs, &topics, k, &cfg).unwrap();
        prop_assert_eq!(ranked.len(), k);
        for topic in &ranked {
            for w in topic.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
            for p in topic {
                prop_assert!(p.score.is_finite());
                prop_assert!(p.topic_freq >= 2.0);
            }
        }
    }

    #[test]
    fn kert_topical_frequencies_sum_to_total(docs in random_docs()) {
        let k = 2;
        let topics: Vec<Vec<u16>> = docs
            .iter()
            .map(|d| d.iter().map(|&w| (w % 2) as u16).collect())
            .collect();
        let cfg = KertConfig { min_support: 2, max_len: 2, ..Default::default() };
        let patterns = Kert::mine(&docs, &topics, k, &cfg).unwrap();
        for (p, &total) in &patterns.total_freq {
            let sum: u64 = (0..k)
                .map(|t| patterns.topic_freq[t].get(p).copied().unwrap_or(0))
                .sum();
            prop_assert_eq!(total, sum, "f(P) != Σ f_t(P) for {:?}", p);
        }
    }
}
