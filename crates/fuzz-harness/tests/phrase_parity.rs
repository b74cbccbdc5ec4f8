//! Bit pins for the phrase layer and the derived per-topic artifacts.
//!
//! Each pin is an FNV-1a 64 hash of one output, recorded from the
//! implementation that counted phrases in a `HashMap<Vec<u32>, u64>`,
//! segmented on owned token vectors and attributed documents through
//! per-segment hash lookups. Any change to a count, a merge decision or
//! the order of a float fold moves a hash.
//!
//! Inputs: the 2k-document replay corpus (`dblp_large`, seed 1) and the
//! fuzz harness's adversarial corpus shapes under the configurations that
//! stress phrase mining (zero support, length one, lengths beyond every
//! document, negative and huge merge thresholds).

use lesm_core::{LatentStructureMiner, MinedStructure, MinerConfig};
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::Corpus;
use lesm_hier::em::{EmConfig, WeightMode};
use lesm_hier::hierarchy::{CathyConfig, ChildCount};
use lesm_phrases::topmine::{FrequentPhrases, Segmenter, SegmenterConfig};

/// `(len, hash)` of the replay corpus's phrase table.
const REPLAY_TABLE: (usize, u64) = (1945, 0xc960_9a82_1315_1604);
const REPLAY_SEGMENTS: u64 = 0xbadd_7791_4443_c85e;
/// `doc_topic`, `phrase_topic_freq`, `topic_phrases`.
const REPLAY_DERIVED: [u64; 3] =
    [0x162d_5277_c1b4_5d14, 0xa8e9_6c9a_866e_0837, 0xc404_d119_5959_c839];
/// `(config column, table, segments, derived)` hashes over all shapes.
const FUZZ_PINS: [(usize, u64, u64, u64); 6] = [
    (0, 0x4407_b018_d697_1da8, 0x25c6_a16f_73f1_5a4f, 0xf02c_1f6d_f88b_6272),
    (7, 0x7688_729b_132c_9bd3, 0x25c6_a16f_73f1_5a4f, 0xf02c_1f6d_f88b_6272),
    (8, 0xd53d_ec28_c73b_924e, 0x6392_a33f_3ce2_7145, 0xa005_a490_e9ea_2355),
    (9, 0x7fed_0e27_dbce_b115, 0xbc6e_cc48_ac52_6bbf, 0xf6b4_6921_27df_1c2f),
    (11, 0x4407_b018_d697_1da8, 0x8869_9764_e27f_59f9, 0x9c44_4c6c_0132_a95a),
    (12, 0x4407_b018_d697_1da8, 0x6392_a33f_3ce2_7145, 0xa005_a490_e9ea_2355),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tokens(&mut self, t: &[u32]) {
        self.u64(t.len() as u64);
        for &w in t {
            self.u64(u64::from(w));
        }
    }
}

fn tokens(corpus: &Corpus) -> Vec<Vec<u32>> {
    corpus.docs.iter().map(|d| d.tokens.clone()).collect()
}

/// Hash of the phrase table, in sorted phrase order, and its length.
fn table_hash(fp: &FrequentPhrases) -> u64 {
    let mut entries: Vec<(Vec<u32>, u64)> = fp.iter().map(|(p, c)| (p.to_vec(), c)).collect();
    entries.sort_unstable();
    let mut h = Fnv::new();
    h.u64(fp.len() as u64);
    h.u64(fp.total_tokens());
    for (p, c) in &entries {
        h.tokens(p);
        h.u64(*c);
    }
    h.0
}

fn segments_hash(segments: &[Vec<Vec<u32>>]) -> u64 {
    let mut h = Fnv::new();
    for doc in segments {
        h.u64(doc.len() as u64);
        for seg in doc {
            h.tokens(seg);
        }
    }
    h.0
}

/// Hashes of `doc_topic` bits, the sorted `phrase_topic_freq` tables and
/// `topic_phrases`, in that order.
fn derived_hashes(mined: &MinedStructure) -> [u64; 3] {
    let mut doc_topic = Fnv::new();
    for row in &mined.doc_topic {
        doc_topic.u64(row.len() as u64);
        for v in row {
            doc_topic.u64(v.to_bits());
        }
    }
    let mut ptf = Fnv::new();
    for table in &mined.phrase_topic_freq {
        let mut entries: Vec<(&Vec<u32>, f64)> = table.iter().map(|(k, &v)| (k, v)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        ptf.u64(entries.len() as u64);
        for (k, v) in entries {
            ptf.tokens(k);
            ptf.u64(v.to_bits());
        }
    }
    let mut phrases = Fnv::new();
    for list in &mined.topic_phrases {
        phrases.u64(list.len() as u64);
        for p in list {
            phrases.tokens(&p.tokens);
            phrases.u64(p.score.to_bits());
            phrases.u64(p.topic_freq.to_bits());
        }
    }
    [doc_topic.0, ptf.0, phrases.0]
}

fn replay_config() -> MinerConfig {
    MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::Fixed(4),
            max_depth: 2,
            em: EmConfig {
                iters: 25,
                restarts: 2,
                seed: 3,
                background: true,
                weights: WeightMode::Learned,
                ..EmConfig::default()
            },
            min_links: 20,
            subnet_threshold: 0.5,
        },
        threads: 2,
        ..MinerConfig::default()
    }
}

#[test]
fn replay_2k_phrase_layer_and_derived_artifacts_hold_their_bits() {
    let corpus = SyntheticPapers::generate(&PapersConfig::dblp_large(2000, 1)).unwrap().corpus;
    let docs = tokens(&corpus);
    let cfg = replay_config();
    for threads in [1, 3] {
        let fp = FrequentPhrases::mine_threads(
            &docs,
            cfg.phrase_min_support,
            cfg.phrase_max_len,
            threads,
        );
        let segments = Segmenter::segment_threads(
            &docs,
            &fp,
            &SegmenterConfig { alpha: cfg.seg_alpha },
            threads,
        );
        assert_eq!(
            (fp.len(), table_hash(&fp), segments_hash(&segments)),
            (REPLAY_TABLE.0, REPLAY_TABLE.1, REPLAY_SEGMENTS),
            "threads={threads}"
        );
    }
    let mined = LatentStructureMiner::mine(&corpus, &cfg).unwrap();
    assert_eq!(segments_hash(&mined.segments), REPLAY_SEGMENTS);
    assert_eq!(derived_hashes(&mined), REPLAY_DERIVED);
}

/// Fuzz-harness configurations that move the phrase layer, by case column.
const FUZZ_CONFIGS: [usize; 6] = [0, 7, 8, 9, 11, 12];

#[test]
fn fuzz_shapes_phrase_layer_and_derived_artifacts_hold_their_bits() {
    let mut got = Vec::new();
    for cfg_col in FUZZ_CONFIGS {
        let mut table = Fnv::new();
        let mut segs = Fnv::new();
        let mut derived = Fnv::new();
        for shape in 0..lesm_fuzz::NUM_SHAPES {
            let case = lesm_fuzz::case(shape * lesm_fuzz::NUM_CONFIGS + cfg_col);
            let cfg = &case.config;
            let docs = tokens(&case.corpus);
            let fp = FrequentPhrases::mine_threads(
                &docs,
                cfg.phrase_min_support,
                cfg.phrase_max_len,
                cfg.threads,
            );
            table.u64(table_hash(&fp));
            let seg_cfg = SegmenterConfig { alpha: cfg.seg_alpha };
            segs.u64(segments_hash(&Segmenter::segment(&docs, &fp, &seg_cfg)));
            match LatentStructureMiner::mine(&case.corpus, cfg) {
                Ok(mined) => {
                    for v in derived_hashes(&mined) {
                        derived.u64(v);
                    }
                }
                Err(_) => derived.u64(0),
            }
        }
        got.push((cfg_col, table.0, segs.0, derived.0));
    }
    assert_eq!(got, FUZZ_PINS.to_vec());
}
