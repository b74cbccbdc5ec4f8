//! `mine-50k`: one cold `LatentStructureMiner::mine` plus
//! `save_snapshot_v2` (the `lesm snapshot` path) over the 50k-document
//! `dblp_large` replay corpus, with the library's default mining
//! configuration at depth 2 on every core. Serving and query layers stay
//! idle.
//!
//! The traced run mines once with tracing off, then twice with it on,
//! each traced mine followed by direct calls of the four mining stages on
//! the same corpus (`collapsed_network`, `TopicHierarchy::construct`,
//! `FrequentPhrases::mine_threads`, `Segmenter::segment_threads`); the
//! traced `mine` minus those four spans is `core.derive_s`, a residual
//! until mining reports its own stages.

use super::{miner_config, Layers};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{timed, Tracer};
use crate::{peak_rss_mb, process_cpu_s, Args, CpuTicks, SETUP_REPS};
use lesm_core::{LatentStructureMiner, MinerConfig};
use lesm_corpus::Corpus;
use lesm_hier::TopicHierarchy;
use lesm_phrases::topmine::{FrequentPhrases, Segmenter, SegmenterConfig};
use lesm_query::fnv1a64;

pub const DOCS: usize = 50_000;

/// (seed, FNV-1a 64 of the v2 artifact mined from it). Mining is
/// byte-deterministic for any thread count, so these must hold on every
/// run; a seed missing here is checked across the run's repetitions only.
const PINNED: &[(u64, u64)] = &[
    (0, 0xd475_214b_150d_1238),
    (1, 0xaee4_b445_543c_2f5c),
    (2, 0x343d_ba49_88b6_c1f4),
    (3, 0xc4d4_5ab9_d09e_bee4),
    (4, 0x952f_9bda_7406_2df7),
    (5, 0x5460_6733_08de_8041),
    (6, 0xfdef_7187_dd02_58d3),
    (7, 0x45ce_9f23_b7f4_1a79),
    (8, 0xf0c1_7812_1e99_ff1a),
    (9, 0xc04f_dee5_b95a_f5c1),
    (10, 0xb320_5d38_8ec0_28ca),
    (11, 0x150e_bf6f_d446_7227),
    (12, 0x80e9_16bc_8cfd_04e5),
    (9001, 0x577f_e67e_8902_4192),
];

/// The mine input for `seed`.
pub fn input(seed: u64, docs: usize) -> Corpus {
    lesm_bench::datasets::replay_corpus(docs, seed)
}

/// One `mine` + v2 encode. Returns the artifact, the total seconds and
/// the seconds of `mine` alone.
fn mine_snapshot(
    corpus: &Corpus,
    config: &MinerConfig,
    tracer: Option<&Tracer>,
) -> Result<(Vec<u8>, f64, f64), String> {
    let (out, total) = timed(tracer, "bench.mine_snapshot", None, |root| {
        let (mined, mine_s) = timed(tracer, "core.mine", root, |_| {
            LatentStructureMiner::mine(corpus, config)
        });
        let mined = mined.map_err(|e| e.to_string())?;
        let (bytes, _) = timed(tracer, "serve.encode", root, |_| {
            lesm_serve::save_snapshot_v2(corpus, &mined)
        });
        Ok::<_, String>((bytes.map_err(|e| e.to_string())?, mine_s))
    });
    let (bytes, mine_s) = out?;
    Ok((bytes, total, mine_s))
}

/// Checks an artifact hash against the pinned one and the run's first.
fn check_hash(report: &mut Report, seed: u64, hash: u64, first: &mut Option<u64>) {
    report.attempted += 1;
    let pinned = PINNED.iter().find(|(s, _)| *s == seed).map(|&(_, h)| h);
    let ok = pinned.is_none_or(|p| p == hash) && first.is_none_or(|f| f == hash);
    if !ok {
        report.failed += 1;
        report.errors.push(format!(
            "artifact hash {hash:016x} differs (pinned {pinned:x?}, first of run {first:x?})"
        ));
    }
    first.get_or_insert(hash);
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = miner_config();
    let mut setup = Vec::new();
    let mut corpus = Corpus::new();
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let cpu = process_cpu_s();
        corpus = input(args.seed, DOCS);
        setup.push(process_cpu_s() - cpu);
    }
    println!(
        "mine-50k: {} docs, seed {}, threads {}",
        corpus.num_docs(),
        args.seed,
        config.threads
    );
    let mut first = None;

    if !args.trace {
        let ticks = CpuTicks::now();
        let (mut cpus, mut size) = (Vec::new(), 0usize);
        let mut peak_rss = 0.0;
        for _ in 0..REPS {
            let cpu = process_cpu_s();
            match mine_snapshot(&corpus, &config, None) {
                Ok((bytes, total, mine_s)) => {
                    let cpu = process_cpu_s() - cpu;
                    println!(
                        "  mine {mine_s:.3} s + encode = {total:.3} s wall, {cpu:.2} s cpu, {} bytes",
                        bytes.len()
                    );
                    check_hash(&mut report, args.seed, fnv1a64(&bytes), &mut first);
                    cpus.push(cpu);
                    size = bytes.len();
                    if peak_rss == 0.0 {
                        peak_rss = peak_rss_mb();
                    }
                }
                Err(e) => {
                    report.attempted += 1;
                    report.failed += 1;
                    report.errors.push(e);
                    break;
                }
            }
        }
        println!("  artifact fnv1a64 {:016x}", first.unwrap_or(0));
        println!(
            "  cpu steal {:.1}% during the window",
            100.0 * CpuTicks::now().steal_since(&ticks)
        );
        report.push("setup_s", median(&setup), "s");
        report.push("work_cpu_s", median(&cpus), "s");
        report.push("artifact_mb", size as f64 / 1e6, "MB");
        report.push("peak_rss_mb", peak_rss, "MB");
        return report;
    }

    let tracer = Tracer::new();
    let mut layers = Layers::new();
    let (mut totals_t, mut mines_t, mut stage_s) = (Vec::new(), Vec::new(), Vec::new());
    let untraced = mine_snapshot(&corpus, &config, None);
    // Traced mines alternate with the direct stage calls, so that slow
    // spells of the host fall on both sides of the residual.
    for _ in 0..TRACED_PAIRS {
        match mine_snapshot(&corpus, &config, Some(&tracer)) {
            Ok((bytes, total, mine_s)) => {
                check_hash(&mut report, args.seed, fnv1a64(&bytes), &mut first);
                totals_t.push(total);
                mines_t.push(mine_s);
            }
            Err(e) => report.errors.push(e),
        }
        stage_s.push(stages(&corpus, &config, &tracer, &mut layers, &mut report));
    }
    match untraced {
        Ok((bytes, total_u, _)) => {
            check_hash(&mut report, args.seed, fnv1a64(&bytes), &mut first);
            layers.insert("trace.overhead", (median(&totals_t) - total_u) * 1e3);
            layers.insert("mine_s", total_u);
        }
        Err(e) => report.errors.push(e),
    }
    layers.insert("serve.encode_s", median(&tracer.durations("serve.encode")));

    let stage = |i: usize| median(&stage_s.iter().map(|s: &[f64; 4]| s[i]).collect::<Vec<_>>());
    let (collapse_s, construct_s, phrases_s, segment_s) = (stage(0), stage(1), stage(2), stage(3));
    let mine_t = median(&mines_t);
    let derive_s = mine_t - collapse_s - construct_s - phrases_s - segment_s;
    layers.insert("net.collapse_s", collapse_s);
    layers.insert("hier.construct_s", construct_s);
    layers.insert("phrases.mine_s", phrases_s);
    layers.insert("phrases.segment_s", segment_s);
    layers.insert("core.derive_s", derive_s);
    println!(
        "  traced mine {mine_t:.3} s = net {collapse_s:.3} + hier {construct_s:.3} + phrases {phrases_s:.3} + segment {segment_s:.3} + derive (residual) {derive_s:.3}"
    );

    let mut cfg_1t = super::hier_config(&config);
    cfg_1t.em.threads = 1;
    let net = lesm_net::collapsed_network(&corpus);
    let (_, construct_1t_s) = timed(Some(&tracer), "par.construct_1thread", None, |_| {
        TopicHierarchy::construct(net, &cfg_1t)
    });
    layers.insert("par.speedup.hier", construct_1t_s / construct_s);
    super::finish_traced(&mut report, &tracer, layers, args);
    report
}

/// Repetitions of `mine` + encode with tracing off. The count is fixed:
/// the first repetition of a process costs more CPU time than the next
/// (fresh memory), and its peak RSS is that of a cold `lesm snapshot`,
/// while a later one's depends on how the first left the heap; a count
/// that followed the host's speed moved both metrics. Two take about the
/// 15 s window on a quiet 2-vCPU host, and their hashes must agree.
const REPS: usize = 2;

/// Traced mines and direct stage calls in the traced run.
const TRACED_PAIRS: usize = 2;

/// Calls the four mining stages directly, with the settings `mine` uses,
/// and returns their seconds: collapse, construct, phrase mining,
/// segmentation. Records the stage counts in `layers`.
fn stages(
    corpus: &Corpus,
    config: &MinerConfig,
    tracer: &Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> [f64; 4] {
    let hier_cfg = super::hier_config(config);
    let (net, collapse_s) = timed(Some(tracer), "net.collapse", None, |_| {
        lesm_net::collapsed_network(corpus)
    });
    layers.insert("net.links", net.num_links() as f64);
    let (hier, construct_s) = timed(Some(tracer), "hier.construct", None, |_| {
        TopicHierarchy::construct(net, &hier_cfg)
    });
    match hier {
        Ok(h) => {
            let fits: Vec<_> = h.fits.iter().flatten().collect();
            layers.insert("hier.topics", h.len() as f64);
            layers.insert("hier.fits", fits.len() as f64);
            layers.insert(
                "hier.em_iters",
                fits.iter().map(|f| f.objective_trace.len()).sum::<usize>() as f64,
            );
        }
        Err(e) => report.errors.push(format!("construct: {e}")),
    }
    let docs: Vec<Vec<u32>> = corpus.docs.iter().map(|d| d.tokens.clone()).collect();
    let (phrases, phrases_s) = timed(Some(tracer), "phrases.mine", None, |_| {
        FrequentPhrases::mine_threads(
            &docs,
            config.phrase_min_support,
            config.phrase_max_len,
            config.threads,
        )
    });
    layers.insert("phrases.count", phrases.len() as f64);
    let (_, segment_s) = timed(Some(tracer), "phrases.segment", None, |_| {
        Segmenter::segment_threads(
            &docs,
            &phrases,
            &SegmenterConfig {
                alpha: config.seg_alpha,
            },
            config.threads,
        )
    });
    [collapse_s, construct_s, phrases_s, segment_s]
}
