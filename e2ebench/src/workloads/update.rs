//! `update-under-load`: reads beside writes. Set-up mines a 20k-document
//! base and serves it from a snapshot store with hot-swap
//! (`Server::start_store`). The window runs five chained +1% cycles
//! (`LatentStructureMiner::update`, `save_snapshot_v2`, `store::publish`)
//! while the read mix continues at the ladder's low rate. Every swap
//! clears the response cache and drops the query index, so misses and
//! index rebuilds show.

use super::{
    cache_counts, client_layers, exec_layers, latency, miner_config, print_step, warm_up, Layers,
    WarmUp,
};
use crate::client;
use crate::loadgen::{self, Sample};
use crate::mix::{Kind, Mix};
use crate::oracle::{self, Oracle, Served};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{timed, Tracer};
use crate::{max_in_flight, nproc, peak_rss_mb, process_cpu_s, Args, CpuTicks, RunDir, LO_RPS};
use lesm_core::{LatentStructureMiner, MinedStructure, UpdateBudget};
use lesm_corpus::Corpus;
use lesm_hier::TopicHierarchy;
use lesm_serve::server::{Server, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const BASE_DOCS: usize = 20_000;
pub const DELTA_DOCS: usize = BASE_DOCS / 100;
pub const CYCLES: usize = 5;
/// Longest wait for a published version to be served.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);

struct Deployment {
    addr: std::net::SocketAddr,
    store: PathBuf,
    mix: Mix,
    /// Corpus prefixes: `corpora[i]` holds the base plus `i + 1` deltas.
    corpora: Vec<Corpus>,
    base: MinedStructure,
    /// Store file name of the base version.
    base_version: String,
}

/// Set-up: input generation, the base mine, publish and boot. Pushes the
/// process CPU time of the base `mine` + v2 encode to `mine_cpu_s`.
fn set_up(
    args: &Args,
    dir: &std::path::Path,
    mine_cpu_s: &mut Vec<f64>,
) -> Result<(ServerHandle, Deployment), String> {
    let full = lesm_bench::datasets::replay_corpus(BASE_DOCS + CYCLES * DELTA_DOCS, args.seed);
    let prefix = |docs: usize| {
        let mut c = full.clone();
        c.docs.truncate(docs);
        c
    };
    let corpora: Vec<Corpus> = (1..=CYCLES)
        .map(|i| prefix(BASE_DOCS + i * DELTA_DOCS))
        .collect();
    let base_corpus = prefix(BASE_DOCS);
    let cpu = process_cpu_s();
    let base = LatentStructureMiner::mine(&base_corpus, &miner_config())
        .map_err(|e| format!("mine base: {e}"))?;
    let base_bytes = lesm_serve::save_snapshot_v2(&base_corpus, &base)
        .map_err(|e| format!("encode base: {e}"))?;
    mine_cpu_s.push(process_cpu_s() - cpu);
    let store = dir.join("store");
    let _ = std::fs::remove_dir_all(&store);
    let base_version = lesm_serve::store::publish(&store, &base_bytes)
        .map_err(|e| format!("publish base: {e}"))?;
    drop(base_bytes);
    let handle =
        Server::start_store(&store, ServerConfig::default()).map_err(|e| format!("boot: {e}"))?;
    let mix = Mix::new(&base_corpus, base.hierarchy.len(), args.seed);
    let addr = handle.addr();
    Ok((
        handle,
        Deployment {
            addr,
            store,
            mix,
            corpora,
            base,
            base_version,
        },
    ))
}

/// What one window measured.
struct Window {
    samples: Vec<Sample>,
    /// Store file names of the version served at the start, then one per
    /// publish. The store keeps every version, so the oracle reads them
    /// back after the window instead of the benchmark holding them.
    versions: Vec<String>,
    /// (start, end) offsets of each `store::publish`, ns.
    publishes: Vec<(u64, u64)>,
    cycle_s: Vec<f64>,
    /// Process CPU time of each cycle, including reads served meanwhile.
    cycle_cpu_s: Vec<f64>,
    visible_ms: Vec<f64>,
    /// Visibility probes: (start, end, body hash).
    probes: Vec<(u64, u64, u64)>,
    /// Base hierarchy of each cycle (traced runs only).
    chain: Vec<TopicHierarchy>,
    errors: Vec<String>,
}

fn probe(addr: std::net::SocketAddr, origin: Instant) -> Option<(u64, u64, u64)> {
    const HIERARCHY: &[u8] = b"GET /hierarchy HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let start = Instant::now();
    let r = client::send(addr, HIERARCHY)
        .ok()
        .filter(|r| r.status == 200)?;
    Some((ns(start), ns(Instant::now()), r.body_hash))
}

fn window(
    d: &Deployment,
    args: &Args,
    initial: String,
    tracer: Option<&Tracer>,
    stream: u64,
) -> Window {
    let config = miner_config();
    let budget = UpdateBudget::default();
    let addr = d.addr;
    let origin = Instant::now();
    let seq = d.mix.sequence(
        args.seed,
        stream,
        (LO_RPS * args.seconds).round().max(1.0) as usize,
    );
    let mut w = Window {
        samples: Vec::new(),
        versions: vec![initial],
        publishes: Vec::new(),
        cycle_s: Vec::new(),
        cycle_cpu_s: Vec::new(),
        visible_ms: Vec::new(),
        probes: Vec::new(),
        chain: Vec::new(),
        errors: Vec::new(),
    };
    std::thread::scope(|scope| {
        let load = scope.spawn(|| {
            loadgen::open_loop(
                addr,
                &d.mix.keys,
                &seq,
                LO_RPS,
                max_in_flight(),
                origin,
                origin,
                tracer,
                stream * 1_000_000,
            )
        });
        let mut last_hash = probe(addr, origin).map(|p| {
            w.probes.push(p);
            p.2
        });
        let mut owned: Option<MinedStructure> = None;
        let mut prev_docs = BASE_DOCS;
        for (i, corpus) in d.corpora.iter().enumerate() {
            let at =
                origin + Duration::from_secs_f64((i as f64 + 0.25) * args.seconds / CYCLES as f64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let prev = owned.as_ref().unwrap_or(&d.base);
            if tracer.is_some() {
                w.chain.push(prev.hierarchy.clone());
            }
            let start = Instant::now();
            let cpu = process_cpu_s();
            let ((updated, bytes), _) = timed(tracer, "bench.update_cycle", None, |root| {
                let (up, _) = timed(tracer, "core.update", root, |_| {
                    LatentStructureMiner::update(corpus, prev, prev_docs, &config, &budget)
                });
                let up = up.expect("update of an append-only prefix succeeds");
                let (bytes, _) = timed(tracer, "serve.encode", root, |_| {
                    lesm_serve::save_snapshot_v2(corpus, &up)
                });
                (up, bytes.expect("updated structure encodes"))
            });
            let pub_start = origin.elapsed().as_nanos() as u64;
            let (published, _) = timed(tracer, "serve.publish", None, |_| {
                lesm_serve::store::publish(&d.store, &bytes)
            });
            let pub_end = origin.elapsed().as_nanos() as u64;
            w.cycle_s.push(start.elapsed().as_secs_f64());
            w.cycle_cpu_s.push(process_cpu_s() - cpu);
            drop(bytes);
            match published {
                Ok(name) => w.versions.push(name),
                Err(e) => {
                    w.errors.push(format!("publish: {e}"));
                    break;
                }
            }
            w.publishes.push((pub_start, pub_end));
            // Probe until the served hierarchy changes to the new version.
            let mut seen = false;
            while Duration::from_nanos(origin.elapsed().as_nanos() as u64 - pub_end)
                < VISIBLE_TIMEOUT
            {
                if let Some(p) = probe(addr, origin) {
                    w.probes.push(p);
                    if Some(p.2) != last_hash {
                        w.visible_ms.push((p.1 - pub_end) as f64 / 1e6);
                        last_hash = Some(p.2);
                        seen = true;
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if !seen {
                w.errors.push(format!(
                    "version {} not served within {VISIBLE_TIMEOUT:?}",
                    i + 1
                ));
            }
            prev_docs = corpus.num_docs();
            owned = Some(updated);
        }
        w.samples = load.join().expect("load generator panicked");
    });
    w
}

/// Version range that may have served a request in `[start, end]`: a
/// request started after a publish returned may still meet the previous
/// version until the watcher swaps, and one still running when a publish
/// began may meet the new one.
fn versions_for(publishes: &[(u64, u64)], start: u64, end: u64) -> std::ops::RangeInclusive<usize> {
    let returned = publishes.iter().filter(|p| p.1 <= start).count();
    let begun = publishes.iter().filter(|p| p.0 <= end).count();
    returned.saturating_sub(1)..=begun
}

/// Checks warm-up replies, window samples and probes against the
/// offline renders of each version, read back from the store one version
/// at a time. Returns attempted, failed, render times.
fn verify(
    d: &Deployment,
    warm: &WarmUp,
    windows: &[&Window],
    threads: usize,
) -> Result<(u64, u64, oracle::ExecTimes), String> {
    let hierarchy_key = d
        .mix
        .keys
        .iter()
        .position(|k| k.kind == Kind::Hierarchy)
        .expect("mix has /hierarchy");
    // Every version served, in publish order. A window's versions are
    // consecutive in it, so a window's version range maps to a range here.
    let mut names: Vec<&str> = vec![d.base_version.as_str()];
    for w in windows {
        for name in &w.versions {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    let at = |name: &str| names.iter().position(|n| *n == name).expect("listed above");
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut served = Vec::new();
    for (&key, reply) in warm.seq.iter().zip(&warm.replies) {
        attempted += 1;
        match reply {
            Some(r) if r.status == 200 => served.push(Served {
                key,
                hash: r.body_hash,
                versions: 0..=0,
            }),
            _ => failed += 1,
        }
    }
    for w in windows {
        let global = |start: u64, end: u64| {
            let local = versions_for(&w.publishes, start, end);
            let name = |i: usize| w.versions[i].as_str();
            at(name(*local.start()))..=at(name(*local.end()))
        };
        for s in &w.samples {
            attempted += 1;
            match s.reply {
                Some(r) if r.status == 200 => served.push(Served {
                    key: s.key,
                    hash: r.body_hash,
                    versions: global(s.start_ns, s.end_ns),
                }),
                _ => failed += 1,
            }
        }
        for &(start, end, hash) in &w.probes {
            attempted += 1;
            served.push(Served {
                key: hierarchy_key,
                hash,
                versions: global(start, end),
            });
        }
    }
    let load = |v: usize| {
        let bytes =
            std::fs::read(d.store.join(names[v])).map_err(|e| format!("read {}: {e}", names[v]))?;
        Oracle::from_artifact(&bytes)
    };
    let (mismatched, times) = oracle::check(names.len(), load, &d.mix.keys, &served, threads)?;
    Ok((attempted, failed + mismatched as u64, times))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let dir = match RunDir::new("update-under-load") {
        Ok(d) => d,
        Err(e) => {
            report.errors.push(format!("run dir: {e}"));
            return report;
        }
    };
    let mut mine_cpu_s = Vec::new();
    let (handle, d, setup) =
        match super::repeated_setup(args, || set_up(args, dir.path(), &mut mine_cpu_s)) {
            Ok(x) => x,
            Err(e) => {
                report.errors.push(e);
                return report;
            }
        };
    let warm = warm_up(d.addr, &d.mix, args.seed, handle.metrics());
    println!(
        "update-under-load: {BASE_DOCS} base docs + {CYCLES} x {DELTA_DOCS}, seed {}; setup {:.3} s cpu, base mine + encode {:.3} s cpu; warm-up {} passes, {:.3} s cpu, hit ratio {:.3} ({:+.3} over the last pass)",
        args.seed,
        median(&setup),
        median(&mine_cpu_s),
        super::WARM_PASSES,
        warm.cpu_s,
        warm.hit_ratio,
        warm.hit_ratio_change
    );
    let ticks = CpuTicks::now();
    let w = window(&d, args, d.base_version.clone(), None, 1);
    print_window(&w);
    println!(
        "  cpu steal {:.1}% during the window",
        100.0 * CpuTicks::now().steal_since(&ticks)
    );
    if !args.trace {
        // Peak memory of set-up and the window, before the oracle runs.
        let peak_rss = peak_rss_mb();
        handle.shutdown();
        match verify(&d, &warm, &[&w], nproc()) {
            Ok((attempted, failed, _)) => {
                report.attempted = attempted;
                report.failed = failed;
            }
            Err(e) => report.errors.push(e),
        }
        report.errors.extend(w.errors.iter().cloned());
        report.push("setup_s", median(&setup), "s");
        report.push("work_cpu_s", median(&mine_cpu_s), "s");
        let last = w.versions.last().expect("the window starts with a version");
        let bytes = std::fs::metadata(d.store.join(last)).map_or_else(
            |e| {
                report.errors.push(format!("size of {last}: {e}"));
                0
            },
            |m| m.len(),
        );
        report.push("artifact_mb", bytes as f64 / 1e6, "MB");
        report.push("peak_rss_mb", peak_rss, "MB");
        return report;
    }

    let tracer = Tracer::new();
    let before = cache_counts(handle.metrics());
    let shed_before = handle.metrics().shed();
    let initial = w.versions.last().cloned().unwrap_or_default();
    let wt = window(&d, args, initial, Some(&tracer), 2);
    let after = cache_counts(handle.metrics());
    let shed = handle.metrics().shed() - shed_before;
    handle.shutdown();
    print_window(&wt);

    let mut layers = Layers::new();
    let (p50, p99) = latency(&w.samples);
    layers.insert("visible_ms", median(&w.visible_ms));
    layers.insert("update_s", median(&w.cycle_s));
    layers.insert("update_cpu_s", median(&w.cycle_cpu_s));
    layers.insert("p50_ms.lo", p50);
    layers.insert("p99_ms.lo", p99);
    layers.insert("serve.cache_hit_ratio", super::hit_ratio(before, after));
    layers.insert("serve.shed", shed as f64);
    layers.insert("serve.warmup_cpu_s", warm.cpu_s);
    client_layers(&mut layers, &tracer, &wt.samples);
    layers.insert(
        "trace.overhead",
        (median(&wt.cycle_s) - median(&w.cycle_s)) * 1e3,
    );
    layers.insert("core.update_s", median(&tracer.durations("core.update")));
    layers.insert("serve.encode_s", median(&tracer.durations("serve.encode")));
    layers.insert(
        "serve.publish_s",
        median(&tracer.durations("serve.publish")),
    );
    // First `/query` sent after each new version became visible.
    let mut first_query = Vec::new();
    for (&(_, pub_end), vis) in wt.publishes.iter().zip(&wt.visible_ms) {
        let shown = pub_end + (vis * 1e6) as u64;
        if let Some(s) = wt
            .samples
            .iter()
            .find(|s| s.start_ns >= shown && d.mix.keys[s.key].kind.is_query())
        {
            first_query.push(s.latency_ms());
        }
    }
    layers.insert("query.first_after_swap_ms", median(&first_query));

    // Replay the chain's stages directly, after the window.
    let hier_cfg = super::hier_config(&miner_config());
    let budget = UpdateBudget::default();
    let (mut delta_s, mut hier_s, mut iters) = (Vec::new(), Vec::new(), 0usize);
    let mut prev_docs = BASE_DOCS;
    for (corpus, base) in d.corpora.iter().zip(&wt.chain) {
        let (net, s) = timed(Some(&tracer), "net.delta_collapse", None, |_| {
            lesm_net::collapsed_network_from(corpus, prev_docs)
        });
        delta_s.push(s);
        let (h, s) = timed(Some(&tracer), "hier.update", None, |_| {
            TopicHierarchy::update(base, &net, &hier_cfg, &budget)
        });
        hier_s.push(s);
        match h {
            Ok(h) => {
                iters += h
                    .fits
                    .iter()
                    .flatten()
                    .map(|f| f.objective_trace.len())
                    .sum::<usize>()
            }
            Err(e) => report.errors.push(format!("hier update: {e}")),
        }
        prev_docs = corpus.num_docs();
    }
    layers.insert("net.delta_collapse_s", median(&delta_s));
    layers.insert("hier.update_s", median(&hier_s));
    layers.insert(
        "hier.update_iters",
        iters as f64 / wt.chain.len().max(1) as f64,
    );
    let read =
        |name: &String| std::fs::read(d.store.join(name)).expect("the store keeps every version");
    let mut map_s = Vec::new();
    for name in &wt.versions[1..] {
        let bytes = read(name);
        let (_, s) = timed(Some(&tracer), "serve.map", None, |_| {
            lesm_serve::MappedSnapshot::from_bytes(&bytes)
        });
        map_s.push(s);
    }
    layers.insert("serve.map_s", median(&map_s));
    if let Some(name) = wt.versions.last() {
        let model = lesm_serve::Model::Mapped(Box::new(
            lesm_serve::MappedSnapshot::from_bytes(&read(name)).expect("published artifact maps"),
        ));
        let (parts, s) = timed(Some(&tracer), "query.parts", None, |_| model.query_parts());
        layers.insert("query.parts_s", s);
        if let Ok(p) = parts {
            let (_, s) = timed(Some(&tracer), "query.index_build", None, |_| {
                lesm_query::QueryIndex::build(p)
            });
            layers.insert("query.index_build_s", s);
        }
    }

    match verify(&d, &warm, &[&w, &wt], 1) {
        Ok((attempted, failed, times)) => {
            report.attempted = attempted;
            report.failed = failed;
            exec_layers(&mut layers, &times);
        }
        Err(e) => report.errors.push(e),
    }
    report
        .errors
        .extend(w.errors.iter().chain(&wt.errors).cloned());
    super::finish_traced(&mut report, &tracer, layers, args);
    report
}

fn print_window(w: &Window) {
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  cycles (s wall): {}", fmt(&w.cycle_s));
    println!("  cycles (s cpu): {}", fmt(&w.cycle_cpu_s));
    println!("  visible (ms): {}", fmt(&w.visible_ms));
    print_step("lo", LO_RPS, &w.samples);
}
