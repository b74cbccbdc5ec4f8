//! `read-sharded`: the read mix against a 4-shard deployment
//! (`Server::start_sharded`, `ShardBy::EntityRange`) of the model mined
//! from the 20k-document replay corpus: open loop at the ladder's two
//! fixed rates, then a closed loop. Set-up mines the model as `mine-50k`
//! does, at 20k documents, and splits it as `lesm shard` does. The window
//! has no mining and no swaps: it exercises the front fan-out, the shard
//! legs, connection set-up, the response caches and the query engine.

use super::{
    cache_counts, client_layers, exec_layers, latency, miner_config, print_step, step_passes,
    warm_up, Layers, WarmUp,
};
use crate::client::{self, Reply};
use crate::loadgen::{self, Sample};
use crate::mix::{Key, Kind, Mix};
use crate::oracle::{self, Oracle, Served};
use crate::report::Report;
use crate::stats::{median, percentile, sorted};
use crate::trace::{timed, Tracer};
use crate::{
    max_in_flight, nproc, peak_rss_mb, process_cpu_s, Args, CpuTicks, RunDir, HI_RPS, LO_RPS,
};
use lesm_core::LatentStructureMiner;
use lesm_query::fnv1a64;
use lesm_serve::server::{Server, ServerConfig, ServerHandle};
use lesm_serve::ShardBy;
use std::time::{Duration, Instant};

pub const DOCS: usize = 20_000;
pub const SHARDS: usize = 4;

struct Deployment {
    addr: std::net::SocketAddr,
    mix: Mix,
    /// Bytes of the shard artifacts written.
    shard_bytes: u64,
    /// The unsharded v2 artifact, for the oracle.
    artifact: std::path::PathBuf,
}

/// What one set-up's mine measured.
struct Mined {
    /// Process CPU time of `mine` + v2 encode.
    cpu_s: f64,
    /// Wall time of the v2 encode.
    encode_s: f64,
    /// FNV-1a 64 of the v2 artifact.
    hash: u64,
}

/// Input generation, mine + v2 encode (the `lesm snapshot` path), shard
/// writes (`lesm shard`) and boot. The unsharded artifact is written to
/// the run directory and the model dropped before the servers boot, so
/// the process holds only what serving needs; the oracle reads the
/// artifact back after the window.
fn set_up(
    args: &Args,
    dir: &std::path::Path,
    mines: &mut Vec<Mined>,
) -> Result<(ServerHandle, Deployment), String> {
    let shard_dir = dir.join("shards");
    let artifact = dir.join("model.lesm");
    let (mix, manifest) = {
        let corpus = super::mine::input(args.seed, DOCS);
        let cpu = process_cpu_s();
        let mined = LatentStructureMiner::mine(&corpus, &miner_config())
            .map_err(|e| format!("mine: {e}"))?;
        let (bytes, encode_s) = timed(None, "serve.encode", None, |_| {
            lesm_serve::save_snapshot_v2(&corpus, &mined)
        });
        let bytes = bytes.map_err(|e| format!("encode: {e}"))?;
        mines.push(Mined {
            cpu_s: process_cpu_s() - cpu,
            encode_s,
            hash: fnv1a64(&bytes),
        });
        std::fs::write(&artifact, bytes).map_err(|e| format!("write artifact: {e}"))?;
        let _ = std::fs::remove_dir_all(&shard_dir);
        let manifest =
            lesm_serve::write_shards(&corpus, &mined, ShardBy::EntityRange, SHARDS, &shard_dir)
                .map_err(|e| format!("write shards: {e}"))?;
        (
            Mix::new(&corpus, mined.hierarchy.len(), args.seed),
            manifest,
        )
    };
    let mut shard_bytes = 0;
    for file in &manifest.files {
        let meta = std::fs::metadata(shard_dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
        shard_bytes += meta.len();
    }
    let handle = Server::start_sharded(&shard_dir.join("manifest.json"), ServerConfig::default())
        .map_err(|e| format!("boot: {e}"))?;
    let addr = handle.addr();
    Ok((
        handle,
        Deployment {
            addr,
            mix,
            shard_bytes,
            artifact,
        },
    ))
}

/// The window is split into rounds; each round runs the two fixed-rate
/// steps and then a closed-loop segment. The closed-loop metrics are
/// medians over rounds, so a burst of interference from outside the
/// process moves one round, not the result.
pub const ROUNDS: usize = 3;

struct Window {
    /// Open-loop samples per ladder step, pooled over rounds.
    lo: Vec<Sample>,
    hi: Vec<Sample>,
    /// Closed-loop throughput of each round, requests per second.
    rps: Vec<f64>,
    /// Process CPU time per closed-loop request in each round, less the
    /// client threads' own, in us.
    cpu_us: Vec<f64>,
    /// Closed-loop (key, reply) pairs, for the oracle.
    closed: Vec<(usize, Option<Reply>)>,
}

/// Runs `ROUNDS` rounds over `args.seconds`. In a round, the lo and hi
/// steps send the same number of requests and take half the round; the
/// closed loop takes the other half.
fn window(d: &Deployment, args: &Args, tracer: Option<&Tracer>, stream: u64) -> Window {
    let origin = Instant::now();
    let round_s = args.seconds / ROUNDS as f64;
    let per_step = (round_s / 2.0 / (1.0 / LO_RPS + 1.0 / HI_RPS))
        .round()
        .max(1.0) as usize;
    let mut w = Window {
        lo: Vec::new(),
        hi: Vec::new(),
        rps: Vec::new(),
        cpu_us: Vec::new(),
        closed: Vec::new(),
    };
    for round in 0..ROUNDS as u64 {
        for (step, rate) in [LO_RPS, HI_RPS].into_iter().enumerate() {
            let sub = stream * 100 + round * 3 + step as u64;
            let seq = d.mix.sequence(args.seed, sub, per_step);
            let ticks = CpuTicks::now();
            let samples = loadgen::open_loop(
                d.addr,
                &d.mix.keys,
                &seq,
                rate,
                max_in_flight(),
                origin,
                Instant::now(),
                tracer,
                sub * 1_000_000,
            );
            print_step(if step == 0 { "lo" } else { "hi" }, rate, &samples);
            println!(
                "         cpu steal {:.1}%",
                100.0 * CpuTicks::now().steal_since(&ticks)
            );
            if step == 0 { &mut w.lo } else { &mut w.hi }.extend(samples);
        }
        let seq = d
            .mix
            .sequence(args.seed, stream * 100 + round * 3 + 2, 50_000);
        let ticks = CpuTicks::now();
        let cpu = process_cpu_s();
        let start = Instant::now();
        let closed = loadgen::closed_loop(
            d.addr,
            &d.mix.keys,
            &seq,
            max_in_flight(),
            Some(start + Duration::from_secs_f64(round_s / 2.0)),
        );
        let replies = closed.replies;
        let rps = replies.len() as f64 / start.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - cpu;
        let cpu_us = (cpu - closed.client_cpu_s) * 1e6 / replies.len().max(1) as f64;
        println!(
            "  closed loop, {} in flight: {rps:.1} rps, {cpu_us:.1} cpu-us/req ({} requests, clients {:.0}% of process cpu, cpu steal {:.1}%)",
            max_in_flight(),
            replies.len(),
            100.0 * closed.client_cpu_s / cpu.max(f64::MIN_POSITIVE),
            100.0 * CpuTicks::now().steal_since(&ticks)
        );
        w.cpu_us.push(cpu_us);
        w.rps.push(rps);
        w.closed.extend(seq.iter().copied().zip(replies));
    }
    super::print_kinds(&d.mix.keys, &w.lo);
    super::print_kinds(&d.mix.keys, &w.hi);
    w
}

/// What [`verify`] found and measured.
struct Checked {
    attempted: u64,
    failed: u64,
    times: oracle::ExecTimes,
    layers: Layers,
}

/// Checks every served body (warm-up and windows) against the offline
/// render of the unsharded artifact.
fn verify(
    d: &Deployment,
    warm: &WarmUp,
    windows: &[&Window],
    threads: usize,
    tracer: Option<&Tracer>,
) -> Result<Checked, String> {
    let mut layers = Layers::new();
    let bytes = std::fs::read(&d.artifact).map_err(|e| format!("read the artifact: {e}"))?;
    let mut replies: Vec<(usize, Option<Reply>)> = warm
        .seq
        .iter()
        .copied()
        .zip(warm.replies.iter().copied())
        .collect();
    for w in windows {
        replies.extend(w.lo.iter().chain(&w.hi).map(|s| (s.key, s.reply)));
        replies.extend(w.closed.iter().copied());
    }
    let mut served = Vec::new();
    let mut failed = 0u64;
    for &(key, reply) in &replies {
        match reply {
            Some(r) if r.status == 200 => served.push(Served {
                key,
                hash: r.body_hash,
                versions: 0..=0,
            }),
            _ => failed += 1,
        }
    }
    let load = |_| {
        let (oracle, map_s) = timed(tracer, "serve.map", None, |_| Oracle::from_artifact(&bytes));
        layers.insert("serve.map_s", map_s);
        oracle
    };
    let (mismatched, times) = oracle::check(1, load, &d.mix.keys, &served, threads)?;
    Ok(Checked {
        attempted: replies.len() as u64,
        failed: failed + mismatched as u64,
        times,
        layers,
    })
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let dir = match RunDir::new("read-sharded") {
        Ok(d) => d,
        Err(e) => {
            report.errors.push(format!("run dir: {e}"));
            return report;
        }
    };
    let mut mines = Vec::new();
    let (handle, d, setup) =
        match super::repeated_setup(args, || set_up(args, dir.path(), &mut mines)) {
            Ok(x) => x,
            Err(e) => {
                report.errors.push(e);
                return report;
            }
        };
    // Mining is byte-deterministic: every set-up mines the same artifact.
    let differ = mines.iter().filter(|m| m.hash != mines[0].hash).count();
    report.attempted += mines.len() as u64;
    report.failed += differ as u64;
    if differ > 0 {
        report
            .errors
            .push(format!("{differ} set-ups mined a different artifact"));
    }
    let mine_cpu_s = median(&mines.iter().map(|m| m.cpu_s).collect::<Vec<_>>());
    let warm = warm_up(handle.addr(), &d.mix, args.seed, handle.metrics());
    println!(
        "read-sharded: {DOCS} docs, {SHARDS} shards, seed {}, {} keys; setup {:.3} s cpu, mine + encode {mine_cpu_s:.3} s cpu; warm-up {} passes, {:.3} s cpu, hit ratio {:.3} ({:+.3} over the last pass)",
        args.seed,
        d.mix.keys.len(),
        median(&setup),
        super::WARM_PASSES,
        warm.cpu_s,
        warm.hit_ratio,
        warm.hit_ratio_change
    );

    let w = window(&d, args, None, 1);
    if !args.trace {
        // Peak memory of set-up and serving, before the oracle runs.
        let peak_rss = peak_rss_mb();
        handle.shutdown();
        match verify(&d, &warm, &[&w], nproc(), None) {
            Ok(c) => {
                report.attempted += c.attempted;
                report.failed += c.failed;
            }
            Err(e) => report.errors.push(e),
        }
        report.push("setup_s", median(&setup), "s");
        report.push("work_cpu_s", mine_cpu_s, "s");
        report.push("artifact_mb", d.shard_bytes as f64 / 1e6, "MB");
        report.push("peak_rss_mb", peak_rss, "MB");
        return report;
    }

    let mut layers = Layers::new();
    let (lo50, lo99) = latency(&w.lo);
    let (hi50, hi99) = latency(&w.hi);
    layers.insert("p50_ms.lo", lo50);
    layers.insert("p99_ms.lo", lo99);
    layers.insert("p50_ms.hi", hi50);
    layers.insert("p99_ms.hi", hi99);
    let ladder_max = [(LO_RPS, &w.lo), (HI_RPS, &w.hi)]
        .iter()
        .filter(|(_, s)| step_passes(s))
        .map(|(r, _)| *r)
        .fold(0.0, f64::max);
    layers.insert("loadgen.max_rps", ladder_max);
    layers.insert("capacity_rps", median(&w.rps));
    layers.insert("cpu_us_per_req", median(&w.cpu_us));
    layers.insert("serve.warmup_cpu_s", warm.cpu_s);

    let tracer = Tracer::new();
    let before = cache_counts(handle.metrics());
    let shed_before = handle.metrics().shed();
    let wt = window(&d, args, Some(&tracer), 2);
    let after = cache_counts(handle.metrics());
    let shed = handle.metrics().shed() - shed_before;
    layers.insert("serve.cache_hit_ratio", super::hit_ratio(before, after));
    layers.insert("serve.shed", shed as f64);
    let all: Vec<Sample> = wt.lo.iter().chain(&wt.hi).copied().collect();
    client_layers(&mut layers, &tracer, &all);
    layers.insert("trace.overhead", latency(&wt.lo).0 - lo50);
    shard_layers(&mut layers, &d, &handle.shard_addrs(), &tracer);

    let addrs: Vec<String> = handle.shard_addrs().iter().map(|a| a.to_string()).collect();
    let front = lesm_serve::Front::new(addrs, client::TIMEOUT).expect("shards exist");
    let (parts, parts_s) = timed(Some(&tracer), "query.parts", None, |_| front.fetch_parts());
    layers.insert("query.parts_s", parts_s);
    match parts {
        Ok(p) => {
            let (_, build_s) = timed(Some(&tracer), "query.index_build", None, |_| {
                lesm_query::QueryIndex::build(p)
            });
            layers.insert("query.index_build_s", build_s);
        }
        Err(r) => report
            .errors
            .push(format!("fetch_parts answered {}", r.status)),
    }
    handle.shutdown();

    layers.insert("serve.encode_s", mines.last().map_or(0.0, |m| m.encode_s));
    match verify(&d, &warm, &[&w, &wt], 1, Some(&tracer)) {
        Ok(c) => {
            report.attempted += c.attempted;
            report.failed += c.failed;
            layers.extend(c.layers);
            exec_layers(&mut layers, &c.times);
        }
        Err(e) => report.errors.push(e),
    }
    super::finish_traced(&mut report, &tracer, layers, args);
    report
}

/// Shard legs against the front: for a sample of search keys, each
/// shard's `/internal/search` is called directly and the front's
/// `/search` once, each under a probe parameter so every call misses the
/// response caches. `front.merge_us` is the front's latency minus the
/// slowest leg's.
fn shard_layers(
    layers: &mut Layers,
    d: &Deployment,
    addrs: &[std::net::SocketAddr],
    tracer: &Tracer,
) {
    let searches: Vec<&Key> = d
        .mix
        .keys
        .iter()
        .filter(|k| k.kind == Kind::Search)
        .take(200)
        .collect();
    let (mut legs, mut merges) = (Vec::new(), Vec::new());
    for (i, key) in searches.iter().enumerate() {
        let req = 9_000_000 + i as u64;
        let query = key.target.split_once('?').map_or("", |(_, q)| q);
        let leg_raw = format!("GET /internal/search?{query}&probe=leg HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
        let mut slowest = 0.0f64;
        for addr in addrs {
            let start = Instant::now();
            if client::send(*addr, leg_raw.as_bytes()).is_ok_and(|r| r.status == 200) {
                let end = Instant::now();
                tracer.record(tracer.open(), "shard.leg", None, Some(req), start, end);
                slowest = slowest.max(end.duration_since(start).as_secs_f64() * 1e6);
            }
        }
        legs.push(slowest);
        let front_raw = format!(
            "GET {}&probe=front HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
            key.target
        );
        let start = Instant::now();
        if client::send(d.addr, front_raw.as_bytes()).is_ok_and(|r| r.status == 200) {
            let end = Instant::now();
            tracer.record(tracer.open(), "front.request", None, Some(req), start, end);
            merges.push(end.duration_since(start).as_secs_f64() * 1e6 - slowest);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let legs = sorted(&legs);
    layers.insert("shard.leg_us.p50", percentile(&legs, 0.5));
    layers.insert("shard.leg_us.p99", percentile(&legs, 0.99));
    layers.insert("front.merge_us.p50", median(&merges));
}
