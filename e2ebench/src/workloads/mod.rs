//! The three workloads and the measurements they share.

pub mod mine;
pub mod read;
pub mod update;

use crate::loadgen::{self, Sample};
use crate::mix::{Key, Kind, Mix};
use crate::oracle::ExecTimes;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use crate::{nproc, Args, LIMIT_MS};
use lesm_serve::metrics::Endpoint;
use lesm_serve::server::ServerHandle;
use lesm_serve::Metrics;
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The mining configuration of the `lesm snapshot` library path: the
/// library default with depth 2, on every core.
pub fn miner_config() -> lesm_core::MinerConfig {
    let mut config = lesm_core::MinerConfig::default();
    config.hierarchy.max_depth = 2;
    config.threads = nproc();
    config
}

/// The hierarchy settings `mine` and `update` derive from `config`.
pub fn hier_config(config: &lesm_core::MinerConfig) -> lesm_hier::CathyConfig {
    let mut hier = config.hierarchy.clone();
    hier.em.threads = config.threads;
    hier.em.tol = config.em_tol;
    hier
}

/// Response-cache hits and misses of the query endpoints.
pub fn cache_counts(m: &Metrics) -> (u64, u64) {
    [
        Endpoint::Search,
        Endpoint::Topics,
        Endpoint::Hierarchy,
        Endpoint::Query,
    ]
    .iter()
    .fold((0, 0), |(h, s), &e| {
        (h + m.cache_hits(e), s + m.cache_misses(e))
    })
}

/// Sets a serving deployment up `SERVER_SETUP_REPS` times (once when
/// tracing), shutting each down before the next. Returns the last one and
/// every set-up's process CPU time (see `crate::SETUP_REPS`). The
/// deployment is warmed up afterwards, once (see [`warm_up`]).
pub fn repeated_setup<D>(
    args: &Args,
    mut set_up: impl FnMut() -> Result<(ServerHandle, D), String>,
) -> Result<(ServerHandle, D, Vec<f64>), String> {
    let reps = if args.trace {
        1
    } else {
        crate::SERVER_SETUP_REPS
    };
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<(ServerHandle, D)> = None;
    for _ in 0..reps {
        if let Some((old, _)) = last.take() {
            old.shutdown();
        }
        let cpu = crate::process_cpu_s();
        last = Some(set_up()?);
        times.push(crate::process_cpu_s() - cpu);
    }
    let (handle, d) = last.expect("SERVER_SETUP_REPS is at least 1");
    Ok((handle, d, times))
}

/// Hit ratio between two [`cache_counts`] readings.
pub fn hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let hits = (after.0 - before.0) as f64;
    let total = hits + (after.1 - before.1) as f64;
    if total > 0.0 {
        hits / total
    } else {
        0.0
    }
}

/// Requests per warm-up pass and the number of passes. The count is
/// fixed so that every set-up does the same work: over the first passes
/// the front's hit ratio climbed 0.60, 0.80, 0.86, 0.88, 0.91, 0.91 and
/// then moved by about 0.01 from pass to pass, and a pass's CPU time fell
/// from ~4.6 s to ~0.8 s by the sixth (read-sharded, 2-vCPU host).
const WARM_PASS: usize = 1000;
pub const WARM_PASSES: usize = 6;

/// Served replies of the warm-up, for the oracle.
pub struct WarmUp {
    pub seq: Vec<usize>,
    pub replies: Vec<Option<crate::client::Reply>>,
    /// Process CPU time of the warm-up, in seconds.
    pub cpu_s: f64,
    /// Response-cache hit ratio of the last pass, and its change from
    /// the pass before.
    pub hit_ratio: f64,
    pub hit_ratio_change: f64,
}

/// [`WARM_PASSES`] closed-loop passes over fresh draws from the mix. The
/// first `POST /query` builds the query index, so the index is built
/// once warm-up ends.
///
/// Its CPU time is reported per layer (`serve.warmup_cpu_s`), not in
/// `setup_s`: it is mostly serving short requests over loopback, whose
/// CPU time depends on the host's load far more than that of model
/// builds and mining does (see "Why these" in the README).
pub fn warm_up(addr: SocketAddr, mix: &Mix, seed: u64, metrics: &Metrics) -> WarmUp {
    let cpu = crate::process_cpu_s();
    let mut out = WarmUp {
        seq: Vec::new(),
        replies: Vec::new(),
        cpu_s: 0.0,
        hit_ratio: 0.0,
        hit_ratio_change: f64::NAN,
    };
    for pass in 0..WARM_PASSES {
        let seq = mix.sequence(seed, 10 + pass as u64, WARM_PASS);
        let before = cache_counts(metrics);
        let replies = loadgen::closed_loop(addr, &mix.keys, &seq, crate::max_in_flight(), None);
        let r = hit_ratio(before, cache_counts(metrics));
        out.seq.extend(seq);
        out.replies.extend(replies.replies);
        out.hit_ratio_change = r - out.hit_ratio;
        out.hit_ratio = r;
    }
    out.cpu_s = crate::process_cpu_s() - cpu;
    out
}

/// p50 and p99 of request latency from the scheduled send, in ms.
pub fn latency(samples: &[Sample]) -> (f64, f64) {
    let s = sorted(&samples.iter().map(Sample::latency_ms).collect::<Vec<_>>());
    (percentile(&s, 0.5), percentile(&s, 0.99))
}

/// Whether a ladder step meets the limit: p99 within it, no failures,
/// and no backlog left at the end (the last request started within the
/// limit of its scheduled time).
pub fn step_passes(samples: &[Sample]) -> bool {
    let (_, p99) = latency(samples);
    let backlog_ms = samples
        .last()
        .map_or(0.0, |s| s.start_ns.saturating_sub(s.sched_ns) as f64 / 1e6);
    p99 <= LIMIT_MS && samples.iter().all(Sample::ok) && backlog_ms <= LIMIT_MS
}

/// Client-side phase percentiles and generator health, from the traced
/// window's spans and samples.
pub fn client_layers(layers: &mut Layers, tracer: &Tracer, samples: &[Sample]) {
    let us = |name: &str| {
        sorted(
            &tracer
                .durations(name)
                .iter()
                .map(|s| s * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let connect = us("client.connect");
    let ttfb = us("client.ttfb");
    let read = us("client.read");
    layers.insert("client.connect_us.p50", percentile(&connect, 0.5));
    layers.insert("client.connect_us.p99", percentile(&connect, 0.99));
    layers.insert("client.ttfb_us.p50", percentile(&ttfb, 0.5));
    layers.insert("client.ttfb_us.p99", percentile(&ttfb, 0.99));
    layers.insert("client.read_us.p50", percentile(&read, 0.5));
    let late = sorted(
        &samples
            .iter()
            .map(|s| s.release_late_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    layers.insert("loadgen.late_us.p99", percentile(&late, 0.99));
    layers.insert("loadgen.sent", samples.len() as f64);
    layers.insert(
        "loadgen.failed",
        samples.iter().filter(|s| !s.ok()).count() as f64,
    );
    layers.insert("loadgen.samples", samples.len() as f64);
}

/// Offline render times of the served keys, per class.
pub fn exec_layers(layers: &mut Layers, times: &ExecTimes) {
    let at = |kind: Kind, p: f64| times.get(&kind).map_or(0.0, |v| percentile(&sorted(v), p));
    layers.insert("serve.exec.search_us.p50", at(Kind::Search, 0.5));
    layers.insert("serve.exec.search_us.p99", at(Kind::Search, 0.99));
    layers.insert("serve.exec.topic_us.p50", at(Kind::Topic, 0.5));
    layers.insert("serve.exec.hierarchy_us.p50", at(Kind::Hierarchy, 0.5));
    layers.insert("query.run.filter_us", at(Kind::Filter, 0.5));
    layers.insert("query.run.traverse_us", at(Kind::Traverse, 0.5));
    layers.insert("query.run.path_us", at(Kind::Path, 0.5));
    layers.insert("query.run.rank_us", at(Kind::Rank, 0.5));
}

/// Prints a latency line with its sample count.
pub fn print_step(label: &str, rate: f64, samples: &[Sample]) {
    let (p50, p99) = latency(samples);
    let failed = samples.iter().filter(|s| !s.ok()).count();
    println!(
        "  {label:<4} {rate:>5.0} rps: p50 {p50:.3} ms  p99 {p99:.3} ms  ({} samples, {failed} failed, passes limit: {})",
        samples.len(),
        step_passes(samples)
    );
}

/// Prints p50/p99 per request class of a window.
pub fn print_kinds(keys: &[Key], samples: &[Sample]) {
    let mut by: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by.entry(keys[s.key].kind).or_default().push(s.latency_ms());
    }
    for (kind, v) in by {
        let v = sorted(&v);
        println!(
            "       {kind:?}: p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms  ({} samples)",
            percentile(&v, 0.5),
            percentile(&v, 0.99),
            percentile(&v, 1.0),
            v.len()
        );
    }
}

/// Shared entry: runs the workload named in `args`. A metric missing
/// from the list the run reports from ([`crate::END_TO_END`] or
/// [`crate::PER_LAYER`]), or a listed one the run does not report, is an
/// error.
pub fn run(args: &Args) -> crate::report::Report {
    let mut report = match args.workload.as_str() {
        "mine-50k" => mine::run(args),
        "read-sharded" => read::run(args),
        _ => update::run(args),
    };
    let listed: &[(&str, &str)] = if args.trace {
        &crate::PER_LAYER
    } else {
        &crate::END_TO_END
    };
    let unlisted: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !listed.contains(&(m.name.as_str(), m.unit)))
        .map(|m| format!("metric {} ({}) is not listed", m.name, m.unit))
        .collect();
    report.errors.extend(unlisted);
    let missing: Vec<String> = listed
        .iter()
        .filter(|(name, _)| !report.metrics.iter().any(|m| m.name == *name))
        .map(|(name, _)| format!("metric {name} is not reported"))
        .collect();
    report.errors.extend(missing);
    let order = |name: &str| listed.iter().position(|(n, _)| *n == name);
    report.metrics.sort_by_key(|m| order(&m.name));
    report
}

/// Ends a traced run: writes the span file, prints self time per layer,
/// and reports every per-layer metric in [`crate::PER_LAYER`] order: the
/// value this workload measured, or 0 for a layer it does not exercise
/// (no span of it ran).
pub fn finish_traced(
    report: &mut crate::report::Report,
    tracer: &Tracer,
    layers: Layers,
    args: &Args,
) {
    let dir = crate::out_dir();
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| tracer.write_jsonl(&path)) {
        Ok(()) => println!(
            "  spans: {} ({} spans)",
            path.display(),
            tracer.spans().len()
        ),
        Err(e) => report.errors.push(format!("writing spans: {e}")),
    }
    println!("  self time per layer:");
    for (layer, secs) in tracer.self_time_by_layer() {
        println!("    {layer:<8} {secs:>10.4} s");
    }
    for (name, unit) in crate::PER_LAYER {
        report.push(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
    for name in layers.keys() {
        if !crate::PER_LAYER.iter().any(|(listed, _)| listed == name) {
            report
                .errors
                .push(format!("per-layer metric {name} is not in PER_LAYER"));
        }
    }
}
