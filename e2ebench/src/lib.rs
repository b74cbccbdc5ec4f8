//! End-to-end benchmark for lesm. See `e2ebench/README.md` for the
//! workloads, the metrics and which layer moves which metric.
//!
//! Every workload drives the product from outside, through the public
//! functions of the lesm crates and over HTTP to servers started in this
//! process. A run with tracing off reports the end-to-end metrics; a run
//! with tracing on repeats the timed window with spans recorded around
//! each layer call and reports the per-layer metrics.

pub mod client;
pub mod loadgen;
pub mod mix;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};

/// Latency limit on p99, in milliseconds: room for queueing behind the
/// slowest uncached programs of the mix (~30 ms on a 2-vCPU host).
pub const LIMIT_MS: f64 = 50.0;
/// The fixed offered rates of the read ladder, requests per second.
pub const LO_RPS: f64 = 200.0;
pub const HI_RPS: f64 = 400.0;
/// Times the set-up is repeated per run. `setup_s` is the median of the
/// set-ups' process CPU time: on a shared host their wall time doubled
/// when the hypervisor stole a quarter of the CPU, their CPU time did not.
pub const SETUP_REPS: usize = 5;
/// The same for the serving workloads, whose set-up mines or builds a
/// model and costs up to several seconds.
pub const SERVER_SETUP_REPS: usize = 3;

/// Most requests the open-loop generator keeps in flight. Above the
/// front's four workers, so a slow request queues at the server, not in
/// the generator.
pub fn max_in_flight() -> usize {
    4 * nproc()
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 3] = ["mine-50k", "read-sharded", "update-under-load"];

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// Worker threads for mining: every core, as `threads = nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU counters from `/proc/stat`: ticks the hypervisor gave to
/// other guests while this machine's CPUs wanted to run (steal), and all
/// ticks. Their ratio shows interference from outside the process.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub steal: u64,
    pub total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of ticks stolen since `earlier`.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// CPU time this process has used, user plus system, all threads (also
/// those that have ended), in seconds. The kernel does not charge stolen
/// time to the process.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used, user plus system, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

// The CPU-time clocks of `clock_gettime(2)`, read at nanosecond
// resolution: `/proc/self/stat` counts in 10 ms ticks, a tenth of the
// smallest set-up measured (~0.1 s).
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

fn cpu_clock_s(clock: std::ffi::c_int) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec`, and
    // `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 / 1e9
}

/// Scratch directory for artifacts, shards and stores, under the working
/// directory; removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> std::io::Result<RunDir> {
        let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where runs leave their span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".e2ebench-out")
}

/// Every end-to-end metric, with its unit. A run with tracing off prints
/// every one; a run missing one is not correct. `BENCHMARK.json` lists
/// the same, in the same order (checked by `tests/metric_lists.rs`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_cpu_s", "s"),
    ("artifact_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in report order, with its unit. A traced run
/// prints every one, 0 for a layer its workload does not exercise.
/// `BENCHMARK.json` lists the same, in the same order.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("net.collapse_s", "s"),
    ("net.links", "count"),
    ("net.delta_collapse_s", "s"),
    ("hier.construct_s", "s"),
    ("hier.topics", "count"),
    ("hier.fits", "count"),
    ("hier.em_iters", "count"),
    ("hier.update_s", "s"),
    ("hier.update_iters", "count"),
    ("par.speedup.hier", "x"),
    ("phrases.mine_s", "s"),
    ("phrases.count", "count"),
    ("phrases.segment_s", "s"),
    ("core.derive_s", "s"),
    ("core.update_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.map_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.warmup_cpu_s", "s"),
    ("serve.exec.search_us.p50", "us"),
    ("serve.exec.search_us.p99", "us"),
    ("serve.exec.topic_us.p50", "us"),
    ("serve.exec.hierarchy_us.p50", "us"),
    ("shard.leg_us.p50", "us"),
    ("shard.leg_us.p99", "us"),
    ("front.merge_us.p50", "us"),
    ("query.run.filter_us", "us"),
    ("query.run.traverse_us", "us"),
    ("query.run.path_us", "us"),
    ("query.run.rank_us", "us"),
    ("query.parts_s", "s"),
    ("query.index_build_s", "s"),
    ("query.first_after_swap_ms", "ms"),
    ("client.connect_us.p50", "us"),
    ("client.connect_us.p99", "us"),
    ("client.ttfb_us.p50", "us"),
    ("client.ttfb_us.p99", "us"),
    ("client.read_us.p50", "us"),
    ("loadgen.late_us.p99", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.samples", "count"),
    ("loadgen.max_rps", "1/s"),
    ("capacity_rps", "1/s"),
    ("cpu_us_per_req", "us"),
    ("mine_s", "s"),
    ("update_s", "s"),
    ("update_cpu_s", "s"),
    ("p50_ms.lo", "ms"),
    ("p99_ms.lo", "ms"),
    ("p50_ms.hi", "ms"),
    ("p99_ms.hi", "ms"),
    ("visible_ms", "ms"),
    ("trace.overhead", "ms"),
];
