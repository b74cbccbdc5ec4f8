//! Open-loop load generation.
//!
//! One generator thread releases requests on a fixed schedule (`rate`
//! requests per second, evenly spaced) whether or not earlier ones have
//! finished; at most `conns` client threads have a request in flight.
//! A request released while every client is busy waits for one, so a
//! stall delays later requests, and latency is timed from each request's
//! scheduled send, not from when a client picked it up.

use crate::client::{self, Reply};
use crate::mix::Key;
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the mix keys.
    pub key: usize,
    /// Offsets from the run's origin, in nanoseconds.
    pub sched_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How late the generator released the request.
    pub release_late_ns: u64,
    /// `None` when the request failed below HTTP (connect, timeout, framing).
    pub reply: Option<Reply>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns.saturating_sub(self.sched_ns)) as f64 / 1e6
    }

    pub fn ok(&self) -> bool {
        self.reply.is_some_and(|r| r.status == 200)
    }
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Sends `seq` (indices into `keys`) to `addr` at `rate` requests per
/// second. The schedule starts at `begin`; offsets are reported from
/// `origin`. Request ids for tracing are `req_base + i`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    keys: &[Key],
    seq: &[usize],
    rate: f64,
    conns: usize,
    origin: Instant,
    begin: Instant,
    tracer: Option<&Tracer>,
    req_base: u64,
) -> Vec<Sample> {
    let (tx, rx) = channel::<(usize, Instant, u64)>();
    let rx = Arc::new(Mutex::new(rx));
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let next = rx.lock().expect("generator queue poisoned").recv();
                        let Ok((i, due, late)) = next else { break };
                        let start = Instant::now();
                        let reply = client::send(addr, &keys[seq[i]].raw).ok();
                        let end = Instant::now();
                        if let (Some(t), Some(r)) = (tracer, reply) {
                            record_request(t, req_base + i as u64, start, end, &r);
                        }
                        out.push(Sample {
                            key: seq[i],
                            sched_ns: ns_since(origin, due),
                            start_ns: ns_since(origin, start),
                            end_ns: ns_since(origin, end),
                            release_late_ns: late,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        for i in 0..seq.len() {
            let due = begin + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due).as_nanos() as u64;
            tx.send((i, due, late))
                .expect("client threads outlive the generator");
        }
        drop(tx);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.sched_ns);
    samples
}

/// Records one HTTP call as a `client.request` span with its three
/// phases as children, all sharing the request id.
fn record_request(t: &Tracer, req: u64, start: Instant, end: Instant, r: &Reply) {
    let id = t.open();
    let c_end = start + Duration::from_nanos(r.connect_ns);
    let f_end = c_end + Duration::from_nanos(r.ttfb_ns);
    t.record(
        t.open(),
        "client.connect",
        Some(id),
        Some(req),
        start,
        c_end,
    );
    t.record(t.open(), "client.ttfb", Some(id), Some(req), c_end, f_end);
    t.record(t.open(), "client.read", Some(id), Some(req), f_end, end);
    t.record(id, "client.request", None, Some(req), start, end);
}

/// One client's requests: (index into the sequence, reply).
type Sent = Vec<(usize, Option<Reply>)>;

/// What a closed loop sent, and what its client threads cost.
pub struct ClosedLoop {
    /// Replies of the requests sent, in sequence order (always a prefix
    /// of the sequence).
    pub replies: Vec<Option<Reply>>,
    /// CPU time of the client threads, in seconds: the benchmark's own
    /// share of the process CPU time spent meanwhile.
    pub client_cpu_s: f64,
}

/// Closed loop: `conns` clients send `seq` back to back, each taking the
/// next request when its previous one completes, until `seq` runs out or
/// `until` passes.
pub fn closed_loop(
    addr: SocketAddr,
    keys: &[Key],
    seq: &[usize],
    conns: usize,
    until: Option<Instant>,
) -> ClosedLoop {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_client: Vec<(Sent, f64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let cpu = crate::thread_cpu_s();
                    let mut mine = Vec::new();
                    while until.is_none_or(|t| Instant::now() < t) {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= seq.len() {
                            break;
                        }
                        mine.push((i, client::send(addr, &keys[seq[i]].raw).ok()));
                    }
                    (mine, crate::thread_cpu_s() - cpu)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let client_cpu_s = per_client.iter().map(|(_, cpu)| cpu).sum();
    let mut out: Sent = per_client.into_iter().flat_map(|(mine, _)| mine).collect();
    out.sort_by_key(|(i, _)| *i);
    ClosedLoop {
        replies: out.into_iter().map(|(_, r)| r).collect(),
        client_cpu_s,
    }
}
