//! Offline rendering of expected response bodies.
//!
//! Every served body is hashed during the run. After the timed window the
//! same keys are rendered offline from the same artifact bytes through
//! `lesm_serve::Model` and `lesm_query::run_query`, and the hashes are
//! compared. A sharded front must answer byte-identically to the
//! unsharded model, so one full artifact is the reference for every tier.

use crate::mix::{Key, Kind};
use lesm_query::{fnv1a64, run_query, QueryIndex};
use lesm_serve::{MappedSnapshot, Model};
use std::collections::HashMap;
use std::time::Instant;

pub struct Oracle {
    model: Model,
    index: QueryIndex,
    /// Entries the server renders per topic and per search page.
    top_n: usize,
}

impl Oracle {
    pub fn from_artifact(bytes: &[u8]) -> Result<Self, String> {
        let model = Model::Mapped(Box::new(
            MappedSnapshot::from_bytes(bytes).map_err(|e| e.to_string())?,
        ));
        let parts = model.query_parts()?;
        let index = QueryIndex::build(parts).map_err(|e| e.to_string())?;
        // The servers run with the default configuration; search keys ask
        // for the same page size (`top=10`).
        let top_n = lesm_serve::ServerConfig::default().top_n;
        Ok(Self {
            model,
            index,
            top_n,
        })
    }

    /// The body a server over this artifact answers `key` with, or `None`
    /// when the server would answer with an error status.
    pub fn body(&self, key: &Key) -> Option<Vec<u8>> {
        match key.kind {
            Kind::Search => {
                let mut body = String::new();
                for line in self.model.search_lines(&key.arg, self.top_n) {
                    body.push_str(&line);
                    body.push('\n');
                }
                Some(body.into_bytes())
            }
            Kind::Topic => {
                let t: usize = key.arg.parse().ok()?;
                self.model
                    .render_topic(t, self.top_n)
                    .map(|b| format!("{b}\n").into_bytes())
            }
            Kind::Hierarchy => Some(self.model.hierarchy_json(self.top_n).into_bytes()),
            _ => run_query(&self.index, key.body.as_deref()?)
                .ok()
                .map(String::into_bytes),
        }
    }
}

/// One served body to check: the key, the hash of what was served, and
/// the artifact versions that may have served it.
pub struct Served {
    pub key: usize,
    pub hash: u64,
    pub versions: std::ops::RangeInclusive<usize>,
}

/// Offline render times per key class, in microseconds.
pub type ExecTimes = HashMap<Kind, Vec<f64>>;

/// One offline render: key, body hash (`None` for an error status), key
/// class, render time in us.
type Render = (usize, Option<u64>, Kind, f64);

/// Counts served bodies that match no allowed version. Versions are
/// numbered `0..versions`; `load(v)` builds the oracle of version `v`,
/// which is dropped before the next is built, and only versions some
/// served body may come from are built. Expected hashes are computed once
/// per (version, key) on `threads` threads; render times are returned per
/// class (meaningful with `threads == 1`).
pub fn check(
    versions: usize,
    mut load: impl FnMut(usize) -> Result<Oracle, String>,
    keys: &[Key],
    served: &[Served],
    threads: usize,
) -> Result<(usize, ExecTimes), String> {
    let mut times: ExecTimes = HashMap::new();
    let mut expected: HashMap<(usize, usize), Option<u64>> = HashMap::new();
    for v in 0..versions {
        let mut needed: Vec<usize> = served
            .iter()
            .filter(|s| s.versions.contains(&v))
            .map(|s| s.key)
            .collect();
        needed.sort_unstable();
        needed.dedup();
        if needed.is_empty() {
            continue;
        }
        let oracle = load(v)?;
        let chunk = needed.len().div_ceil(threads.max(1)).max(1);
        let rendered: Vec<Render> = std::thread::scope(|scope| {
            let workers: Vec<_> = needed
                .chunks(chunk)
                .map(|part| {
                    let oracle = &oracle;
                    scope.spawn(move || {
                        part.iter()
                            .map(|&k| {
                                let start = Instant::now();
                                let body = oracle.body(&keys[k]);
                                let us = start.elapsed().as_secs_f64() * 1e6;
                                (k, body.map(|b| fnv1a64(&b)), keys[k].kind, us)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread panicked"))
                .collect()
        });
        for (k, hash, kind, us) in rendered {
            times.entry(kind).or_default().push(us);
            expected.insert((v, k), hash);
        }
    }
    let mismatches = served
        .iter()
        .filter(|s| {
            !s.versions
                .clone()
                .any(|v| expected.get(&(v, s.key)) == Some(&Some(s.hash)))
        })
        .count();
    Ok((mismatches, times))
}
