//! The read mix: distinct request keys and seeded request sequences.
//!
//! Shares by request: 60% `GET /search`, 15% `GET /topics/{id}`, 5%
//! `GET /hierarchy`, 20% `POST /query` split evenly over the four program
//! families of the query engine (filter, 2-hop traverse, path
//! enumeration, rank). Within each class the key is drawn Zipf(1) over a
//! seeded permutation of the class pool. The pools hold ~1.8k distinct
//! keys, more than the server's 1024-entry response cache, so both the
//! hit path and the miss path run.

use lesm_core::export::json_string;
use lesm_corpus::{Corpus, EntityRef};

/// splitmix64: a small deterministic generator for inputs and schedules.
pub struct Rng(u64);

/// The splitmix64 output function: a bijective 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Both inputs are mixed, so nearby seeds or streams do not give
    /// shifted copies of one sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix64(mix64(seed) ^ mix64(stream ^ 0x5eed_5eed_5eed_5eed)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Search,
    Topic,
    Hierarchy,
    Filter,
    Traverse,
    Path,
    Rank,
}

impl Kind {
    pub fn is_query(self) -> bool {
        matches!(
            self,
            Kind::Filter | Kind::Traverse | Kind::Path | Kind::Rank
        )
    }
}

/// One distinct request.
#[derive(Debug, Clone)]
pub struct Key {
    pub kind: Kind,
    /// Decoded search text for search keys, the topic id for topic keys.
    pub arg: String,
    pub target: String,
    /// The program for `POST /query`.
    pub body: Option<String>,
    /// The request as sent on the wire.
    pub raw: Vec<u8>,
}

impl Key {
    fn get(kind: Kind, arg: String, target: String) -> Self {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
        Self {
            kind,
            arg,
            target,
            body: None,
            raw: raw.into_bytes(),
        }
    }

    fn query(kind: Kind, body: String) -> Self {
        let raw = format!(
            "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        Self {
            kind,
            arg: String::new(),
            target: "/query".into(),
            body: Some(body),
            raw: raw.into_bytes(),
        }
    }
}

/// Class shares of the mix, in percent.
const SHARES: [(Kind, u32); 7] = [
    (Kind::Search, 60),
    (Kind::Topic, 15),
    (Kind::Hierarchy, 5),
    (Kind::Filter, 5),
    (Kind::Traverse, 5),
    (Kind::Path, 5),
    (Kind::Rank, 5),
];

struct Pool {
    share: u32,
    /// Key indices in Zipf rank order.
    keys: Vec<usize>,
    /// Cumulative Zipf(1) weights over `keys`.
    cdf: Vec<f64>,
}

pub struct Mix {
    pub keys: Vec<Key>,
    pools: Vec<Pool>,
}

fn url_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

impl Mix {
    /// Builds the key pools for a corpus served with `n_topics` topics.
    pub fn new(corpus: &Corpus, n_topics: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut keys: Vec<Key> = Vec::new();
        let mut by_kind: Vec<(Kind, Vec<usize>)> = Vec::new();
        let mut add = |keys: &mut Vec<Key>, kind: Kind, key: Key| {
            keys.push(key);
            match by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, v)) => v.push(keys.len() - 1),
                None => by_kind.push((kind, vec![keys.len() - 1])),
            }
        };

        let vocab = corpus.vocab.len().max(1);
        for _ in 0..1024 {
            let words = 1 + rng.below(2);
            let text: Vec<&str> = (0..words)
                .map(|_| corpus.vocab.name_or_unk(rng.below(vocab) as u32))
                .collect();
            let text = text.join(" ");
            let target = format!("/search?q={}&top=10", url_encode(&text));
            add(
                &mut keys,
                Kind::Search,
                Key::get(Kind::Search, text, target),
            );
        }
        for t in 0..n_topics {
            add(
                &mut keys,
                Kind::Topic,
                Key::get(Kind::Topic, t.to_string(), format!("/topics/{t}")),
            );
        }
        add(
            &mut keys,
            Kind::Hierarchy,
            Key::get(Kind::Hierarchy, String::new(), "/hierarchy".into()),
        );

        let years: Vec<i32> = corpus.docs.iter().filter_map(|d| d.year).collect();
        let (y_min, y_max) = match (years.iter().min(), years.iter().max()) {
            (Some(&a), Some(&b)) => (a, b),
            _ => (2000, 2010),
        };
        for _ in 0..128 {
            let lo = y_min + rng.below((y_max - y_min + 1) as usize) as i32;
            let hi = (lo + rng.below(9) as i32).min(y_max);
            let page = [10, 20, 50, 100][rng.below(4)];
            let body = format!(
                r#"{{"steps":[{{"filter":{{"type":"doc","years":{{"min":{lo},"max":{hi}}}}}}}],"page":{page}}}"#
            );
            add(&mut keys, Kind::Filter, Key::query(Kind::Filter, body));
        }

        let author_type = (0..corpus.entities.num_types())
            .find(|&t| corpus.entities.type_name(t) == Some("author"))
            .unwrap_or(0);
        let type_name = json_string(corpus.entities.type_name(author_type).unwrap_or("author"));
        let n_authors = corpus.entities.count(author_type).max(1);
        let author = |rng: &mut Rng| {
            json_string(
                corpus
                    .entities
                    .name(EntityRef::new(author_type, rng.below(n_authors) as u32)),
            )
        };
        for _ in 0..256 {
            let a = author(&mut rng);
            let body = format!(
                r#"{{"steps":[{{"filter":{{"type":{type_name},"name":{a}}}}},{{"traverse":{{"edge":"coauthor"}}}},{{"traverse":{{"edge":"coauthor"}}}}],"page":100}}"#
            );
            add(&mut keys, Kind::Traverse, Key::query(Kind::Traverse, body));
        }
        for _ in 0..256 {
            let (a, b) = (author(&mut rng), author(&mut rng));
            let body = format!(
                r#"{{"steps":[{{"filter":{{"type":{type_name},"name":{a}}}}},{{"path":{{"to":{{"type":{type_name},"name":{b}}},"edges":["coauthor"],"max_depth":3,"mode":"paths","limit":100}}}}]}}"#
            );
            add(&mut keys, Kind::Path, Key::query(Kind::Path, body));
        }
        for t in 0..n_topics {
            for by in ["pop", "pur", "combined"] {
                let body = format!(
                    r#"{{"steps":[{{"filter":{{"type":{type_name}}}}},{{"rank":{{"by":"{by}","topic":{t},"limit":1000}}}}],"page":100}}"#
                );
                add(&mut keys, Kind::Rank, Key::query(Kind::Rank, body));
            }
        }

        let pools = SHARES
            .iter()
            .filter_map(|&(kind, share)| {
                let (_, mut idx) = by_kind.iter().find(|(k, _)| *k == kind)?.clone();
                // Seeded Fisher-Yates: which key is hot depends on the seed.
                for i in (1..idx.len()).rev() {
                    idx.swap(i, rng.below(i + 1));
                }
                let mut acc = 0.0;
                let cdf = (0..idx.len())
                    .map(|r| {
                        acc += 1.0 / (r + 1) as f64;
                        acc
                    })
                    .collect();
                Some(Pool {
                    share,
                    keys: idx,
                    cdf,
                })
            })
            .collect();
        Self { keys, pools }
    }

    /// `n` key indices drawn from the mix. Different `stream`s of one seed
    /// give independent sequences over the same keys.
    pub fn sequence(&self, seed: u64, stream: u64, n: usize) -> Vec<usize> {
        let mut rng = Rng::new(seed, 100 + stream);
        let total: u32 = self.pools.iter().map(|p| p.share).sum();
        (0..n)
            .map(|_| {
                let mut roll = rng.below(total as usize) as u32;
                let pool = self
                    .pools
                    .iter()
                    .find(|p| {
                        if roll < p.share {
                            true
                        } else {
                            roll -= p.share;
                            false
                        }
                    })
                    .expect("roll is below the share total");
                let target = rng.unit() * pool.cdf[pool.cdf.len() - 1];
                let rank = pool
                    .cdf
                    .partition_point(|&c| c < target)
                    .min(pool.keys.len() - 1);
                pool.keys[rank]
            })
            .collect()
    }
}
