//! Bit pins for the E-step kernel and the restart schedule.
//!
//! The fixture network is shaped to reach every branch of the E-step's
//! per-edge loop: self-loops in both blocks, a first endpoint whose edge
//! run continues from one type-pair block into the next, runs long enough
//! to cross the fixed edge-chunk boundaries, and an appended delta tail
//! whose first endpoints revisit earlier nodes out of order. The pinned
//! hashes were recorded from the kernel that stored every numerator row
//! once per edge, so any change to the order of the adds moves a hash.

use lesm_hier::em::{CathyHinEm, EdgeState, EmConfig, EmFit, WeightMode};
use lesm_net::{LinkBlock, TypedNetwork};
use std::collections::BTreeMap;

const AUTHORS: usize = 6;
const TERMS: usize = 40;

/// A deterministic, mostly non-integer link weight.
fn weight(i: u32, j: u32) -> f64 {
    1.0 + f64::from((i * 7 + j * 13) % 11) * 0.37
}

/// Builds a block from `(i, j)` pairs, sorted and deduplicated.
fn block(tx: usize, ty: usize, pairs: impl IntoIterator<Item = (u32, u32)>) -> LinkBlock {
    let edges: BTreeMap<(u32, u32), f64> =
        pairs.into_iter().map(|(i, j)| ((i, j), weight(i, j))).collect();
    LinkBlock { tx, ty, edges: edges.into_iter().map(|((i, j), w)| (i, j, w)).collect() }
}

/// Author–author edges end on author 3's self-loop, and author 3 also
/// opens the author–term block, so its run spans the block boundary.
/// Authors 3–5 and term 7 own runs of 13–20 edges, longer than one edge
/// chunk (the fixture has 161 edges, reduced in chunks of 11).
fn fixture() -> TypedNetwork {
    let aa = block(0, 0, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 4), (2, 3), (3, 3)]);
    let at = block(
        0,
        1,
        (0..13).map(|t| (3, t)).chain((10..25).map(|t| (4, t))).chain((20..40).map(|t| (5, t))),
    );
    let terms = TERMS as u32;
    let tt = block(
        1,
        1,
        (0..terms)
            .filter(|i| i % 3 == 0)
            .map(|i| (i, i))
            .chain((0..terms - 1).map(|i| (i, i + 1)))
            .chain((0..terms - 5).map(|i| (i, i + 5)))
            .chain((8..28).map(|j| (7, j))),
    );
    TypedNetwork {
        type_names: vec!["author".into(), "term".into()],
        node_counts: vec![AUTHORS, TERMS],
        blocks: vec![aa, at, tt],
    }
}

/// One new author (6) and four new terms (40–43). Its first endpoints
/// revisit base nodes, so the appended tail is not grouped by endpoint.
fn delta() -> TypedNetwork {
    TypedNetwork {
        type_names: vec!["author".into(), "term".into()],
        node_counts: vec![AUTHORS + 1, TERMS + 4],
        blocks: vec![
            block(0, 0, [(0, 6), (2, 6), (6, 6)]),
            block(0, 1, [(6, 40), (6, 41), (6, 42), (6, 43), (0, 41), (1, 3), (5, 2)]),
            block(1, 1, [(40, 41), (3, 42), (0, 43), (41, 41), (7, 40)]),
        ],
    }
}

fn appended() -> EdgeState {
    let mut state = EdgeState::new(&fixture());
    state.append_delta(&delta()).unwrap();
    state
}

fn fnv(h: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a 64 over the bits of the objective trace.
fn trace_hash(fit: &EmFit) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for v in &fit.objective_trace {
        fnv(&mut h, v.to_bits());
    }
    h
}

/// FNV-1a 64 over the bits of every numeric field of a fit.
fn fit_hash(fit: &EmFit) -> u64 {
    let mut h = trace_hash(fit);
    let scalars = [fit.objective, fit.loglik];
    let flat = fit.phi.iter().flatten().flatten().chain(fit.phi0.iter().flatten());
    for v in scalars.iter().chain(&fit.rho).chain(&fit.alpha).chain(&fit.theta).chain(flat) {
        fnv(&mut h, v.to_bits());
    }
    h
}

fn config(k: usize, mode: &str) -> EmConfig {
    EmConfig {
        k,
        iters: 25,
        restarts: 2,
        seed: 17,
        background: mode != "plain",
        learn_background: mode == "learned-bg",
        weights: WeightMode::Equal,
        threads: 1,
        ..EmConfig::default()
    }
}

/// Every (label, fit) the pins cover: k = 3 runs the generic kernel, 4, 5
/// and 8 the unrolled ones; each without background, with the pinned
/// background, and with a re-learned background (the φ0 numerators);
/// each on the base flatten and on the appended one. Then learned link
/// weights (warm-started rounds) and a warm update fit.
fn cases() -> Vec<(String, EmFit)> {
    let base = EdgeState::new(&fixture());
    let tail = appended();
    let mut out = Vec::new();
    for k in [3, 4, 5, 8] {
        for mode in ["plain", "bg", "learned-bg"] {
            for (name, state) in [("base", &base), ("tail", &tail)] {
                let fit = CathyHinEm::fit_prepared(state, &config(k, mode)).unwrap();
                out.push((format!("{name}/k{k}/{mode}"), fit));
            }
        }
    }
    let learned = EmConfig { weights: WeightMode::Learned, weight_rounds: 3, ..config(4, "bg") };
    out.push(("base/k4/learned-alpha".into(), CathyHinEm::fit_prepared(&base, &learned).unwrap()));
    let prev = CathyHinEm::fit_prepared(&base, &config(5, "bg")).unwrap();
    let warm = CathyHinEm::fit_warm(&tail, &EmConfig { iters: 15, ..config(5, "bg") }, &prev);
    out.push(("tail/k5/warm".into(), warm.unwrap()));
    out
}

/// `(case, objective_trace hash, whole-fit hash)`, recorded from the
/// kernel that loaded and stored both endpoint rows once per edge.
const PINNED: &[(&str, u64, u64)] = &[
    ("base/k3/plain", 0xc9efedcd30290c30, 0x0c2782b07270260d),
    ("tail/k3/plain", 0x5860f53225ef557c, 0xbaca0bab7f0fd12b),
    ("base/k3/bg", 0xc2132585e3a78f8d, 0x7e777d186f24babc),
    ("tail/k3/bg", 0x9720d7d9e76ff42d, 0xd5c11ec316f33036),
    ("base/k3/learned-bg", 0x48cde37d40207602, 0xa46d2e127a44ce39),
    ("tail/k3/learned-bg", 0x0992b57dce84d9e0, 0xb58ab2e4c4213409),
    ("base/k4/plain", 0xcaef51c8c1d293de, 0xab0a0da51f4ab908),
    ("tail/k4/plain", 0xfaca1d042286be53, 0x30f7bc35a31f590e),
    ("base/k4/bg", 0x96583a53fa2675f3, 0x463aa37a50d24253),
    ("tail/k4/bg", 0x5c4ba0e502904911, 0x7027db243658caf2),
    ("base/k4/learned-bg", 0x81da0a8a630f30ab, 0xd3d5ef2df5e39d33),
    ("tail/k4/learned-bg", 0xd5927b2a0c378f20, 0x214a9c1109308a6a),
    ("base/k5/plain", 0xa811c8fdf9bf9cb2, 0x601890f2ecb320b3),
    ("tail/k5/plain", 0x54a7db20fc950c17, 0x8b8bc49aa2b31195),
    ("base/k5/bg", 0xd61416862115e6e6, 0xdbd06b8381ddf838),
    ("tail/k5/bg", 0xb176407630d2bfa5, 0xbde886076c6f5c43),
    ("base/k5/learned-bg", 0x5ae2926be91e49db, 0x9a26be82899e2c67),
    ("tail/k5/learned-bg", 0x487690b13c45d087, 0x2723d5a462e1b847),
    ("base/k8/plain", 0x64beb1c29e76b947, 0x34b78bec121a3a13),
    ("tail/k8/plain", 0xde795480bbd30e19, 0xbe4ac2543c40e4fc),
    ("base/k8/bg", 0xa70f952d557cca5c, 0x4ff21a4f9a34c036),
    ("tail/k8/bg", 0xc8e404dc36602fee, 0x23589dde37943cf2),
    ("base/k8/learned-bg", 0xa84b794bf332707d, 0xf9799e999944871c),
    ("tail/k8/learned-bg", 0xe87052c0fb23e571, 0xf3028bb11a86f8d0),
    ("base/k4/learned-alpha", 0x5f4c77a6bb92d314, 0x107b102d3348ae13),
    ("tail/k5/warm", 0x9850112170ca111e, 0xdb66a31567e9f5a6),
];

#[test]
fn objective_traces_match_the_row_per_edge_kernel() {
    let cases = cases();
    assert_eq!(cases.len(), PINNED.len(), "case list changed");
    for ((label, fit), &(want_label, trace, whole)) in cases.iter().zip(PINNED) {
        assert_eq!(label, want_label);
        assert_eq!(trace_hash(fit), trace, "{label}: objective trace bits moved");
        assert_eq!(fit_hash(fit), whole, "{label}: fit bits moved");
    }
}

/// Restarts run as independent tasks and every restart's edge reduce gets
/// the leftover threads; neither split may move a bit. The dispatch
/// threshold is lowered so that even this small fixture runs parallel.
#[test]
fn restarts_and_threads_give_identical_fit_bits() {
    lesm_par::set_par_threshold(0);
    let base = EdgeState::new(&fixture());
    let tail = appended();
    for restarts in [1, 2, 3, 5] {
        for (state, mode) in [(&base, "bg"), (&tail, "learned-bg"), (&base, "plain")] {
            let fit_at = |threads: usize| {
                let cfg = EmConfig { restarts, threads, ..config(4, mode) };
                fit_hash(&CathyHinEm::fit_prepared(state, &cfg).unwrap())
            };
            let one = fit_at(1);
            for threads in [2, 4] {
                assert_eq!(fit_at(threads), one, "restarts {restarts}, threads {threads}, {mode}");
            }
        }
    }
}
