//! Input determinism at smoke size: the same seed gives a byte-identical
//! mine input and request schedule; a different seed gives different ones.

use lesm_e2ebench::mix::Mix;
use lesm_e2ebench::workloads::mine;

const DOCS: usize = 300;

fn mine_input(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    lesm_corpus::io::write_tsv(&mine::input(seed, DOCS), &mut out).expect("write to memory");
    out
}

/// The request bytes in send order; the send times are the fixed spacing
/// of the offered rate, so the keys are the whole schedule.
fn schedule(seed: u64) -> Vec<u8> {
    let corpus = mine::input(seed, DOCS);
    let mix = Mix::new(&corpus, 9, seed);
    mix.sequence(seed, 1, 2000)
        .iter()
        .flat_map(|&k| mix.keys[k].raw.clone())
        .collect()
}

#[test]
fn same_seed_gives_identical_inputs() {
    assert_eq!(mine_input(7), mine_input(7));
    assert_eq!(schedule(7), schedule(7));
}

#[test]
fn different_seed_gives_different_inputs() {
    assert_ne!(mine_input(7), mine_input(8));
    assert_ne!(schedule(7), schedule(8));
}

#[test]
fn sequence_streams_are_independent() {
    let corpus = mine::input(7, DOCS);
    let mix = Mix::new(&corpus, 9, 7);
    let a = mix.sequence(7, 1, 1000);
    let b = mix.sequence(7, 2, 1000);
    // A stream must not be a shifted copy of its neighbour.
    assert!((0..8).all(|shift| a[shift..] != b[..1000 - shift]));
    assert_ne!(a, b);
}
