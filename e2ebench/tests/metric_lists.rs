//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark reports, with the same units, in the same order.

use lesm_e2ebench::{END_TO_END, PER_LAYER};
use lesm_query::{parse_json, Json};

fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = parse_json(&text).expect("BENCHMARK.json parses");
    let field = |m: &Json, f: &str| {
        m.get(f)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} entry without {f}"))
            .to_string()
    };
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_benchmark_file() {
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
}

#[test]
fn per_layer_metrics_match_the_benchmark_file() {
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
}
