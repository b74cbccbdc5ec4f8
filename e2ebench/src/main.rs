//! `lesm-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

use lesm_e2ebench::{workloads, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: lesm-e2ebench --workload <mine-50k|read-sharded|update-under-load> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = workloads::run(&args);
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    println!("{}", report.to_json());
}
