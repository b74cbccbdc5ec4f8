//! The gate itself: the workspace must satisfy the contract it ships.
//!
//! This test runs the full auditor over the real source tree, so any new
//! violation (or malformed pragma) fails `cargo test` — the same signal
//! `scripts/verify.sh` enforces via the `lesm-lint` binary.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.join("../..").canonicalize().expect("workspace root exists")
}

#[test]
fn workspace_has_zero_violations() {
    let root = workspace_root();
    assert!(root.join("Cargo.toml").exists(), "resolved a non-root dir: {}", root.display());
    let violations = lesm_lint::lint_workspace(&root).expect("workspace walk succeeds");
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(
        violations.is_empty(),
        "lesm-lint found {} violation(s):\n{}",
        violations.len(),
        rendered.join("\n")
    );
}

#[test]
fn workspace_walk_covers_the_library_crates() {
    // Guard against the walker silently skipping everything (in which case
    // the zero-violations test above would pass vacuously).
    let root = workspace_root();
    for rel in [
        "crates/core/src/lib.rs",
        "crates/serve/src/v2.rs",
        "crates/relations/src/preprocess.rs",
    ] {
        assert!(root.join(rel).exists(), "expected governed file missing: {rel}");
        assert!(
            lesm_lint::classify(rel).is_some(),
            "governed file not classified for linting: {rel}"
        );
    }
    // Test and vendor trees stay out of scope.
    assert!(lesm_lint::classify("crates/cli/tests/cli_pipeline.rs").is_none());
    assert!(lesm_lint::classify("vendor/proptest/src/lib.rs").is_none());
    assert!(lesm_lint::classify("target/debug/build/foo.rs").is_none());
}
