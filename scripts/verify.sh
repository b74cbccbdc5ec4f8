#!/usr/bin/env bash
# The full tier-1 gate, in dependency order: compile, lint (clippy and
# the workspace's own lesm-lint auditor, DESIGN.md §11), then tests, then
# the end-to-end benchmark's build and tests.
# Everything must pass for a change to land.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release)"
cargo build --release

echo "== clippy (--all-targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== lesm-lint (--workspace, all passes)"
cargo run --release -q -p lesm-lint -- --root "$PWD" --workspace --timing

echo "== tests"
cargo test -q

# The end-to-end benchmark is a package of its own (e2ebench/), outside
# the workspace, and calls the mining API directly: build and test it so
# an API change that breaks it fails here.
echo "== e2ebench (release build, tests)"
cargo build --release --offline --manifest-path e2ebench/Cargo.toml
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

echo "verify: all gates passed"
