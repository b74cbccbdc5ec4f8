#!/usr/bin/env bash
# The full tier-1 gate, in dependency order: compile, lint (clippy and
# the workspace's own lesm-lint auditor, DESIGN.md §11), then tests.
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

echo "verify: all gates passed"
