#!/usr/bin/env bash
# Lint + smoke gate for the perf package. The root workspace jobs (fmt, clippy,
# test) do not see this package, so this script is its gate.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
# --release: the binary refuses to measure a debug build.
cargo test --offline --release
