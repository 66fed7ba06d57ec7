#!/usr/bin/env bash
# The repo's pre-merge gate: formatting, lints (warnings are errors),
# static analysis, and the full test suite. Run from anywhere inside the
# repo. Suite definitions live in scripts/suites.sh so CI runs exactly
# the same commands. Nothing here touches a registry or moves Cargo.lock
# (every package is a path package). Set CHECK_TSAN=1 to also run the
# ThreadSanitizer suite (needs a nightly toolchain with rust-src).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --locked --offline --workspace --all-targets -- -D warnings
cargo test --locked --offline --workspace -q

scripts/suites.sh analysis release_smoke torture observability ingest serve maintenance compress bench_e2e

if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
    scripts/suites.sh tsan
fi
