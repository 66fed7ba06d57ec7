#!/usr/bin/env bash
# Canonical test-suite definitions, shared by scripts/check.sh and CI.
#
# Each suite is one shell function; the file doubles as a dispatcher:
#
#   scripts/suites.sh <suite> [<suite>...]
#
# Suites:
#   release_smoke  multi-thread smoke tests rerun in release, where
#                  aggressive reordering gives a data race a real chance,
#                  and the co-occurrence memo's retry after a failed list
#                  read
#   torture        fault-injection + crash-recovery sweeps (release —
#                  debug builds stride the sweeps for speed), the
#                  tree-file store against its BTreeMap model (syncs,
#                  reopens, byte-identical files for equal entries), the
#                  slice-by-16 crc32 against the byte-at-a-time loop at
#                  every length and offset, a point get's allocation
#                  bound (pages read + 1), and the read-only opens
#                  leaving a crashed store's files byte-identical
#   observability  obs invariants, differential oracles (SLCA — Scan
#                  Eager's partition-run join on cut views, its step
#                  bound, the typed meaningful verdict — DP against
#                  brute force and against the string-keyed recurrence it
#                  replaced, the refinement result sets, rule generation
#                  against the generator it replaced), Algorithm 2's
#                  allocation and SLCA-invocation budgets, rule
#                  generation's allocation gate (the same count at
#                  1 000 and 16 000 vocabulary words), tracer
#                  well-nestedness, metrics-overhead bench
#   ingest         streaming-vs-DOM ingest differential oracle (byte-
#                  identical stores) + scanner fuzz sweep
#   serve          server lifecycle tests (work-conserving queue,
#                  shedding, drain under load, a trickling client cut
#                  off by its read budget, SIGTERM, a corrupt stored
#                  list over HTTP)
#   maintenance    online-maintenance guarantees: differential oracle
#                  (incremental == from-scratch, by both builders), full
#                  stride-1 power-cut sweep of the updating store
#                  (release), readers not blocked by a commit in flight,
#                  racing updaters never rolling the published engine
#                  back (release), live updates over HTTP
#   compress       the store format (compressed postings): property/fuzz
#                  round-trips + corruption sweeps, the partition-run
#                  table every decoded list carries (same however the
#                  list is built), `Dewey` against its component-vector
#                  model across the inline/heap boundary, block decode's
#                  per-block allocation budget (no allocation per
#                  posting), and the stored-vs-build differential (every
#                  list a query reads equals the build's, and so does
#                  the answer over the build's lists)
#   bench_e2e      the BENCHMARK.json harness's own tests, built against
#                  the workspace crates: an API deletion in a measured
#                  crate that breaks the benchmark fails here, pre-merge
#   analysis       xlint over the live workspace + its golden fixtures,
#                  then the xcheck model checker (exhaustive bounded DFS
#                  over the distilled concurrency models + seeded bugs)
#                  and the property runner's self-tests
#   tsan           ThreadSanitizer over the thread-heavy suites
#                  (requires a nightly toolchain with rust-src)
#   miri           Miri over the interpreter-friendly concurrency and
#                  unsafe-bearing crates (requires nightly + miri)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Every package in Cargo.lock is a path package: there is no registry to
# reach and no reason for the lock file to move, so cargo gets neither.
xcargo() {
    local subcommand="$1"
    shift
    cargo "$subcommand" --locked --offline "$@"
}

suite_release_smoke() {
    xcargo test --release -q --test concurrent_engine
    xcargo test --release -q -p invindex --test cache_prop
    xcargo test --release -q -p invindex --test lock_rank
    xcargo test --release -q -p invindex --lib a_failed_list_read_is_not_memoised
}

suite_torture() {
    xcargo test --release -q -p kvstore --test torture
    xcargo test --release -q -p kvstore --test fault_injection
    xcargo test --release -q -p kvstore --test model
    xcargo test --release -q -p kvstore --test crc32
    xcargo test --release -q -p kvstore --test point_get
    xcargo test --release -q -p xrefine-cli read_only_open
    xcargo test --release -q --test storage_bitflips
}

suite_observability() {
    xcargo test -q -p obs
    xcargo test -q -p slca --test differential
    xcargo test --release -q -p slca --test run_join
    xcargo test --release -q -p slca --test eager_steps
    xcargo test --release -q -p slca --test meaningful_prop
    xcargo test -q -p xrefine --test dp_oracle
    xcargo test --release -q -p xrefine --test dp_reference
    xcargo test --release -q --test refinement_results_reference
    xcargo test --release -q -p lexicon --test rulegen_reference
    xcargo test --release -q -p lexicon --test rulegen_alloc
    xcargo test --release -q -p xrefine --test slca_invocations_budget
    xcargo test --release -q -p xrefine --test alloc_budget
    xcargo test --release -q -p xrefine --test trace_concurrency
    OBS_BENCH_FRACTION="${OBS_BENCH_FRACTION:-0.02}" \
    OBS_BENCH_REPS="${OBS_BENCH_REPS:-2}" \
        xcargo run --release -q -p bench --bin bench_obs
}

suite_ingest() {
    xcargo test --release -q -p invindex --test ingest_differential
    xcargo test -q -p xmldom --test scan_fuzz
}

suite_serve() {
    xcargo test -q -p xserve
    xcargo test --release -q -p xserve --test server_lifecycle
}

suite_maintenance() {
    xcargo test --release -q -p invindex --test maint_differential
    xcargo test --release -q -p xrefine --test live_differential
    xcargo test --release -q -p xrefine --lib live::
    MAINT_TORTURE_STRIDE="${MAINT_TORTURE_STRIDE:-1}" \
        xcargo test --release -q -p invindex --test maint_torture
    xcargo test --release -q -p xserve --test live_updates
}

suite_compress() {
    xcargo test --release -q -p invindex --test compress_prop
    xcargo test --release -q -p invindex --test postings_prop
    xcargo test --release -q -p xmldom --test dewey_model
    xcargo test --release -q -p invindex --test decode_alloc
    xcargo test --release -q -p xrefine --test compress_differential
}

suite_bench_e2e() {
    cargo test --release --offline -q --manifest-path bench_e2e/Cargo.toml
}

suite_analysis() {
    xcargo run -q -p xlint -- --workspace
    xcargo run -q -p xlint -- --fixtures
    xcargo test -q -p xcheck
}

# The debug-only lock-rank checker and the tracer both lean on ordering
# the optimizer is free to break; TSan watches the real interleavings.
# Needs nightly + rust-src (-Zbuild-std rebuilds std instrumented).
suite_tsan() {
    local target="${TSAN_TARGET:-x86_64-unknown-linux-gnu}"
    local tc="${TSAN_TOOLCHAIN:-nightly}"
    for t in "--test concurrent_engine" \
             "-p invindex --test cache_prop" \
             "-p xrefine --test trace_concurrency"; do
        # shellcheck disable=SC2086  # $t is a word list on purpose
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo "+${tc}" test -Zbuild-std --target "$target" \
            --release -q $t
    done
}

# Miri interprets the program, so it sees UB (dangling refs, aliasing
# violations, leaks) that native runs miss; it covers the crates whose
# tests stay inside the interpreter's ability — obs (the lock-rank and
# registry internals) and xcheck (the scheduler/shim machinery). xserve
# is out: signal.rs uses inline asm and raw syscalls Miri cannot model.
suite_miri() {
    local tc="${MIRI_TOOLCHAIN:-nightly}"
    cargo "+${tc}" miri test -q -p obs
    cargo "+${tc}" miri test -q -p xcheck
}

if [[ "${BASH_SOURCE[0]}" == "$0" ]]; then
    if [[ $# -eq 0 ]]; then
        echo "usage: $0 <suite> [<suite>...]" >&2
        echo "suites: release_smoke torture observability ingest serve maintenance compress bench_e2e analysis tsan miri" >&2
        exit 2
    fi
    for suite in "$@"; do
        if ! declare -F "suite_${suite}" >/dev/null; then
            echo "unknown suite: ${suite}" >&2
            exit 2
        fi
        echo "==> suite: ${suite}"
        "suite_${suite}"
    done
fi
