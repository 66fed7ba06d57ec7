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
#   torture        fault-injection + crash-recovery sweeps over atomic
#                  batches and checkpoints, a full disk included
#                  (release — debug builds stride the sweeps), the
#                  tree-file store against its BTreeMap model (syncs,
#                  reopens, byte-identical files for equal entries), both
#                  crc32 kernels — the carry-less-multiply fold against
#                  the slice-by-16 tables, and the dispatching crc32
#                  against the byte-at-a-time loop — at every length and
#                  offset, a point get's allocation
#                  bound (pages read + 1), and the read-only opens
#                  leaving a crashed store's files byte-identical
#   observability  obs invariants, differential oracles (SLCA — Scan
#                  Eager's partition-run join on cut views, its step
#                  bound, the typed meaningful verdict — DP against
#                  brute force and against the string-keyed recurrence it
#                  replaced, the refinement result sets, rule generation
#                  against the generator it replaced), Algorithm 2's
#                  allocation and SLCA-invocation budgets, its walk's
#                  partition and advance counts over corpus_m's query
#                  pool (10x below a walk over every partition), rule
#                  generation's allocation gate (the same count at
#                  1 000 and 16 000 vocabulary words), tracer
#                  well-nestedness, metrics-overhead bench (written to
#                  the target dir's BENCH_obs.suite.json, never over
#                  results/BENCH_obs.json)
#   ingest         streaming-vs-DOM ingest differential oracle (byte-
#                  identical stores), the store-byte pin (what persist
#                  writes for four fixed corpora, hashed, with its
#                  compression-counter deltas), the D/ encoder's
#                  allocation gate (one per distinct tuple of each
#                  record's chunk, summed, plus a constant that does not
#                  grow with the record count) + scanner fuzz sweep
#   serve          server lifecycle tests (work-conserving admission
#                  gate, shedding, request_timeout, a panicking query,
#                  drain under load, a trickling client cut off by its
#                  read budget, idle peers at the connection cap shed
#                  then released, SIGTERM, a corrupt stored list over
#                  HTTP) and the server binary's flag parser
#   maintenance    online-maintenance guarantees: differential oracle
#                  (incremental == from-scratch, by both builders), the
#                  store and reader equal to a build after every commit
#                  of a seeded sequence (maint_delta), what each path
#                  reads and writes of the document by key (opening and
#                  the 280-query pool read D/types and no record chunk;
#                  at corpus_s an add puts one D/<ordinal>, a remove of
#                  the last slot deletes one, neither reads a kept
#                  chunk: store_reads, maint::tests), raw
#                  fragments leaving the store a parse-and-render round
#                  trip would, an 8 000-deep fragment committed and
#                  rendered in linear space on a 2 MiB stack (debug:
#                  a_deep_fragment_commits_and_renders_in_linear_space),
#                  full stride-1 power-cut sweep of the updating store
#                  (release), readers not blocked by a commit in flight,
#                  racing updaters never rolling the published engine
#                  back (release), live updates over HTTP
#   compress       the store format (compressed postings): property/fuzz
#                  round-trips + corruption sweeps, the block-lazy
#                  reader (its run cursors against runs read off the
#                  labels; a block that does not decode fails the query,
#                  or the whole result set, that reads it), the
#                  partition runs a cursor reports over a list however
#                  it is built, stored or held in memory, `Dewey`
#                  against its component-vector model across the
#                  inline/heap boundary (and its fixed-width constructor
#                  against `from_slice`), the block decoder against the
#                  decoder it replaced (equal postings, its run table
#                  equal to a stored handle's runs, identical error
#                  strings on every truncation and bit flip) with its
#                  ns per posting
#                  against that reference over corpus_m's lists (printed,
#                  not asserted), decode's allocation budget (a constant
#                  per block and per `decode_all` of a list, none per
#                  posting), and the stored-vs-build differential
#                  (every list a query reads, read run by run as every
#                  algorithm reads it, equals the build's, and so does
#                  the answer over the build's lists)
#   bench_e2e      the BENCHMARK.json harness's own tests, built against
#                  the workspace crates: an API deletion in a measured
#                  crate that breaks the benchmark fails here, pre-merge
#   analysis       clippy with warnings denied in the --cfg xcheck build
#                  (scripts/check.sh and CI's check job run the plain
#                  one), xlint over the live workspace + its golden
#                  fixtures, rustdoc with warnings denied (a
#                  dangling or private intra-doc link fails), the xcheck
#                  scheduler's and property runner's self-tests, then the
#                  model checks of the real ListCache (its admission
#                  guard and its publish order) and admission Gate
#                  (built with --cfg xcheck into
#                  target/xcheck), and each seeded patch in
#                  crates/*/seeded/ applied to a copy of the tree, where
#                  its check — a model check, a clippy run or the crash
#                  torture — must fail with its violation text
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
    xcargo test --release -q -p kvstore --lib crc
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
    xcargo test --release -q -p slca --test differential scan_eager_page
    xcargo test --release -q -p xserve --test result_page
    xcargo test --release -q -p lexicon --test rulegen_reference
    xcargo test --release -q -p lexicon --test rulegen_alloc
    xcargo test --release -q -p xrefine --test slca_invocations_budget
    xcargo test --release -q -p xrefine --test alloc_budget
    xcargo test --release -q -p xrefine --test walk_counts -- --nocapture
    xcargo test --release -q -p xrefine --test trace_concurrency
    OBS_BENCH_REPS="${OBS_BENCH_REPS:-2}" \
        xcargo run --release -q -p bench --bin bench_obs \
        "${CARGO_TARGET_DIR:-target}/BENCH_obs.suite.json"
}

suite_ingest() {
    xcargo test --release -q -p invindex --test ingest_differential
    xcargo test --release -q -p invindex --test store_pin
    xcargo test --release -q -p invindex --test encode_alloc
    xcargo test -q -p xmldom --test scan_fuzz
}

suite_serve() {
    xcargo test -q -p xserve
    xcargo test --release -q -p xserve --test server_lifecycle
}

suite_maintenance() {
    xcargo test --release -q -p invindex --test maint_differential
    xcargo test --release -q -p invindex --test maint_delta
    xcargo test --release -q -p xrefine --test live_differential
    xcargo test --release -q -p xrefine --test store_reads
    xcargo test -q -p invindex --lib maint::
    xcargo test --release -q -p xrefine --lib live::
    MAINT_TORTURE_STRIDE="${MAINT_TORTURE_STRIDE:-1}" \
        xcargo test --release -q -p invindex --test maint_torture
    xcargo test --release -q -p xserve --test live_updates
}

suite_compress() {
    xcargo test --release -q -p invindex --test compress_prop
    xcargo test --release -q -p xrefine --test block_reads
    xcargo test --release -q -p invindex --test postings_prop
    xcargo test --release -q -p xmldom --test dewey_model
    xcargo test --release -q -p invindex --test decode_alloc
    xcargo test --release -q -p invindex --test decode_reference -- --nocapture
    xcargo test --release -q -p xrefine --test compress_differential
}

suite_bench_e2e() {
    cargo test --release --offline -q --manifest-path bench_e2e/Cargo.toml
}

# The model checks of the code that ships (DESIGN.md §6c). They exist
# only under `--cfg xcheck`, which makes obs::sync the checker's; their
# own target dir keeps that build from evicting the normal one.
XCHECKS=(
    "-p invindex --test xcheck_list_cache"
    "-p xserve --test xcheck_admission"
)

XCHECK_TARGET="$PWD/target/xcheck"

# `cargo <subcommand> <args>` in the --cfg xcheck build.
xcheck_cargo() {
    local subcommand="$1"
    shift
    RUSTFLAGS="--cfg xcheck" xcargo "$subcommand" -q --target-dir "$XCHECK_TARGET" "$@"
}

# Each patch in crates/*/seeded/ puts back a bug the real code excludes:
# a race in crates/xcheck/seeded/, a lint violation in
# crates/xlint/seeded/, a split batch in crates/kvstore/seeded/. Its
# header names the one check that must catch it (`check: `, a cargo
# subcommand and its arguments, run in the --cfg xcheck build: `test …`
# for a model check or the crash torture, `clippy …` for a lint)
# and, one `expect: ` line each, the violation texts that check must
# report. Patches apply, one at a time, to a copy of the tree.
seeded_bugs_are_caught() {
    local tree="target/xcheck/seeded-tree" patch check expect line out
    rm -rf "$tree"
    mkdir -p "$tree"
    git ls-files -z --cached --others --exclude-standard |
        tar --null --ignore-failed-read -T - -cf - | tar -xmf - -C "$tree"
    for patch in crates/*/seeded/*.patch; do
        check=$(sed -n 's/^check: //p' "$patch")
        expect=$(sed -n 's/^expect: //p' "$patch")
        if [[ -z "$check" || -z "$expect" ]]; then
            echo "seeded: $patch has no check:/expect: header" >&2
            return 1
        fi
        if ! patch -d "$tree" -p1 --fuzz=0 --quiet <"$patch"; then
            echo "seeded: $patch no longer applies" >&2
            return 1
        fi
        # shellcheck disable=SC2086  # $check is a word list on purpose
        if out=$(cd "$tree" && xcheck_cargo $check 2>&1); then
            echo "seeded: \`$check\` passes with $patch applied" >&2
            return 1
        fi
        while IFS= read -r line; do
            if ! grep -qF -- "$line" <<<"$out"; then
                echo "$out" >&2
                echo "seeded: \`$check\` failed without \"$line\" ($patch)" >&2
                return 1
            fi
        done <<<"$expect"
        patch -d "$tree" -p1 -R --quiet <"$patch"
        echo "seeded: $patch caught: ${expect//$'\n'/; }"
    done
}

suite_analysis() {
    xcheck_cargo clippy --workspace --all-targets -- -D warnings
    xcargo run -q -p xlint -- --workspace
    xcargo run -q -p xlint -- --fixtures
    RUSTDOCFLAGS="-D warnings" xcargo doc --no-deps --workspace -q
    xcargo test -q -p xcheck
    local check
    for check in "${XCHECKS[@]}"; do
        # shellcheck disable=SC2086  # $check is a word list on purpose
        xcheck_cargo test $check
    done
    seeded_bugs_are_caught
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
# is out: its tests open TCP sockets and spawn the server binary, and
# signal.rs installs real handlers through libc's `signal`, none of which
# Miri runs.
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
