#!/usr/bin/env bash
# Build the release `easeml-ci` server and the benchmark from source, then
# run one benchmark invocation against the server binary.
#
#   bash cibench/run.sh --workload gate_counts --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); cargo's messages go to stderr so that the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/serve || ! -d crates/cli ]]; then
    echo "cibench: $root does not hold the easeml-ci sources" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p easeml-cli --bin easeml-ci >&2
cargo build --release --offline --quiet --manifest-path cibench/Cargo.toml --bin cibench >&2
cargo build --release --offline --quiet --manifest-path cibench/nofsync/Cargo.toml >&2

# Flushes are elided for the benchmark and every server it starts: the
# data directories then cost what they would on tmpfs (see
# cibench/nofsync/src/lib.rs).
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
exec env LD_PRELOAD="$target/release/libcibench_nofsync.so" \
    "$target/release/cibench" --server "$target/release/easeml-ci" --work-dir "$target/cibench" "$@"
