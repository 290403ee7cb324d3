#!/usr/bin/env bash
# The perf ledger's one command: build the benchmark from source, then run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke] [--repeat K] [--print-spec]
#
# With --workload: one run in this process, metrics as `workload name value
# unit clock` lines and the result object as the last line of stdout. Without:
# every workload, one child process after another. See README.md.
#
# The build goes to $CARGO_TARGET_DIR (the benchmark driver sets it), or to
# the repo's own target/ so it shares the root build cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/phoenix-perf" "$@"
