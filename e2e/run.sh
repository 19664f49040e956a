#!/usr/bin/env bash
# The benchmark's one command. Builds what it runs, from source, into
# $CARGO_TARGET_DIR (or the package's own target/), then runs it:
#
#   bash e2e/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# --trace 0 is the gated end-to-end run (package e2e), --trace 1 the
# per-layer trace (package e2e_trace, which alone reaches into
# bargain-core/sql/storage). Everything else is passed through, so
# `bash e2e/run.sh --aa 5` runs the A/A self-check.
set -euo pipefail
here=$(dirname "$0")
package=e2e
args=("$@")
for ((i = 0; i < $#; i++)); do
    if [[ ${args[i]} == --trace && ${args[i + 1]:-0} != 0 ]]; then
        package=e2e_trace
    fi
done
exec cargo run --release --offline --quiet \
    --manifest-path "$here/../$package/Cargo.toml" -- "$@"
