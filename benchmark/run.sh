#!/usr/bin/env bash
# Builds the benchmark and the server it measures, then runs the benchmark
# with the arguments given (see README.md). The driver calls it as
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# from the root of a checkout; the last line of standard output is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for cargo
# and for the path below alike.
target="${CARGO_TARGET_DIR:-$here/target}"
# --offline: the sandbox has no registry; the manifest patches the three
# published crates the libraries need with the stand-ins under stubs/.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p sstore-benchmark -p sstore-net --bin sstore-benchmark --bin sstore-server >&2
exec "$target/release/sstore-benchmark" "$@"
