#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   run.sh [--seed N] [--workload NAME]... [--seconds S] [--trace 0|1] [--out FILE]
#   run.sh --selfcheck [same options]
#
# Defaults: seed 42, all eight workloads, 10 s per run, a timed run and then a
# traced run of each. Every metric is printed by name with its unit; --out
# writes the same, and the traced runs' spans, as JSON. --selfcheck runs the
# suite twice and compares the two with the benchmark's own bounds.
#
# The package depends on ../crates by path, so it builds only inside a
# checkout of the repository. Cargo's target directory is CARGO_TARGET_DIR if
# set, else benchmark/target. Inputs and result files go under benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin="${CARGO_TARGET_DIR:-$here/target}/release/cleanm-e2e"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

if [[ "${1:-}" == "--selfcheck" ]]; then
    shift
    mkdir -p "$here/out"
    a="$here/out/selfcheck-a.json"
    b="$here/out/selfcheck-b.json"
    "$bin" --scratch "$here/out" "$@" --out "$a"
    "$bin" --scratch "$here/out" "$@" --out "$b"
    # `compare` is one-sided (B against the base A); agreement is both ways.
    "$bin" compare "$a" "$b"
    "$bin" compare "$b" "$a"
    exit 0
fi

exec "$bin" --scratch "$here/out" "$@"
