#!/usr/bin/env bash
# Builds ompltc, ompltd and omplt-bench (release, offline), then hands every
# argument to omplt-bench. BENCHMARK.json's command is this script, so
#
#   bash perfbench/run.sh --workload exec_vm --seed 11 --seconds 10 --trace 0
#
# is one contract run, and
#
#   bash perfbench/run.sh --all --out perfbench/results/BENCH_<n>.json
#
# runs all five workloads and writes a results file. `--all --quick` is the
# smoke mode (under 10 s, tiny sizes, stamped "comparable": false).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both packages, so the harness finds ompltc and
# ompltd next to its own executable. A relative CARGO_TARGET_DIR means
# relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The harness resolves sources and its scratch directory from the checkout.
cd "$root"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p omplt --bins >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/omplt-bench" "$@"
