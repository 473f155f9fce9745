#!/usr/bin/env bash
# The repo's one benchmark: builds the ledger from source and runs it.
#
#   benchmark/run.sh [--seed N]                 every workload, both passes
#   benchmark/run.sh --workload NAME            one workload, both passes
#   benchmark/run.sh --quick                    R = 1, development only
#   benchmark/run.sh --check-repeat             the full benchmark twice, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one measuring process (the driver's form)
#
# Results land in benchmark/out/ (result.json, trace-<workload>.json).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A relative CARGO_TARGET_DIR is relative to the checkout root, which is
# now the working directory; without one, build inside benchmark/.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac

# Path dependencies only: the build needs no registry and no network.
# Cargo's progress goes to stderr; stdout carries only the benchmark.
cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

exec "$target/release/lrs-ledger" "$@"
