#!/usr/bin/env bash
# Builds the product and the benchmark the way CI builds the product (the
# offline stand-ins for third-party crates, no network), then runs the
# benchmark. See bench/README.md.
#
#   bench/run.sh [--seed N] [--smoke] [--out FILE]    every workload, traced
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bench/run.sh --compare A.json B.json
#   bench/run.sh --print-manifest                     BENCHMARK.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# A relative CARGO_TARGET_DIR means relative to the root of the checkout.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

stubs="devtools/offline-stubs/patch.toml"
for needed in Cargo.toml "$stubs" bench/Cargo.toml; do
    if [ ! -f "$needed" ]; then
        echo "bench/run.sh: $needed is missing: run from a checkout of the whole repository" >&2
        exit 2
    fi
done

# Build output goes to standard error: the last line of standard output
# belongs to the benchmark's result.
cargo --config "$stubs" build --release --offline --quiet -p leopard-cli >&2
cargo --config "$stubs" build --release --offline --quiet \
    --manifest-path bench/Cargo.toml >&2

exec "$target/release/leopard-e2e" --leopard "$target/release/leopard" "$@"
