#!/usr/bin/env bash
# Build the `sparker` CLI and the benchmark from source, then run one
# workload of the benchmark:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs go to $CARGO_TARGET_DIR (default: perfbench/target);
# generated inputs, run records and span files to its perfbench-work/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" --bin sparker >&2
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
sha=unknown
if [ -e "$root/.git" ]; then sha="$(git -C "$root" rev-parse HEAD)"; fi
exec "$target/release/perfbench" --sparker "$target/release/sparker" \
    --workdir "$target/perfbench-work" --git-sha "$sha" "$@"
