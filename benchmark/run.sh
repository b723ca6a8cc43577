#!/usr/bin/env bash
# Builds stbench and runs the four workloads in order, one process each.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--quick]
#
# Prints every metric as `workload/metric value unit` and leaves, per
# workload, benchmark/out/<workload>.txt (that output) and
# benchmark/out/<workload>.json (the result line, stamped with what
# produced it). Arguments are passed through to stbench.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$here/out"
mkdir -p "$out"

cargo build --offline --release --manifest-path "$here/Cargo.toml"
stbench="${CARGO_TARGET_DIR:-$here/target}/release/stbench"

sha=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)
rustc_version=$(rustc --version)
cores=$(nproc)

status=0
for workload in stream_clean stream_lossy archive_scan live_mixed; do
  "$stbench" --workload "$workload" "$@" | tee "$out/$workload.txt" | grep -v '^{' || status=1
  sizes=$(grep "^$workload/size\." "$out/$workload.txt" |
    sed -E "s|^$workload/size\.([a-z_]+) ([^ ]+) .*|\"\1\": \2|" | paste -sd, -)
  printf '{"git_sha": "%s", "nproc": %s, "rustc": "%s", "args": "%s", "sizes": {%s}, "result": %s}\n' \
    "$sha" "$cores" "$rustc_version" "$*" "$sizes" "$(tail -n 1 "$out/$workload.txt")" \
    > "$out/$workload.json"
done
exit $status
