#!/usr/bin/env bash
# Regenerates every table and figure of the evaluation. results/ ends up
# holding exactly what this run wrote: <bin>.txt and BENCH_<bin>.json for
# every bin under crates/bench/src/bin/, plus STAMP.json (what was run,
# where, at which size).
# Usage: scripts/run_evaluation.sh            the sizes EXPERIMENTS.md quotes
#        scripts/run_evaluation.sh --quick    every bin in seconds (what CI runs)
#        scripts/run_evaluation.sh --list     print the bins, run nothing
set -euo pipefail
cd "$(dirname "$0")/.."
bins=$(for src in crates/bench/src/bin/*.rs; do basename "$src" .rs; done)
case "${1:-}" in
    --list) echo "$bins"; exit 0 ;;
    --quick) size=quick ;;
    "") size=full ;;
    *) echo "usage: $0 [--quick|--list]" >&2; exit 2 ;;
esac
cargo build -p stcam-bench --release --bins
rm -rf results
mkdir results
export BENCH_RESULTS_DIR=results
start=$(date +%s)
for bin in $bins; do
    echo "=== $bin ==="
    target/release/"$bin" "$@" | tee "results/$bin.txt"
    echo
done
dirty=false
git diff --quiet HEAD -- . ':!results' || dirty=true
cat > results/STAMP.json <<EOF
{
  "git_sha": "$(git rev-parse HEAD)",
  "dirty": $dirty,
  "size": "$size",
  "nproc": $(nproc),
  "rustc": "$(rustc --version)",
  "wall_seconds": $(($(date +%s) - start))
}
EOF
echo "all experiment outputs written to results/"
