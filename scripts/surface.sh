#!/usr/bin/env bash
# Prints the surface numbers every CHANGES.md line counts (ROADMAP item 4's
# gate): protocol variants, DistributedOp impls, public methods of the two
# facades, the size of crates/core/src and of the five files the gate names,
# and the worker calls made outside the one scatter loop.
# Usage: scripts/surface.sh            print "name value" lines
#        scripts/surface.sh --check    also fail when a value exceeds its
#                                      ceiling in scripts/surface.ceilings
# The ceilings only ratchet down: lower them in the PR that lowers a count.
set -euo pipefail
cd "$(dirname "$0")/.."
src=crates/core/src

# Variants of `pub enum $1` in protocol.rs (one per 4-space-indented name).
variants() {
    awk -v head="^pub enum $1 \\\\{" '
        $0 ~ head { on = 1; next }
        on && /^}/ { on = 0 }
        on && /^    [A-Z]/ { n++ }
        END { print n + 0 }' "$src/protocol.rs"
}

# `pub fn`s directly inside `impl $1 {` of file $2.
pub_fns() {
    awk -v head="^impl $1 \\\\{" '
        $0 ~ head { on = 1; next }
        on && /^}/ { on = 0 }
        on && /^    pub fn / { n++ }
        END { print n + 0 }' "$2"
}

count() { cat "$src"/*.rs | grep -c "$1" || true; }

# `.call(` / `.call_start(` / `.call_wait(` sites outside exec.rs (every way
# to put a request on the wire, the re-sending wait included), each file
# read up to its `#[cfg(test)]` module: only exec.rs may call a worker.
worker_calls_outside_exec() {
    for file in "$src"/*.rs; do
        [ "$file" = "$src/exec.rs" ] || awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file"
    done | grep -cE '\.call(_start|_wait)?\(' || true
}

surface() {
    echo "request_variants $(variants Request)"
    echo "response_variants $(variants Response)"
    echo "distributed_op_impls $(count '^impl DistributedOp for')"
    echo "fn_idempotent $(count 'fn idempotent')"
    echo "cluster_pub_fns $(pub_fns Cluster "$src/cluster.rs")"
    echo "coordinator_pub_fns $(pub_fns Coordinator "$src/coordinator.rs")"
    echo "core_src_lines $(cat "$src"/*.rs | wc -l)"
    for file in coordinator exec worker protocol ingest; do
        echo "${file}_lines $(wc -l < "$src/$file.rs")"
    done
    echo "worker_calls_outside_exec $(worker_calls_outside_exec)"
}

surface
[ "${1:-}" = "--check" ] || exit 0
status=0
while read -r name value; do
    ceiling=$(awk -v n="$name" '$1 == n { print $2 }' scripts/surface.ceilings)
    if [ -z "$ceiling" ]; then
        echo "surface: no ceiling for $name" >&2
        status=1
    elif [ "$value" -gt "$ceiling" ]; then
        echo "surface: $name is $value, ceiling $ceiling" >&2
        status=1
    fi
done < <(surface)
exit $status
