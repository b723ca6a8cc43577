#!/usr/bin/env bash
# Prints the surface numbers every CHANGES.md line counts: protocol
# variants, DistributedOp impls, public methods of the two facades, the
# size of crates/core/src and of the five files the ratchet names,
# the coordinator's cutover sites, the worker calls made outside the one
# scatter loop, the message layouts still written by hand, the worker's
# replica maps, answer memories and read evaluators, the per-peer
# accounts beside the transport's peer table, the fabric's one-way sends,
# the test rigs built into the library, the chaos schedule generators,
# and the options and size of the figure harness (crates/bench).
# Usage: scripts/surface.sh            print "name value" lines
#        scripts/surface.sh --check    also fail when a value exceeds its
#                                      ceiling in scripts/surface.ceilings
# The ceilings only ratchet down: lower them in the PR that lowers a count.
set -euo pipefail
cd "$(dirname "$0")/.."
src=crates/core/src
bench=crates/bench/src

# Variants of `pub enum $1` in protocol.rs, counted from its `wire_enum!`
# declaration: one `Name = tag "op_name"` line each, up to the invocation's
# closing brace.
variants() {
    awk -v head="pub enum $1 \\\\{" '
        $0 ~ head { on = 1; next }
        on && /^}/ { on = 0 }
        on && /^ +[A-Z][A-Za-z]* = [0-9A-Z_]+ "[a-z_]+"/ { n++ }
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

# $1 is a grep -E pattern; counts matching lines of every file of
# crates/core/src (and of the directories in $3), each read up to its
# `#[cfg(test)]` module, skipping the file $2.
count_non_test() {
    for file in "$src"/*.rs ${3:+"$3"/*.rs}; do
        [ "$file" = "${2:-}" ] || awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file"
    done | grep -cE "$1" || true
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
    # Plan publications in the coordinator, i.e. cutovers: the control
    # loop's one `Publish` action. More means an entry point cuts over by
    # hand again instead of setting the desired state.
    echo "coordinator_cutover_sites $(awk '/^#\[cfg\(test\)\]/ { exit } { print }' \
        "$src/coordinator.rs" | grep -v 'fn publish_plan' |
        grep -cE 'publish_plan\(\)|publish_at\(' || true)"
    # `.call(` / `.call_start(` / `.call_wait(` sites outside exec.rs (every
    # way to put a request on the wire, the re-sending wait included): only
    # exec.rs may call a worker.
    echo "worker_calls_outside_exec $(count_non_test '\.call(_start|_wait)?\(' "$src/exec.rs")"
    # Message layouts written by hand instead of declared (`wire_struct!` /
    # `wire_enum!`): `Predicate`, for its class check.
    echo "core_hand_written_wire_impls $(count_non_test '^impl Wire for')"
    # Maps of replica state keyed by primary: one, of `ReplicaLog`s. A second
    # is a parallel structure some call site must keep in step by hand.
    echo "worker_replica_maps $(count_non_test '^ +replica[a-z_]*: HashMap<NodeId, ')"
    # Lines naming a worker-side memory of answered requests: none. Whether
    # a request already ran is decided once, by the transport's reply table.
    echo "worker_seq_memories $(count_non_test 'SeqMemory')"
    # Lines naming a per-peer account beside the transport's peer table:
    # none. A call's outcome is booked once, at the end of `call_wait`,
    # into the table that holds the round-trip estimate.
    echo "health_views $(count_non_test 'HealthView|CallObserver' '' crates/net/src)"
    # Fire-and-forget sends on the fabric (`pub fn send(` outside tests in
    # crates/net/src): none. Every message that crosses a link is a call or
    # its answer, so reads, writes and standing-query matches share one
    # acked, at-most-once delivery contract.
    echo "net_one_way_sends $(for file in crates/net/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file"
    done | grep -c 'pub fn send(' || true)"
    # Call sites of the Range pushdown tail (limit, projection): the plain
    # and the class-filtered arm of `execute_read`. More means a second
    # function evaluates reads.
    echo "worker_finish_rows_calls $(count_non_test '(^|[^n] |[^ ])finish_rows\(')"
    # Test rigs compiled into the library: none. The chaos schedule lives
    # in the chaos test, which drives faults through `Cluster::fabric()`.
    echo "core_test_rigs $(grep -c 'mod chaos' "$src/lib.rs" || true)"
    # Chaos schedule generators: one, emitting every fault kind from one
    # seed, so no fault kind runs only in a schedule of its own.
    echo "chaos_generators $(grep -c 'pub fn generate' crates/core/tests/chaos/plan.rs || true)"
    # Independently settable values: fields of `ClusterConfig`, and
    # environment variables the figure harness reads (one: the directory
    # reports go to; sizes come from `--quick`, never from the caller).
    echo "cluster_config_fields $(awk '/^pub struct ClusterConfig \{/ { on = 1; next }
        on && /^}/ { exit } on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' "$src/cluster.rs")"
    echo "bench_env_knobs $(grep -rhoE 'env::var(_os)?\("[A-Z0-9_]+"' "$bench" | sort -u | wc -l)"
    # Figure bins that do not report through `Figure` (text and JSON from
    # one set of rows), and the size of the harness.
    echo "bench_bins_without_json $(grep -L 'Figure::new(' "$bench"/bin/*.rs | wc -l)"
    echo "bench_lines $(cat "$bench/lib.rs" "$bench"/bin/*.rs | wc -l)"
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
