//! Table 4 — self-healing replication: time-to-full-replication and
//! repair traffic after a worker loss, with and without message loss.
//!
//! For each replication factor, stream a workload, kill one worker, and
//! let the control plane heal itself: detection + replica promotion
//! first (`check_and_recover`, which ends with an anti-entropy pass),
//! then further digest-sweep/stream rounds until the repair planner
//! reports convergence — every cell an alive owner holds mirrored at its
//! required ring successors. The dead worker is then restarted and the
//! rejoin handshake readmits it (bulk-sync, epoch-stamped routes, one
//! atomic plan re-entry), after which repair must converge again. The
//! lossy columns repeat the whole cycle with a uniform drop probability
//! on every link — dropped digests, copies, and repair chunks surface as
//! timeouts and are retried or re-planned on the next round.
//!
//! Expected shape: time-to-full-replication is dominated by streaming
//! the dead worker's share of the keyspace (~r/N of the stream) and
//! grows modestly with the drop rate; repair bytes track the streamed
//! share and are loss-rate-insensitive (only lost chunks re-send). The
//! gate asserts the converges-to-zero invariant: after healing, zero
//! under-replicated cells and a strict full-range query returning the
//! entire stream — at every replication factor and drop rate.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin tab4_repair
//! ```

use stcam::{Cluster, OpPolicy};
use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, op_stats, square_extent, synthetic_stream, timed,
    window_secs, Figure, Fmt,
};
use stcam_net::NodeId;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;
const VICTIM: NodeId = NodeId(3);

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Table 4: repair and rejoin after a worker loss",
    );
    let stream_len = fig.scale().pick(20_000, 5_000);
    let chunk = fig.scale().pick(1_000, 500);
    fig.param("workers", WORKERS);
    fig.param("observations", stream_len);
    fig.param("batch", chunk);

    let extent = square_extent(EXTENT_M);
    fig.table("rows")
        .col("r", "replication", Fmt::Plain)
        .col("drop", "drop", Fmt::Percent(0))
        .col("under-repl at kill", "under_replicated_at_kill", Fmt::Plain)
        .col("heal s", "heal_s", Fmt::Fixed(2))
        .col("repair rounds", "repair_rounds", Fmt::Plain)
        .col("repair KiB", "repair_kib", Fmt::Fixed(0))
        .col("rejoin s", "rejoin_s", Fmt::Fixed(2))
        .col("under-repl after", "under_replicated_after", Fmt::Plain)
        .col("lost", "lost", Fmt::Plain);

    for replication in [2usize, 3] {
        for drop in [0.0f64, 0.05] {
            // A lost message only surfaces as an RPC timeout; on the
            // modelled LAN 100 ms is still generous headroom. Probes are
            // single-attempt by default (a timeout *is* the liveness
            // signal), but under deliberate loss one dropped probe must
            // not fail a live worker out of the ring — give them retries.
            let cluster = launch(
                lan_config(extent, WORKERS, replication)
                    .with_rpc_timeout(std::time::Duration::from_millis(100)),
            );
            cluster.set_op_policy(
                "probe",
                OpPolicy {
                    timeout: std::time::Duration::from_millis(250),
                    max_attempts: 4,
                },
            );
            let mut stream = synthetic_stream(stream_len, extent, 600, 71);
            // Live ingest delivers in arrival ≈ timestamp order; worker
            // slice-close events (which seal segments — the unit the
            // rejoin bulk-sync ships) depend on it.
            stream.sort_by_key(|o| o.time);
            ingest_chunked(&cluster, &stream, chunk);

            cluster.fabric().crash(VICTIM);
            cluster.set_drop_probability(drop);
            let under_at_kill = cluster.under_replicated_cells();

            // Heal: detection + promotion + anti-entropy until the
            // planner reports convergence. check_and_recover ends with
            // one repair pass; lossy rounds may need more.
            let (_, heal_s) = timed(|| {
                let failed = cluster.check_and_recover();
                assert_eq!(failed, vec![VICTIM], "missed the failure");
                drive_to_convergence(&cluster, "post-failover repair");
            });
            let repair = op_stats(&cluster, "repair");

            // Rejoin: restart the dead worker and let recovery readmit
            // it. Under loss a dropped probe looks exactly like a
            // still-dead worker, so the tick may need repeating.
            cluster.fabric().restart(VICTIM);
            let (_, rejoin_s) = timed(|| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                loop {
                    cluster.check_and_recover();
                    if !cluster.partition().cells_of(VICTIM).is_empty() {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "restarted worker never rejoined at drop={drop}"
                    );
                }
                drive_to_convergence(&cluster, "post-rejoin repair");
            });

            // Audit with the links healthy again: the convergence gate.
            cluster.set_drop_probability(0.0);
            let under_after = cluster.under_replicated_cells();
            let held = cluster
                .range_query(extent.inflated(100.0), window_secs(10_000))
                .expect("strict audit after heal")
                .len();
            let lost = stream_len.saturating_sub(held);

            fig.row(cells![
                replication,
                drop,
                under_at_kill,
                heal_s,
                repair.repair_rounds,
                repair.repair_bytes as f64 / 1024.0,
                rejoin_s,
                under_after,
                lost,
            ]);

            assert_eq!(
                under_after, 0,
                "repair did not converge to zero at r={replication} drop={drop}"
            );
            assert_eq!(
                lost, 0,
                "data lost through kill/heal/rejoin at r={replication} drop={drop}"
            );
            cluster.shutdown();
        }
    }
    fig.note(
        "(`heal s` spans detection, replica promotion, and anti-entropy repair to\n\
         convergence; `rejoin s` spans re-detection of the restarted worker through\n\
         bulk-sync and repair; the gate is zero under-replicated cells and a strict\n\
         full-range audit equal to the stream, at every factor and drop rate)",
    );
    fig.finish();
    println!("gates: zero under-replicated cells, zero loss — ok");
}

/// Re-invokes [`Cluster::repair`] until the planner reports convergence
/// (each invocation is budget-bounded; under loss a round's worth of
/// streams can fail and be re-planned).
fn drive_to_convergence(cluster: &Cluster, what: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !cluster.repair().converged {
        assert!(
            std::time::Instant::now() < deadline,
            "{what} never converged"
        );
    }
}
