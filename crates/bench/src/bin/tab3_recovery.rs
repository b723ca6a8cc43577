//! Table 3 — fault tolerance: data loss and recovery time vs replication
//! factor.
//!
//! For each replication factor, stream a workload, kill one worker (and,
//! in the paired column, two ring-adjacent workers) mid-archive, probe
//! availability during the crash window, run detection + failover, and
//! audit completeness. Expected shape: r = 0 loses the whole dead shard
//! (~1/N of the data); r = 1 survives one failure with zero loss — the
//! acked write path replicates synchronously before acknowledging —
//! and r = 2 survives two adjacent failures.
//! Recovery time is dominated by replica-log promotion, proportional to
//! the dead shard's size. Failure detection itself is visible in the
//! executor's telemetry: each dead worker shows up as exactly two failed
//! (deliberately non-retried) probes — the liveness round that fails it
//! out and the rejoin round that asks whether it is back.
//!
//! The availability columns measure the window between the crash and the
//! recovery tick — when the dead workers are still in the ring and only
//! replica-failover reads can answer for their shards: the fraction of
//! strict queries answered, and the mean completeness fraction of
//! best-effort queries.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin tab3_recovery
//! ```

use std::time::Duration;

use stcam::{Cluster, HeatmapOp, Knn, OpPolicy, QueryOpts, RangeOp};
use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, op_stats, square_extent, synthetic_stream, timed,
    window_secs, Figure, Fmt,
};
use stcam_geo::{BBox, GridSpec, Point};
use stcam_net::NodeId;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Table 3: data loss and recovery vs replication factor",
    );
    let stream_len = fig.scale().pick(200_000, 20_000);
    // How long a crash-window read waits on a dead worker before it
    // fails over (or fails); the modelled LAN answers in under 1 ms.
    let read_timeout = Duration::from_millis(fig.scale().pick(600, 100));
    fig.param("workers", WORKERS);
    fig.param("observations", stream_len);
    fig.param(
        "crash_window_read_timeout_ms",
        read_timeout.as_millis() as u64,
    );
    let extent = square_extent(EXTENT_M);
    fig.table("rows")
        .col("r", "replication", Fmt::Plain)
        .col("failures", "failures", Fmt::Plain)
        .col("probe fails", "probe_failures", Fmt::Plain)
        .col("strict avail", "strict_availability", Fmt::Percent(0))
        .col("BE compl", "best_effort_completeness", Fmt::Fixed(3))
        .col("survivors hold", "held", Fmt::Count)
        .col("lost", "lost", Fmt::Plain)
        .col("loss", "loss_fraction", Fmt::Percent(3))
        .col("detect+failover s", "detect_failover_s", Fmt::Fixed(2))
        .col("ingest overhead", "ingest_overhead", Fmt::Times(2));

    // Ingest bytes at r=0 for the overhead column.
    let base_ingest_bytes = ingest_bytes(extent, 0);

    for replication in [0usize, 1, 2] {
        let overhead = match replication {
            0 => 1.0,
            r => ingest_bytes(extent, r) / base_ingest_bytes,
        };
        for victims in [vec![NodeId(3)], vec![NodeId(3), NodeId(4)]] {
            let cluster = launch(lan_config(extent, WORKERS, replication));
            let stream = synthetic_stream(stream_len, extent, 600, 53);
            ingest_chunked(&cluster, &stream, 1000);

            for &victim in &victims {
                cluster.fabric().crash(victim);
            }
            let (strict_avail, mean_completeness) =
                crash_window_availability(&cluster, extent, read_timeout);
            let (failed, recovery_s) = timed(|| cluster.coordinator().check_and_recover());
            assert_eq!(failed.len(), victims.len(), "missed a failure");
            // The executor books each dead worker as two failed probe
            // sub-queries (liveness round, rejoin round); probes never
            // retry, so the count is exact.
            let probe_fails = op_stats(&cluster, "probe").failures;

            let held = cluster
                .range_query(extent.inflated(100.0), window_secs(10_000))
                .expect("audit")
                .len();
            let lost = stream_len.saturating_sub(held);
            fig.row(cells![
                replication,
                victims.len(),
                probe_fails,
                strict_avail,
                mean_completeness,
                held,
                lost,
                lost as f64 / stream_len as f64,
                recovery_s,
                overhead,
            ]);
            cluster.shutdown();
        }
    }
    fig.note(
        "(failures are ring-adjacent — the worst case; acked ingest replicates\n\
         synchronously before acknowledging, so loss under r ≥ failures is exactly 0;\n\
         availability columns are measured before the recovery tick, when only\n\
         replica-failover reads can answer for the dead shards)",
    );
    fig.finish();
}

/// Probes the crash window: strict and best-effort range/kNN/heat-map
/// queries against a cluster whose victims are dead but not yet failed
/// out. Returns (fraction of strict queries answered, mean best-effort
/// completeness fraction).
fn crash_window_availability(cluster: &Cluster, extent: BBox, timeout: Duration) -> (f64, f64) {
    // Short read policies so each dead-primary sub-query fails over (or
    // fails) quickly instead of burning the default RPC budget.
    let policy = OpPolicy::new(timeout);
    for op in ["range", "knn_phase1", "knn_phase2", "heatmap"] {
        cluster.coordinator().set_op_policy(op, policy);
    }
    let window = window_secs(10_000);
    let buckets = GridSpec::covering(extent, extent.width() / 16.0);
    let mut strict_ok = 0u32;
    let mut strict_total = 0u32;
    let mut completeness_sum = 0.0;
    let mut best_effort_total = 0u32;
    for round in 0..2u32 {
        let at = Point::new(
            extent.min.x + extent.width() * (0.25 + 0.4 * round as f64),
            extent.min.y + extent.height() * (0.6 - 0.3 * round as f64),
        );
        strict_total += 3;
        strict_ok += u32::from(cluster.range_query(extent, window).is_ok());
        strict_ok += u32::from(cluster.knn_query(at, window, 10).is_ok());
        strict_ok += u32::from(cluster.heatmap(&buckets, window).is_ok());
        let fractions = [
            cluster
                .query(RangeOp::new(extent, window), &QueryOpts::BEST_EFFORT)
                .map(|d| d.completeness.fraction()),
            cluster
                .query(Knn { at, window, k: 10 }, &QueryOpts::BEST_EFFORT)
                .map(|d| d.completeness.fraction()),
            cluster
                .query(HeatmapOp { buckets, window }, &QueryOpts::BEST_EFFORT)
                .map(|d| d.completeness.fraction()),
        ];
        for fraction in fractions {
            best_effort_total += 1;
            completeness_sum += fraction.unwrap_or(0.0);
        }
    }
    (
        f64::from(strict_ok) / f64::from(strict_total),
        completeness_sum / f64::from(best_effort_total),
    )
}

/// Total fabric bytes to ingest a small reference stream at the given
/// replication factor.
fn ingest_bytes(extent: stcam_geo::BBox, replication: usize) -> f64 {
    let cluster = launch(lan_config(extent, WORKERS, replication));
    let stream = synthetic_stream(20_000, extent, 600, 59);
    ingest_chunked(&cluster, &stream, 1000);
    let bytes = cluster.fabric_stats().total_bytes as f64;
    cluster.shutdown();
    bytes
}
