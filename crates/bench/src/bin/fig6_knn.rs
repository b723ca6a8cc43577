//! Figure 6 — kNN query cost vs k: two-phase pruned search vs naive
//! broadcast.
//!
//! The framework's kNN first asks the owner of the query point's cell,
//! then bounds phase two by the k-th distance; the baseline broadcasts to
//! every worker. The hardware-independent win is in *messages and bytes
//! per query*: pruning contacts a small, k-dependent subset of workers.
//! The executor's per-operation telemetry gives the sub-query counts
//! directly (phase 1 + phase 2 for pruned, one op for broadcast) and
//! confirms no retries inflate them on the clean link.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig6_knn
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam::{KnnOp, QueryOpts};
use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, op_stats, square_extent, synthetic_stream, timed,
    window_secs, Figure, Fmt, LatencyStats,
};
use stcam_geo::Point;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 16;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 6: kNN two-phase pruning vs broadcast",
    );
    let archive = fig.scale().pick(1_000_000, 100_000);
    let queries_per_point = fig.scale().pick(60usize, 10);
    fig.param("archive", archive);
    fig.param("workers", WORKERS);
    fig.param("queries_per_point", queries_per_point);
    let extent = square_extent(EXTENT_M);
    let stream = synthetic_stream(archive, extent, 600, 13);
    let cluster = launch(lan_config(extent, WORKERS, 0));
    ingest_chunked(&cluster, &stream, 2000);

    let window = window_secs(600);
    fig.table("rows")
        .col("k", "k", Fmt::Plain)
        .col("pruned ms (m/p50/p95)", "pruned_ms", Fmt::Fixed(2))
        .col("pruned subq/q", "pruned_sub_queries_per_q", Fmt::Fixed(1))
        .col("pruned KB/q", "pruned_kb_per_q", Fmt::Fixed(1))
        .col("bcast ms (m/p50/p95)", "bcast_ms", Fmt::Fixed(2))
        .col("bcast subq/q", "bcast_sub_queries_per_q", Fmt::Fixed(1))
        .col("bcast KB/q", "bcast_kb_per_q", Fmt::Fixed(1))
        .col("retries", "retries", Fmt::Plain);

    for k in [1usize, 4, 16, 64, 256] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let points: Vec<Point> = (0..queries_per_point)
            .map(|_| Point::new(rng.gen_range(0.0..EXTENT_M), rng.gen_range(0.0..EXTENT_M)))
            .collect();

        let before = cluster.fabric_stats();
        let (p1_before, p2_before, bc_before) = (
            op_stats(&cluster, "knn_phase1"),
            op_stats(&cluster, "knn_phase2"),
            op_stats(&cluster, "knn_broadcast"),
        );
        let mut pruned_samples = Vec::new();
        for &at in &points {
            let (result, secs) = timed(|| cluster.knn_query(at, window, k).expect("knn"));
            pruned_samples.push(secs);
            assert_eq!(result.len(), k.min(archive));
        }
        let mid = cluster.fabric_stats();
        let mut bcast_samples = Vec::new();
        for &at in &points {
            let broadcast = KnnOp::broadcast(at, window, k);
            let (result, secs) = timed(|| cluster.query(broadcast, &QueryOpts::STRICT));
            bcast_samples.push(secs);
            assert_eq!(result.expect("knn").value.len(), k.min(archive));
        }
        let after = cluster.fabric_stats();

        let pruned = mid.since(&before);
        let bcast = after.since(&mid);
        // Executor view of the same traffic: workers contacted per query
        // (phase 1 is always one; phase 2 grows with the k-th distance)
        // and timeout retries (zero on the clean LAN model).
        let p1 = op_stats(&cluster, "knn_phase1").since(&p1_before);
        let p2 = op_stats(&cluster, "knn_phase2").since(&p2_before);
        let bc = op_stats(&cluster, "knn_broadcast").since(&bc_before);
        let q = points.len() as f64;
        fig.row(cells![
            k,
            LatencyStats::from_samples(&pruned_samples).ms(),
            (p1.sub_queries + p2.sub_queries) as f64 / q,
            pruned.total_bytes as f64 / 1024.0 / q,
            LatencyStats::from_samples(&bcast_samples).ms(),
            bc.sub_queries as f64 / q,
            bcast.total_bytes as f64 / 1024.0 / q,
            p1.retries + p2.retries + bc.retries,
        ]);
    }
    cluster.shutdown();
    fig.note("(both strategies verified to return identical result sets by the test suite)");
    fig.finish();
}
