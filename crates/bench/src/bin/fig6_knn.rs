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
    fmt_count, ingest_chunked, lan_config, launch, op_stats, square_extent, synthetic_stream,
    window_secs, LatencyStats, Table,
};
use stcam_geo::Point;

const ARCHIVE: usize = 1_000_000;
const EXTENT_M: f64 = 8_000.0;
const QUERIES_PER_POINT: usize = 60;
const WORKERS: usize = 16;

fn main() {
    let extent = square_extent(EXTENT_M);
    let stream = synthetic_stream(ARCHIVE, extent, 600, 13);
    println!(
        "Figure 6: kNN two-phase pruning vs broadcast ({} archive, {WORKERS} workers)\n",
        fmt_count(ARCHIVE as f64)
    );
    let cluster = launch(lan_config(extent, WORKERS, 0));
    ingest_chunked(&cluster, &stream, 2000);

    let window = window_secs(600);
    let mut table = Table::new(&[
        "k",
        "pruned ms (m/p50/p95)",
        "pruned subq/q",
        "pruned KB/q",
        "bcast ms (m/p50/p95)",
        "bcast subq/q",
        "bcast KB/q",
        "retries",
    ]);

    for k in [1usize, 4, 16, 64, 256] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let points: Vec<Point> = (0..QUERIES_PER_POINT)
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
            let t0 = std::time::Instant::now();
            let result = cluster.knn_query(at, window, k).expect("knn");
            pruned_samples.push(t0.elapsed().as_secs_f64());
            assert_eq!(result.len(), k.min(ARCHIVE));
        }
        let mid = cluster.fabric_stats();
        let mut bcast_samples = Vec::new();
        for &at in &points {
            let t0 = std::time::Instant::now();
            let result = cluster
                .query(KnnOp::broadcast(at, window, k), &QueryOpts::STRICT)
                .expect("knn");
            bcast_samples.push(t0.elapsed().as_secs_f64());
            assert_eq!(result.value.len(), k.min(ARCHIVE));
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
        table.row(&[
            k.to_string(),
            LatencyStats::from_samples(&pruned_samples).render_ms(),
            format!("{:.1}", (p1.sub_queries + p2.sub_queries) as f64 / q),
            format!("{:.1}", pruned.total_bytes as f64 / 1024.0 / q),
            LatencyStats::from_samples(&bcast_samples).render_ms(),
            format!("{:.1}", bc.sub_queries as f64 / q),
            format!("{:.1}", bcast.total_bytes as f64 / 1024.0 / q),
            (p1.retries + p2.retries + bc.retries).to_string(),
        ]);
    }
    table.print();
    println!("\n(both strategies verified to return identical result sets by the test suite)");
    cluster.shutdown();
}
