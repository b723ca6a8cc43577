//! Figure 14 — concurrent query clients vs. throughput.
//!
//! The headline number for the lock-free query plane: N client threads
//! issue a fixed mixed read workload (range / pruned kNN / heat-map)
//! against one shared cluster, and we report aggregate throughput as N
//! sweeps 1 → 16. Before the query plane, every read serialised on the
//! coordinator's mutex and a single fabric endpoint, so adding client
//! threads bought nothing; epoch-published plans and pooled endpoints
//! unblocked the client side, and the worker-side read-executor pool
//! removed the last serialisation point (each worker's single dispatch
//! loop), so the run now asserts ≥ 6× at 8 threads — and per-operation
//! telemetry must still account for every invocation issued by every
//! thread, exactly once. Per-op latency histograms report p50/p95/p99
//! alongside throughput.
//!
//! The metro link model (2 ms base latency between camera aggregation
//! sites) makes each query latency-dominated, which is the regime the
//! concurrency win targets: overlapping round trips, not multiplying
//! CPU. On a many-core host the sweep additionally overlaps worker
//! compute; the gate only assumes latency overlap plus the worker read
//! pool, so it holds on a single-core CI runner too.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig14_concurrent_clients
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam::{Cluster, HeatmapOp, Knn, QueryOpts, RangeOp};
use stcam_bench::{
    cells, ingest_chunked, launch, op_stats, percentiles_ms, square_extent, synthetic_stream,
    timed, window_secs, Figure, Fmt,
};
use stcam_geo::{BBox, GridSpec, Point};
use stcam_net::LinkModel;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;

/// The per-thread workload: `ops` queries cycling range → kNN →
/// heat-map, deterministic per thread index. Returns per-kind counts.
fn client(cluster: &Cluster, thread: usize, ops: usize, issued: &[AtomicU64; 3]) {
    let window = window_secs(600);
    let buckets = GridSpec::covering(square_extent(EXTENT_M), EXTENT_M / 64.0);
    let mut rng = StdRng::seed_from_u64(1000 + thread as u64);
    for i in 0..ops {
        let p = Point::new(rng.gen_range(0.0..EXTENT_M), rng.gen_range(0.0..EXTENT_M));
        match i % 3 {
            0 => {
                cluster
                    .query(
                        RangeOp::new(BBox::around(p, 250.0), window),
                        &QueryOpts::STRICT,
                    )
                    .expect("range");
                issued[0].fetch_add(1, Ordering::Relaxed);
            }
            1 => {
                cluster
                    .query(
                        Knn {
                            at: p,
                            window,
                            k: 16,
                        },
                        &QueryOpts::STRICT,
                    )
                    .expect("knn");
                issued[1].fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                cluster
                    .query(HeatmapOp { buckets, window }, &QueryOpts::STRICT)
                    .expect("heatmap");
                issued[2].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 14: concurrent query clients (mixed range / kNN / heat-map reads)",
    );
    let archive = fig.scale().pick(20_000, 4_000);
    let ops = fig.scale().pick(40usize, 12);
    let sweep: &[usize] = fig.scale().pick(&[1, 2, 4, 8, 16], &[1, 2, 4, 8]);
    fig.param("workers", WORKERS);
    fig.param("archive", archive);
    fig.param("ops_per_thread", ops);

    let extent = square_extent(EXTENT_M);
    let cluster = launch(
        stcam::ClusterConfig::new(extent, WORKERS)
            .with_replication(1)
            .with_link(LinkModel::metro()),
    );
    let stream = synthetic_stream(archive, extent, 600, 41);
    ingest_chunked(&cluster, &stream, 1_000);

    fig.table("rows")
        .col("threads", "threads", Fmt::Plain)
        .col("ops", "ops", Fmt::Plain)
        .col("wall s", "wall_s", Fmt::Fixed(2))
        .col("ops/s", "ops_per_s", Fmt::Fixed(0))
        .col("speedup", "speedup_vs_1", Fmt::Times(2))
        .col("p50/p95/p99 ms", "latency_mixed_ms", Fmt::Fixed(1))
        .col("range ms", "latency_range_ms", Fmt::Fixed(1))
        .col("kNN phase 1 ms", "latency_knn_phase1_ms", Fmt::Fixed(1))
        .col("heat-map ms", "latency_heatmap_ms", Fmt::Fixed(1));
    let mut baseline_ops_s = 0.0;
    let mut speedup_at_8 = 0.0;

    for &threads in sweep {
        let issued: [AtomicU64; 3] = Default::default();
        let before = [
            op_stats(&cluster, "range"),
            op_stats(&cluster, "knn_phase1"),
            op_stats(&cluster, "heatmap"),
        ];
        let ((), wall) = timed(|| {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (cluster, issued) = (&cluster, &issued);
                    scope.spawn(move || client(cluster, t, ops, issued));
                }
            });
        });
        // Telemetry must add up exactly: every thread's every query is
        // booked once in the shared account, no lost updates, no
        // cross-attribution.
        let deltas = [
            op_stats(&cluster, "range").since(&before[0]),
            op_stats(&cluster, "knn_phase1").since(&before[1]),
            op_stats(&cluster, "heatmap").since(&before[2]),
        ];
        for (kind, (d, issued)) in ["range", "knn_phase1", "heatmap"]
            .iter()
            .zip(deltas.iter().zip(&issued))
        {
            assert_eq!(
                d.invocations,
                issued.load(Ordering::Relaxed),
                "telemetry lost {kind} invocations at {threads} threads"
            );
            assert_eq!(d.failures, 0, "{kind} failures at {threads} threads");
        }
        let ops_s = (threads * ops) as f64 / wall;
        if threads == 1 {
            baseline_ops_s = ops_s;
        }
        if threads == 8 {
            speedup_at_8 = ops_s / baseline_ops_s;
        }
        let latency = deltas.map(|d| d.latency);
        fig.row(cells![
            threads,
            threads * ops,
            wall,
            ops_s,
            ops_s / baseline_ops_s,
            percentiles_ms(&latency),
            percentiles_ms([&latency[0]]),
            percentiles_ms([&latency[1]]),
            percentiles_ms([&latency[2]]),
        ]);
    }
    cluster.shutdown();
    fig.note(
        "(shared cluster, metro link model; speedup is aggregate ops/s vs the\n\
         single-client run — the pre-query-plane architecture pinned this at ~1x,\n\
         the pre-read-pool worker at ~3.8x)",
    );
    fig.finish();

    assert!(
        speedup_at_8 >= 6.0,
        "read-path scaling regression: {speedup_at_8:.2}x at 8 threads (< 6x)"
    );
    println!("gates: {speedup_at_8:.2}x at 8 threads (>= 6x) — ok");
}
