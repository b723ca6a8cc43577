//! Figure 5 — range-query latency vs query region size.
//!
//! A fixed archive of one million observations; query squares sweep from
//! 0.01% to 25% of the deployment area. Three systems: the distributed
//! cluster (8 workers), the centralized grid index, and the centralized
//! flat scan. Expected shape: flat scan is size-independent (always
//! ~full-scan cost) and overtakes the index once selectivity is low
//! enough; the indexed systems grow with hit count; the cluster's
//! *critical path* (busiest shard's scan time — its latency when each worker
//! is a machine) wins on large regions through parallel shard scans but
//! pays a constant scatter/gather overhead on tiny ones. Cluster
//! wall-clock on a low-core host additionally pays result
//! serialization. The executor's own telemetry splits that wall time
//! into scatter (fan-out + worker + wire) and merge (coordinator-side
//! combine) — merge grows with hit count, scatter dominates tiny
//! queries.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig5_range_latency
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, max_shard_busy_secs, op_stats, square_extent,
    synthetic_stream, timed, window_secs, Figure, Fmt, LatencyStats,
};
use stcam_geo::{BBox, Duration, Point};
use stcam_index::{FlatIndex, IndexConfig, StIndex};

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 5: range-query latency vs region size",
    );
    let archive = fig.scale().pick(1_000_000, 100_000);
    let queries_per_point = fig.scale().pick(60usize, 10);
    fig.param("archive", archive);
    fig.param("workers", WORKERS);
    fig.param("queries_per_point", queries_per_point);
    let extent = square_extent(EXTENT_M);
    let stream = synthetic_stream(archive, extent, 600, 11);

    let cluster = launch(lan_config(extent, WORKERS, 0));
    ingest_chunked(&cluster, &stream, 2000);

    let mut indexed = StIndex::new(IndexConfig::new(extent, 100.0, Duration::from_secs(10)));
    indexed.insert_batch(stream.clone());
    let flat: FlatIndex = stream.into_iter().collect();

    let window = window_secs(600);
    fig.table("rows")
        .col("area %", "area_pct", Fmt::Plain)
        .col("side m", "side_m", Fmt::Fixed(0))
        .col("hits", "hits", Fmt::Count)
        .col(
            "cluster wall ms (m/p50/p95)",
            "cluster_wall_ms",
            Fmt::Fixed(2),
        )
        .col("scatter/merge ms", "scatter_merge_ms", Fmt::Fixed(2))
        .col(
            "cluster crit-path ms",
            "cluster_crit_path_ms",
            Fmt::Fixed(2),
        )
        .col("central-idx ms", "central_idx_ms", Fmt::Fixed(2))
        .col("flat-scan ms", "flat_scan_ms", Fmt::Fixed(2));

    for area_pct in [0.01, 0.1, 1.0, 5.0, 25.0] {
        let side = EXTENT_M * (area_pct / 100.0f64).sqrt();
        let mut rng = StdRng::seed_from_u64(area_pct.to_bits());
        let regions: Vec<BBox> = (0..queries_per_point)
            .map(|_| {
                let x = rng.gen_range(0.0..EXTENT_M - side);
                let y = rng.gen_range(0.0..EXTENT_M - side);
                BBox::new(Point::new(x, y), Point::new(x + side, y + side))
            })
            .collect();

        let mut hits = 0usize;
        let mut samples_cluster = Vec::new();
        let mut samples_indexed = Vec::new();
        let mut samples_flat = Vec::new();
        let busy_before = max_shard_busy_secs(&cluster.stats().expect("stats"));
        let exec_before = op_stats(&cluster, "range");
        for region in &regions {
            let (found, secs) = timed(|| cluster.range_query(*region, window).expect("query"));
            hits += found.len();
            samples_cluster.push(secs);
            samples_indexed.push(timed(|| indexed.range(*region, window)).1);
            // An owned answer, as the index returns.
            let owned = || -> Vec<_> { flat.range(*region, window).into_iter().cloned().collect() };
            samples_flat.push(timed(owned).1);
        }
        let busy_after = max_shard_busy_secs(&cluster.stats().expect("stats"));
        // The executor's latency split over the same queries: scatter
        // (fan-out through gather) vs merge (combining the partials).
        let exec = op_stats(&cluster, "range").since(&exec_before);
        let q = regions.len() as f64;
        fig.row(cells![
            area_pct,
            side,
            hits as f64 / q,
            LatencyStats::from_samples(&samples_cluster).ms(),
            [
                exec.scatter_micros as f64 / 1e3 / q,
                exec.merge_micros as f64 / 1e3 / q
            ],
            (busy_after - busy_before) * 1e3 / q,
            LatencyStats::from_samples(&samples_indexed).mean * 1e3,
            LatencyStats::from_samples(&samples_flat).mean * 1e3,
        ]);
    }
    cluster.shutdown();
    fig.finish();
}
