//! Figure 7 — aggregate (heat-map) queries: worker-side partial
//! aggregation vs shipping all matches to the coordinator.
//!
//! Both strategies produce identical bucket counts; partial aggregation
//! moves one sparse counts vector per worker instead of every matching
//! observation, so its traffic is (near-)independent of the data volume
//! while ship-all grows linearly with it. Ship-all is the paper's
//! baseline built from the public API: a `range_query` over the bucket
//! grid's extent, bucketed at the caller.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig7_aggregate
//! ```

use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, square_extent, synthetic_stream, timed, window_secs,
    Figure, Fmt,
};
use stcam_geo::GridSpec;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;
const REPEATS: usize = 10;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 7: heat-map aggregation, partial vs ship-all (64×64 buckets)",
    );
    let archives = fig.scale().pick(
        [100_000usize, 400_000, 1_600_000],
        [25_000, 50_000, 100_000],
    );
    fig.param("workers", WORKERS);
    fig.param("repeats", REPEATS);
    let extent = square_extent(EXTENT_M);
    let buckets = GridSpec::covering(extent, EXTENT_M / 64.0);
    let window = window_secs(600);
    fig.table("rows")
        .col("archive", "archive", Fmt::Count)
        .col("partial ms", "partial_ms", Fmt::Fixed(2))
        .col("partial KB/q", "partial_kb_per_q", Fmt::Fixed(1))
        .col("ship-all ms", "ship_all_ms", Fmt::Fixed(2))
        .col("ship-all KB/q", "ship_all_kb_per_q", Fmt::Fixed(1))
        .col("traffic ratio", "traffic_ratio", Fmt::Times(0));

    for archive in archives {
        let cluster = launch(lan_config(extent, WORKERS, 0));
        let stream = synthetic_stream(archive, extent, 600, 17);
        ingest_chunked(&cluster, &stream, 2000);

        let before = cluster.fabric_stats();
        let (partial_result, partial_s) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..REPEATS {
                last = cluster.heatmap(&buckets, window).expect("heatmap");
            }
            last
        });
        let mid = cluster.fabric_stats();
        let (shipall_result, shipall_s) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..REPEATS {
                let rows = cluster
                    .range_query(buckets.extent(), window)
                    .expect("range");
                last = vec![0u64; buckets.cell_count() as usize];
                for cell in rows.iter().filter_map(|o| buckets.cell_of(o.position)) {
                    last[(cell.row * buckets.cols() + cell.col) as usize] += 1;
                }
            }
            last
        });
        let after = cluster.fabric_stats();
        assert_eq!(partial_result, shipall_result, "strategies disagree");

        let partial_kb = mid.since(&before).total_bytes as f64 / 1024.0 / REPEATS as f64;
        let shipall_kb = after.since(&mid).total_bytes as f64 / 1024.0 / REPEATS as f64;
        fig.row(cells![
            archive,
            partial_s * 1e3 / REPEATS as f64,
            partial_kb,
            shipall_s * 1e3 / REPEATS as f64,
            shipall_kb,
            shipall_kb / partial_kb,
        ]);
        cluster.shutdown();
    }
    fig.finish();
}
