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
    fmt_count, ingest_chunked, lan_config, launch, square_extent, synthetic_stream, timed,
    window_secs, Table,
};
use stcam_geo::GridSpec;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;
const REPEATS: usize = 10;

fn main() {
    let extent = square_extent(EXTENT_M);
    println!(
        "Figure 7: heat-map aggregation, partial vs ship-all ({WORKERS} workers, 64×64 buckets)\n"
    );
    let buckets = GridSpec::covering(extent, EXTENT_M / 64.0);
    let window = window_secs(600);
    let mut table = Table::new(&[
        "archive",
        "partial ms",
        "partial KB/q",
        "ship-all ms",
        "ship-all KB/q",
        "traffic ratio",
    ]);

    for archive in [100_000usize, 400_000, 1_600_000] {
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
        table.row(&[
            fmt_count(archive as f64),
            format!("{:.2}", partial_s * 1e3 / REPEATS as f64),
            format!("{partial_kb:.1}"),
            format!("{:.2}", shipall_s * 1e3 / REPEATS as f64),
            format!("{shipall_kb:.1}"),
            format!("{:.0}x", shipall_kb / partial_kb),
        ]);
        cluster.shutdown();
    }
    table.print();
}
