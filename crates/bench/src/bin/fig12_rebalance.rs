//! Figure 12 (ablation) — online rebalancing under traffic drift.
//!
//! Traffic starts uniform, then a hotspot appears, then it moves across
//! town. After each epoch the coordinator rebalances by measured load and
//! migrates the affected shards. Reported: imbalance before/after each
//! rebalance and the migration bill (cells, observations, bytes). The
//! ablation point: without rebalancing (the "static" column) imbalance
//! compounds across epochs; with it, the cluster returns to ≈1.0 for a
//! bounded, load-proportional migration cost.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig12_rebalance
//! ```

use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, skewed_stream, square_extent, synthetic_stream,
    window_secs, Figure, Fmt,
};
use stcam_geo::Point;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 12 (ablation): online rebalancing under traffic drift",
    );
    let epoch_len = fig.scale().pick(100_000, 10_000);
    fig.param("workers", WORKERS);
    fig.param("obs_per_epoch", epoch_len);
    let extent = square_extent(EXTENT_M);
    let hotspot = |seed, at| skewed_stream(epoch_len, extent, 600, seed, at, 400.0, 0.7);
    let epochs = [
        ("uniform", synthetic_stream(epoch_len, extent, 600, 71)),
        ("hotspot SW", hotspot(72, Point::new(1500.0, 1500.0))),
        ("hotspot NE", hotspot(73, Point::new(6500.0, 6500.0))),
    ];

    // Static cluster (never rebalances) for the ablation column.
    let static_cluster = launch(lan_config(extent, WORKERS, 0));
    let adaptive = launch(lan_config(extent, WORKERS, 0).with_macro_cell_size(EXTENT_M / 32.0));

    fig.table("rows")
        .col("epoch", "epoch", Fmt::Plain)
        .col("static imbalance", "static_imbalance", Fmt::Fixed(2))
        .col("adaptive before", "adaptive_before", Fmt::Fixed(2))
        .col("adaptive after", "adaptive_after", Fmt::Fixed(2))
        .col("cells moved", "cells_moved", Fmt::Plain)
        .col("obs moved", "obs_moved", Fmt::Count)
        .col("MB moved", "mb_moved", Fmt::Fixed(1));

    for (label, stream) in &epochs {
        for cluster in [&static_cluster, &adaptive] {
            ingest_chunked(cluster, stream, 2000);
        }
        let static_imbalance = static_cluster.stats().expect("stats").imbalance();
        let traffic_before = adaptive.fabric_stats().total_bytes;
        let report = adaptive.coordinator().rebalance().expect("rebalance");
        let moved = adaptive.fabric_stats().total_bytes - traffic_before;
        fig.row(cells![
            *label,
            static_imbalance,
            report.imbalance_before,
            report.imbalance_after,
            report.cells_moved,
            report.observations_moved,
            moved as f64 / (1024.0 * 1024.0),
        ]);
    }
    // Sanity: nothing lost across three epochs of migration.
    let held = adaptive
        .range_query(extent, window_secs(10_000))
        .expect("audit")
        .len();
    fig.note(format!(
        "audit: adaptive cluster holds {held} of {} ingested observations",
        3 * epoch_len
    ));
    fig.finish();
    assert_eq!(
        held,
        3 * epoch_len,
        "rebalance migrations must conserve every observation"
    );
    static_cluster.shutdown();
    adaptive.shutdown();
}
