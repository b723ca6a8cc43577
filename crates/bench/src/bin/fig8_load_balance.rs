//! Figure 8 — load balance under hotspot skew: uniform-hash vs load-aware
//! partitioning.
//!
//! Traffic concentrates around a downtown hotspot with increasing
//! intensity. Uniform partitioning assigns equal cell *counts*, so the
//! hotspot's owner melts; load-aware partitioning splits the Z-order
//! curve by measured per-cell load (here learned from a profiling prefix
//! of the stream, as the deployed system would). Metric: imbalance factor
//! = busiest worker's observations ÷ mean.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig8_load_balance
//! ```

use stcam::PartitionPolicy;
use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, skewed_stream, square_extent, Figure, Fmt,
};
use stcam_geo::Point;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 8: load imbalance vs hotspot intensity",
    );
    let stream_len = fig.scale().pick(200_000, 20_000);
    fig.param("workers", WORKERS);
    fig.param("observations", stream_len);
    let extent = square_extent(EXTENT_M);
    let center = Point::new(EXTENT_M / 2.0, EXTENT_M / 2.0);
    fig.table("rows")
        .col("hotspot fraction", "hotspot_fraction", Fmt::Percent(0))
        .col("uniform imbalance", "uniform_imbalance", Fmt::Fixed(2))
        .col(
            "load-aware imbalance",
            "load_aware_imbalance",
            Fmt::Fixed(2),
        )
        .col("improvement", "improvement", Fmt::Percent(1));

    for fraction in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let stream = skewed_stream(stream_len, extent, 600, 23, center, 400.0, fraction);
        // Profiling prefix: the first 10% of the stream feeds the load
        // model, exactly as a rebalance epoch would in deployment.
        let profile_len = stream_len / 10;
        let mut imbalances = Vec::new();
        for policy in [PartitionPolicy::UniformHash, PartitionPolicy::LoadAware] {
            let mut config = lan_config(extent, WORKERS, 0)
                .with_partition_policy(policy)
                .with_macro_cell_size(EXTENT_M / 32.0);
            if policy == PartitionPolicy::LoadAware {
                let grid = config.macro_grid();
                let mut loads = vec![0u64; grid.cell_count() as usize];
                for obs in &stream[..profile_len] {
                    let cell = grid.cell_of_clamped(obs.position);
                    loads[cell.row as usize * grid.cols() as usize + cell.col as usize] += 1;
                }
                config = config.with_load_profile(loads);
            }
            let cluster = launch(config);
            ingest_chunked(&cluster, &stream, 2000);
            let stats = cluster.stats().expect("stats");
            assert_eq!(stats.total_primary() as usize, stream_len);
            imbalances.push(stats.imbalance());
            cluster.shutdown();
        }
        fig.row(cells![
            fraction,
            imbalances[0],
            imbalances[1],
            1.0 - imbalances[1] / imbalances[0],
        ]);
    }
    fig.note("(imbalance 1.00 = perfect balance; hotspot σ = 400 m at the city centre)");
    fig.finish();
}
