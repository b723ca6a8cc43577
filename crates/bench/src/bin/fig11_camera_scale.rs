//! Figure 11 — end-to-end scale-up: sustained ingest rate vs camera-network
//! size.
//!
//! The full pipeline (city simulation → detectors → edge ingestors →
//! cluster) at growing deployment scales, entities proportional to
//! cameras, cluster size fixed at 8 workers. Metrics: the observation
//! rate the deployment *generates* and the rate the bottleneck shard can
//! *sustain* (critical path, as in Figure 4). The deployment saturates
//! the 8-worker cluster when generated rate crosses sustained rate —
//! the provisioning rule the framework gives operators.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig11_camera_scale
//! ```

use stcam_bench::{
    cells, city_stream, lan_config, launch, max_shard_busy_secs, square_extent, timed, Figure, Fmt,
};

const WORKERS: usize = 8;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 11: deployment scale-up at a fixed cluster size",
    );
    let seconds: u64 = fig.scale().pick(20, 4);
    fig.param("workers", WORKERS);
    fig.param("city_seconds_per_point", seconds);
    fig.table("rows")
        .col("cameras", "cameras", Fmt::Plain)
        .col("entities", "entities", Fmt::Count)
        .col("observations", "observations", Fmt::Count)
        .col("generated obs/s", "generated_obs_per_s", Fmt::Count)
        .col("ingest wall s", "ingest_wall_s", Fmt::Fixed(2))
        .col("max-shard busy s", "max_shard_busy_s", Fmt::Fixed(3))
        .col(
            "sustained obs/s (crit path)",
            "sustained_obs_per_s",
            Fmt::Count,
        )
        .col("headroom", "headroom", Fmt::Times(0));

    for (cameras, entities, extent_m) in [
        (250usize, 2_500usize, 4_000.0),
        (500, 5_000, 5_600.0),
        (1_000, 10_000, 8_000.0),
        (2_000, 20_000, 11_200.0),
        (4_000, 40_000, 16_000.0),
    ] {
        let stream = city_stream(extent_m, cameras, entities, seconds, 61);
        let n = stream.observations.len();
        let generated_rate = n as f64 / seconds as f64;

        let cluster = launch(lan_config(square_extent(extent_m), WORKERS, 1));
        let ingestor = cluster.create_ingestor();
        let ((), wall) = timed(|| {
            for chunk in stream.observations.chunks(1000) {
                ingestor.ingest(chunk.to_vec()).expect("ingest");
            }
            ingestor.flush().expect("flush");
        });
        let stats = cluster.stats().expect("stats");
        assert_eq!(stats.total_primary() as usize, n, "observations lost");
        let max_busy_s = max_shard_busy_secs(&stats);
        let sustained_rate = n as f64 / max_busy_s.max(1e-9);
        fig.row(cells![
            cameras,
            entities,
            n,
            generated_rate,
            wall,
            max_busy_s,
            sustained_rate,
            sustained_rate / generated_rate,
        ]);
        cluster.shutdown();
    }
    fig.note("(headroom = sustained ÷ generated; the cluster saturates where it crosses 1x)");
    fig.finish();
}
