//! Table 1 — workload characteristics.
//!
//! Reports, per deployment scale, the camera count, ground coverage,
//! entity population, observation rate, and mean wire size per
//! observation (in a batch): the envelope every other experiment operates in.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin tab1_workload
//! ```

use stcam_bench::{cells, city_stream, Figure, Fmt};
use stcam_camnet::ObservationBatch;
use stcam_codec::encoded_len;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Table 1: workload characteristics (reconstructed evaluation)",
    );
    // Simulated seconds per deployment: the rates are per second, so the
    // quick run shortens the simulation, not the deployments.
    let seconds = fig.scale().pick([30, 30, 20], [6, 4, 2]);
    fig.param("seconds", seconds);
    fig.table("rows")
        .col("deployment", "deployment", Fmt::Plain)
        .col("extent km²", "extent_km2", Fmt::Fixed(0))
        .col("cameras", "cameras", Fmt::Plain)
        .col("coverage", "coverage", Fmt::Percent(0))
        .col("entities", "entities", Fmt::Count)
        .col("obs/s", "obs_per_s", Fmt::Count)
        .col("bytes/obs", "bytes_per_obs", Fmt::Plain)
        .col("fp rate", "false_positive_rate", Fmt::Percent(1));
    // (label, extent m, cameras, entities)
    let scales = [
        ("town", 2_000.0, 100usize, 500usize),
        ("district", 4_000.0, 400, 2_000),
        ("city", 8_000.0, 1_000, 10_000),
    ];
    for ((label, extent_m, cameras, entities), seconds) in scales.into_iter().zip(seconds) {
        let stream = city_stream(extent_m, cameras, entities, seconds, 42);
        let n = stream.observations.len();
        let sample = &stream.observations[..n.min(1000)];
        let false_positives = stream.observations.iter().filter(|o| o.is_false_positive());
        fig.row(cells![
            label,
            (extent_m / 1000.0) * (extent_m / 1000.0),
            cameras,
            stream.network.coverage_fraction(60),
            entities,
            n as f64 / seconds as f64,
            encoded_len(&ObservationBatch(sample.to_vec())) / sample.len().max(1),
            false_positives.count() as f64 / n.max(1) as f64,
        ]);
    }
    fig.note("detector: p_detect 0.92, position σ 1.5 m, signature σ 0.08, class error 3%");
    fig.finish();
}
