//! Figure 9 — trajectory stitching accuracy vs appearance noise:
//! topology-gated hand-off vs the appearance-only greedy baseline.
//!
//! A dense city (400 entities) streamed for two simulated minutes; the
//! detector's signature noise σ sweeps from near-clean to severe. Scores
//! are link-level precision/recall/F1 against ground truth. Expected
//! shape: both methods are accurate at low noise; as appearance becomes
//! ambiguous the greedy baseline's precision collapses (it links
//! look-alikes across physically impossible hops) while the hand-off
//! method's camera-adjacency and transition-time gates hold precision
//! high, at some recall cost.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig9_stitching
//! ```

use stcam::stitch::{build_tracklets, score_links, stitch_greedy, stitch_handoff, StitchConfig};
use stcam_bench::{cells, Figure, Fmt};
use stcam_camnet::TransitionModel;
use stcam_geo::Duration;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 9: stitching accuracy vs signature noise",
    );
    let (entities, seconds) = fig.scale().pick((400, 120), (100, 60));
    fig.param("entities", entities);
    fig.param("seconds", seconds);
    fig.param("cameras", CAMERAS);
    fig.table("rows")
        .col("σ", "sigma", Fmt::Fixed(2))
        .col("tracklets", "tracklets", Fmt::Plain)
        .col("handoff P", "handoff_precision", Fmt::Fixed(3))
        .col("handoff R", "handoff_recall", Fmt::Fixed(3))
        .col("handoff F1", "handoff_f1", Fmt::Fixed(3))
        .col("greedy P", "greedy_precision", Fmt::Fixed(3))
        .col("greedy R", "greedy_recall", Fmt::Fixed(3))
        .col("greedy F1", "greedy_f1", Fmt::Fixed(3));

    for sigma in [0.05, 0.15, 0.25, 0.35, 0.45] {
        // Regenerate the stream at each noise level (same world seed, so
        // the underlying motion is identical; only the detector varies).
        let stream = rebuild_with_sigma(sigma as f32, entities, seconds);
        let config = StitchConfig {
            handoff_sig_threshold: (0.45 + 2.0 * sigma as f32).min(1.2),
            ..StitchConfig::default()
        };
        let tracklets = build_tracklets(&stream.observations, &config);
        let transitions = TransitionModel::from_network(&stream.network, stream.world.roads());
        let handoff = stitch_handoff(&tracklets, &stream.network, &transitions, &config);
        let greedy = stitch_greedy(&tracklets, &config, Duration::from_secs(seconds));
        let h = score_links(&tracklets, &handoff);
        let g = score_links(&tracklets, &greedy);
        fig.row(cells![
            sigma,
            tracklets.len(),
            h.precision(),
            h.recall(),
            h.f1(),
            g.precision(),
            g.recall(),
            g.f1(),
        ]);
    }
    fig.note("(hand-off threshold adapts to σ as 0.45 + 2σ, capped at 1.2, for both methods)");
    fig.finish();
}

const CAMERAS: usize = 200;

fn rebuild_with_sigma(sigma: f32, entities: usize, seconds: u64) -> stcam_bench::CityStream {
    use stcam_camnet::{CameraNetwork, DetectionModel, SensorSim};
    use stcam_geo::Timestamp;
    use stcam_world::{MobilityModel, Placement, World, WorldConfig};

    let config = WorldConfig {
        extent: stcam_bench::square_extent(4_000.0),
        road_spacing: 200.0,
        class_counts: [0; 4],
        mobility: MobilityModel::Trip,
        placement: Placement::Uniform,
        record_interval: Duration::from_secs(1),
        churn_per_minute: 0.0,
        seed: 31,
    }
    .with_total_entities(entities);
    let mut world = World::new(config);
    let network = CameraNetwork::deploy_on_roads(world.roads(), CAMERAS, 32);
    let model = DetectionModel::default().with_signature_sigma(sigma);
    let mut sim = SensorSim::new(network, model, 33);
    let mut observations = Vec::new();
    while world.now() < Timestamp::from_secs(seconds) {
        observations.extend(sim.observe(&world));
        world.step(Duration::from_millis(500));
    }
    let network = CameraNetwork::deploy_on_roads(world.roads(), CAMERAS, 32);
    stcam_bench::CityStream {
        observations,
        world,
        network,
    }
}
