//! The framework under realistic population churn: entities park and new
//! ones depart continuously, so identities appear and disappear in the
//! stream. Stitching must not merge a departed entity with its
//! replacement, and continuous queries must track the live population.

use std::time::Duration as StdDuration;

use stcam::stitch::{build_tracklets, score_links, stitch_handoff, StitchConfig};
use stcam::{Cluster, ClusterConfig, Predicate};
use stcam_camnet::{CameraNetwork, DetectionModel, Observation, SensorSim, TransitionModel};
use stcam_geo::{BBox, Duration, Point, TimeInterval, Timestamp};
use stcam_net::LinkModel;
use stcam_world::{MobilityModel, World, WorldConfig};

fn churny_pipeline(
    seconds: u64,
    seed: u64,
) -> (World, CameraNetwork, TransitionModel, Vec<Observation>) {
    let config = WorldConfig::small_town()
        .with_seed(seed)
        .with_mobility(MobilityModel::Trip)
        .with_total_entities(150)
        .with_churn_per_minute(1.2); // 2% of the population per second
    let mut world = World::new(config);
    let network = CameraNetwork::deploy_on_roads(world.roads(), 80, seed + 1);
    let transitions = TransitionModel::from_network(&network, world.roads());
    let mut sim = SensorSim::new(network, DetectionModel::default(), seed + 2);
    let mut observations = Vec::new();
    while world.now() < Timestamp::from_secs(seconds) {
        observations.extend(sim.observe(&world));
        world.step(Duration::from_millis(500));
    }
    let network = CameraNetwork::deploy_on_roads(world.roads(), 80, seed + 1);
    (world, network, transitions, observations)
}

#[test]
fn churn_produces_distinct_identities_in_the_stream() {
    let (world, _network, _transitions, observations) = churny_pipeline(60, 1);
    assert!(
        world.departures() > 30,
        "only {} departures",
        world.departures()
    );
    let mut identities = std::collections::HashSet::new();
    for obs in &observations {
        if let Some(e) = obs.truth {
            identities.insert(e);
        }
    }
    // Some observed identities have since departed: the stream contains
    // entities that no longer exist, which is precisely what downstream
    // analysis must cope with.
    let alive: std::collections::HashSet<_> = world.entities().map(|e| e.id).collect();
    let departed_but_observed = identities.difference(&alive).count();
    assert!(
        departed_but_observed > 5,
        "only {departed_but_observed} departed identities were ever observed"
    );
}

#[test]
fn stitching_does_not_chain_across_identity_changes() {
    let (_world, network, transitions, observations) = churny_pipeline(90, 2);
    let config = StitchConfig::default();
    let tracklets = build_tracklets(&observations, &config);
    let tracks = stitch_handoff(&tracklets, &network, &transitions, &config);
    let score = score_links(&tracklets, &tracks);
    // Replacement entities have fresh signatures, so precision must stay
    // high despite identities swapping mid-stream.
    assert!(
        score.precision() > 0.9,
        "precision {:.3} under churn",
        score.precision()
    );
}

#[test]
fn cluster_serves_a_churning_stream_end_to_end() {
    let (world, _network, _transitions, observations) = churny_pipeline(45, 3);
    let extent = world.extent();
    let cluster = Cluster::launch(
        ClusterConfig::new(extent, 4)
            .with_replication(1)
            .with_link(LinkModel::instant()),
    )
    .unwrap();
    let fence = BBox::around(Point::new(1000.0, 1000.0), 500.0);
    let query = cluster
        .coordinator()
        .register_continuous(Predicate {
            region: fence,
            class: None,
        })
        .unwrap();
    let n = observations.len();
    for chunk in observations.chunks(500) {
        cluster.ingest(chunk.to_vec()).unwrap();
    }
    cluster.flush().unwrap();
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(60));
    assert_eq!(
        cluster
            .range_query(extent.inflated(500.0), window)
            .unwrap()
            .len(),
        n
    );
    // Fence matches reference the same observations the range query sees.
    let expected_in_fence = cluster.range_query(fence, window).unwrap().len();
    let notified: usize = cluster
        .poll_notifications(StdDuration::from_secs(2))
        .iter()
        .filter(|nf| nf.query == query)
        .map(|nf| nf.matches.len())
        .sum();
    assert_eq!(notified, expected_in_fence);
    cluster.shutdown();
}
