//! End-to-end pipeline: synthetic world → camera detections → distributed
//! cluster → queries, validated against a centralized oracle fed the exact
//! same observation stream.

use std::time::Duration as StdDuration;

use stcam::{Cluster, ClusterConfig};
use stcam_camnet::{CameraNetwork, DetectionModel, Observation, SensorSim};
use stcam_geo::{BBox, Duration, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::{IndexConfig, StIndex};
use stcam_net::LinkModel;
use stcam_world::{World, WorldConfig};

/// Streams `seconds` of simulated city life through the detector,
/// returning every produced observation.
fn generate_stream(seconds: u64, seed: u64) -> (World, Vec<Observation>) {
    let mut world = World::new(WorldConfig::small_town().with_seed(seed));
    let cams = CameraNetwork::deploy_on_roads(world.roads(), 60, seed + 1);
    let mut sim = SensorSim::new(cams, DetectionModel::default(), seed + 2);
    let mut all = Vec::new();
    let step = Duration::from_millis(500);
    while world.now() < Timestamp::from_secs(seconds) {
        all.extend(sim.observe(&world));
        world.step(step);
    }
    (world, all)
}

fn launch(workers: usize) -> Cluster {
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
    Cluster::launch(ClusterConfig::new(extent, workers).with_link(LinkModel::instant()))
        .expect("cluster launch")
}

fn oracle(stream: &[Observation]) -> StIndex {
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
    let mut store = StIndex::new(IndexConfig::new(extent, 50.0, Duration::from_secs(10)));
    store.insert_batch(stream.to_vec());
    store
}

#[test]
fn distributed_range_queries_match_centralized_oracle() {
    let (_world, stream) = generate_stream(20, 10);
    assert!(stream.len() > 500, "workload too small: {}", stream.len());
    let cluster = launch(5);
    cluster.ingest(stream.clone()).unwrap();
    cluster.flush().unwrap();
    let store = oracle(&stream);

    let queries = [
        (BBox::around(Point::new(1000.0, 1000.0), 300.0), (0, 20)),
        (BBox::around(Point::new(200.0, 1800.0), 500.0), (5, 15)),
        (
            BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0)),
            (0, 20),
        ),
        (BBox::around(Point::new(1500.0, 300.0), 50.0), (10, 11)),
    ];
    for (region, (t0, t1)) in queries {
        let window = TimeInterval::new(Timestamp::from_secs(t0), Timestamp::from_secs(t1));
        let got: Vec<_> = cluster
            .range_query(region, window)
            .unwrap()
            .iter()
            .map(|o| o.id)
            .collect();
        let want: Vec<_> = store.range(region, window).iter().map(|o| o.id).collect();
        assert_eq!(got, want, "range mismatch for {region} {window}");
    }
    cluster.shutdown();
}

#[test]
fn distributed_knn_matches_centralized_oracle() {
    let (_world, stream) = generate_stream(15, 20);
    let cluster = launch(4);
    cluster.ingest(stream.clone()).unwrap();
    cluster.flush().unwrap();
    let store = oracle(&stream);
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(15));

    for (x, y, k) in [
        (1000.0, 1000.0, 1),
        (1000.0, 1000.0, 32),
        (50.0, 50.0, 8),
        (1999.0, 1999.0, 100),
        (-20.0, 1000.0, 5), // outside the extent
    ] {
        let at = Point::new(x, y);
        let got: Vec<_> = cluster
            .knn_query(at, window, k)
            .unwrap()
            .iter()
            .map(|o| o.id)
            .collect();
        let want: Vec<_> = store.knn(at, window, k).iter().map(|o| o.id).collect();
        assert_eq!(got, want, "knn mismatch at {at}, k={k}");
    }
    cluster.shutdown();
}

#[test]
fn distributed_heatmap_matches_centralized_oracle() {
    let (_world, stream) = generate_stream(12, 30);
    let cluster = launch(6);
    cluster.ingest(stream.clone()).unwrap();
    cluster.flush().unwrap();
    let store = oracle(&stream);
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
    let window = TimeInterval::new(Timestamp::from_secs(2), Timestamp::from_secs(10));
    for bucket_size in [100.0, 250.0, 500.0] {
        let buckets = GridSpec::covering(extent, bucket_size);
        let got = cluster.heatmap(&buckets, window).unwrap();
        let want = store.heatmap(&buckets, window);
        assert_eq!(got, want, "heatmap mismatch at bucket size {bucket_size}");
    }
    cluster.shutdown();
}

#[test]
fn query_results_are_independent_of_worker_count() {
    let (_world, stream) = generate_stream(10, 40);
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10));
    let region = BBox::around(Point::new(900.0, 1100.0), 400.0);
    let mut reference: Option<Vec<_>> = None;
    for workers in [1, 2, 4, 8] {
        let cluster = launch(workers);
        cluster.ingest(stream.clone()).unwrap();
        cluster.flush().unwrap();
        let ids: Vec<_> = cluster
            .range_query(region, window)
            .unwrap()
            .iter()
            .map(|o| o.id)
            .collect();
        match &reference {
            None => reference = Some(ids),
            Some(want) => assert_eq!(&ids, want, "{workers}-worker cluster differs"),
        }
        cluster.shutdown();
    }
}

#[test]
fn eviction_ages_out_across_the_cluster() {
    let (_world, stream) = generate_stream(20, 50);
    let cluster = launch(4);
    cluster.ingest(stream.clone()).unwrap();
    cluster.flush().unwrap();
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
    let full = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
    let before = cluster.range_query(extent, full).unwrap().len();
    cluster
        .coordinator()
        .evict_before(Timestamp::from_secs(10))
        .unwrap();
    let after = cluster.range_query(extent, full).unwrap();
    assert!(after.len() < before);
    // Eviction is slice-granular (10 s slices): nothing older than the
    // slice containing the cutoff survives.
    assert!(after.iter().all(|o| o.time >= Timestamp::from_secs(10)));
    cluster.shutdown();
}

#[test]
fn ingestion_is_complete_under_lan_latency() {
    // Same pipeline but with a non-instant link: ordering and the flush
    // barrier must still deliver every observation exactly once.
    let (_world, stream) = generate_stream(8, 60);
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
    let cluster =
        Cluster::launch(ClusterConfig::new(extent, 4).with_link(LinkModel::lan())).unwrap();
    let n = stream.len();
    cluster.ingest(stream).unwrap();
    cluster.flush().unwrap();
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
    // Localisation noise can push border detections slightly outside the
    // nominal extent; inflate the query region to count every stored
    // observation.
    assert_eq!(
        cluster
            .range_query(extent.inflated(500.0), window)
            .unwrap()
            .len(),
        n
    );
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.total_primary(), n as u64);
    cluster.shutdown();
}

#[test]
fn duplicate_coverage_is_preserved_not_deduplicated() {
    // An entity seen by two cameras at once yields two observations; the
    // framework must keep both (deduplication is an analysis choice, not
    // a storage one).
    let (_world, stream) = generate_stream(5, 70);
    let per_id = stream.len();
    let mut ids: Vec<_> = stream.iter().map(|o| o.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), per_id, "generator produced duplicate ids");
    let cluster = launch(3);
    cluster.ingest(stream).unwrap();
    cluster.flush().unwrap();
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
    assert_eq!(
        cluster
            .range_query(extent.inflated(500.0), window)
            .unwrap()
            .len(),
        per_id
    );
    cluster.shutdown();
}

#[test]
fn notifications_do_not_interfere_with_queries() {
    use stcam::Predicate;
    let (_world, stream) = generate_stream(10, 80);
    let cluster = launch(4);
    let region = BBox::around(Point::new(1000.0, 1000.0), 600.0);
    cluster
        .coordinator()
        .register_continuous(Predicate {
            region,
            class: None,
        })
        .unwrap();
    cluster.ingest(stream.clone()).unwrap();
    cluster.flush().unwrap();
    // Queries still exact while notifications pile up in the channel.
    let store = oracle(&stream);
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10));
    let got = cluster.range_query(region, window).unwrap().len();
    assert_eq!(got, store.range(region, window).len());
    // And the notifications are themselves consistent: every match is in
    // the region.
    let notifications = cluster.poll_notifications(StdDuration::from_secs(2));
    assert!(!notifications.is_empty());
    for n in &notifications {
        for m in &n.matches {
            assert!(region.contains(m.position));
        }
    }
    cluster.shutdown();
}

#[test]
fn a_range_outside_the_extent_finds_the_rows_clamped_in_from_it() {
    // Localisation noise puts a row 50 m west of the extent; routing and
    // the worker's index clamp it into a border cell. A query box that
    // lies wholly west of the extent must still find it, in the mutable
    // head and once sealed.
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_world::{EntityClass, EntityId};
    let row = |seq: u64, t_s: u64, x: f64, y: f64| Observation {
        id: ObservationId::compose(CameraId(3), seq),
        camera: CameraId(3),
        time: Timestamp::from_secs(t_s),
        position: Point::new(x, y),
        class: EntityClass::Pedestrian,
        signature: Signature::latent_for_entity(seq),
        truth: Some(EntityId(seq)),
    };
    let cluster = launch(4);
    cluster
        .ingest(vec![row(0, 1, -50.0, 500.0), row(1, 1, 40.0, 500.0)])
        .unwrap();
    cluster.flush().unwrap();
    let west = BBox::new(Point::new(-100.0, 400.0), Point::new(-10.0, 600.0));
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(1_000));
    let seqs = |rows: Vec<Observation>| rows.iter().map(|o| o.id.seq()).collect::<Vec<_>>();
    assert_eq!(seqs(cluster.range_query(west, window).unwrap()), vec![0]);
    // A row far later in time, in the same macro cell, seals the first
    // slice into a segment on the worker holding it.
    cluster.ingest(vec![row(2, 500, 10.0, 510.0)]).unwrap();
    cluster.flush().unwrap();
    assert_eq!(seqs(cluster.range_query(west, window).unwrap()), vec![0]);
    cluster.shutdown();
}
