//! Online rebalancing and filtered queries, end to end.

use std::collections::HashSet;

use stcam::{
    Cluster, ClusterConfig, DistributedOp, OpPolicy, PartitionMap, PartitionPolicy, Predicate,
    QueryOpts, RangeOp, Request, Response, StcamError,
};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_net::{LinkModel, NodeId};
use stcam_world::{EntityClass, EntityId};

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
}

fn config(workers: usize) -> ClusterConfig {
    ClusterConfig::new(extent(), workers)
        .with_replication(0)
        .with_link(LinkModel::instant())
}

fn obs(seq: u64, t_ms: u64, x: f64, y: f64, class: EntityClass) -> Observation {
    Observation {
        id: ObservationId::compose(CameraId(0), seq),
        camera: CameraId(0),
        time: Timestamp::from_millis(t_ms),
        position: Point::new(x, y),
        class,
        signature: Signature::latent_for_entity(seq),
        truth: Some(EntityId(seq)),
    }
}

/// A workload with 70% of traffic in a corner hotspot.
fn hotspot_batch(n: u64) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let (x, y) = if i % 10 < 7 {
                (
                    50.0 + (i as f64 * 7.3) % 300.0,
                    50.0 + (i as f64 * 11.7) % 300.0,
                )
            } else {
                ((i as f64 * 37.0) % 1600.0, (i as f64 * 53.0) % 1600.0)
            };
            obs(i, (i % 50) * 1000, x, y, EntityClass::Car)
        })
        .collect()
}

fn window_all() -> TimeInterval {
    TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10_000))
}

#[test]
fn rebalance_preserves_every_observation_and_improves_balance() {
    let cluster = Cluster::launch(config(6)).unwrap();
    cluster.ingest(hotspot_batch(3_000)).unwrap();
    cluster.flush().unwrap();
    let before_ids: Vec<_> = cluster
        .range_query(extent(), window_all())
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    assert_eq!(before_ids.len(), 3_000);
    let imbalance_before = cluster.stats().unwrap().imbalance();

    let report = cluster.coordinator().rebalance().unwrap();
    assert!(report.cells_moved > 0, "hotspot workload should move cells");
    assert!(report.imbalance_after < report.imbalance_before);

    // Exactly the same answer set under the new map.
    let after_ids: Vec<_> = cluster
        .range_query(extent(), window_all())
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    assert_eq!(after_ids, before_ids);
    // And physically better balanced.
    let imbalance_after = cluster.stats().unwrap().imbalance();
    assert!(
        imbalance_after < imbalance_before,
        "stored imbalance {imbalance_after:.2} not better than {imbalance_before:.2}"
    );
    cluster.shutdown();
}

#[test]
fn queries_are_exact_for_all_query_types_after_rebalance() {
    let cluster = Cluster::launch(config(4)).unwrap();
    let batch = hotspot_batch(2_000);
    cluster.ingest(batch.clone()).unwrap();
    cluster.flush().unwrap();
    let region = BBox::around(Point::new(200.0, 200.0), 250.0);
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(30));
    let range_before: Vec<_> = cluster
        .range_query(region, window)
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    let knn_before: Vec<_> = cluster
        .knn_query(Point::new(800.0, 800.0), window, 20)
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    let buckets = stcam_geo::GridSpec::covering(extent(), 200.0);
    let heat_before = cluster.heatmap(&buckets, window).unwrap();

    cluster.coordinator().rebalance().unwrap();

    let range_after: Vec<_> = cluster
        .range_query(region, window)
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    let knn_after: Vec<_> = cluster
        .knn_query(Point::new(800.0, 800.0), window, 20)
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    let heat_after = cluster.heatmap(&buckets, window).unwrap();
    assert_eq!(range_after, range_before);
    assert_eq!(knn_after, knn_before);
    assert_eq!(heat_after, heat_before);
    cluster.shutdown();
}

#[test]
fn ingest_routes_correctly_after_rebalance() {
    let cluster = Cluster::launch(config(4)).unwrap();
    cluster.ingest(hotspot_batch(1_000)).unwrap();
    cluster.flush().unwrap();
    cluster.coordinator().rebalance().unwrap();
    // Fresh traffic lands and is queryable under the new map.
    let fresh: Vec<Observation> = (10_000..10_500u64)
        .map(|i| {
            obs(
                i,
                60_000,
                (i as f64 * 13.0) % 1600.0,
                (i as f64 * 29.0) % 1600.0,
                EntityClass::Car,
            )
        })
        .collect();
    cluster.ingest(fresh).unwrap();
    cluster.flush().unwrap();
    assert_eq!(
        cluster.range_query(extent(), window_all()).unwrap().len(),
        1_500
    );
    cluster.shutdown();
}

/// A hotspot in an arbitrary corner of the extent (same shape as
/// `hotspot_batch`, which anchors at the south-west corner).
fn corner_batch(start: u64, n: u64, cx: f64, cy: f64) -> Vec<Observation> {
    (start..start + n)
        .map(|i| {
            let (x, y) = if i % 10 < 7 {
                (
                    cx + (i as f64 * 7.3) % 300.0,
                    cy + (i as f64 * 11.7) % 300.0,
                )
            } else {
                ((i as f64 * 37.0) % 1600.0, (i as f64 * 53.0) % 1600.0)
            };
            obs(i, (i % 50) * 1000, x, y, EntityClass::Car)
        })
        .collect()
}

/// Regression: when the hotspot migrates between epochs, cells move away
/// from a worker and later move back to it. The returning copies must be
/// re-accepted — a stale entry in the ingest dedup set used to swallow
/// them silently.
#[test]
fn repeated_rebalances_with_shifting_hotspots_lose_nothing() {
    let cluster = Cluster::launch(config(6)).unwrap();
    let epochs = [(50.0, 50.0), (1250.0, 1250.0), (50.0, 50.0)];
    let per_epoch = 2_000u64;
    for (round, &(cx, cy)) in epochs.iter().enumerate() {
        let start = round as u64 * per_epoch;
        cluster
            .ingest(corner_batch(start, per_epoch, cx, cy))
            .unwrap();
        cluster.flush().unwrap();
        cluster.coordinator().rebalance().unwrap();
        let held = cluster.range_query(extent(), window_all()).unwrap().len();
        assert_eq!(
            held,
            (round as u64 + 1) as usize * per_epoch as usize,
            "epoch {round}: rebalance lost observations"
        );
    }
    cluster.shutdown();
}

/// Puts `rows` into `holder`'s primary shard through the door a cell
/// copy uses — what a move leaves at the old owner when its drain fails.
struct InstallAt {
    holder: NodeId,
    grid: GridSpec,
    rows: Vec<Observation>,
}

impl DistributedOp for InstallAt {
    type Partial = ();
    type Output = usize;
    fn name(&self) -> &'static str {
        "install_segments"
    }
    fn targets(&self, _: &PartitionMap, _: &HashSet<NodeId>) -> Vec<NodeId> {
        vec![self.holder]
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::InstallSegments {
            primary: self.holder,
            grid: self.grid,
            cell: 0,
            truncate: false,
            frames: Vec::new(),
            head: self.rows.clone(),
        }
    }
    fn decode(&self, response: Response) -> Result<(), StcamError> {
        match response {
            Response::Ack => Ok(()),
            other => Err(StcamError::Remote(format!("{other:?}"))),
        }
    }
    fn merge(self, partials: Vec<(NodeId, ())>) -> usize {
        partials.len()
    }
}

/// Regression: at replication 0 `repair` used to return before looking,
/// so a primary copy a failed drain left behind stayed for ever, and a
/// range touching both holders returned its rows twice.
#[test]
fn repair_collects_stray_primary_copies_at_replication_zero() {
    let cluster = Cluster::launch(config(4)).unwrap();
    let batch = hotspot_batch(2_000);
    cluster.ingest(batch.clone()).unwrap();
    cluster.flush().unwrap();
    let held = || -> Vec<_> {
        let rows = cluster.range_query(extent(), window_all()).unwrap();
        rows.iter().map(|o| o.id).collect()
    };
    let before = held();
    assert_eq!(before.len(), 2_000);
    // The hotspot's rows, copied into the shard of a worker that does not
    // own their cells.
    let partition = cluster.partition();
    let owner = partition.owner_of(Point::new(100.0, 100.0));
    let holder = *partition.workers().iter().find(|w| **w != owner).unwrap();
    let rows: Vec<Observation> = batch
        .into_iter()
        .filter(|o| partition.owner_of(o.position) == owner)
        .collect();
    let strays = rows.len();
    assert!(strays > 0);
    let grid = *partition.grid();
    let install = InstallAt { holder, grid, rows };
    let installed = cluster.query(install, &QueryOpts::STRICT);
    assert_eq!(installed.unwrap().value, 1);
    assert_eq!(held().len(), before.len() + strays, "no stray was planted");

    assert!(cluster.coordinator().repair().converged);
    // Exactly the original rows again: every id once.
    assert!(held() == before, "a stray survived the repair");
    cluster.shutdown();
}

#[test]
fn replicated_rebalance_preserves_data_and_coverage() {
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(1)
            .with_link(LinkModel::instant()),
    )
    .unwrap();
    cluster.ingest(hotspot_batch(1_000)).unwrap();
    cluster.flush().unwrap();

    // The move runs copy-then-cutover and keeps the replica chains
    // covered.
    let report = cluster.coordinator().rebalance().unwrap();
    assert!(report.cells_moved > 0, "hotspot workload should move cells");
    assert_eq!(
        cluster.range_query(extent(), window_all()).unwrap().len(),
        1_000,
        "rebalance under replication lost or duplicated data"
    );
    assert_eq!(
        cluster.coordinator().under_replicated_cells(),
        0,
        "moved cells left without their replica copies"
    );
    cluster.shutdown();
}

/// Rebalance beside a live writer, over links that drop 5 % of frames:
/// every control message of the move may be lost and re-sent, and the
/// writer keeps landing rows in the cells being moved. Nothing acked may
/// be lost or doubled, and the replica chains must converge afterwards.
#[test]
fn lossy_rebalance_beside_a_writer_keeps_every_acked_observation() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(1)
            .with_link(LinkModel::instant())
            .with_rpc_timeout(Duration::from_millis(100)),
    )
    .unwrap();
    cluster.ingest(hotspot_batch(2_000)).unwrap();
    cluster.flush().unwrap();
    let ingestor = cluster.create_ingestor();
    let stop = AtomicBool::new(false);
    let (wrote, written) = mpsc::channel();
    let deadline = Instant::now() + Duration::from_secs(120);
    let total = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut next = 2_000u64;
            while !stop.load(Ordering::SeqCst) {
                ingestor.ingest(corner_batch(next, 40, 50.0, 50.0)).unwrap();
                next += 40;
                let _ = wrote.send(next);
            }
            next
        });
        // The writer is under way before the move starts, and lands at
        // least one more batch after it ends.
        written.recv().unwrap();
        cluster.set_drop_probability(0.05);
        while cluster.coordinator().rebalance().is_err() {
            assert!(Instant::now() < deadline, "rebalance never got through");
        }
        let during = written.try_iter().count();
        assert!(during > 0, "the writer never ran beside the rebalance");
        written.recv().unwrap();
        cluster.set_drop_probability(0.0);
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap()
    });
    // The 100 ms budget was for the lossy phase; the audit below reads
    // every row of the cluster in one query and gets a real one.
    for op in ["range", "cell_digest"] {
        cluster
            .coordinator()
            .set_op_policy(op, OpPolicy::new(Duration::from_secs(10)));
    }
    while ingestor.flush().is_err() || cluster.flush().is_err() {
        assert!(Instant::now() < deadline, "parked writes never drained");
    }
    while !cluster.coordinator().repair().converged {
        assert!(Instant::now() < deadline, "repair never converged");
    }
    assert_eq!(cluster.coordinator().under_replicated_cells(), 0);
    let mut held: Vec<u64> = cluster
        .range_query(extent(), window_all())
        .unwrap()
        .iter()
        .map(|o| o.id.seq())
        .collect();
    held.sort_unstable();
    assert_eq!(held, (0..total).collect::<Vec<u64>>());
    cluster.shutdown();
}

/// A standing query keeps matching across a rebalance with a writer
/// running beside it: the cutover registers the query at the new owners
/// before it publishes, so every acked row that matches is notified,
/// once — before, during and after the move.
#[test]
fn continuous_queries_keep_matching_after_rebalance() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    let cluster = Cluster::launch(config(4)).unwrap();
    let fence = BBox::around(Point::new(200.0, 200.0), 300.0);
    let id = cluster
        .coordinator()
        .register_continuous(Predicate {
            region: fence,
            class: None,
        })
        .unwrap();
    let mut sent = hotspot_batch(1_000);
    cluster.ingest(sent.clone()).unwrap();
    cluster.flush().unwrap();

    let stop = AtomicBool::new(false);
    let (wrote, written) = mpsc::channel();
    sent.extend(std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut sent = Vec::new();
            let mut next = 100_000u64;
            while !stop.load(Ordering::SeqCst) {
                let batch = corner_batch(next, 20, 100.0, 100.0);
                next += 20;
                cluster.ingest(batch.clone()).unwrap();
                sent.extend(batch);
                let _ = wrote.send(());
            }
            sent
        });
        // The writer is under way before the move starts, and lands at
        // least one more batch after it ends.
        written.recv().unwrap();
        cluster.coordinator().rebalance().unwrap();
        assert!(written.try_iter().count() > 0, "no write beside the move");
        written.recv().unwrap();
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap()
    }));

    // Traffic ingested after the rebalance matches too.
    let fresh: Vec<Observation> = (20_000..20_100u64)
        .map(|i| obs(i, 70_000, 200.0, 200.0, EntityClass::Car))
        .collect();
    sent.extend(fresh.clone());
    cluster.ingest(fresh).unwrap();
    // Every row sent is acked once the barrier drains the parked window.
    cluster.flush().unwrap();
    let mut notified: HashMap<u64, u32> = HashMap::new();
    loop {
        let batch = cluster.poll_notifications(std::time::Duration::from_millis(300));
        if batch.is_empty() {
            break;
        }
        for n in batch.into_iter().filter(|n| n.query == id) {
            for row in n.matches {
                *notified.entry(row.id.seq()).or_default() += 1;
            }
        }
    }
    let mut want: Vec<u64> = sent
        .iter()
        .filter(|o| fence.contains(o.position))
        .map(|o| o.id.seq())
        .collect();
    want.sort_unstable();
    let mut got: Vec<u64> = notified.keys().copied().collect();
    got.sort_unstable();
    assert_eq!(got, want, "notified ids != acked matching ids");
    assert!(notified.values().all(|&n| n == 1), "a row notified twice");
    cluster.shutdown();
}

#[test]
fn load_aware_launch_equals_uniform_launch_plus_rebalance() {
    // Launching with a measured load profile and rebalancing onto the
    // same measurements must produce comparable balance.
    let batch = hotspot_batch(4_000);
    // Path A: uniform launch then rebalance.
    let a = Cluster::launch(config(8)).unwrap();
    a.ingest(batch.clone()).unwrap();
    a.flush().unwrap();
    a.coordinator().rebalance().unwrap();
    let balance_a = a.stats().unwrap().imbalance();
    a.shutdown();
    // Path B: load-aware launch with a profile measured from the batch.
    let mut config_b = config(8).with_partition_policy(PartitionPolicy::LoadAware);
    let grid = config_b.macro_grid();
    let mut loads = vec![0u64; grid.cell_count() as usize];
    for o in &batch {
        let c = grid.cell_of_clamped(o.position);
        loads[c.row as usize * grid.cols() as usize + c.col as usize] += 1;
    }
    config_b = config_b.with_load_profile(loads);
    let b = Cluster::launch(config_b).unwrap();
    b.ingest(batch).unwrap();
    b.flush().unwrap();
    let balance_b = b.stats().unwrap().imbalance();
    b.shutdown();
    assert!(
        (balance_a - balance_b).abs() < 0.6,
        "paths diverge: rebalanced {balance_a:.2} vs load-aware launch {balance_b:.2}"
    );
}

#[test]
fn filtered_range_query_matches_postfiltering() {
    let cluster = Cluster::launch(config(4)).unwrap();
    let batch: Vec<Observation> = (0..1_000u64)
        .map(|i| {
            let class = EntityClass::from_u8((i % 4) as u8).unwrap();
            obs(
                i,
                (i % 50) * 1000,
                (i as f64 * 37.0) % 1600.0,
                (i as f64 * 53.0) % 1600.0,
                class,
            )
        })
        .collect();
    cluster.ingest(batch).unwrap();
    cluster.flush().unwrap();
    let region = BBox::around(Point::new(800.0, 800.0), 600.0);
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(40));
    for class in EntityClass::ALL {
        let filtered: Vec<_> = cluster
            .query(
                RangeOp {
                    predicate: Predicate {
                        region,
                        class: Some(class),
                    },
                    ..RangeOp::new(region, window)
                },
                &QueryOpts::STRICT,
            )
            .unwrap()
            .value
            .iter()
            .map(|o| o.id)
            .collect();
        let expected: Vec<_> = cluster
            .range_query(region, window)
            .unwrap()
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.id)
            .collect();
        assert_eq!(filtered, expected, "class {class}");
        assert!(!filtered.is_empty(), "vacuous for class {class}");
    }
    cluster.shutdown();
}

#[test]
fn auto_recovery_heals_without_manual_intervention() {
    use stcam_net::NodeId;
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(1)
            .with_link(LinkModel::instant()),
    )
    .unwrap();
    cluster.ingest(hotspot_batch(800)).unwrap();
    cluster.flush().unwrap();
    cluster.enable_auto_recovery(std::time::Duration::from_millis(100));
    cluster.fabric().crash(NodeId(2));
    // Wait for the monitor to notice and fail over.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let healed = cluster
            .range_query(extent(), window_all())
            .map(|hits| hits.len() == 800)
            .unwrap_or(false);
        if healed {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "auto recovery never healed"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    cluster.shutdown();
}
