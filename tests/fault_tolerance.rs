//! Failure injection: crashes, failover, replication levels, partitions.

use stcam::{Cluster, ClusterConfig, Predicate, QueryOpts, RangeOp, StcamError};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, Point, TimeInterval, Timestamp};
use stcam_net::{LinkModel, NodeId};
use stcam_world::{EntityClass, EntityId};

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
}

fn config(workers: usize, replication: usize) -> ClusterConfig {
    ClusterConfig::new(extent(), workers)
        .with_replication(replication)
        .with_link(LinkModel::instant())
}

fn obs(seq: u64, t_ms: u64, x: f64, y: f64) -> Observation {
    Observation {
        id: ObservationId::compose(CameraId(0), seq),
        camera: CameraId(0),
        time: Timestamp::from_millis(t_ms),
        position: Point::new(x, y),
        class: EntityClass::Car,
        signature: Signature::latent_for_entity(seq),
        truth: Some(EntityId(seq)),
    }
}

fn spread_batch(n: u64) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            obs(
                i,
                (i % 60) * 1000,
                (i as f64 * 41.0) % 1600.0,
                (i as f64 * 59.0) % 1600.0,
            )
        })
        .collect()
}

fn window_all() -> TimeInterval {
    TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10_000))
}

#[test]
fn replication_factor_one_survives_single_failure() {
    let cluster = Cluster::launch(config(6, 1)).unwrap();
    cluster.ingest(spread_batch(600)).unwrap();
    cluster.flush().unwrap();
    cluster.fabric().crash(NodeId(4));
    assert_eq!(cluster.coordinator().check_and_recover(), vec![NodeId(4)]);
    let after = cluster.range_query(extent(), window_all()).unwrap();
    assert_eq!(after.len(), 600, "data lost despite replication factor 1");
    cluster.shutdown();
}

#[test]
fn replication_factor_two_survives_two_failures() {
    let cluster = Cluster::launch(config(6, 2)).unwrap();
    cluster.ingest(spread_batch(600)).unwrap();
    cluster.flush().unwrap();
    // Kill two adjacent ring members (the worst case for r = 2).
    cluster.fabric().crash(NodeId(2));
    cluster.fabric().crash(NodeId(3));
    let mut failed = cluster.coordinator().check_and_recover();
    failed.sort();
    assert_eq!(failed, vec![NodeId(2), NodeId(3)]);
    let after = cluster.range_query(extent(), window_all()).unwrap();
    assert_eq!(after.len(), 600, "data lost despite replication factor 2");
    cluster.shutdown();
}

/// Replicas converge exactly on a macro grid not aligned to the index
/// cells (2.5 index cells per macro cell): a cover exports sealed blocks
/// split at the macro cell's edge and rows clamped in from outside the
/// extent, and each log must end equal to its owner's copy — so that
/// after the heir dies too, its logs alone answer for everything.
#[test]
fn replicas_converge_on_a_macro_grid_not_aligned_to_index_cells() {
    let config = config(6, 2)
        .with_macro_cell_size(1600.0 / 32.0)
        .with_rpc_timeout(std::time::Duration::from_millis(250));
    let cluster = Cluster::launch(config).unwrap();
    // 60 s of 10 s slices, so every shard seals some; one row in five
    // outside the extent, to the left or above it.
    let batch: Vec<Observation> = spread_batch(3_000)
        .into_iter()
        .map(|mut o| {
            let (x, y) = (o.position.x, o.position.y);
            match o.id.seq() % 10 {
                0 => o.position = Point::new(-10.0 - x, y),
                5 => o.position = Point::new(x, 1610.0 + y),
                _ => {}
            }
            o
        })
        .collect();
    cluster.ingest(batch.clone()).unwrap();
    cluster.flush().unwrap();
    let victim = NodeId(3);
    let cell = |p: Point| cluster.partition().owner_of(p);
    let inherited = batch.iter().find(|o| cell(o.position) == victim).unwrap();
    cluster.fabric().crash(victim);
    assert_eq!(cluster.coordinator().check_and_recover(), vec![victim]);
    let report = cluster.coordinator().repair();
    assert!(report.converged, "{report:?}");
    assert_eq!(cluster.coordinator().under_replicated_cells(), 0);

    let everywhere = BBox::new(Point::new(-2e4, -2e4), Point::new(2e4, 2e4));
    let mut want: Vec<ObservationId> = batch.iter().map(|o| o.id).collect();
    want.sort_unstable();
    let held = || -> Vec<ObservationId> {
        let rows = cluster.range_query(everywhere, window_all()).unwrap();
        let mut ids: Vec<ObservationId> = rows.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids
    };
    let heir = cell(inherited.position);
    cluster.fabric().crash(heir);
    // Failover reads answer the heir's cells from its logs alone …
    assert!(
        held() == want,
        "the heir's replica logs differ from its shard"
    );
    // … and so does the shard its logs are promoted into.
    assert_eq!(cluster.coordinator().check_and_recover(), vec![heir]);
    assert!(
        held() == want,
        "the promoted logs differ from the heir's shard"
    );
    cluster.shutdown();
}

#[test]
fn no_replication_loses_exactly_the_dead_shard() {
    let cluster = Cluster::launch(config(5, 0)).unwrap();
    cluster.ingest(spread_batch(500)).unwrap();
    cluster.flush().unwrap();
    let shard = cluster
        .stats()
        .unwrap()
        .workers
        .iter()
        .find(|(w, _)| *w == NodeId(2))
        .map(|(_, s)| s.primary_observations)
        .unwrap();
    assert!(shard > 0, "victim shard empty, test is vacuous");
    cluster.fabric().crash(NodeId(2));
    cluster.coordinator().check_and_recover();
    let after = cluster.range_query(extent(), window_all()).unwrap().len() as u64;
    assert_eq!(after, 500 - shard);
    cluster.shutdown();
}

#[test]
fn ingest_continues_after_failover() {
    let cluster = Cluster::launch(config(4, 1)).unwrap();
    cluster.ingest(spread_batch(200)).unwrap();
    cluster.flush().unwrap();
    cluster.fabric().crash(NodeId(1));
    cluster.coordinator().check_and_recover();
    // New data lands on the surviving workers, including cells formerly
    // owned by the dead one.
    let fresh: Vec<Observation> = (1000..1200u64)
        .map(|i| {
            obs(
                i,
                90_000,
                (i as f64 * 7.0) % 1600.0,
                (i as f64 * 13.0) % 1600.0,
            )
        })
        .collect();
    cluster.ingest(fresh).unwrap();
    cluster.flush().unwrap();
    let total = cluster.range_query(extent(), window_all()).unwrap().len();
    assert_eq!(total, 400);
    cluster.shutdown();
}

#[test]
fn repeated_failures_degrade_gracefully() {
    let cluster = Cluster::launch(config(6, 2)).unwrap();
    cluster.ingest(spread_batch(600)).unwrap();
    cluster.flush().unwrap();
    let mut alive = 6;
    for victim in [2u32, 5, 1] {
        cluster.fabric().crash(NodeId(victim));
        cluster.coordinator().check_and_recover();
        alive -= 1;
        let count = cluster.range_query(extent(), window_all()).unwrap().len();
        assert!(count > 0, "cluster empty after {} failures", 6 - alive);
        // Queries remain serviceable from the survivors.
        let stats = cluster.stats().unwrap();
        assert_eq!(stats.workers.len(), alive);
    }
    cluster.shutdown();
}

#[test]
fn continuous_queries_survive_failover() {
    let cluster = Cluster::launch(config(4, 1)).unwrap();
    let region = extent(); // matches everywhere, so every worker is involved
    let id = cluster
        .coordinator()
        .register_continuous(Predicate {
            region,
            class: None,
        })
        .unwrap();
    cluster.ingest(spread_batch(50)).unwrap();
    cluster.flush().unwrap();
    let first = cluster.poll_notifications(std::time::Duration::from_secs(2));
    assert!(first.iter().any(|n| n.query == id));

    cluster.fabric().crash(NodeId(3));
    cluster.coordinator().check_and_recover();
    // Matches must still arrive for data landing in the failed worker's
    // former cells (now owned by its successor).
    let partition = cluster.partition();
    let moved_cell = partition
        .cells_of(partition.workers()[3 % partition.workers().len()])
        .into_iter()
        .next();
    assert!(moved_cell.is_some());
    let fresh: Vec<Observation> = (2000..2100u64)
        .map(|i| {
            obs(
                i,
                95_000,
                (i as f64 * 11.0) % 1600.0,
                (i as f64 * 3.0) % 1600.0,
            )
        })
        .collect();
    cluster.ingest(fresh).unwrap();
    cluster.flush().unwrap();
    let notifications = cluster.poll_notifications(std::time::Duration::from_secs(2));
    let matched: usize = notifications
        .iter()
        .filter(|n| n.query == id)
        .map(|n| n.matches.len())
        .sum();
    assert_eq!(matched, 100, "matches lost after failover");
    cluster.shutdown();
}

#[test]
fn query_against_fully_dead_cluster_errors() {
    let cluster = Cluster::launch(config(2, 0)).unwrap();
    cluster.ingest(spread_batch(10)).unwrap();
    cluster.flush().unwrap();
    cluster.fabric().crash(NodeId(1));
    cluster.fabric().crash(NodeId(2));
    cluster.coordinator().check_and_recover();
    // All owners dead: routing has no quorum.
    let err = cluster.ingest(spread_batch(1)).unwrap_err();
    assert!(matches!(err, stcam::StcamError::NoQuorum));
    cluster.shutdown();
}

#[test]
fn message_loss_is_tolerated_by_rpc_retry_semantics() {
    // With 2% message loss, fire-and-forget ingest drops some batches but
    // queries (RPC with timeouts) either succeed or fail cleanly — no
    // hangs, no corruption.
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(0)
            .with_link(LinkModel::instant().with_drop_probability(0.02)),
    )
    .unwrap();
    cluster.ingest(spread_batch(400)).unwrap();
    // flush() may time out if a ping or its reply is dropped; retry a few
    // times — this models an application-level retry loop.
    let mut flushed = false;
    for _ in 0..10 {
        if cluster.flush().is_ok() {
            flushed = true;
            break;
        }
    }
    assert!(flushed, "flush never succeeded under 2% loss");
    for _ in 0..10 {
        if let Ok(hits) = cluster.range_query(extent(), window_all()) {
            // Some ingest batches may have been lost entirely; bounded by
            // the loss rate, most data must be present.
            assert!(hits.len() > 300, "only {} of 400 survived", hits.len());
            cluster.shutdown();
            return;
        }
    }
    panic!("range query never succeeded under 2% loss");
}

#[test]
fn network_partition_isolates_and_heals() {
    let cluster = Cluster::launch(config(4, 1)).unwrap();
    cluster.ingest(spread_batch(200)).unwrap();
    cluster.flush().unwrap();
    // Isolate workers 3 and 4 from everyone else (coordinator stays in
    // the default group with workers 1 and 2).
    cluster.fabric().partition(&[&[NodeId(3), NodeId(4)]]);
    // Queries needing the isolated side fail cleanly (timeout), not hang.
    let err = cluster.range_query(extent(), window_all());
    assert!(err.is_err(), "query succeeded across a partition");
    // Recovery treats unreachable workers as failed and promotes replicas
    // on the reachable side.
    let mut failed = cluster.coordinator().check_and_recover();
    failed.sort();
    assert_eq!(failed, vec![NodeId(3), NodeId(4)]);
    let after = cluster.range_query(extent(), window_all()).unwrap();
    // Workers 1+2 hold their own shards plus replicas of 3 (successor
    // chain 3→4→1 means worker 1 holds 3's replica; 4's replica lives on
    // 1 as well via the chain — with r=1 the replica of 4 is on 1).
    assert!(after.len() >= 150, "only {} of 200 reachable", after.len());
    // After healing, the formerly isolated workers are simply ignored
    // (they were failed out); fresh ingest still works.
    cluster.fabric().heal_partition();
    cluster.ingest(spread_batch(50)).unwrap();
    cluster.flush().unwrap();
    cluster.shutdown();
}

#[test]
fn crash_window_strict_fails_and_best_effort_degrades_truthfully() {
    // Replication 0 and no recovery tick: the dead shard is simply gone,
    // so strict queries must refuse to answer and best-effort queries
    // must return the surviving subset and say exactly what is missing.
    let cluster =
        Cluster::launch(config(6, 0).with_rpc_timeout(std::time::Duration::from_millis(300)))
            .unwrap();
    cluster.ingest(spread_batch(600)).unwrap();
    cluster.flush().unwrap();
    let victim = NodeId(4);
    let dead_share = cluster
        .stats()
        .unwrap()
        .workers
        .iter()
        .find(|(w, _)| *w == victim)
        .map(|(_, s)| s.primary_observations)
        .unwrap();
    assert!(dead_share > 0, "victim shard empty, test is vacuous");
    cluster.fabric().crash(victim);

    // Strict: the new error variant names the unanswered shard.
    let err = cluster.range_query(extent(), window_all()).unwrap_err();
    match err {
        StcamError::PartialFailure { ref missing } => {
            assert_eq!(missing, &vec![victim], "wrong missing set in {err}");
        }
        other => panic!("expected PartialFailure, got {other}"),
    }

    // Best effort: the surviving subset, with truthful accounting.
    let d = cluster
        .query(
            RangeOp::new(extent(), window_all()),
            &QueryOpts::BEST_EFFORT,
        )
        .unwrap();
    assert_eq!(d.value.len() as u64, 600 - dead_share);
    assert_eq!(d.completeness.missing, vec![victim]);
    assert!(!d.completeness.is_full());
    assert!(d.completeness.subset);
    assert!((d.completeness.fraction() - 5.0 / 6.0).abs() < 1e-9);
    let partition = cluster.partition();
    for o in &d.value {
        assert_ne!(
            partition.owner_of(o.position),
            victim,
            "an observation from the dead shard appeared in the result"
        );
    }

    // After recovery the victim is failed out of the ring and strict
    // queries answer again (minus the unreplicated shard's data).
    cluster.coordinator().check_and_recover();
    let after = cluster.range_query(extent(), window_all()).unwrap();
    assert_eq!(after.len() as u64, 600 - dead_share);
    cluster.shutdown();
}

#[test]
fn auto_recovery_monitor_checks_immediately_on_enable() {
    let cluster =
        Cluster::launch(config(4, 1).with_rpc_timeout(std::time::Duration::from_millis(300)))
            .unwrap();
    cluster.ingest(spread_batch(200)).unwrap();
    cluster.flush().unwrap();
    cluster.fabric().crash(NodeId(2));
    // An interval of an hour: only the immediate first check can recover
    // the cluster within the deadline below.
    cluster.enable_auto_recovery(std::time::Duration::from_secs(3600));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if cluster.stats().is_ok_and(|s| s.workers.len() == 3) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "monitor never ran its immediate first check"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert_eq!(
        cluster.range_query(extent(), window_all()).unwrap().len(),
        200
    );
    // Shutdown must interrupt the hour-long wait, not sit it out.
    let start = std::time::Instant::now();
    cluster.shutdown();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown waited out the monitor interval: {:?}",
        start.elapsed()
    );
}

#[test]
fn retention_sweeper_wait_is_interruptible() {
    let cluster = Cluster::launch(config(2, 0)).unwrap();
    cluster.ingest(spread_batch(50)).unwrap();
    cluster.flush().unwrap();
    cluster.enable_retention(
        stcam_geo::Duration::from_secs(3600),
        std::time::Duration::from_secs(3600),
    );
    // Give the sweeper a moment to enter its wait, then stop it.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let start = std::time::Instant::now();
    cluster.shutdown();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown waited out the sweeper interval: {:?}",
        start.elapsed()
    );
}

#[test]
fn retention_sweeper_bounds_the_archive() {
    use stcam_geo::Duration as GeoDuration;
    let cluster = Cluster::launch(config(3, 0)).unwrap();
    // Observations spanning 60 s of stream time.
    cluster.ingest(spread_batch(600)).unwrap();
    cluster.flush().unwrap();
    // Keep only the most recent 20 s (slice-granular).
    cluster.enable_retention(
        GeoDuration::from_secs(20),
        std::time::Duration::from_millis(100),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let held = cluster.range_query(extent(), window_all()).unwrap();
        let oldest = held.iter().map(|o| o.time).min();
        if let Some(oldest) = oldest {
            // Newest is t=59s; horizon 20 s → cutoff 39 s, slice-granular
            // eviction keeps the slice containing it (30–40 s).
            if oldest >= Timestamp::from_secs(30) {
                assert!(held.len() < 600);
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sweeper never evicted"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    cluster.shutdown();
}

#[test]
fn retention_sweep_keeps_replicas_in_step() {
    // A cutoff inside a slice (what `enable_retention`'s `newest −
    // horizon` nearly always is): both copies of every cell must drop
    // the same rows, or anti-entropy sees a divergence it cannot mend.
    let cluster = Cluster::launch(config(4, 1)).unwrap();
    let batch: Vec<Observation> = (0..4_000u64)
        .map(|i| {
            obs(
                i,
                i * 10,
                (i as f64 * 41.0) % 1600.0,
                (i as f64 * 59.0) % 1600.0,
            )
        })
        .collect();
    cluster.ingest(batch.clone()).unwrap();
    cluster.flush().unwrap();
    assert_eq!(cluster.coordinator().under_replicated_cells(), 0);
    // Default slices are 10 s: 15 s straddles the 10–20 s slice.
    cluster
        .coordinator()
        .evict_before(Timestamp::from_secs(15))
        .unwrap();
    assert_eq!(
        cluster.coordinator().under_replicated_cells(),
        0,
        "eviction left primary and replica copies disagreeing"
    );
    let report = cluster.coordinator().repair();
    assert!(
        report.converged && report.observations_streamed == 0,
        "nothing to repair after a sweep, got {report:?}"
    );
    // Eviction is slice-granular: the straddling slice survives whole.
    let mut expected: Vec<ObservationId> = batch
        .iter()
        .filter(|o| o.time >= Timestamp::from_secs(10))
        .map(|o| o.id)
        .collect();
    expected.sort();
    let held = cluster.range_query(extent(), window_all()).unwrap();
    assert_eq!(held.iter().map(|o| o.id).collect::<Vec<_>>(), expected);
    cluster.shutdown();
}
