//! The acked write path seen from outside: `Cluster::ingest` and every
//! `Ingestor` deliver through `Executor::ask`, so writes show up in
//! `Cluster::op_stats` as `"ingest_seq"` and `"replicate_seq"`, obey the
//! one policy table, and keep every rule of the acked contract. Neither
//! takes the coordinator lock, so no control action stalls a write.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration as StdDuration, Instant};

use stcam::{Cluster, ClusterConfig, OpPolicy, OpStats, QueryOpts, RangeOp, Response, StcamError};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_codec::encode_to_vec;
use stcam_geo::{BBox, Point, TimeInterval, Timestamp};
use stcam_net::{LinkModel, NodeId, WIRE_OVERHEAD};
use stcam_world::{EntityClass, EntityId};

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
}

fn obs(seq: u64, x: f64, y: f64) -> Observation {
    Observation {
        id: ObservationId::compose(CameraId(0), seq),
        camera: CameraId(0),
        time: Timestamp::from_millis(seq),
        position: Point::new(x, y),
        class: EntityClass::Car,
        signature: Signature::latent_for_entity(seq),
        truth: Some(EntityId(seq)),
    }
}

/// `n` observations numbered from `first`, spread over the whole extent.
fn spread(first: u64, n: u64) -> Vec<Observation> {
    (first..first + n)
        .map(|i| obs(i, (i as f64 * 37.0) % 1600.0, (i as f64 * 53.0) % 1600.0))
        .collect()
}

fn launch(workers: usize, rpc_timeout_ms: u64) -> Cluster {
    Cluster::launch(
        ClusterConfig::new(extent(), workers)
            .with_replication(1)
            .with_link(LinkModel::instant())
            .with_rpc_timeout(StdDuration::from_millis(rpc_timeout_ms)),
    )
    .unwrap()
}

/// The named op's cumulative telemetry (zeros when never invoked).
fn op(cluster: &Cluster, name: &str) -> OpStats {
    let all = cluster.op_stats();
    let found = all.iter().find(|(op, _)| *op == name);
    found.map(|(_, s)| *s).unwrap_or_default()
}

/// How many owners `batch` is split between.
fn owner_groups(cluster: &Cluster, batch: &[Observation]) -> u64 {
    let partition = cluster.partition();
    let owners: HashSet<NodeId> = batch
        .iter()
        .map(|o| partition.owner_of(o.position))
        .collect();
    owners.len() as u64
}

/// Strict audit: ids `0..n` are each stored in exactly one primary shard.
fn assert_each_once(cluster: &Cluster, n: u64) {
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10_000));
    let mut seen: HashMap<ObservationId, u32> = HashMap::new();
    for o in cluster.range_query(extent(), window).unwrap() {
        *seen.entry(o.id).or_default() += 1;
    }
    assert_eq!(seen.len() as u64, n, "stored ids");
    for seq in 0..n {
        let id = ObservationId::compose(CameraId(0), seq);
        assert_eq!(seen.get(&id), Some(&1), "copies of observation {seq}");
    }
}

#[test]
fn write_account_closes_against_the_fabric() {
    let cluster = launch(4, 5_000);
    let ingestor = cluster.create_ingestor();
    cluster.flush().unwrap();
    let fabric_before = cluster.fabric_stats();
    let before = [op(&cluster, "ingest_seq"), op(&cluster, "replicate_seq")];
    let mut groups = 0u64;
    for k in 0..10u64 {
        // Batches of growing size, so some reach one owner and some all
        // four; alternately through `Cluster::ingest` and a created handle.
        let batch = spread(k * 100, 1 + k * 11);
        groups += owner_groups(&cluster, &batch);
        let sent = batch.len();
        let accepted = if k % 2 == 0 {
            cluster.ingest(batch).unwrap()
        } else {
            ingestor.ingest(batch).unwrap()
        };
        assert_eq!(accepted, sent);
    }
    let wire = cluster.fabric_stats().since(&fabric_before);
    let ingest = op(&cluster, "ingest_seq").since(&before[0]);
    let replicate = op(&cluster, "replicate_seq").since(&before[1]);
    // One wave per batch; one sub-query per owner group, and with four
    // alive workers at r = 1 one copy per group. On a clean link a retry
    // can only be a probe that a busy host's timeout sent ahead of a late
    // answer: dropped while the worker held the request, or answered
    // with the stored `Ack` behind that answer — never a copy.
    for stats in [ingest, replicate] {
        assert_eq!(stats.invocations, 10);
        assert_eq!(stats.sub_queries, groups + stats.retries);
        assert_eq!((stats.failures, stats.failovers), (0, 0));
        assert_eq!(stats.latency.count(), 10);
    }
    assert_eq!(wire.total_probes, ingest.retries + replicate.retries);
    // Nothing else was on the wire, and nothing of it is unaccounted: the
    // executor books frames, probes and the answers it took, the fabric
    // the workers' bounces and the replays that arrived after an answer.
    let booked = |s: OpStats| s.bytes_sent + s.bytes_received;
    let replayed = encode_to_vec(&Response::Ack).len() as u64 + WIRE_OVERHEAD;
    assert_eq!(
        booked(ingest)
            + booked(replicate)
            + WIRE_OVERHEAD * wire.total_not_held
            + replayed * wire.total_replayed,
        wire.total_bytes
    );
    assert_eq!(ingestor.pending(), 0);
    cluster.shutdown();
}

#[test]
fn lossy_writes_are_retransmitted_by_the_executor() {
    let cluster = launch(4, 100);
    let ingestor = cluster.create_ingestor();
    cluster.set_drop_probability(0.05);
    let before = op(&cluster, "ingest_seq");
    let (mut accepted, mut groups) = (0usize, 0u64);
    for k in 0..60u64 {
        let batch = spread(k * 40, 40);
        groups += owner_groups(&cluster, &batch);
        accepted += ingestor.ingest(batch).unwrap();
    }
    cluster.set_drop_probability(0.0);
    // Five attempts per frame ride out 5 % loss: nothing was parked.
    assert_eq!((accepted, ingestor.pending()), (2_400, 0));
    let ingest = op(&cluster, "ingest_seq").since(&before);
    assert!(ingest.retries > 0, "no retransmission at 5 % drop");
    assert_eq!(ingest.sub_queries, groups + ingest.retries);
    ingestor.flush().unwrap();
    assert_each_once(&cluster, 2_400);
    cluster.shutdown();
}

#[test]
fn ingestor_flush_retries_under_the_flush_policy() {
    // A lost ping used to fail an ingestor's barrier outright while the
    // coordinator's retried. Both now ask under the "flush" policy of
    // the one shared table, so raising its budget here reaches a handle
    // created before.
    let cluster = launch(4, 150);
    let ingestor = cluster.create_ingestor();
    cluster.set_op_policy(
        "flush",
        OpPolicy {
            timeout: StdDuration::from_millis(50),
            max_attempts: 8,
        },
    );
    cluster.set_drop_probability(0.05);
    let before = op(&cluster, "flush");
    ingestor.ingest(spread(0, 200)).unwrap();
    for _ in 0..25 {
        ingestor.flush().unwrap();
    }
    assert_eq!(ingestor.pending(), 0);
    let flush = op(&cluster, "flush").since(&before);
    assert_eq!((flush.invocations, flush.failures), (25, 0));
    assert!(flush.retries > 0, "100 pings at 5 % drop lost none");
    cluster.set_drop_probability(0.0);
    assert_each_once(&cluster, 200);
    cluster.shutdown();
}

#[test]
fn more_owners_than_the_inflight_window_still_ack_once() {
    let cluster = launch(12, 5_000);
    let batch = spread(0, 1_200);
    let groups = owner_groups(&cluster, &batch);
    assert!(groups > 8, "batch reaches only {groups} owners");
    let before = op(&cluster, "ingest_seq");
    assert_eq!(cluster.ingest(batch).unwrap(), 1_200);
    let ingest = op(&cluster, "ingest_seq").since(&before);
    // Eight groups in the first wave, the rest in the second.
    assert_eq!((ingest.invocations, ingest.sub_queries), (2, groups));
    assert_each_once(&cluster, 1_200);
    cluster.shutdown();
}

#[test]
fn dead_owner_is_hinted_and_parked_until_recovery() {
    let cluster = launch(4, 100);
    let ingestor = cluster.create_ingestor();
    let at = Point::new(500.0, 500.0);
    let victim = cluster.partition().owner_of(at);
    cluster.fabric().crash(victim);
    // Recovery has not run: the plan still routes to the dead owner.
    let batch: Vec<Observation> = (0..20).map(|i| obs(i, at.x, at.y)).collect();
    assert_eq!(ingestor.ingest(batch).unwrap(), 0, "a hint is not an ack");
    assert_eq!(ingestor.pending(), 20);
    // The hint copies sit in the successor's replica log, where a read
    // that fails over finds them.
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10_000));
    let read = RangeOp::new(BBox::around(at, 10.0), window);
    let hinted = cluster.query(read, &QueryOpts::BEST_EFFORT).unwrap();
    assert_eq!(hinted.value.len(), 20);
    assert_eq!(hinted.completeness.replicas_used.len(), 1);
    assert_eq!(hinted.completeness.replicas_used[0].0, victim);
    // Once the owner is failed out, the barrier re-delivers and acks.
    assert_eq!(cluster.check_and_recover(), vec![victim]);
    ingestor.flush().unwrap();
    assert_eq!(ingestor.pending(), 0);
    assert_each_once(&cluster, 20);
    cluster.shutdown();
}

#[test]
fn flush_without_quorum_fails_and_keeps_the_window_parked() {
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 1)
            .with_replication(0)
            .with_link(LinkModel::instant())
            .with_rpc_timeout(StdDuration::from_millis(100)),
    )
    .unwrap();
    let ingestor = cluster.create_ingestor();
    cluster.fabric().crash(NodeId(1));
    // The plan still routes to the dead worker: the rows park.
    assert_eq!(ingestor.ingest(spread(0, 20)).unwrap(), 0);
    assert_eq!(ingestor.pending(), 20);
    // Recovery empties the alive set; the barrier must now fail — every
    // time — without dropping what it could not deliver.
    assert_eq!(cluster.check_and_recover(), vec![NodeId(1)]);
    for _ in 0..2 {
        assert!(matches!(ingestor.flush(), Err(StcamError::NoQuorum)));
        assert_eq!(ingestor.pending(), 20);
    }
    cluster.shutdown();
}

#[test]
fn recovery_ticks_never_stall_cluster_ingest() {
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 8)
            .with_replication(1)
            .with_link(LinkModel::lan()),
    )
    .unwrap();
    let victim = NodeId(3);
    cluster.fabric().crash(victim);
    assert_eq!(cluster.check_and_recover(), vec![victim]);
    // Every tick re-probes the dead worker for a restart, holding the
    // coordinator lock through a 250 ms single-attempt probe.
    cluster.enable_auto_recovery(StdDuration::from_millis(20));
    let mut slow = Vec::new();
    for k in 0..100u64 {
        let begun = Instant::now();
        assert_eq!(cluster.ingest(spread(k * 400, 400)).unwrap(), 400);
        let took = begun.elapsed();
        if took > StdDuration::from_millis(100) {
            slow.push((k, took));
        }
    }
    assert!(
        slow.is_empty(),
        "batches waited on the recovery tick: {slow:?}"
    );
    cluster.shutdown();
}

#[test]
fn cluster_ingest_acks_while_a_rebalance_runs() {
    const ARCHIVE: u64 = 20_000;
    const BATCH: u64 = 20;
    let cluster = launch(4, 5_000);
    // 70 % of the archive in one corner, so the rebalance moves cells.
    let hotspot = |i: u64| {
        if i % 10 < 7 {
            obs(
                i,
                50.0 + (i as f64 * 7.3) % 300.0,
                50.0 + (i as f64 * 11.7) % 300.0,
            )
        } else {
            spread(i, 1).remove(0)
        }
    };
    let archive: Vec<Observation> = (0..ARCHIVE).map(hotspot).collect();
    for chunk in archive.chunks(2_000) {
        assert_eq!(cluster.ingest(chunk.to_vec()).unwrap(), chunk.len());
    }
    let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
    let (during, written) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let (mut next, mut during) = (ARCHIVE, 0u32);
            while !done.load(Ordering::SeqCst) {
                let begun_during = started.load(Ordering::SeqCst);
                let batch = spread(next, BATCH);
                assert_eq!(cluster.ingest(batch).unwrap(), BATCH as usize);
                next += BATCH;
                during += u32::from(begun_during && !done.load(Ordering::SeqCst));
                std::thread::sleep(StdDuration::from_millis(5));
            }
            (during, next)
        });
        started.store(true, Ordering::SeqCst);
        let report = cluster.rebalance();
        done.store(true, Ordering::SeqCst);
        let report = report.expect("rebalance beside a writer");
        assert!(report.cells_moved > 0, "the skewed archive moved no cell");
        writer.join().unwrap()
    });
    assert!(
        during >= 3,
        "only {during} batches were begun and acked while the rebalance ran"
    );
    // Acked means visible to a strict read: no flush first.
    assert_each_once(&cluster, written);
    cluster.shutdown();
}
