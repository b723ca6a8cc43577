//! End-to-end tests of the `stcam::exec` scatter/gather layer through the
//! cluster facade: the top-cells aggregate, executor telemetry, and
//! timeout retry under injected link loss.

use std::time::Duration as StdDuration;

use stcam::{Cluster, ClusterConfig, KnnOp, OpPolicy, OpStats, QueryOpts, StcamError, TopCellsOp};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_net::{LinkModel, NodeId, WIRE_OVERHEAD};
use stcam_world::{EntityClass, EntityId};

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
}

fn obs(seq: u64, x: f64, y: f64) -> Observation {
    Observation {
        id: ObservationId::compose(CameraId(0), seq),
        camera: CameraId(0),
        time: Timestamp::from_millis(seq * 10),
        position: Point::new(x, y),
        class: EntityClass::Car,
        signature: Signature::latent_for_entity(seq),
        truth: Some(EntityId(seq)),
    }
}

fn window_all() -> TimeInterval {
    TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10_000))
}

#[test]
fn top_cells_matches_dense_heatmap_ranking() {
    let cluster =
        Cluster::launch(ClusterConfig::new(extent(), 4).with_link(LinkModel::instant())).unwrap();
    // Three hot spots of different intensity plus background scatter,
    // crossing shard boundaries so the merge actually sums partials.
    let mut batch = Vec::new();
    let mut seq = 0u64;
    for (n, cx, cy) in [(40, 100.0, 100.0), (30, 800.0, 800.0), (20, 1500.0, 200.0)] {
        for i in 0..n {
            batch.push(obs(seq, cx + (i % 7) as f64, cy + (i % 5) as f64));
            seq += 1;
        }
    }
    for i in 0..50u64 {
        batch.push(obs(
            seq,
            (i as f64 * 131.0) % 1600.0,
            (i as f64 * 173.0) % 1600.0,
        ));
        seq += 1;
    }
    cluster.ingest(batch).unwrap();
    cluster.flush().unwrap();

    let buckets = GridSpec::covering(extent(), 200.0);
    let k = 5;
    let top = cluster
        .query(
            TopCellsOp {
                buckets,
                window: window_all(),
                k,
            },
            &QueryOpts::STRICT,
        )
        .unwrap()
        .value;
    assert_eq!(top.len(), k);

    // The dense heatmap, ranked the same way, must agree exactly.
    let dense = cluster.heatmap(&buckets, window_all()).unwrap();
    let mut expected: Vec<(u32, u64)> = dense
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (i as u32, c))
        .collect();
    expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    expected.truncate(k);
    let got: Vec<(u32, u64)> = top
        .iter()
        .map(|(cell, c)| (cell.row * buckets.cols() + cell.col, *c))
        .collect();
    assert_eq!(got, expected);

    // The planted hot spots dominate the ranking (background scatter may
    // add a few hits to the same cells).
    assert!(top[0].1 >= 40);
    assert!(top[1].1 >= 30);

    // Both aggregates ship sparse per-shard partials (only occupied
    // buckets cross the wire), so top-cells costs no more than the
    // dense-answer heatmap for this grid (64 cells, ~10 occupied).
    let ops = cluster.op_stats();
    let top_stats = ops.iter().find(|(n, _)| *n == "top_cells").unwrap().1;
    let heat_stats = ops.iter().find(|(n, _)| *n == "heatmap").unwrap().1;
    assert!(top_stats.invocations == 1 && heat_stats.invocations == 1);
    assert!(
        top_stats.bytes_received <= heat_stats.bytes_received,
        "sparse top-cells moved {} B down vs heatmap {} B",
        top_stats.bytes_received,
        heat_stats.bytes_received
    );
    cluster.shutdown();
}

#[test]
fn executor_telemetry_counts_queries_and_latency_split() {
    let cluster =
        Cluster::launch(ClusterConfig::new(extent(), 4).with_link(LinkModel::instant())).unwrap();
    let batch: Vec<Observation> = (0..200)
        .map(|i| obs(i, (i as f64 * 37.0) % 1600.0, (i as f64 * 53.0) % 1600.0))
        .collect();
    cluster.ingest(batch).unwrap();
    cluster.flush().unwrap();
    for _ in 0..3 {
        cluster.range_query(extent(), window_all()).unwrap();
    }
    let stats = cluster.stats().unwrap();
    let range = stats.op("range");
    assert_eq!(range.invocations, 3);
    // 3 invocations × 4 workers, and any probe a busy host's timeout sent
    // ahead of a late answer.
    assert_eq!(range.sub_queries, 12 + range.retries);
    assert_eq!(range.failures, 0);
    assert!(range.bytes_sent > 0 && range.bytes_received > 0);
    assert!(range.scatter_micros > 0, "scatter latency not recorded");
    // Worker-side serve counters agree with the executor's fan-out: a
    // probe is never executed.
    let served: u64 = stats
        .workers
        .iter()
        .map(|(_, s)| s.served_count("range"))
        .sum();
    assert_eq!(served, 12);
    cluster.shutdown();
}

#[test]
fn lossy_link_read_succeeds_via_retry_where_single_shot_fails() {
    // 20% loss per message: a round trip succeeds with P ≈ 0.8² = 0.64,
    // so with single-attempt RPCs a scatter of 4 sub-queries fails more
    // often than not (P[all ok] ≈ 0.17) — the seed surfaced that as a
    // query error. With the retry budget raised to 10 attempts, a
    // sub-query exhausts the budget with P ≈ 0.36¹⁰ ≈ 4e-5, so a short
    // query loop both exercises and survives retries.
    let lossy = LinkModel::instant().with_drop_probability(0.2);
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(0)
            .with_link(lossy),
    )
    .unwrap();
    // Ingest over a lossy fabric is fire-and-forget; tolerate partial
    // delivery — this test is about query-path retry, not ingest.
    let batch: Vec<Observation> = (0..100)
        .map(|i| obs(i, (i as f64 * 37.0) % 1600.0, (i as f64 * 53.0) % 1600.0))
        .collect();
    let _ = cluster.ingest(batch);

    // Short per-attempt timeout so lost messages are detected fast; more
    // attempts than the default to make exhaustion astronomically rare.
    cluster.set_op_policy(
        "range",
        OpPolicy {
            timeout: StdDuration::from_millis(200),
            max_attempts: 10,
        },
    );

    let mut completed = 0u32;
    for _ in 0..25 {
        let result = cluster.range_query(extent(), window_all());
        assert!(
            result.is_ok(),
            "query failed despite retry budget: {result:?}"
        );
        completed += 1;
        let range = cluster
            .op_stats()
            .into_iter()
            .find(|(n, _)| *n == "range")
            .map(|(_, s)| s)
            .unwrap();
        if range.retries > 0 {
            break; // loss was observed and recovered from
        }
    }
    let range = cluster
        .op_stats()
        .into_iter()
        .find(|(n, _)| *n == "range")
        .map(|(_, s)| s)
        .unwrap();
    assert!(
        range.retries > 0,
        "no retries recorded after {completed} queries at 20% loss — \
         P < 1e-12, the retry path cannot be wired up"
    );
    assert_eq!(range.failures, 0, "a read failed despite the retry budget");
    cluster.shutdown();
}

#[test]
fn per_op_policy_is_isolated_from_other_ops() {
    // Replication 0: with replicas available, a read whose primary
    // sub-query times out would fail over and succeed anyway, hiding the
    // strangled policy this test is about. The LAN link (not instant)
    // matters too: a 1 ns deadline can only lose deterministically if no
    // reply can already be in the mailbox at the first poll.
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 2)
            .with_replication(0)
            .with_link(LinkModel::lan()),
    )
    .unwrap();
    // A tiny timeout on an op we never call must not affect others.
    cluster.set_op_policy(
        "knn_broadcast",
        OpPolicy::no_retry(StdDuration::from_nanos(1)),
    );
    cluster.ingest(vec![obs(0, 800.0, 800.0)]).unwrap();
    cluster.flush().unwrap();
    assert_eq!(
        cluster.range_query(extent(), window_all()).unwrap().len(),
        1
    );
    // The strangled op itself does time out.
    assert!(cluster
        .query(
            KnnOp::broadcast(Point::new(800.0, 800.0), window_all(), 1),
            &QueryOpts::STRICT
        )
        .is_err());
    cluster.shutdown();
}

/// The named op's cumulative telemetry (zeros when never invoked).
fn op(cluster: &Cluster, name: &str) -> OpStats {
    let all = cluster.op_stats();
    let found = all.iter().find(|(op, _)| *op == name);
    found.map(|(_, s)| *s).unwrap_or_default()
}

#[test]
fn control_message_to_a_crashed_worker_never_fails_over() {
    // Replication 1, so a *read* of worker 2's shard would fail over to
    // its ring successor. A control message must not: the crashed
    // worker's error is the answer (for a probe, the whole point).
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(1)
            .with_link(LinkModel::instant())
            .with_rpc_timeout(StdDuration::from_millis(300)),
    )
    .unwrap();
    let batch: Vec<Observation> = (0..200)
        .map(|i| obs(i, (i as f64 * 37.0) % 1600.0, (i as f64 * 53.0) % 1600.0))
        .collect();
    cluster.ingest(batch).unwrap();
    cluster.flush().unwrap();
    let before = op(&cluster, "flush");
    cluster.fabric().crash(NodeId(2));
    assert!(matches!(cluster.flush(), Err(StcamError::Net(_))));
    let flush = op(&cluster, "flush").since(&before);
    assert_eq!((flush.invocations, flush.failures), (1, 1));
    assert_eq!(flush.failovers, 0);
    assert_eq!(flush.sub_queries, 4 + flush.retries);
    // Recovery is control traffic too (probe, promote, route install,
    // digests, repair streams): no survivor ever served a replica read.
    assert_eq!(cluster.check_and_recover(), vec![NodeId(2)]);
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.workers.len(), 3);
    for (worker, served) in &stats.workers {
        assert_eq!(served.served_count("replica_read"), 0, "at {worker:?}");
    }
    assert!(stats.ops.iter().all(|(_, s)| s.failovers == 0));
    cluster.shutdown();
}

#[test]
fn one_target_and_four_book_the_same_per_sub_query() {
    // The single-target scatter has no code of its own: it books exactly
    // what each of four targets books.
    let cluster =
        Cluster::launch(ClusterConfig::new(extent(), 4).with_link(LinkModel::instant())).unwrap();
    cluster.flush().unwrap();
    let scatter = |region| {
        let before = op(&cluster, "range");
        assert!(cluster
            .range_query(region, window_all())
            .unwrap()
            .is_empty());
        op(&cluster, "range").since(&before)
    };
    // A corner of one worker's quadrant, then every shard. A probe that a
    // busy host's timeout sent ahead of a late answer books its 16 bytes
    // and a retry, and nothing else.
    let one = scatter(BBox::around(Point::new(100.0, 100.0), 50.0));
    let four = scatter(extent());
    let frames = |s: OpStats| {
        (
            s.sub_queries - s.retries,
            s.bytes_sent - WIRE_OVERHEAD * s.retries,
        )
    };
    assert_eq!((one.invocations, frames(one).0), (1, 1));
    assert_eq!((four.invocations, frames(four).0), (1, 4));
    assert!(one.bytes_sent > 0 && one.bytes_received > 0);
    assert_eq!(frames(four).1, 4 * frames(one).1);
    assert_eq!(four.bytes_received, 4 * one.bytes_received);
    for stats in [one, four] {
        assert_eq!((stats.failures, stats.failovers), (0, 0));
        assert_eq!(stats.latency.count(), 1);
    }
    cluster.shutdown();
}
