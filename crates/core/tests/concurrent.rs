//! Concurrency stress for the lock-free query plane: many client
//! threads mixing range / kNN / heat-map reads against concurrent
//! ingest and a recovery tick, with strict answers checked against the
//! centralized oracle and executor telemetry checked for lost updates.
//!
//! The read workload queries a *stable* time window that is fully
//! ingested and flushed before the threads start; the concurrent writer
//! ingests into a disjoint, much later window. Strict queries over the
//! stable window must therefore return exactly the oracle's answer no
//! matter how the scheduler interleaves them with ingest, recovery
//! probes, or each other.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration as StdDuration;

use stcam::exec::OpStats;
use stcam::{CentralizedStore, Cluster, ClusterConfig, QueryOpts, RangeOp};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_net::LinkModel;
use stcam_world::{EntityClass, EntityId};

const QUERY_THREADS: usize = 9; // 3 per query kind — ≥ 8 total
const ITERS: usize = 12;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
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

/// Irrational-ish multipliers keep pairwise distances distinct, so kNN
/// answers have a unique order and oracle comparison is exact.
fn stable_batch() -> Vec<Observation> {
    (0..900)
        .map(|i| {
            obs(
                i,
                (i % 90) * 1_000, // window [0, 90 s)
                (i as f64 * 37.31) % 1600.0,
                (i as f64 * 53.77) % 1600.0,
            )
        })
        .collect()
}

fn stats_map(stats: Vec<(&'static str, OpStats)>) -> BTreeMap<&'static str, OpStats> {
    stats.into_iter().collect()
}

#[test]
fn concurrent_queries_match_oracle_under_ingest_and_recovery() {
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 6)
            .with_replication(1)
            .with_link(LinkModel::instant()),
    )
    .unwrap();
    let stable = stable_batch();
    cluster.ingest(stable.clone()).unwrap();
    cluster.flush().unwrap();

    let mut oracle = CentralizedStore::flat();
    oracle.ingest(stable);
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(90));
    let buckets = GridSpec::covering(extent(), 200.0);

    let before = stats_map(cluster.op_stats());
    let issued = [
        ("range", AtomicU64::new(0)),
        ("knn", AtomicU64::new(0)),
        ("heatmap", AtomicU64::new(0)),
    ];

    std::thread::scope(|scope| {
        // Concurrent writer: disjoint window [1000 s, …), same extent.
        scope.spawn(|| {
            for round in 0u64..10 {
                let batch: Vec<Observation> = (0..80)
                    .map(|i| {
                        let seq = 100_000 + round * 80 + i;
                        obs(
                            seq,
                            1_000_000 + seq,
                            (seq as f64 * 17.23) % 1600.0,
                            (seq as f64 * 29.41) % 1600.0,
                        )
                    })
                    .collect();
                cluster.ingest(batch).unwrap();
            }
            cluster.flush().unwrap();
        });
        // One recovery tick mid-flight; nothing is dead, so it must be
        // a no-op that does not wedge or disturb any reader.
        scope.spawn(|| {
            std::thread::sleep(StdDuration::from_millis(5));
            assert!(cluster.check_and_recover().is_empty());
        });
        for t in 0..QUERY_THREADS {
            let (cluster, oracle, issued) = (&cluster, &oracle, &issued);
            let buckets = &buckets;
            scope.spawn(move || match t % 3 {
                0 => {
                    for i in 0..ITERS {
                        let cx = 100.0 + ((t * ITERS + i) as f64 * 131.7) % 1300.0;
                        let region = BBox::around(Point::new(cx, 1600.0 - cx / 2.0), 350.0);
                        let got = cluster.range_query(region, window).unwrap();
                        issued[0].1.fetch_add(1, Ordering::Relaxed);
                        let want = oracle.range_query(region, window);
                        assert_eq!(
                            got.iter().map(|o| o.id).collect::<Vec<_>>(),
                            want.iter().map(|o| o.id).collect::<Vec<_>>(),
                            "range mismatch at {region:?}"
                        );
                    }
                }
                1 => {
                    for i in 0..ITERS {
                        let at = Point::new(
                            ((t * ITERS + i) as f64 * 97.3) % 1600.0,
                            ((t * ITERS + i) as f64 * 71.9) % 1600.0,
                        );
                        let k = 5 + (i % 3) * 10;
                        let got = cluster.knn_query(at, window, k).unwrap();
                        issued[1].1.fetch_add(1, Ordering::Relaxed);
                        let want = oracle.knn_query(at, window, k);
                        assert_eq!(
                            got.iter().map(|o| o.id).collect::<Vec<_>>(),
                            want.iter().map(|o| o.id).collect::<Vec<_>>(),
                            "knn mismatch at {at} k={k}"
                        );
                    }
                }
                _ => {
                    for _ in 0..ITERS {
                        let got = cluster.heatmap(buckets, window).unwrap();
                        issued[2].1.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(got, oracle.heatmap(buckets, window), "heatmap mismatch");
                    }
                }
            });
        }
    });

    // No lost telemetry: with per-call byte tallies and one shared stats
    // account, every invocation issued by every thread must be booked
    // exactly once.
    let after = stats_map(cluster.op_stats());
    let delta = |name: &str| {
        let b = before.get(name).copied().unwrap_or_default();
        after.get(name).copied().unwrap_or_default().since(&b)
    };
    let issued_range = issued[0].1.load(Ordering::Relaxed);
    let issued_knn = issued[1].1.load(Ordering::Relaxed);
    let issued_heatmap = issued[2].1.load(Ordering::Relaxed);
    assert_eq!(
        issued_range,
        (QUERY_THREADS as u64).div_ceil(3) * ITERS as u64
    );
    assert_eq!(delta("range").invocations, issued_range);
    assert_eq!(delta("knn_phase1").invocations, issued_knn);
    assert_eq!(delta("knn_phase2").invocations, issued_knn);
    assert_eq!(delta("heatmap").invocations, issued_heatmap);
    for op in ["range", "knn_phase1", "knn_phase2", "heatmap"] {
        let d = delta(op);
        assert_eq!(d.failures, 0, "{op} recorded failures");
        assert!(d.bytes_sent > 0 && d.bytes_received > 0, "{op} bytes lost");
    }
    cluster.shutdown();
}

/// Paged results, pushdown, and the read-executor pool together: large
/// whole-extent reads must stream back in bounded frames and still
/// reassemble to exactly the oracle's answer while other threads issue
/// pushdown-limited and aggregate reads concurrently.
#[test]
fn paged_pushdown_reads_match_oracle_with_pool() {
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(1)
            .with_link(LinkModel::instant()),
    )
    .unwrap();
    // Large enough that a whole-extent range answer is several pages per
    // shard (~100 encoded bytes per row, 56 KiB page target).
    let stable: Vec<Observation> = (0..12_000)
        .map(|i| {
            obs(
                i,
                (i % 90) * 1_000,
                (i as f64 * 37.31) % 1600.0,
                (i as f64 * 53.77) % 1600.0,
            )
        })
        .collect();
    cluster.ingest(stable.clone()).unwrap();
    cluster.flush().unwrap();
    let mut oracle = CentralizedStore::flat();
    oracle.ingest(stable);
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(90));
    let buckets = GridSpec::covering(extent(), 200.0);
    let plane = cluster.query_plane();

    std::thread::scope(|scope| {
        for t in 0..6 {
            let (cluster, oracle, plane, buckets) = (&cluster, &oracle, &plane, &buckets);
            scope.spawn(move || match t % 3 {
                0 => {
                    // Whole-extent range: multi-page on every shard.
                    for _ in 0..4 {
                        let got = cluster.range_query(extent(), window).unwrap();
                        let want = oracle.range_query(extent(), window);
                        assert_eq!(got.len(), want.len(), "paged range lost rows");
                        assert_eq!(
                            got.iter().map(|o| o.id).collect::<Vec<_>>(),
                            want.iter().map(|o| o.id).collect::<Vec<_>>()
                        );
                    }
                }
                1 => {
                    // Pushdown: per-shard limit + thin projection. The
                    // answer is the unlimited query's first rows in id
                    // order, with heavy columns blanked at the worker.
                    for i in 0..ITERS {
                        let limit = 50 + (t * ITERS + i) as u32 * 7 % 200;
                        let thin = RangeOp {
                            limit,
                            projection: stcam::PROJ_THIN,
                            ..RangeOp::new(extent(), window)
                        };
                        let got = plane.query(thin, &QueryOpts::STRICT).unwrap().value;
                        let want = oracle.range_query(extent(), window);
                        assert_eq!(got.len(), (limit as usize).min(want.len()));
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(g.id, w.id, "limit pushdown changed the prefix");
                            assert!(g.truth.is_none(), "thin projection kept truth");
                            assert!(g.signature.values().iter().all(|v| *v == 0.0));
                        }
                    }
                }
                _ => {
                    // The sparse count pushdown agrees with the oracle.
                    for _ in 0..ITERS {
                        let heat = cluster.heatmap(buckets, window).unwrap();
                        assert_eq!(heat, oracle.heatmap(buckets, window));
                    }
                }
            });
        }
    });

    // No response frame — page pulls included — exceeded the page bound.
    let max_resp = cluster.fabric_stats().max_response_bytes;
    assert!(
        max_resp <= stcam::paging::PAGE_MAX_BYTES as u64,
        "a {max_resp}-byte response frame escaped paging"
    );
    cluster.shutdown();
}

#[test]
fn plan_epoch_advances_only_on_recovery_with_failures() {
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(1)
            .with_link(LinkModel::instant())
            .with_rpc_timeout(StdDuration::from_millis(200)),
    )
    .unwrap();
    let plane = cluster.query_plane();
    assert_eq!(plane.epoch(), 1);
    // Healthy recovery tick: no mutation, no publication.
    assert!(cluster.check_and_recover().is_empty());
    assert_eq!(plane.epoch(), 1);
    // A real failure publishes a new plan; lock-free readers see the
    // shrunken alive set without touching the coordinator.
    cluster.ingest(stable_batch()).unwrap();
    cluster.flush().unwrap();
    cluster.fabric().crash(stcam_net::NodeId(2));
    assert_eq!(cluster.check_and_recover(), vec![stcam_net::NodeId(2)]);
    assert_eq!(plane.epoch(), 2);
    assert!(!plane.plan().alive.contains(&stcam_net::NodeId(2)));
    // Replication keeps strict reads whole on the new plan.
    let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(90));
    assert_eq!(cluster.range_query(extent(), window).unwrap().len(), 900);
    cluster.shutdown();
}
