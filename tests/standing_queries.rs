//! Standing queries keep the contract writes keep: a match arrives
//! exactly when its row is acknowledged, once per acknowledgement. Both
//! gates ingest through `Cluster::ingest`, then heal, flush and drain the
//! notifications, and count every notified id.

use std::collections::HashMap;
use std::time::{Duration as StdDuration, Instant};

use stcam::{Cluster, ClusterConfig, ContinuousQueryId, Predicate};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, Point, Timestamp};
use stcam_net::{LinkModel, NodeId};
use stcam_world::{EntityClass, EntityId};

/// The node `Cluster::ingest` writes from.
const WRITER: NodeId = NodeId(10_000);

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

/// 8 workers, r = 1, instant links, a 100 ms RPC timeout, and one
/// standing query over the whole extent.
fn launch() -> (Cluster, ContinuousQueryId) {
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 8)
            .with_replication(1)
            .with_link(LinkModel::instant())
            .with_rpc_timeout(StdDuration::from_millis(100)),
    )
    .unwrap();
    let everything = Predicate {
        region: extent(),
        class: None,
    };
    let query = cluster.register_continuous(everything).unwrap();
    (cluster, query)
}

/// Flushes until the parked window is empty (the links are healed).
fn flush(cluster: &Cluster) {
    let deadline = Instant::now() + StdDuration::from_secs(60);
    while let Err(e) = cluster.flush() {
        assert!(
            Instant::now() < deadline,
            "parked writes never drained: {e}"
        );
    }
}

/// How often each row was notified for `query`, draining until the
/// channel stays quiet for half a second.
fn notified(cluster: &Cluster, query: ContinuousQueryId) -> HashMap<u64, u32> {
    let mut count: HashMap<u64, u32> = HashMap::new();
    loop {
        let batch = cluster.poll_notifications(StdDuration::from_millis(500));
        if batch.is_empty() {
            return count;
        }
        for n in batch.into_iter().filter(|n| n.query == query) {
            for row in n.matches {
                *count.entry(row.id.seq()).or_default() += 1;
            }
        }
    }
}

/// `notified` holds each of `ids` exactly once and nothing else.
fn assert_once_each(notified: &HashMap<u64, u32>, ids: impl Iterator<Item = u64>, what: &str) {
    let mut missing = 0;
    let mut want = 0;
    for id in ids {
        want += 1;
        match notified.get(&id) {
            None => missing += 1,
            Some(&n) => assert_eq!(n, 1, "{what}: row {id} notified {n} times"),
        }
    }
    assert_eq!(missing, 0, "{what}: {missing} acked rows never notified");
    assert_eq!(notified.len(), want, "{what}: rows notified but never sent");
}

/// ROADMAP's measurement: 20 000 rows in batches of 500 under uniform
/// link loss. Every row is acked (the closing flush drains whatever
/// parked), so every row must be notified, and none twice.
#[test]
fn every_acked_row_is_notified_once_under_link_loss() {
    for loss in [0.01, 0.05] {
        let (cluster, query) = launch();
        cluster.set_drop_probability(loss);
        for first in (0..20_000u64).step_by(500) {
            let batch = (first..first + 500)
                .map(|i| obs(i, (i as f64 * 37.0) % 1600.0, (i as f64 * 53.0) % 1600.0))
                .collect();
            cluster.ingest(batch).unwrap();
        }
        cluster.set_drop_probability(0.0);
        flush(&cluster);
        let what = format!("{:.0} % loss", loss * 100.0);
        assert_once_each(&notified(&cluster, query), 0..20_000, &what);
        cluster.shutdown();
    }
}

/// The owner applies a group and answers, its replica copy fails, and the
/// group parks; the flush re-drives it and the owner runs the batch
/// again. Only the send that is acknowledged delivers matches, so each
/// row is notified once, not once per run.
#[test]
fn a_re_driven_group_notifies_each_row_once() {
    let (cluster, query) = launch();
    let at = Point::new(500.0, 500.0);
    let partition = cluster.partition();
    let owner = partition.owner_of(at);
    let replica = partition.successors(owner, 1)[0];
    cluster
        .fabric()
        .set_link_drop_probability(WRITER, replica, 1.0);
    let batch: Vec<Observation> = (0..20).map(|i| obs(i, at.x, at.y)).collect();
    assert_eq!(cluster.ingest(batch).unwrap(), 0, "acked without its copy");
    cluster
        .fabric()
        .clear_link_drop_probability(WRITER, replica);
    flush(&cluster);
    assert_once_each(&notified(&cluster, query), 0..20, "re-drive");
    cluster.shutdown();
}
