//! A copy's cell digests depend only on the rows it holds: not on how
//! the shard stores them, and not on whether a row was evicted and sent
//! again. The control loop compares copies by these digests alone, and a
//! copy routed under a plan older than its holder's route never joins them.

use stcam::{DigestReport, Request, Response, Worker, WorkerConfig, STALE_EPOCH_ERROR};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, Duration, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::IndexConfig;
use stcam_net::{Fabric, LinkModel, NodeId};
use stcam_world::EntityClass;

const PRIMARY: NodeId = NodeId(7);

fn extent() -> BBox {
    BBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0))
}

/// A 2 × 2 macro grid over the extent.
fn grid() -> GridSpec {
    GridSpec::covering(extent(), 500.0)
}

fn worker(fabric: &Fabric, node: NodeId, index: IndexConfig) -> Worker {
    let config = WorkerConfig {
        index,
        read_threads: 0,
    };
    Worker::new(fabric.register(node), config)
}

/// 90 rows over three 10 s slices, every tenth clamped in from outside
/// the extent.
fn rows() -> Vec<Observation> {
    (0..90u64)
        .map(|i| {
            let position = if i % 10 == 0 {
                Point::new(-40.0, 1100.0)
            } else {
                Point::new((i * 97 % 1000) as f64, (i * 61 % 1000) as f64)
            };
            Observation {
                id: ObservationId::compose(CameraId(0), i),
                camera: CameraId(0),
                time: Timestamp::from_millis(i * 333),
                position,
                class: EntityClass::Car,
                signature: Signature::latent_for_entity(i),
                truth: None,
            }
        })
        .collect()
}

fn digests(worker: &mut Worker) -> DigestReport {
    match worker.handle_request(Request::CellDigest { grid: grid() }) {
        Response::Digests(report) => report,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn a_sealed_and_an_unsealed_copy_of_the_same_rows_report_equal_digests() {
    let fabric = Fabric::new(LinkModel::instant());
    let config = IndexConfig::new(extent(), 50.0, Duration::from_secs(10));
    let mut sealed = worker(&fabric, NodeId(1), config.clone().with_head_slices(1));
    let mut unsealed = worker(&fabric, NodeId(2), config.without_sealing());
    for copy in [&mut sealed, &mut unsealed] {
        let batch = rows();
        assert_eq!(
            copy.handle_request(Request::IngestSeq { epoch: 0, batch }),
            Response::Ack
        );
    }
    assert!(sealed.stats().sealed_segments > 0, "nothing sealed");
    assert_eq!(unsealed.stats().sealed_segments, 0);
    let report = digests(&mut sealed);
    assert_eq!(report.primary.iter().map(|e| e.count).sum::<u32>(), 90);
    assert_eq!(report, digests(&mut unsealed));
}

#[test]
fn a_row_sent_again_after_eviction_lands_in_the_shard_as_in_the_log() {
    let fabric = Fabric::new(LinkModel::instant());
    let config = IndexConfig::new(extent(), 50.0, Duration::from_secs(10)).with_head_slices(1);
    let mut worker = worker(&fabric, NodeId(1), config);
    let batch = rows();
    let again = batch[3].clone(); // slice 0
    let ingest = |batch| Request::IngestSeq { epoch: 0, batch };
    let replicate = |batch| Request::ReplicateSeq {
        primary: PRIMARY,
        epoch: 0,
        batch,
    };
    assert_eq!(worker.handle_request(ingest(batch.clone())), Response::Ack);
    assert_eq!(worker.handle_request(replicate(batch)), Response::Ack);
    let evict = Request::EvictBefore {
        cutoff: Timestamp::from_millis(12_000),
        epoch: 0,
    };
    assert_eq!(worker.handle_request(evict), Response::Ack);
    let held = |worker: &mut Worker, of: Option<NodeId>| {
        let read = Request::Range {
            region: BBox::new(Point::new(-1e6, -1e6), Point::new(1e6, 1e6)),
            window: TimeInterval::ALL,
            limit: 0,
            projection: stcam::PROJ_FULL,
        };
        let read = match of {
            Some(of) => Request::ReplicaRead {
                of,
                inner: Box::new(read),
            },
            None => read,
        };
        match worker.handle_request(read) {
            Response::Observations(rows) => rows.iter().map(|o| o.id).collect::<Vec<_>>(),
            other => panic!("unexpected response {other:?}"),
        }
    };
    // Slice 0 (rows 0..=30) is gone from both copies.
    assert_eq!(held(&mut worker, None).len(), 59);
    assert_eq!(held(&mut worker, Some(PRIMARY)).len(), 59);

    assert_eq!(
        worker.handle_request(ingest(vec![again.clone()])),
        Response::Ack
    );
    assert_eq!(
        worker.handle_request(replicate(vec![again.clone()])),
        Response::Ack
    );
    assert!(
        held(&mut worker, None).contains(&again.id),
        "the shard dropped the row"
    );
    assert!(held(&mut worker, Some(PRIMARY)).contains(&again.id));
    let report = digests(&mut worker);
    let cell = grid().cell_of_clamped(again.position);
    let cell = cell.row * grid().cols() + cell.col;
    let shard = report
        .primary
        .iter()
        .find(|e| e.cell == cell)
        .expect("shard cell");
    let log = report
        .replicas
        .iter()
        .find(|e| e.cell == cell)
        .expect("log cell");
    assert_eq!((shard.count, shard.checksum), (log.count, log.checksum));
}

#[test]
fn a_copy_routed_under_an_older_epoch_is_refused_and_leaves_the_log_unchanged() {
    let fabric = Fabric::new(LinkModel::instant());
    let config = IndexConfig::new(extent(), 50.0, Duration::from_secs(10));
    let mut worker = worker(&fabric, NodeId(1), config);
    let route = Request::RouteUpdate {
        epoch: 5,
        grid: grid(),
        cells: vec![0, 1],
    };
    assert_eq!(worker.handle_request(route), Response::Ack);
    let replicate = |epoch, batch| Request::ReplicateSeq {
        primary: PRIMARY,
        epoch,
        batch,
    };
    let rows = rows();
    let current = worker.handle_request(replicate(5, rows[..30].to_vec()));
    assert_eq!(current, Response::Ack);
    let before = digests(&mut worker);
    let stale = worker.handle_request(replicate(4, rows[30..60].to_vec()));
    assert_eq!(stale, Response::Error(STALE_EPOCH_ERROR.into()));
    assert_eq!(
        digests(&mut worker),
        before,
        "a refused copy changed the log"
    );
    let newer = worker.handle_request(replicate(6, rows[30..].to_vec()));
    assert_eq!(newer, Response::Ack);
    let held = digests(&mut worker).replicas;
    assert!(held.iter().all(|e| e.primary == PRIMARY));
    assert_eq!(held.iter().map(|e| e.count).sum::<u32>(), 90);
}
