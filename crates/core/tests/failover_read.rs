//! A failover read answers as the primary does: the same rows held by one
//! worker as its primary shard and by another as the replica log of that
//! shard give equal answers to every shard read. Both go through the
//! worker's one read evaluator; they differ only in the store scanned —
//! the shard's tiered index, or the log's flat store.

use proptest::prelude::*;
use stcam::{Request, Worker, WorkerConfig, PROJ_FULL, PROJ_THIN};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, Duration, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::IndexConfig;
use stcam_net::{Fabric, LinkModel, NodeId};
use stcam_world::EntityClass;

const PRIMARY: NodeId = NodeId(7);

/// A row or query position: on a 25 m lattice half the time (rows share
/// positions and tie in distance), else anywhere from 150 m outside the
/// 1 km extent (such rows clamp into its border cells).
fn arb_spot() -> impl Strategy<Value = Point> {
    (
        any::<bool>(),
        (-4i32..44, -4i32..44),
        (-150.0..1150.0f64, -150.0..1150.0f64),
    )
        .prop_map(|(lattice, (i, j), (x, y))| {
            if lattice {
                Point::new(i as f64 * 25.0, j as f64 * 25.0)
            } else {
                Point::new(x, y)
            }
        })
}

fn row(seq: u64, t_ms: u64, position: Point, class: EntityClass) -> Observation {
    Observation {
        id: ObservationId::compose(CameraId(0), seq),
        camera: CameraId(0),
        time: Timestamp::from_millis(t_ms),
        position,
        class,
        signature: Signature::latent_for_entity(seq),
        truth: None,
    }
}

proptest! {
    /// Rows in the head or sealed (one-slice head: every slice but the
    /// newest seals, and groups of eight compact), some clamped in from
    /// outside the extent, cars and trucks. Every range kind with limit
    /// 0 and above 0 in both projections, kNN with and without a
    /// distance limit, and a heat-map over buckets wider than the extent.
    #[test]
    fn a_failover_read_answers_as_the_primary_does(
        rows in prop::collection::vec((0u64..90_000, arb_spot(), any::<bool>()), 0..160),
        sealed in any::<bool>(),
        corner in (-200.0..1100.0f64, -200.0..1100.0f64, 0.0..1200.0f64),
        span in (0u64..90_000, 0u64..100_000),
        truck in any::<bool>(),
        limit in 1u32..12,
        at in arb_spot(),
        k in 0u32..20,
        max_distance in 0.0..600.0f64,
        bucket in 20.0..400.0f64,
    ) {
        let extent = BBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
        let index = IndexConfig::new(extent, 50.0, Duration::from_secs(10));
        let index = if sealed { index.with_head_slices(1) } else { index.without_sealing() };
        let config = || WorkerConfig { index: index.clone(), read_threads: 0 };
        let fabric = Fabric::new(LinkModel::instant());
        let mut primary = Worker::new(fabric.register(PRIMARY), config());
        let mut holder = Worker::new(fabric.register(NodeId(1)), config());
        let class_of = |truck| if truck { EntityClass::Truck } else { EntityClass::Car };
        // Distinct ids out of time order. The shard fills in time order,
        // so every slice but the newest seals; the log newest first.
        let mut rows: Vec<Observation> = (0u64..)
            .zip(rows)
            .map(|(i, (t, p, truck))| row(i * 37 % 211, t, p, class_of(truck)))
            .collect();
        rows.sort_by_key(|o| o.time);
        primary.handle_request(Request::IngestSeq { epoch: 0, batch: rows.clone() });
        // Rows in more than one slice: the sealed case holds segments.
        let slices: std::collections::BTreeSet<u64> =
            rows.iter().map(|o| o.time.as_millis() / 10_000).collect();
        prop_assert_eq!(primary.stats().sealed_segments > 0, sealed && slices.len() > 1);
        let batch = rows.into_iter().rev().collect();
        holder.handle_request(Request::ReplicateSeq { primary: PRIMARY, epoch: 0, batch });

        let (x, y, side) = corner;
        let region = BBox::new(Point::new(x, y), Point::new(x + side, y + side));
        let (from, length) = span;
        let window =
            TimeInterval::new(Timestamp::from_millis(from), Timestamp::from_millis(from + length));
        let class = class_of(truck);
        let mut reads = Vec::new();
        for limit in [0, limit] {
            for projection in [PROJ_FULL, PROJ_THIN] {
                reads.push(Request::Range { region, window, limit, projection });
                reads.push(Request::RangeFiltered { region, window, class, limit, projection });
            }
        }
        for max_distance in [None, Some(max_distance)] {
            reads.push(Request::Knn { at, window, k, max_distance });
        }
        let side = (1300.0 / bucket).ceil() as u32;
        let buckets = GridSpec::new(Point::new(-150.0, -150.0), bucket, side, side);
        reads.push(Request::Heatmap { buckets, window });
        for inner in reads {
            let direct = primary.handle_request(inner.clone());
            let failover = holder.handle_request(Request::ReplicaRead {
                of: PRIMARY,
                inner: Box::new(inner.clone()),
            });
            prop_assert_eq!(failover, direct, "{:?}", inner);
        }
    }
}
