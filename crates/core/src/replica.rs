//! The replica a worker keeps of another worker's shard: a row log.
//!
//! A [`ReplicaLog`] is a [`FlatIndex`] of rows plus the set of their ids.
//! Nothing is indexed at write time — an append is a hash insert and a
//! push — so every read of a log is the flat store's scan, acceptable
//! because a log is read only while its primary is down (and by the
//! digest sweep). The type keeps one condition true that repair and
//! retention depend on: **the id set is exactly the ids of the rows**. A
//! row that leaves (truncate, slice eviction, promotion) releases its
//! id, so a later repair stream can put it back; a row whose id is held
//! is never appended twice.
//!
//! [`RowSource`] is the three scans a read request is built from. The
//! worker's one read evaluator is generic over it, so a failover read
//! over a log's [`FlatIndex`] and a primary read over a [`ReadView`]
//! differ in how rows are found, never in what the request means: both
//! test the same [`Predicate`] — region and class — and keep the
//! `limit` lowest ids.

use std::collections::HashSet;

use stcam_camnet::{Observation, ObservationId};
use stcam_geo::{BBox, Duration, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::{slice_number, FlatIndex, Predicate, ReadView};

use crate::repair::DigestAccumulator;

/// The scans a shard read is evaluated over, with [`ReadView`]'s
/// signatures and contracts: `range` returns the rows of `window` passing
/// the predicate, sorted by id (ties in storage order), only the first
/// `limit` under one; `knn` the `k` rows of `window` nearest `at` and at
/// most `max` from it, by (distance, id); `heatmap` dense row-major
/// counts per cell of `buckets`, skipping rows outside it.
pub(crate) trait RowSource {
    fn range(
        &self,
        predicate: &Predicate,
        window: TimeInterval,
        limit: Option<usize>,
    ) -> Vec<Observation>;
    fn knn(&self, at: Point, window: TimeInterval, k: usize, max: Option<f64>) -> Vec<Observation>;
    fn heatmap(&self, buckets: &GridSpec, window: TimeInterval) -> Vec<u64>;
}

impl RowSource for ReadView {
    fn range(
        &self,
        predicate: &Predicate,
        window: TimeInterval,
        limit: Option<usize>,
    ) -> Vec<Observation> {
        ReadView::range_where(self, predicate, window, limit)
    }
    fn knn(&self, at: Point, window: TimeInterval, k: usize, max: Option<f64>) -> Vec<Observation> {
        ReadView::knn_within(self, at, window, k, max)
    }
    fn heatmap(&self, buckets: &GridSpec, window: TimeInterval) -> Vec<u64> {
        ReadView::heatmap(self, buckets, window)
    }
}

/// A flat store's reads clone only the rows they return.
impl RowSource for FlatIndex {
    fn range(
        &self,
        predicate: &Predicate,
        window: TimeInterval,
        limit: Option<usize>,
    ) -> Vec<Observation> {
        self.range_where(predicate, window, limit)
            .into_iter()
            .cloned()
            .collect()
    }
    fn knn(&self, at: Point, window: TimeInterval, k: usize, max: Option<f64>) -> Vec<Observation> {
        self.knn_within(at, window, k, max)
            .into_iter()
            .cloned()
            .collect()
    }
    fn heatmap(&self, buckets: &GridSpec, window: TimeInterval) -> Vec<u64> {
        FlatIndex::heatmap(self, buckets, window)
    }
}

/// The unindexed copy of one primary's rows held by a ring successor.
#[derive(Debug, Default)]
pub(crate) struct ReplicaLog {
    rows: FlatIndex,
    /// The ids of `rows`, so replica writes and repair streams never
    /// append the same observation twice.
    ids: HashSet<ObservationId>,
}

impl ReplicaLog {
    /// Appends `batch`, skipping observations already present (a sender
    /// re-routing after a failover delivers the same data in a new
    /// request).
    pub(crate) fn append(&mut self, batch: impl IntoIterator<Item = Observation>) {
        for obs in batch {
            if self.ids.insert(obs.id) {
                self.rows.insert(obs);
            }
        }
    }

    /// Keeps the rows `keep` accepts and releases the ids of the rest.
    fn retain(&mut self, keep: impl Fn(&Observation) -> bool) {
        let ids = &mut self.ids;
        self.rows.retain(|o| {
            let kept = keep(o);
            if !kept {
                ids.remove(&o.id);
            }
            kept
        });
    }

    /// Drops every row positioned inside `region`.
    pub(crate) fn truncate(&mut self, region: BBox) {
        self.retain(|o| !region.contains(o.position));
    }

    /// Evicts by slice, as the primary index does: a row goes iff its
    /// whole `slice_len` slice ends at or before `cutoff`, so the copies
    /// keep matching digests.
    pub(crate) fn evict_slices_before(&mut self, cutoff: Timestamp, slice_len: Duration) {
        self.retain(|o| {
            let slice_end = (slice_number(o.time, slice_len) + 1) * slice_len.as_millis();
            slice_end > cutoff.as_millis()
        });
    }

    /// Folds every row into `acc`.
    pub(crate) fn digest_into(&self, acc: &mut DigestAccumulator) {
        for o in self.rows.iter() {
            acc.add(o);
        }
    }

    /// Empties the log and returns its rows (promotion absorbs them into
    /// the primary shard).
    pub(crate) fn take(&mut self) -> Vec<Observation> {
        self.ids.clear();
        std::mem::take(&mut self.rows).into_vec()
    }

    /// The rows held, in arrival order.
    pub(crate) fn rows(&self) -> &FlatIndex {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stcam_camnet::{CameraId, Signature};

    const SLICE_MS: u64 = 10_000;

    /// One mutation of a log.
    #[derive(Debug, Clone)]
    enum LogOp {
        Append(Vec<Observation>),
        Truncate(BBox),
        EvictBefore(u64),
        Take,
    }

    fn row(seq: u64, t_ms: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(x, y),
            class: stcam_world::EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: None,
        }
    }

    fn arb_log_op() -> impl Strategy<Value = LogOp> {
        // Ids from a universe of 24, so batches repeat ids within
        // themselves, across appends, and after a removal released them.
        let row = (0u64..24, 0u64..100_000, 0.0..4000.0f64, 0.0..4000.0f64)
            .prop_map(|(seq, t, x, y)| row(seq, t, x, y));
        let batch = prop::collection::vec(row, 0..12);
        let corner = (0.0..4000.0f64, 0.0..4000.0f64, 1.0..2000.0f64);
        (0u8..9, batch, corner, 0u64..120_000).prop_map(|(kind, batch, (x, y, side), cutoff)| {
            match kind {
                0..=3 => LogOp::Append(batch),
                4..=5 => LogOp::Truncate(BBox::around(Point::new(x, y), side)),
                6..=7 => LogOp::EvictBefore(cutoff),
                _ => LogOp::Take,
            }
        })
    }

    proptest! {
        /// A replica log is its rows: after any mutation sequence it holds
        /// what a plain vector deduplicated by the ids *of its rows* holds
        /// — so its id set is exactly those ids, an id released by a
        /// removal is admitted again — and it digests as those rows do.
        #[test]
        fn ids_and_digest_follow_the_rows(ops in prop::collection::vec(arb_log_op(), 0..24)) {
            let grid = GridSpec::new(Point::ORIGIN, 500.0, 8, 8);
            let mut log = ReplicaLog::default();
            let mut model: Vec<Observation> = Vec::new();
            // Every id of the universe once more at the end: held ones
            // must bounce, released ones land.
            let probe = (0..24).map(|seq| row(seq, seq * 5_000, seq as f64 * 100.0, 50.0));
            for op in ops.into_iter().chain([LogOp::Append(probe.collect())]) {
                match op {
                    LogOp::Append(batch) => {
                        for o in &batch {
                            if !model.iter().any(|held| held.id == o.id) {
                                model.push(o.clone());
                            }
                        }
                        log.append(batch);
                    }
                    LogOp::Truncate(region) => {
                        model.retain(|o| !region.contains(o.position));
                        log.truncate(region);
                    }
                    LogOp::EvictBefore(cutoff) => {
                        model.retain(|o| (o.time.as_millis() / SLICE_MS + 1) * SLICE_MS > cutoff);
                        let slice_len = Duration::from_millis(SLICE_MS);
                        log.evict_slices_before(Timestamp::from_millis(cutoff), slice_len);
                    }
                    LogOp::Take => prop_assert_eq!(log.take(), std::mem::take(&mut model)),
                }
                prop_assert!(log.rows().iter().eq(&model));
                let ids: HashSet<ObservationId> = model.iter().map(|o| o.id).collect();
                prop_assert_eq!(&log.ids, &ids);
                let mut got = DigestAccumulator::new(&grid);
                let mut want = DigestAccumulator::new(&grid);
                log.digest_into(&mut got);
                model.iter().for_each(|o| want.add(o));
                prop_assert_eq!(got.finish(), want.finish());
            }
            prop_assert_eq!(log.rows().len(), 24);
        }
    }
}
