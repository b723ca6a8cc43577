//! Continuous (standing) queries.
//!
//! A continuous query registers a [`Predicate`] — the type a range read
//! hands the index, tested by the same one `matches` — with every worker
//! whose shard overlaps the predicate's region. Each worker matches the
//! rows it owns in an `IngestSeq` batch against its registrations and
//! returns the [`Notification`]s in the reply that acknowledges the
//! batch; the writer hands them on once the whole group is acknowledged,
//! owner and replicas.
//! A match therefore arrives exactly when its row is acked, once per ack
//! — incremental positive updates, never re-evaluation of the whole query.
//! Matching is a pure function of the registrations and the owned rows:
//! a re-driven batch yields the same matches again, and only the send
//! that is acknowledged delivers them.
//!
//! Matching is served by an [`InterestIndex`]: registrations are
//! bucketed by (coarse grid cell, entity class), so each observation
//! consults only the registrations whose region overlaps its cell —
//! sub-linear in the number of standing queries, instead of the linear
//! registration scan the worker used to run per observation.

use std::collections::HashMap;

use stcam_camnet::{Observation, ObservationBatch};
use stcam_codec::wire_struct;
use stcam_geo::{BBox, GridSpec};
use stcam_index::Predicate;
use stcam_world::EntityClass;

use crate::protocol::Bare;

/// Cluster-unique identifier of a standing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContinuousQueryId(pub u64);

impl std::fmt::Display for ContinuousQueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cq{}", self.0)
    }
}

wire_struct! {
    /// One standing query's matches in one acknowledged ingest batch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Notification {
        /// The standing query that matched.
        pub query: ContinuousQueryId as Bare,
        /// The matching observations (from one ingest batch at one worker).
        pub matches: Vec<Observation> as ObservationBatch,
    }
}

/// Bucket key byte standing for "any class" (predicates without a class
/// filter). Entity classes encode as small discriminants, far below it.
const ANY_CLASS: u8 = u8::MAX;

/// Interest side of the buckets: how many coarse grid columns/rows the
/// index cuts the extent into. 16×16 bounds every registration to at
/// most 256 bucket insertions while keeping per-cell candidate lists
/// small for localised predicates.
const INTEREST_GRID_SIDE: u32 = 16;

/// A cell/class-bucketed index of continuous-query registrations.
///
/// Each registration is inserted into the buckets of every coarse grid
/// cell a matching observation can clamp to (its region's cells clamped
/// into the extent, so a region outside the extent lands in the border
/// cells), keyed by its class filter (or
/// "any class"). Matching an observation consults exactly two buckets —
/// `(cell, class)` and `(cell, any)` — then applies the exact
/// [`Predicate`] to the candidates, so the cost per observation scales
/// with the registrations *interested in that cell*, not with the total
/// registration count: 10⁵ standing queries match in sub-linear time.
///
/// Re-inserting an existing id replaces its registration (the same
/// idempotent overwrite semantics the coordinator's re-registration at
/// every cutover relies on).
#[derive(Debug)]
pub struct InterestIndex {
    grid: GridSpec,
    entries: HashMap<ContinuousQueryId, Predicate>,
    buckets: HashMap<(u32, u8), Vec<ContinuousQueryId>>,
}

impl InterestIndex {
    /// An empty index over `extent` (the worker's deployment extent).
    pub fn new(extent: BBox) -> Self {
        let side = extent.width().max(extent.height()).max(f64::MIN_POSITIVE);
        let cell = side / f64::from(INTEREST_GRID_SIDE);
        let cols = (extent.width() / cell).ceil().max(1.0) as u32;
        let rows = (extent.height() / cell).ceil().max(1.0) as u32;
        InterestIndex {
            grid: GridSpec::new(extent.min, cell, cols, rows),
            entries: HashMap::new(),
            buckets: HashMap::new(),
        }
    }

    /// Registered standing queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no query is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occupied (cell, class) buckets — a size signal for telemetry.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Every registration as `(id, predicate)`, ascending by id. The
    /// census reports these so a reconstructing coordinator can re-derive
    /// its registration table from worker truth.
    pub fn all(&self) -> Vec<(ContinuousQueryId, Predicate)> {
        let mut out: Vec<_> = self.entries.iter().map(|(&id, &p)| (id, p)).collect();
        out.sort_by_key(|(id, _)| id.0);
        out
    }

    fn class_key(predicate: &Predicate) -> u8 {
        predicate.class.map_or(ANY_CLASS, EntityClass::as_u8)
    }

    fn cell_index(&self, col: u32, row: u32) -> u32 {
        row * self.grid.cols() + col
    }

    /// Registers (or replaces) `id` → `predicate`.
    pub fn insert(&mut self, id: ContinuousQueryId, predicate: Predicate) {
        self.remove(id);
        let key = Self::class_key(&predicate);
        for cell in self.grid.cells_clamped(predicate.region) {
            let idx = self.cell_index(cell.col, cell.row);
            self.buckets.entry((idx, key)).or_default().push(id);
        }
        self.entries.insert(id, predicate);
    }

    /// Unregisters `id` (a no-op when absent).
    pub fn remove(&mut self, id: ContinuousQueryId) {
        let Some(predicate) = self.entries.remove(&id) else {
            return;
        };
        let key = Self::class_key(&predicate);
        for cell in self.grid.cells_clamped(predicate.region) {
            let idx = self.cell_index(cell.col, cell.row);
            if let Some(ids) = self.buckets.get_mut(&(idx, key)) {
                ids.retain(|&q| q != id);
                if ids.is_empty() {
                    self.buckets.remove(&(idx, key));
                }
            }
        }
    }

    /// Drops every registration (rejoin resets).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.buckets.clear();
    }

    /// Matches a whole ingest batch: for each standing query with at
    /// least one hit, its matching observations in batch order. Sorted by
    /// query id (deterministic); yields exactly the notifications a linear
    /// scan of all registrations would.
    pub fn matching(&self, batch: &[Observation]) -> Vec<Notification> {
        if self.entries.is_empty() || batch.is_empty() {
            return Vec::new();
        }
        let mut hits: HashMap<ContinuousQueryId, Vec<Observation>> = HashMap::new();
        for obs in batch {
            let cell = self.grid.cell_of_clamped(obs.position);
            let idx = self.cell_index(cell.col, cell.row);
            for key in [(idx, obs.class.as_u8()), (idx, ANY_CLASS)] {
                for &id in self.buckets.get(&key).into_iter().flatten() {
                    if self.entries[&id].matches(obs.position, obs.class) {
                        hits.entry(id).or_default().push(obs.clone());
                    }
                }
            }
        }
        let mut out: Vec<Notification> = hits
            .into_iter()
            .map(|(query, matches)| Notification { query, matches })
            .collect();
        out.sort_by_key(|n| n.query);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_codec::{decode_from_slice, encode_to_vec};
    use stcam_geo::{Point, Timestamp};
    use stcam_world::EntityId;

    fn obs(x: f64, y: f64, class: EntityClass) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), 0),
            camera: CameraId(0),
            time: Timestamp::ZERO,
            position: Point::new(x, y),
            class,
            signature: Signature::latent_for_entity(1),
            truth: Some(EntityId(1)),
        }
    }

    #[test]
    fn notification_round_trips() {
        let n = Notification {
            query: ContinuousQueryId(42),
            matches: vec![obs(1.5, 2.5, EntityClass::Bicycle)],
        };
        let bytes = encode_to_vec(&n);
        assert_eq!(decode_from_slice::<Notification>(&bytes).unwrap(), n);
    }

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
    }

    #[test]
    fn interest_index_matches_like_a_linear_scan() {
        let mut index = InterestIndex::new(extent());
        let regs = [
            (
                1,
                BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
                Some(EntityClass::Car),
            ),
            (
                2,
                BBox::new(Point::new(50.0, 50.0), Point::new(900.0, 900.0)),
                None,
            ),
            (
                3,
                BBox::new(Point::new(1500.0, 1500.0), Point::new(1600.0, 1600.0)),
                Some(EntityClass::Truck),
            ),
        ];
        for (id, region, class) in regs {
            index.insert(ContinuousQueryId(id), Predicate { region, class });
        }
        let batch = vec![
            obs(10.0, 10.0, EntityClass::Car),
            obs(10.0, 10.0, EntityClass::Truck),
            obs(600.0, 600.0, EntityClass::Bicycle),
            obs(1550.0, 1550.0, EntityClass::Truck),
            obs(1200.0, 200.0, EntityClass::Car),
        ];
        let got = index.matching(&batch);
        // Linear-scan reference over the same registrations.
        let mut want = Vec::new();
        for (id, region, class) in regs {
            let p = Predicate { region, class };
            let matches: Vec<_> = batch
                .iter()
                .filter(|o| p.matches(o.position, o.class))
                .cloned()
                .collect();
            if !matches.is_empty() {
                let query = ContinuousQueryId(id);
                want.push(Notification { query, matches });
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn interest_index_reinsert_replaces_and_remove_unregisters() {
        let mut index = InterestIndex::new(extent());
        let id = ContinuousQueryId(7);
        let near = Predicate::new(BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)));
        index.insert(id, near);
        assert_eq!(index.len(), 1);
        let buckets_near = index.bucket_count();
        assert!(buckets_near > 0);

        // Re-registration replaces: the old buckets are vacated.
        let far = Predicate::new(BBox::new(
            Point::new(1500.0, 1500.0),
            Point::new(1600.0, 1600.0),
        ));
        index.insert(id, far);
        assert_eq!(index.len(), 1);
        assert!(index
            .matching(&[obs(10.0, 10.0, EntityClass::Car)])
            .is_empty());
        let hits = index.matching(&[obs(1550.0, 1550.0, EntityClass::Car)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].matches.len(), 1);

        index.remove(id);
        assert!(index.is_empty());
        assert_eq!(index.bucket_count(), 0);
        assert!(index
            .matching(&[obs(1550.0, 1550.0, EntityClass::Car)])
            .is_empty());
    }

    #[test]
    fn interest_index_catches_out_of_extent_registrations() {
        // A predicate entirely outside the worker extent overlaps no grid
        // cell, but observations outside the extent clamp to border cells:
        // it is bucketed in the cells its region clamps to.
        let mut index = InterestIndex::new(extent());
        let outside = Predicate::new(BBox::new(
            Point::new(2000.0, 2000.0),
            Point::new(2100.0, 2100.0),
        ));
        index.insert(ContinuousQueryId(9), outside);
        assert_eq!(index.bucket_count(), 1);
        let hits = index.matching(&[obs(2050.0, 2050.0, EntityClass::Car)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].query, ContinuousQueryId(9));
    }
}
