//! The flat-scan index: correctness oracle and naive baseline.

use stcam_camnet::Observation;
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};

/// An index with the same query interface as
/// [`StIndex`](crate::StIndex), implemented by linear scan over an
/// unordered vector.
///
/// Used (a) as the oracle that every `StIndex` query is tested against,
/// and (b) as the naive centralized baseline in the evaluation's latency
/// experiments.
#[derive(Debug, Default)]
pub struct FlatIndex {
    observations: Vec<Observation>,
}

impl FlatIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        FlatIndex::default()
    }

    /// Appends one observation.
    pub fn insert(&mut self, obs: Observation) {
        self.observations.push(obs);
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// All observations with `region.contains(position)` and
    /// `window.contains(time)`, sorted by id for determinism.
    pub fn range(&self, region: BBox, window: TimeInterval) -> Vec<&Observation> {
        let mut out: Vec<&Observation> = self
            .observations
            .iter()
            .filter(|o| window.contains(o.time) && region.contains(o.position))
            .collect();
        crate::sort_by_id(&mut out);
        out
    }

    /// The `k` observations within `window` nearest to `at`, ordered by
    /// (distance, id).
    pub fn knn(&self, at: Point, window: TimeInterval, k: usize) -> Vec<&Observation> {
        let mut candidates: Vec<&Observation> = self
            .observations
            .iter()
            .filter(|o| window.contains(o.time))
            .collect();
        candidates.sort_by(|a, b| {
            let da = at.distance_sq(a.position);
            let db = at.distance_sq(b.position);
            da.partial_cmp(&db)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        candidates.truncate(k);
        candidates
    }

    /// Observation counts per cell of `buckets` for matches in `window`,
    /// returned as a dense row-major vector.
    pub fn heatmap(&self, buckets: &GridSpec, window: TimeInterval) -> Vec<u64> {
        let mut counts = vec![0u64; buckets.cell_count() as usize];
        for o in &self.observations {
            if !window.contains(o.time) {
                continue;
            }
            if let Some(cell) = buckets.cell_of(o.position) {
                counts[cell.row as usize * buckets.cols() as usize + cell.col as usize] += 1;
            }
        }
        counts
    }

    /// Drops observations strictly older than `cutoff`.
    pub fn evict_before(&mut self, cutoff: Timestamp) {
        self.observations.retain(|o| o.time >= cutoff);
    }

    /// Iterates over all stored observations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Observation> {
        self.observations.iter()
    }
}

impl FromIterator<Observation> for FlatIndex {
    fn from_iter<I: IntoIterator<Item = Observation>>(iter: I) -> Self {
        FlatIndex {
            observations: iter.into_iter().collect(),
        }
    }
}

impl Extend<Observation> for FlatIndex {
    fn extend<I: IntoIterator<Item = Observation>>(&mut self, iter: I) {
        self.observations.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_world::{EntityClass, EntityId};

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

    fn window(a: u64, b: u64) -> TimeInterval {
        TimeInterval::new(Timestamp::from_secs(a), Timestamp::from_secs(b))
    }

    #[test]
    fn range_filters_space_and_time() {
        let idx: FlatIndex = [
            obs(0, 1_000, 10.0, 10.0),
            obs(1, 1_000, 90.0, 90.0),
            obs(2, 50_000, 10.0, 10.0),
        ]
        .into_iter()
        .collect();
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(20.0, 20.0));
        let hits = idx.range(region, window(0, 10));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id.seq(), 0);
    }

    #[test]
    fn knn_orders_by_distance_then_id() {
        let idx: FlatIndex = [
            obs(0, 0, 10.0, 0.0),
            obs(1, 0, 5.0, 0.0),
            obs(2, 0, 5.0, 0.0), // tie with 1
            obs(3, 0, 20.0, 0.0),
        ]
        .into_iter()
        .collect();
        let got = idx.knn(Point::new(0.0, 0.0), window(0, 10), 3);
        let seqs: Vec<u64> = got.iter().map(|o| o.id.seq()).collect();
        assert_eq!(seqs, vec![1, 2, 0]);
    }

    #[test]
    fn knn_with_k_larger_than_population() {
        let idx: FlatIndex = [obs(0, 0, 1.0, 1.0)].into_iter().collect();
        assert_eq!(idx.knn(Point::new(0.0, 0.0), window(0, 10), 5).len(), 1);
        assert_eq!(idx.knn(Point::new(0.0, 0.0), window(5, 10), 5).len(), 0);
    }

    #[test]
    fn heatmap_counts_cells() {
        let idx: FlatIndex = [
            obs(0, 0, 5.0, 5.0),
            obs(1, 0, 7.0, 7.0),
            obs(2, 0, 15.0, 5.0),
        ]
        .into_iter()
        .collect();
        let buckets = GridSpec::new(Point::new(0.0, 0.0), 10.0, 2, 1);
        let counts = idx.heatmap(&buckets, window(0, 10));
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn evict_before_drops_old() {
        let mut idx: FlatIndex = [obs(0, 1_000, 0.0, 0.0), obs(1, 5_000, 0.0, 0.0)]
            .into_iter()
            .collect();
        idx.evict_before(Timestamp::from_secs(2));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.iter().next().unwrap().id.seq(), 1);
    }
}
