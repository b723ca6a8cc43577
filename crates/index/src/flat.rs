//! The one unindexed row store: test oracle, naive baseline and replica
//! log. It shares no selection code with the index's scans.

use crate::Predicate;
use stcam_camnet::Observation;
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};

/// An index with the same query interface as
/// [`StIndex`](crate::StIndex), implemented by linear scan over an
/// unordered vector. Reads return references into it.
#[derive(Debug, Default)]
pub struct FlatIndex {
    observations: Vec<Observation>,
}

/// The rows of the `n` lowest keys of `keyed`, ascending: a selection,
/// then a sort of the kept keys only. Keys are distinct.
fn first_sorted<K: Ord>(mut keyed: Vec<(K, &Observation)>, n: usize) -> Vec<&Observation> {
    if n < keyed.len() {
        keyed.select_nth_unstable_by(n, |a, b| a.0.cmp(&b.0));
        keyed.truncate(n);
    }
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, o)| o).collect()
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
    /// `window.contains(time)`, sorted by id (ties in insertion order).
    pub fn range(&self, region: BBox, window: TimeInterval) -> Vec<&Observation> {
        self.range_where(&Predicate::new(region), window, None)
    }

    /// The observations inside `window` that pass `predicate`, sorted by
    /// (id, insertion order) — under a `limit`, only the first `limit`.
    pub fn range_where(
        &self,
        predicate: &Predicate,
        window: TimeInterval,
        limit: Option<usize>,
    ) -> Vec<&Observation> {
        let hits = self
            .observations
            .iter()
            .enumerate()
            .filter(|(_, o)| window.contains(o.time) && predicate.matches(o.position, o.class))
            .map(|(i, o)| ((o.id, i), o))
            .collect();
        first_sorted(hits, limit.unwrap_or(usize::MAX))
    }

    /// The `k` observations within `window` nearest to `at`, ordered by
    /// (distance, id).
    pub fn knn(&self, at: Point, window: TimeInterval, k: usize) -> Vec<&Observation> {
        self.knn_within(at, window, k, None)
    }

    /// [`knn`](Self::knn) keeping only rows with
    /// `at.distance(position) <= max_distance`. A row whose distance is
    /// NaN is never returned; ties in (distance, id) keep insertion order.
    pub fn knn_within(
        &self,
        at: Point,
        window: TimeInterval,
        k: usize,
        max_distance: Option<f64>,
    ) -> Vec<&Observation> {
        let candidates = self
            .observations
            .iter()
            .enumerate()
            .filter(|(_, o)| window.contains(o.time))
            .map(|(i, o)| (at.distance_sq(o.position), i, o))
            .filter(|&(d_sq, ..)| !d_sq.is_nan() && max_distance.is_none_or(|m| d_sq.sqrt() <= m))
            // Bits of a non-negative double order as its value does.
            .map(|(d_sq, i, o)| ((d_sq.to_bits(), o.id, i), o))
            .collect();
        first_sorted(candidates, k)
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

    /// Keeps the observations `keep` accepts, in their order.
    pub fn retain(&mut self, keep: impl FnMut(&Observation) -> bool) {
        self.observations.retain(keep);
    }

    /// Iterates over all stored observations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Observation> {
        self.observations.iter()
    }

    /// The stored observations, in insertion order.
    pub fn into_vec(self) -> Vec<Observation> {
        self.observations
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
    fn knn_within_breaks_distance_ties_by_id_and_never_returns_nan() {
        // Ids 3 and 1 tie at distance 5 (inserted in that order), id 2
        // lies at 8, id 4 has no distance and id 0 is beyond the limit.
        let idx: FlatIndex = [
            obs(4, 0, f64::NAN, 0.0),
            obs(3, 0, 3.0, 4.0),
            obs(0, 0, 9.0, 0.0),
            obs(1, 0, -5.0, 0.0),
            obs(2, 0, 0.0, -8.0),
        ]
        .into_iter()
        .collect();
        let seqs = |k, max| {
            let got = idx.knn_within(Point::new(0.0, 0.0), window(0, 10), k, max);
            got.iter().map(|o| o.id.seq()).collect::<Vec<u64>>()
        };
        assert_eq!(seqs(usize::MAX, None), vec![1, 3, 2, 0]);
        assert_eq!(seqs(usize::MAX, Some(8.5)), vec![1, 3, 2]);
        assert_eq!(seqs(1, Some(8.5)), vec![1]);
        assert_eq!(seqs(2, Some(5.0)), vec![1, 3]);
        assert_eq!(seqs(0, None), Vec::<u64>::new());
        assert_eq!(seqs(3, Some(f64::NAN)), Vec::<u64>::new());
        assert_eq!(seqs(3, Some(-1.0)), Vec::<u64>::new());
    }

    #[test]
    fn range_where_tests_the_class_and_keeps_the_first_limit_ids() {
        // Two rows under id 1: the one inserted first ranks first.
        let truck = |seq, x| Observation {
            class: EntityClass::Truck,
            ..obs(seq, 0, x, 0.0)
        };
        let idx: FlatIndex = [
            obs(2, 0, 1.0, 0.0),
            truck(1, 2.0),
            obs(1, 0, 3.0, 0.0),
            truck(0, 50.0),
            obs(0, 20_000, 4.0, 0.0),
        ]
        .into_iter()
        .collect();
        let region = BBox::new(Point::new(0.0, -1.0), Point::new(10.0, 1.0));
        let xs = |class, limit| {
            let predicate = Predicate { region, class };
            let got = idx.range_where(&predicate, window(0, 10), limit);
            got.iter().map(|o| o.position.x).collect::<Vec<f64>>()
        };
        assert_eq!(xs(None, None), vec![2.0, 3.0, 1.0]);
        assert_eq!(xs(None, Some(2)), vec![2.0, 3.0]);
        assert_eq!(xs(None, Some(0)), Vec::<f64>::new());
        assert_eq!(xs(Some(EntityClass::Car), Some(1)), vec![3.0]);
        assert_eq!(xs(Some(EntityClass::Truck), None), vec![2.0]);
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
