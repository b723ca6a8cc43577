//! Time slices: the unit of temporal organisation and eviction.

use stcam_camnet::Observation;
use stcam_geo::{BBox, CellId, Duration, GridSpec, Point, TimeInterval, Timestamp};

use crate::select::{Hits, Predicate};

/// The slice number containing `t` for slices of length `slice_len`.
///
/// # Panics
///
/// Panics in debug builds when `slice_len` is zero.
pub fn slice_number(t: Timestamp, slice_len: Duration) -> u64 {
    debug_assert!(slice_len > Duration::ZERO);
    t.as_millis() / slice_len.as_millis()
}

/// One time slice: observations bucketed by spatial grid cell.
///
/// `Clone` supports the copy-on-write head: read views share slices via
/// `Arc`, and a mutation clones the touched slice first.
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    window: TimeInterval,
    /// Dense cell buckets, indexed `row * cols + col`.
    buckets: Vec<Vec<Observation>>,
    /// Slots that have ever held a row, in first-touch order. A superset
    /// of the currently non-empty slots (extraction may empty a bucket
    /// without unlisting it), with no duplicates (`touched` gates every
    /// push) — so whole-slice walks visit `occupied` instead of all
    /// `cell_count` buckets.
    occupied: Vec<u32>,
    /// Dense first-touch bitmap guarding `occupied` against duplicates.
    touched: Vec<bool>,
    len: usize,
}

impl Slice {
    pub(crate) fn new(number: u64, slice_len: Duration, grid: &GridSpec) -> Self {
        let start = Timestamp::from_millis(number * slice_len.as_millis());
        Slice {
            window: TimeInterval::new(start, start + slice_len),
            buckets: vec![Vec::new(); grid.cell_count() as usize],
            occupied: Vec::new(),
            touched: vec![false; grid.cell_count() as usize],
            len: 0,
        }
    }

    pub(crate) fn window(&self) -> TimeInterval {
        self.window
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn slot(grid: &GridSpec, cell: CellId) -> usize {
        cell.row as usize * grid.cols() as usize + cell.col as usize
    }

    /// Appends an observation (position already clamped to the grid by the
    /// caller via `cell`).
    pub(crate) fn insert(&mut self, grid: &GridSpec, cell: CellId, obs: Observation) {
        debug_assert!(
            self.window.contains(obs.time),
            "observation outside slice window"
        );
        let slot = Self::slot(grid, cell);
        if !self.touched[slot] {
            self.touched[slot] = true;
            self.occupied.push(slot as u32);
        }
        self.buckets[slot].push(obs);
        self.len += 1;
    }

    /// Offers `hits` every observation of the given cells inside `window`
    /// that passes `predicate`; a row is cloned only if `hits` keeps it.
    /// The per-row time check is skipped when `window` covers the whole
    /// slice.
    pub(crate) fn scan_cells(
        &self,
        grid: &GridSpec,
        cells: impl Iterator<Item = CellId>,
        predicate: &Predicate,
        window: &TimeInterval,
        hits: &mut Hits,
    ) {
        let check_time = !self.covered_by(window);
        for cell in cells {
            for obs in &self.buckets[Self::slot(grid, cell)] {
                if (!check_time || window.contains(obs.time))
                    && predicate.matches(obs.position, obs.class)
                {
                    hits.offer(obs);
                }
            }
        }
    }

    /// Counts matches like [`scan_cells`](Self::scan_cells) without
    /// materialising anything.
    pub(crate) fn count_cells(
        &self,
        grid: &GridSpec,
        cells: impl Iterator<Item = CellId>,
        region: &BBox,
        window: &TimeInterval,
    ) -> usize {
        let check_time = !self.covered_by(window);
        let mut total = 0;
        for cell in cells {
            total += self.buckets[Self::slot(grid, cell)]
                .iter()
                .filter(|obs| {
                    (!check_time || window.contains(obs.time)) && region.contains(obs.position)
                })
                .count();
        }
        total
    }

    /// Accumulates per-bucket observation counts for `window` into
    /// `counts` (dense row-major over `buckets`).
    ///
    /// Visits only the occupied slots, never the full dense grid, and —
    /// mirroring the sealed-segment footer pass — when the window covers
    /// the whole slice and a cell's clamped scope nests inside a single
    /// bucket, the bucket's length is added without touching any row.
    /// Border cells (whose scope extends to ±∞ because out-of-extent
    /// positions clamp into them) always take the per-row path, where
    /// `cell_of` drops positions outside the bucket grid exactly as the
    /// row-at-a-time walk did.
    pub(crate) fn heatmap_into(
        &self,
        grid: &GridSpec,
        buckets: &GridSpec,
        window: &TimeInterval,
        counts: &mut [u64],
    ) {
        let check_time = !self.covered_by(window);
        let bucket_cols = buckets.cols() as usize;
        for &slot in &self.occupied {
            let rows = &self.buckets[slot as usize];
            if rows.is_empty() {
                continue;
            }
            if !check_time {
                let scope = crate::segment::cell_scope(grid, slot);
                let nested = buckets
                    .cell_of(Point::new(
                        (scope.min.x + scope.max.x) / 2.0,
                        (scope.min.y + scope.max.y) / 2.0,
                    ))
                    .filter(|&b| buckets.cell_bbox(b).contains_bbox(&scope));
                if let Some(b) = nested {
                    counts[b.row as usize * bucket_cols + b.col as usize] += rows.len() as u64;
                    continue;
                }
            }
            for obs in rows {
                if check_time && !window.contains(obs.time) {
                    continue;
                }
                if let Some(cell) = buckets.cell_of(obs.position) {
                    counts[cell.row as usize * bucket_cols + cell.col as usize] += 1;
                }
            }
        }
    }

    /// Whether `window` contains the entire slice window, making per-row
    /// time checks redundant.
    fn covered_by(&self, window: &TimeInterval) -> bool {
        window.contains(self.window.start()) && window.end() >= self.window.end()
    }

    /// Consumes the slice into its dense cell buckets (for sealing).
    pub(crate) fn into_buckets(self) -> Vec<Vec<Observation>> {
        self.buckets
    }

    /// The observations of a single cell (time-unfiltered).
    pub(crate) fn cell_contents(&self, grid: &GridSpec, cell: CellId) -> &[Observation] {
        &self.buckets[Self::slot(grid, cell)]
    }

    /// Removes and returns every observation in the given cells whose
    /// position lies inside `region` (any time).
    pub(crate) fn extract_cells(
        &mut self,
        grid: &GridSpec,
        cells: impl Iterator<Item = CellId>,
        region: &BBox,
        out: &mut Vec<Observation>,
    ) {
        for cell in cells {
            let bucket = &mut self.buckets[Self::slot(grid, cell)];
            let before = bucket.len();
            let mut kept = Vec::with_capacity(before);
            for obs in bucket.drain(..) {
                if region.contains(obs.position) {
                    out.push(obs);
                } else {
                    kept.push(obs);
                }
            }
            *bucket = kept;
            self.len -= before - bucket.len();
        }
    }

    /// Iterates over all observations in the slice.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Observation> {
        self.buckets.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_geo::Point;
    use stcam_world::{EntityClass, EntityId};

    fn obs(t_ms: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), t_ms),
            camera: CameraId(0),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(x, y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(1),
            truth: Some(EntityId(1)),
        }
    }

    fn grid() -> GridSpec {
        GridSpec::new(Point::new(0.0, 0.0), 10.0, 10, 10)
    }

    #[test]
    fn slice_number_boundaries() {
        let len = Duration::from_secs(10);
        assert_eq!(slice_number(Timestamp::ZERO, len), 0);
        assert_eq!(slice_number(Timestamp::from_millis(9_999), len), 0);
        assert_eq!(slice_number(Timestamp::from_secs(10), len), 1);
        assert_eq!(slice_number(Timestamp::from_secs(25), len), 2);
    }

    #[test]
    fn window_matches_number() {
        let g = grid();
        let s = Slice::new(3, Duration::from_secs(10), &g);
        assert_eq!(s.window().start(), Timestamp::from_secs(30));
        assert_eq!(s.window().end(), Timestamp::from_secs(40));
    }

    #[test]
    fn insert_and_scan() {
        let g = grid();
        let mut s = Slice::new(0, Duration::from_secs(10), &g);
        let o1 = obs(1_000, 15.0, 15.0);
        let o2 = obs(2_000, 85.0, 85.0);
        s.insert(&g, g.cell_of(o1.position).unwrap(), o1.clone());
        s.insert(&g, g.cell_of(o2.position).unwrap(), o2.clone());
        assert_eq!(s.len(), 2);

        let region = BBox::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0));
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10));
        let mut hits = Hits::new(None, 0);
        let cells = g.cells_overlapping(region);
        s.scan_cells(&g, cells, &Predicate::new(region), &window, &mut hits);
        let hits = hits.into_sorted();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, o1.id);
    }

    #[test]
    fn scan_filters_by_time_within_slice() {
        let g = grid();
        let mut s = Slice::new(0, Duration::from_secs(10), &g);
        let o = obs(8_000, 5.0, 5.0);
        s.insert(&g, g.cell_of(o.position).unwrap(), o);
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let early = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(5));
        let mut hits = Hits::new(None, 0);
        let cells = g.cells_overlapping(region);
        s.scan_cells(&g, cells, &Predicate::new(region), &early, &mut hits);
        assert!(hits.into_sorted().is_empty());
    }

    #[test]
    fn iter_visits_everything() {
        let g = grid();
        let mut s = Slice::new(0, Duration::from_secs(10), &g);
        for i in 0..20 {
            let o = obs(i * 100, (i % 10) as f64 * 9.0, (i / 10) as f64 * 9.0);
            s.insert(&g, g.cell_of(o.position).unwrap(), o);
        }
        assert_eq!(s.iter().count(), 20);
    }
}
