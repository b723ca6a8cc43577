//! Shared read-path query bodies and the [`ReadView`] snapshot.
//!
//! The query algorithms (range scan, kNN ring expansion, heat-map
//! reduction) are free functions over borrowed tier contents so that
//! [`StIndex`](crate::StIndex) and [`ReadView`] answer from literally
//! the same code: a view is a frozen `Arc` snapshot of both tiers, so a
//! worker's read-executor pool can serve queries concurrently while the
//! control lane keeps mutating the live index (copy-on-write head —
//! mutation clones the touched slice, never the snapshot's).
//!
//! A kNN reads only the cells its k-th bound can reach: cells are read
//! nearest first, a cell farther from the query point than the current
//! k-th best distance is skipped, the bound tightens after every block,
//! and the ring expansion stops at the first ring with no cell inside it.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use stcam_camnet::{Observation, ObservationId};
use stcam_geo::{BBox, CellId, Duration, GridSpec, Point, TimeInterval, Timestamp};

use crate::segment::{cell_scope, group_start, ScanScratch, SealedSegment};
use crate::select::{Hits, Predicate};
use crate::slice::{slice_number, Slice};

/// The inclusive slice-number range `window` can touch, or `None` for an
/// empty window.
pub(crate) fn number_range(window: TimeInterval, slice_len: Duration) -> Option<(u64, u64)> {
    if window.is_empty() {
        return None;
    }
    let lo = slice_number(window.start(), slice_len);
    // End is exclusive; a window ending exactly on a slice boundary does
    // not touch that slice.
    let hi_ts = Timestamp::from_millis(window.end().as_millis().saturating_sub(1));
    Some((lo, slice_number(hi_ts, slice_len)))
}

/// Packed candidate cells for `region`, ascending (row-major): every
/// cell a row inside `region` can be stored in, clamped ones included.
pub(crate) fn packed_cells(grid: &GridSpec, region: &BBox) -> Vec<u32> {
    grid.cells_clamped(*region)
        .map(|c| c.row * grid.cols() + c.col)
        .collect()
}

/// Sorts rows by id, keeping the input order of equal ids — the result
/// of a stable `sort_by_key(|o| o.id)`, reached by moving each row once.
///
/// Returns at once when the rows are already sorted. Otherwise it sorts
/// `(id, slot)` keys, where `slot` is the row's input position, and moves
/// every row straight to its place along the cycles of that permutation:
/// an `Observation` is 120 bytes, and a stable sort moves each of them
/// many times. The rows are permuted in place because gathering them into
/// a second buffer of the same size costs more than the sort (a fresh
/// allocation of megabytes faults in every page).
pub fn sort_by_id<T: Borrow<Observation> + Clone>(rows: &mut [T]) {
    if rows.is_sorted_by_key(|o| o.borrow().id) {
        return;
    }
    let mut keys: Vec<(ObservationId, u32)> = (0u32..)
        .zip(rows.iter())
        .map(|(slot, o)| (o.borrow().id, slot))
        .collect();
    keys.sort_unstable();
    // `keys[at].1` is the slot of the row that belongs at `at`; a visited
    // place is marked by pointing at itself.
    for start in 0..rows.len() {
        if keys[start].1 as usize == start {
            continue;
        }
        let parked = rows[start].clone();
        let mut at = start;
        loop {
            let from = std::mem::replace(&mut keys[at].1, at as u32) as usize;
            if from == start {
                rows[at] = parked;
                break;
            }
            rows[at] = rows[from].clone();
            at = from;
        }
    }
}

/// Sealed candidate rows (footer counts of the blocks a range selects)
/// from which `range_over` scans the second half of them on a second
/// thread. On a two-core x86-64 host a scoped thread's spawn and join
/// cost 20–40 µs when a core is free, and the sealed scan 130–250 ns per
/// candidate row, so from here (≥ 1 ms of scan) the spawn is under 5 % of
/// the scan. A point read selects a few hundred rows and stays far below.
pub const SPLIT_SCAN_ROWS: usize = 8_192;

/// The blocks one segment selects: a span of [`Selection::blocks`].
type Run<'a> = (&'a SealedSegment, std::ops::Range<usize>);

/// The sealed blocks a range selects, in scan order: segment by segment,
/// payload order within each (see [`SealedSegment::select_blocks`]).
struct Selection<'a> {
    /// Directory indices, segment by segment.
    blocks: Vec<u32>,
    runs: Vec<Run<'a>>,
    /// Rows the selected blocks hold, from the footers: the upper bound
    /// on what the sealed scan decodes.
    rows: usize,
}

/// The blocks of `cells` (ascending packed cells) in `segments`, in list
/// order, whose slice `window` meets.
fn sealed_runs<'a>(
    segments: &[&'a SealedSegment],
    cells: &[u32],
    window: &TimeInterval,
) -> Selection<'a> {
    let mut selection = Selection {
        blocks: Vec::new(),
        runs: Vec::new(),
        rows: 0,
    };
    for &segment in segments {
        let start = selection.blocks.len();
        selection.rows += segment.select_blocks(cells, window, &mut selection.blocks);
        if selection.blocks.len() > start {
            selection
                .runs
                .push((segment, start..selection.blocks.len()));
        }
    }
    selection
}

/// Scans `runs` (spans of `blocks`) in order into `hits`.
fn scan_runs(
    grid: &GridSpec,
    blocks: &[u32],
    runs: &[Run<'_>],
    predicate: &Predicate,
    window: &TimeInterval,
    hits: &mut Hits,
) {
    let mut scratch = ScanScratch::default();
    for (segment, span) in runs {
        segment.scan_blocks(
            grid,
            &blocks[span.clone()],
            predicate,
            window,
            hits,
            &mut scratch,
        );
    }
}

/// `runs` cut in two where the first part's blocks first hold half of
/// `rows`, and the rows of the first part.
fn split_runs<'a>(
    blocks: &[u32],
    runs: &[Run<'a>],
    rows: usize,
) -> (Vec<Run<'a>>, Vec<Run<'a>>, usize) {
    let mut first_half = 0;
    for (r, (segment, span)) in runs.iter().enumerate() {
        for at in span.clone() {
            first_half += segment.rows_of(blocks[at]);
            if 2 * first_half >= rows {
                let mut first = runs[..r].to_vec();
                first.push((*segment, span.start..at + 1));
                let mut second = vec![(*segment, at + 1..span.end)];
                second.extend_from_slice(&runs[r + 1..]);
                return (first, second, first_half);
            }
        }
    }
    (runs.to_vec(), Vec::new(), first_half)
}

/// The observations across both tiers inside `window` that pass
/// `predicate`, sorted by id, ties in scan order — or, under a `limit`,
/// the first `limit` of them.
///
/// The footers are read first: every block the candidate cells of the
/// predicate's region select whose slice the window meets, segment by
/// segment, and the rows those blocks hold. At [`SPLIT_SCAN_ROWS`] or
/// more, the blocks holding the second half of the rows are scanned on a
/// scoped thread while this one scans the head and the first half.
/// Either way the rows arrive in serial scan order (head slices, then
/// segments in list order, slice by slice within each), so the key sort
/// returns exactly the serial answer.
///
/// The predicate's class and the limit are tested inside the scan (see
/// [`Hits`]): a row that fails the class is never cloned or decoded
/// whole, and a limited scan holds at most `2 × limit` rows per thread,
/// each thread keeping its own `limit` lowest ids until the second's are
/// offered to the first's.
pub(crate) fn range_over(
    grid: &GridSpec,
    slices: &[&Slice],
    segments: &[&SealedSegment],
    predicate: &Predicate,
    window: TimeInterval,
    limit: Option<usize>,
) -> Vec<Observation> {
    let region = predicate.region;
    let Selection { blocks, runs, rows } =
        sealed_runs(segments, &packed_cells(grid, &region), &window);
    let mut hits = Hits::new(limit, rows);
    for slice in slices {
        slice.scan_cells(
            grid,
            grid.cells_clamped(region),
            predicate,
            &window,
            &mut hits,
        );
    }
    if rows < SPLIT_SCAN_ROWS {
        scan_runs(grid, &blocks, &runs, predicate, &window, &mut hits);
    } else {
        let (first, second, first_half) = split_runs(&blocks, &runs, rows);
        let second_hits = std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                let mut hits = Hits::new(limit, rows - first_half);
                scan_runs(grid, &blocks, &second, predicate, &window, &mut hits);
                hits
            });
            scan_runs(grid, &blocks, &first, predicate, &window, &mut hits);
            helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        hits.absorb(second_hits);
    }
    hits.into_sorted()
}

/// The best `k` rows offered so far, ranked by squared distance to `at`
/// and then by id under `total_cmp` (the order of a kNN answer), with an
/// optional `max_distance` no answer may exceed.
///
/// A bounded max-heap whose top is the k-th best, so a row is cloned only
/// once it is known to enter the answer, and whose bound a scan may prune
/// against. A row whose distance is NaN never enters.
#[derive(Debug)]
pub(crate) struct Nearest {
    at: Point,
    k: usize,
    /// `max_distance`, or ∞ without one.
    limit: f64,
    /// `limit` squared and rounded up (−∞ for a negative or NaN limit):
    /// a row passes `at.distance(p) <= limit` only if its exact distance
    /// is below `limit.next_up()`, so its squared distance, a double below
    /// that square, is at most the square rounded to nearest.
    limit_sq: f64,
    heap: BinaryHeap<Ranked>,
}

/// One held row and its squared distance, ordered by `(distance², id)`.
#[derive(Debug)]
struct Ranked {
    distance_sq: f64,
    row: Observation,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance_sq
            .total_cmp(&other.distance_sq)
            .then(self.row.id.cmp(&other.row.id))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

impl Nearest {
    /// An empty selection of the `k` rows nearest to `at`, none of them
    /// farther than `max_distance` when one is given.
    pub fn new(at: Point, k: usize, max_distance: Option<f64>) -> Nearest {
        let limit = max_distance.unwrap_or(f64::INFINITY);
        let up = limit.next_up();
        Nearest {
            at,
            k,
            limit,
            limit_sq: if limit >= 0.0 {
                up * up
            } else {
                f64::NEG_INFINITY
            },
            heap: BinaryHeap::with_capacity(k),
        }
    }

    /// The squared distance beyond which no row can still enter: the
    /// k-th best's once `k` rows are held, the squared limit before.
    pub(crate) fn bound(&self) -> f64 {
        if self.heap.len() < self.k {
            self.limit_sq
        } else {
            self.heap
                .peek()
                .map_or(f64::NEG_INFINITY, |top| top.distance_sq)
        }
    }

    /// Whether a row at `distance_sq` with `id` enters the selection.
    fn admits(&self, distance_sq: f64, id: ObservationId) -> bool {
        if self.heap.len() < self.k {
            // NaN compares false, so a row without a distance stays out.
            distance_sq.sqrt() <= self.limit
        } else {
            // Ahead of the k-th best; NaN compares false here too.
            let ahead = |top: &Ranked| (distance_sq, id) < (top.distance_sq, top.row.id);
            self.heap.peek().is_some_and(ahead)
        }
    }

    fn insert(&mut self, distance_sq: f64, row: Observation) {
        let ranked = Ranked { distance_sq, row };
        if self.heap.len() < self.k {
            self.heap.push(ranked);
        } else if let Some(mut top) = self.heap.peek_mut() {
            *top = ranked;
        }
    }

    /// Offers a borrowed row; it is cloned only if it enters.
    pub fn offer(&mut self, row: &Observation) {
        let distance_sq = self.at.distance_sq(row.position);
        if self.admits(distance_sq, row.id) {
            self.insert(distance_sq, row.clone());
        }
    }

    /// Offers an owned row.
    pub(crate) fn offer_owned(&mut self, row: Observation) {
        let distance_sq = self.at.distance_sq(row.position);
        if self.admits(distance_sq, row.id) {
            self.insert(distance_sq, row);
        }
    }

    /// The rows held, ordered by (distance, id).
    pub fn into_sorted(self) -> Vec<Observation> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|ranked| ranked.row)
            .collect()
    }
}

/// Squared distance from `at` to the nearest point of packed cell
/// `cell`'s clamped scope, [`cell_scope`]: the same subtract-and-square as
/// [`Point::distance_sq`] on a point no farther from `at` on either axis
/// than any position the cell stores, so it never exceeds the squared
/// distance of a row in the cell.
fn scope_distance_sq(grid: &GridSpec, cell: u32, at: Point) -> f64 {
    let scope = cell_scope(grid, cell);
    at.distance_sq(Point::new(
        at.x.clamp(scope.min.x, scope.max.x),
        at.y.clamp(scope.min.y, scope.max.y),
    ))
}

/// The `k` observations within `window` nearest to `at`, none farther
/// than `max_distance`, ordered by (distance, id).
///
/// Expands square cell rings outward from the query point's clamped cell
/// and reads each ring's cells nearest first, pruning with the squared
/// distance to each cell's clamped scope against the [`Nearest`] bound,
/// which tightens after every head slice and sealed block:
///
/// * a cell strictly farther than the bound is skipped in every tier;
/// * inside a cell, one directory search per segment finds the cell's
///   blocks of the slices the window meets, and the walk over them stops
///   as soon as the bound drops below the cell's distance;
/// * each block is decoded with the bound as it stands then, so rows
///   that cannot enter are never fully decoded;
/// * the ring loop ends at the first ring with no cell inside the bound
///   (or no cell at all). Any position in a farther ring is reached from
///   `at` only through that ring, so none can be nearer.
pub(crate) fn knn_over(
    grid: &GridSpec,
    slices: &[&Slice],
    segments: &[&SealedSegment],
    at: Point,
    window: TimeInterval,
    k: usize,
    max_distance: Option<f64>,
) -> Vec<Observation> {
    if k == 0 || (slices.is_empty() && segments.is_empty()) {
        return Vec::new();
    }
    let mut nearest = Nearest::new(at, k, max_distance);
    let center = grid.cell_of_clamped(at);
    let mut scratch = ScanScratch::default();
    let mut cell_rows: Vec<Observation> = Vec::new();
    let mut ring: Vec<(f64, CellId)> = Vec::with_capacity(8);
    for radius in 0..=grid.cols().max(grid.rows()) {
        ring.clear();
        ring.extend(grid.ring(center, radius).into_iter().map(|cell| {
            let packed = cell.row * grid.cols() + cell.col;
            (scope_distance_sq(grid, packed, at), cell)
        }));
        ring.sort_by(|a, b| a.0.total_cmp(&b.0));
        if ring
            .first()
            .is_none_or(|&(cell_sq, _)| cell_sq > nearest.bound())
        {
            break;
        }
        for &(cell_sq, cell) in &ring {
            // Nearest first, and the bound only tightens: once a cell is
            // out of reach, so is the rest of the ring.
            if cell_sq > nearest.bound() {
                break;
            }
            for slice in slices {
                for obs in slice.cell_contents(grid, cell) {
                    if window.contains(obs.time) {
                        nearest.offer(obs);
                    }
                }
            }
            let packed = cell.row * grid.cols() + cell.col;
            'segments: for segment in segments {
                if cell_sq > nearest.bound() {
                    break;
                }
                for block in segment.cell_blocks(packed, &window) {
                    let bound = nearest.bound();
                    if cell_sq > bound {
                        break 'segments;
                    }
                    segment.block_filtered(
                        block,
                        |_, t, p, _| window.contains(t) && at.distance_sq(p) <= bound,
                        &mut cell_rows,
                        &mut scratch,
                    );
                    for obs in cell_rows.drain(..) {
                        nearest.offer_owned(obs);
                    }
                }
            }
        }
    }
    nearest.into_sorted()
}

/// Observation counts per cell of `buckets` for matches in `window`, as
/// a dense row-major vector, across both tiers.
pub(crate) fn heatmap_over(
    grid: &GridSpec,
    slices: &[&Slice],
    segments: &[&SealedSegment],
    buckets: &GridSpec,
    window: TimeInterval,
) -> Vec<u64> {
    let mut counts = vec![0u64; buckets.cell_count() as usize];
    for slice in slices {
        slice.heatmap_into(grid, buckets, &window, &mut counts);
    }
    let mut scratch = ScanScratch::default();
    for segment in segments {
        segment.heatmap_into(grid, buckets, &window, &mut counts, &mut scratch);
    }
    counts
}

/// A frozen point-in-time snapshot of one index's two tiers.
///
/// Cheap to build (`O(slices + segments)` `Arc` clones, no row copies)
/// and entirely immutable: head slices are shared copy-on-write with the
/// live index (a later insert clones the touched slice before mutating
/// it), and sealed segments are immutable by construction. Queries
/// answer exactly as [`StIndex`](crate::StIndex) would have at snapshot
/// time — the same code runs over both.
#[derive(Debug, Clone)]
pub struct ReadView {
    pub(crate) grid: GridSpec,
    pub(crate) slice_len: Duration,
    /// Head slices ascending by slice number.
    pub(crate) head: Vec<(u64, Arc<Slice>)>,
    /// Sealed segments ascending by first slice (install order within).
    pub(crate) sealed: Vec<(u64, Arc<SealedSegment>)>,
    pub(crate) len: usize,
}

impl ReadView {
    /// Number of observations visible to this snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the snapshot holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The spatial grid of the snapshotted index.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The head slices in `[lo, hi]`, and the segments holding a slice
    /// there: those starting there, and a group starting before `lo`
    /// that reaches into it.
    fn tiers(&self, lo: u64, hi: u64) -> (Vec<&Slice>, Vec<&SealedSegment>) {
        let slices = self
            .head
            .iter()
            .skip_while(|(n, _)| *n < lo)
            .take_while(|(n, _)| *n <= hi)
            .map(|(_, s)| &**s)
            .collect();
        let from = self.sealed.partition_point(|(n, _)| *n < group_start(lo));
        let segments = self.sealed[from..]
            .iter()
            .take_while(|(n, _)| *n <= hi)
            .map(|(_, s)| &**s)
            .filter(|s| s.last_number() >= lo)
            .collect();
        (slices, segments)
    }

    /// Range query over the snapshot; see [`StIndex::range`](crate::StIndex::range).
    pub fn range(&self, region: BBox, window: TimeInterval) -> Vec<Observation> {
        self.range_where(&Predicate::new(region), window, None)
    }

    /// The observations inside `window` that pass `predicate`, sorted by
    /// id (ties in storage order) — under a `limit`, only the first
    /// `limit` of them. The class and the limit are tested as the tiers
    /// are scanned, before a row is cloned or decoded whole.
    pub fn range_where(
        &self,
        predicate: &Predicate,
        window: TimeInterval,
        limit: Option<usize>,
    ) -> Vec<Observation> {
        let Some((lo, hi)) = number_range(window, self.slice_len) else {
            return Vec::new();
        };
        let (slices, segments) = self.tiers(lo, hi);
        range_over(&self.grid, &slices, &segments, predicate, window, limit)
    }

    /// kNN query over the snapshot; see [`StIndex::knn`](crate::StIndex::knn).
    pub fn knn(&self, at: Point, window: TimeInterval, k: usize) -> Vec<Observation> {
        self.knn_within(at, window, k, None)
    }

    /// [`knn`](Self::knn) keeping only rows with
    /// `at.distance(position) <= max_distance`. The limit also seeds the
    /// search's bound, so cells beyond it are never read.
    pub fn knn_within(
        &self,
        at: Point,
        window: TimeInterval,
        k: usize,
        max_distance: Option<f64>,
    ) -> Vec<Observation> {
        let Some((lo, hi)) = number_range(window, self.slice_len) else {
            return Vec::new();
        };
        let (slices, segments) = self.tiers(lo, hi);
        knn_over(&self.grid, &slices, &segments, at, window, k, max_distance)
    }

    /// Heat-map query over the snapshot; see
    /// [`StIndex::heatmap`](crate::StIndex::heatmap).
    pub fn heatmap(&self, buckets: &GridSpec, window: TimeInterval) -> Vec<u64> {
        let Some((lo, hi)) = number_range(window, self.slice_len) else {
            return vec![0u64; buckets.cell_count() as usize];
        };
        let (slices, segments) = self.tiers(lo, hi);
        heatmap_over(&self.grid, &slices, &segments, buckets, window)
    }
}

#[cfg(test)]
mod tests {
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_geo::{BBox, Duration, Point, TimeInterval, Timestamp};
    use stcam_world::{EntityClass, EntityId};

    use crate::segment::CELL_READS;
    use crate::{IndexConfig, StIndex};

    fn obs(seq: u64, t_ms: u64, x: f64, y: f64) -> stcam_camnet::Observation {
        stcam_camnet::Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(x, y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: Some(EntityId(seq)),
        }
    }

    fn config() -> IndexConfig {
        IndexConfig::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
            50.0,
            Duration::from_secs(10),
        )
    }

    fn window(a_ms: u64, b_ms: u64) -> TimeInterval {
        TimeInterval::new(Timestamp::from_millis(a_ms), Timestamp::from_millis(b_ms))
    }

    /// The sealed rows a 200 m point read over the 60 s from `t0_ms`
    /// selects in `view`, from the footers, and how many rows the cells
    /// it selects hold in the slices its window meets.
    fn point_read_rows(
        index: &StIndex,
        view: &super::ReadView,
        (x, y): (f64, f64),
        t0_ms: u64,
    ) -> (usize, usize) {
        let region = BBox::new(Point::new(x, y), Point::new(x + 200.0, y + 200.0));
        let w = window(t0_ms, t0_ms + 60_000);
        let (lo, hi) = super::number_range(w, view.slice_len).unwrap();
        let (_, segments) = view.tiers(lo, hi);
        let rows =
            super::sealed_runs(&segments, &super::packed_cells(&view.grid, &region), &w).rows;
        // The selected cells, snapped out to the grid, over the whole of
        // every slice the window meets, counted in the sealed slices only.
        let cell = view.grid.cell_size();
        let snapped = BBox::new(
            Point::new((x / cell).floor() * cell, (y / cell).floor() * cell),
            Point::new(
                ((x + 200.0) / cell).floor() * cell + cell - 1e-9,
                ((y + 200.0) / cell).floor() * cell + cell - 1e-9,
            ),
        );
        let slice_ms = view.slice_len.as_millis();
        let head_from = view.head.first().map_or(u64::MAX, |(n, _)| *n);
        let sealed_hi = hi.min(head_from.saturating_sub(1));
        let held = if lo > sealed_hi {
            0
        } else {
            index.range_count(snapped, window(lo * slice_ms, (sealed_hi + 1) * slice_ms))
        };
        (rows, held)
    }

    #[test]
    fn a_stream_clean_point_read_never_splits() {
        // One worker of four under the stbench stream: 100 m cells over an
        // 8 km extent, 10 s slices, 250 rows/s uniform over its 4 km
        // quadrant; a point read is a 200 m box over 60 s of the newest
        // 120 s.
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(8000.0, 8000.0));
        let config = IndexConfig::new(extent, 100.0, Duration::from_secs(10));
        let mut index = StIndex::new(config.clone());
        let mut state = 7u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let seconds = 240;
        for i in 0..seconds * 250 {
            index.insert(obs(i, i * 4, unit() * 4000.0, unit() * 4000.0));
        }
        let view = index.read_view();
        let mut worst = 0;
        for _ in 0..100 {
            let at = (unit() * 3800.0, unit() * 3800.0);
            let t0 = (seconds - 120) * 1000 + (unit() * 60_000.0) as u64;
            let (rows, held) = point_read_rows(&index, &view, at, t0);
            assert_eq!(rows, held, "a read at {at:?} from {t0} ms");
            worst = worst.max(rows);
        }
        assert!(worst > 0, "the reads reach sealed segments");
        assert!(
            worst < super::SPLIT_SCAN_ROWS,
            "a point read selects {worst} sealed rows"
        );

        // `live_mixed`'s hot worker: 500 rows/s Gaussian (σ 600 m) around
        // its hotspot beside 125 rows/s uniform over the quadrant, for
        // 200 s, so that groups of slices are compacted; point reads at
        // the hotspot over 60 s anywhere in the archive. The footer counts
        // only blocks of slices the window meets, not the whole group.
        let mut index = StIndex::new(config);
        let (hx, hy) = (3000.0, 5000.0);
        let seconds = 200;
        for i in 0..seconds * 625 {
            let (x, y) = if i % 5 == 0 {
                (unit() * 4000.0, 4000.0 + unit() * 4000.0)
            } else {
                let r = (-2.0 * (1.0 - unit()).ln()).sqrt() * 600.0;
                let a = std::f64::consts::TAU * unit();
                (hx + r * a.cos(), hy + r * a.sin())
            };
            index.insert(obs(i, i * 1000 / 625, x, y));
        }
        let sealed = index.stats().sealed_segments;
        assert!(sealed < 10, "{sealed} segments: the archive is compacted");
        let view = index.read_view();
        let mut worst = 0;
        for _ in 0..100 {
            let at = (hx - 200.0 + unit() * 200.0, hy - 200.0 + unit() * 200.0);
            let t0 = (unit() * ((seconds - 60) * 1000) as f64) as u64;
            let (rows, held) = point_read_rows(&index, &view, at, t0);
            assert_eq!(rows, held, "a read at {at:?} from {t0} ms");
            worst = worst.max(rows);
        }
        assert!(worst > 0, "the reads reach sealed segments");
        assert!(
            worst < super::SPLIT_SCAN_ROWS,
            "a point read selects {worst} sealed rows"
        );
    }

    #[test]
    fn a_knn_at_a_cell_centre_reads_at_most_two_cells_per_segment() {
        // 20 × 20 cells of 50 m, 30 sealed 10 s slices, 4 uniform rows per
        // cell and slice: the 16th-nearest row to a cell's centre is
        // ≈ 10 m away, and every other cell's scope is 25 m or more.
        let mut index = StIndex::new(config().with_head_slices(1));
        let mut state = 11u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (segments, per_slice) = (30u64, 4 * 400);
        for i in 0..segments * per_slice {
            index.insert(obs(
                i,
                i * 10_000 / per_slice,
                unit() * 1000.0,
                unit() * 1000.0,
            ));
        }
        index.seal_all();
        // Slices 0–23 compact into three groups; 24–29 stay single.
        assert_eq!(index.stats().sealed_segments, 3 + 6);
        let at = Point::new(525.0, 525.0);
        let everything = window(0, segments * 10_000);
        let (lookups_before, rows_before) = CELL_READS.get();
        let got = index.read_view().knn(at, everything, 16);
        let (lookups, rows) = CELL_READS.get();
        let (lookups, rows) = (lookups - lookups_before, rows - rows_before);
        let mut want = index.range(
            BBox::new(Point::new(-10.0, -10.0), Point::new(1010.0, 1010.0)),
            everything,
        );
        want.sort_by(|a, b| {
            let d = |o: &stcam_camnet::Observation| at.distance_sq(o.position);
            d(a).total_cmp(&d(b)).then(a.id.cmp(&b.id))
        });
        want.truncate(16);
        assert_eq!(got, want);
        assert!(
            lookups <= 2 * segments as usize,
            "{lookups} block lookups over {segments} segments"
        );
        // The bound tightens block by block, so once 16 rows are held the
        // centre cell's farther rows are no longer decoded.
        let centre = index.range_count(
            BBox::new(Point::new(500.0, 500.0), Point::new(550.0, 550.0)),
            everything,
        );
        assert!(
            3 * rows <= 2 * centre,
            "{rows} rows decoded of the centre cell's {centre}"
        );
    }

    #[test]
    fn nearest_keeps_what_a_full_sort_and_truncate_keep() {
        // 120 rows on 12 positions, ids a permutation of the offer order:
        // most distances tie and the id decides.
        let rows: Vec<_> = (0..120u64)
            .map(|i| {
                obs(
                    i * 47 % 120,
                    0,
                    (i % 4) as f64 * 10.0,
                    (i % 3) as f64 * 10.0,
                )
            })
            .collect();
        let d = |at: Point, o: &stcam_camnet::Observation| at.distance_sq(o.position);
        for at in [
            Point::new(10.0, 10.0),
            Point::new(15.0, 5.0),
            Point::new(-40.0, 70.0),
        ] {
            for k in [0, 1, 5, 16, 119, 200] {
                for limit in [None, Some(10.0), Some(0.0), Some(-1.0)] {
                    let mut want: Vec<_> = rows
                        .iter()
                        .filter(|o| limit.is_none_or(|l| at.distance(o.position) <= l))
                        .cloned()
                        .collect();
                    want.sort_by(|a, b| d(at, a).total_cmp(&d(at, b)).then(a.id.cmp(&b.id)));
                    want.truncate(k);
                    let mut nearest = super::Nearest::new(at, k, limit);
                    rows.iter().for_each(|o| nearest.offer(o));
                    assert_eq!(nearest.into_sorted(), want, "{at} k {k} within {limit:?}");
                }
            }
        }
    }

    #[test]
    fn view_matches_index_at_snapshot_time() {
        let mut index = StIndex::new(config().with_head_slices(1));
        for i in 0..600u64 {
            index.insert(obs(
                i,
                (i * 137) % 90_000,
                (i as f64 * 7.3) % 1000.0,
                (i as f64 * 13.7) % 1000.0,
            ));
        }
        let view = index.read_view();
        let region = BBox::new(Point::new(100.0, 100.0), Point::new(800.0, 700.0));
        let tw = window(3_000, 80_000);
        assert_eq!(view.len(), index.len());
        assert_eq!(view.range(region, tw), index.range(region, tw));
        let at = Point::new(432.0, 567.0);
        assert_eq!(view.knn(at, tw, 9), index.knn(at, tw, 9));
        let buckets = stcam_geo::GridSpec::new(Point::new(0.0, 0.0), 125.0, 8, 8);
        assert_eq!(view.heatmap(&buckets, tw), index.heatmap(&buckets, tw));
    }

    #[test]
    fn view_is_isolated_from_later_mutation() {
        let mut index = StIndex::new(config().with_head_slices(1));
        for i in 0..300u64 {
            index.insert(obs(
                i,
                (i * 311) % 60_000,
                (i as f64 * 31.7) % 1000.0,
                (i as f64 * 11.3) % 1000.0,
            ));
        }
        let view = index.read_view();
        let everything = BBox::new(Point::new(-10.0, -10.0), Point::new(1010.0, 1010.0));
        let tw = window(0, 120_000);
        let before = view.range(everything, tw);
        assert_eq!(before.len(), 300);
        // Mutate the live index every way a worker can: insert (hits the
        // shared CoW head), seal (retires head slices into the archive),
        // extract (rewrites sealed segments), evict (drops whole slices).
        for i in 300..400u64 {
            index.insert(obs(i, 100_000 + i, 500.0, 500.0));
        }
        index.seal_all();
        index.extract_range(BBox::new(Point::new(0.0, 0.0), Point::new(500.0, 1000.0)));
        index.evict_before(Timestamp::from_secs(40));
        // The snapshot still answers exactly as before.
        assert_eq!(view.range(everything, tw), before);
        assert_eq!(view.len(), 300);
    }

    #[test]
    fn view_snapshot_survives_spilled_segment_rewrites() {
        let dir = std::env::temp_dir().join(format!("stview-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut index = StIndex::new(config().with_head_slices(1).with_spill_dir(&dir));
            for i in 0..400u64 {
                index.insert(obs(
                    i,
                    (i * 211) % 60_000,
                    (i as f64 * 17.3) % 1000.0,
                    500.0,
                ));
            }
            index.seal_all();
            assert!(index.stats().spilled_bytes > 0);
            let view = index.read_view();
            let everything = BBox::new(Point::new(-10.0, -10.0), Point::new(1010.0, 1010.0));
            let tw = window(0, 120_000);
            let before = view.range(everything, tw);
            // Extraction rewrites spilled segments; the view's Arcs must
            // keep the replaced spill files alive until the view drops.
            index.extract_range(BBox::new(Point::new(0.0, 0.0), Point::new(600.0, 1000.0)));
            assert_eq!(view.range(everything, tw), before);
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir(&dir);
    }
}
