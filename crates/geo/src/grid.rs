//! Uniform grids: the unit of space partitioning.

use std::fmt;

use crate::{BBox, Point};

/// Identifier of one cell of a [`GridSpec`]: `(col, row)` indices.
///
/// Cell ids are only meaningful relative to the grid that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Column index (west → east).
    pub col: u32,
    /// Row index (south → north).
    pub row: u32,
}

impl CellId {
    /// Creates a cell id.
    #[inline]
    pub const fn new(col: u32, row: u32) -> Self {
        CellId { col, row }
    }

    /// The Morton (Z-order) code of this cell, interleaving column and row
    /// bits. Cells close on the curve tend to be close in space, which the
    /// partitioner exploits for locality-preserving assignment.
    #[inline]
    pub fn zorder(self) -> u64 {
        crate::zorder::encode(self.col, self.row)
    }

    /// Inverse of [`zorder`](Self::zorder).
    #[inline]
    pub fn from_zorder(code: u64) -> Self {
        let (col, row) = crate::zorder::decode(code);
        CellId { col, row }
    }

    /// Chebyshev (ring) distance between two cells.
    pub fn ring_distance(self, other: CellId) -> u32 {
        let dc = self.col.abs_diff(other.col);
        let dr = self.row.abs_diff(other.row);
        dc.max(dr)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}r{}", self.col, self.row)
    }
}

/// A uniform grid covering a rectangular region of the local planar frame.
///
/// The grid has `cols × rows` square cells of side `cell_size` metres, with
/// the south-west corner of cell `(0, 0)` at `origin`. Points on a shared
/// cell edge belong to the cell with the larger index (i.e. cells are
/// half-open `[min, min + size)`), except along the grid's outermost north
/// and east edges which are inclusive, so that every point of the covered
/// region maps to exactly one cell.
///
/// # Example
///
/// ```
/// use stcam_geo::{GridSpec, Point};
/// let g = GridSpec::new(Point::new(0.0, 0.0), 10.0, 4, 4);
/// assert_eq!(g.cell_of(Point::new(39.9, 0.0)).unwrap().col, 3);
/// assert_eq!(g.cell_of(Point::new(40.0, 40.0)).unwrap().col, 3); // outer edge
/// assert!(g.cell_of(Point::new(41.0, 0.0)).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    origin: Point,
    cell_size: f64,
    cols: u32,
    rows: u32,
}

impl GridSpec {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size <= 0` or either dimension is zero.
    pub fn new(origin: Point, cell_size: f64, cols: u32, rows: u32) -> Self {
        assert!(cell_size > 0.0, "cell_size must be positive");
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        GridSpec {
            origin,
            cell_size,
            cols,
            rows,
        }
    }

    /// The smallest grid of `cell_size` cells anchored at `region.min` that
    /// covers `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty or `cell_size <= 0`.
    pub fn covering(region: BBox, cell_size: f64) -> Self {
        assert!(!region.is_empty(), "cannot grid an empty region");
        assert!(cell_size > 0.0, "cell_size must be positive");
        let cols = (region.width() / cell_size).ceil().max(1.0) as u32;
        let rows = (region.height() / cell_size).ceil().max(1.0) as u32;
        GridSpec::new(region.min, cell_size, cols, rows)
    }

    /// Grid origin (south-west corner of cell `(0,0)`).
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Cell side length, metres.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> u64 {
        self.cols as u64 * self.rows as u64
    }

    /// The region covered by the whole grid.
    pub fn extent(&self) -> BBox {
        BBox::new(
            self.origin,
            Point::new(
                self.origin.x + self.cell_size * self.cols as f64,
                self.origin.y + self.cell_size * self.rows as f64,
            ),
        )
    }

    /// Maps a point to its cell, or `None` when outside the grid extent.
    pub fn cell_of(&self, p: Point) -> Option<CellId> {
        let fx = (p.x - self.origin.x) / self.cell_size;
        let fy = (p.y - self.origin.y) / self.cell_size;
        if fx < 0.0 || fy < 0.0 || fx > self.cols as f64 || fy > self.rows as f64 {
            return None;
        }
        let col = (fx as u32).min(self.cols - 1);
        let row = (fy as u32).min(self.rows - 1);
        Some(CellId { col, row })
    }

    /// Like [`cell_of`](Self::cell_of) but clamps out-of-extent points to
    /// the nearest border cell. Useful for routing slightly-noisy
    /// observations near the deployment boundary.
    pub fn cell_of_clamped(&self, p: Point) -> CellId {
        let fx = ((p.x - self.origin.x) / self.cell_size).max(0.0);
        let fy = ((p.y - self.origin.y) / self.cell_size).max(0.0);
        CellId {
            col: (fx as u32).min(self.cols - 1),
            row: (fy as u32).min(self.rows - 1),
        }
    }

    /// The region covered by `cell`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `cell` is out of range.
    pub fn cell_bbox(&self, cell: CellId) -> BBox {
        debug_assert!(
            cell.col < self.cols && cell.row < self.rows,
            "cell out of range"
        );
        let min = Point::new(
            self.origin.x + cell.col as f64 * self.cell_size,
            self.origin.y + cell.row as f64 * self.cell_size,
        );
        BBox::new(
            min,
            Point::new(min.x + self.cell_size, min.y + self.cell_size),
        )
    }

    /// The centre point of `cell`.
    pub fn cell_center(&self, cell: CellId) -> Point {
        self.cell_bbox(cell).center()
    }

    /// `true` when `cell` is within this grid's dimensions.
    #[inline]
    pub fn contains_cell(&self, cell: CellId) -> bool {
        cell.col < self.cols && cell.row < self.rows
    }

    /// Iterates over all cells whose region intersects `query` (boundary
    /// touching counts). Empty iterator when the query misses the grid.
    pub fn cells_overlapping(&self, query: BBox) -> CellIter {
        let Some(clip) = query.intersection(&self.extent()) else {
            return CellIter::empty();
        };
        let c0 = self.cell_of_clamped(clip.min);
        let c1 = self.cell_of_clamped(clip.max);
        CellIter {
            col0: c0.col,
            col1: c1.col,
            row1: c1.row,
            next: Some(c0),
        }
    }

    /// Iterates over the cells that can hold a point of `query` under
    /// [`cell_of_clamped`](Self::cell_of_clamped): the cells of `query`
    /// clamped into the extent. Equals
    /// [`cells_overlapping`](Self::cells_overlapping) when `query`
    /// intersects the extent; a query wholly outside it yields the border
    /// cells its points clamp to instead of nothing. Empty only for an
    /// empty query.
    pub fn cells_clamped(&self, query: BBox) -> CellIter {
        if query.is_empty() {
            return CellIter::empty();
        }
        // `cell_of_clamped` is monotone in each coordinate, so every
        // point of `query` lands between the cells of its two corners.
        let c0 = self.cell_of_clamped(query.min);
        let c1 = self.cell_of_clamped(query.max);
        CellIter {
            col0: c0.col,
            col1: c1.col,
            row1: c1.row,
            next: Some(c0),
        }
    }

    /// Iterates over every cell of the grid in row-major order.
    pub fn all_cells(&self) -> CellIter {
        CellIter {
            col0: 0,
            col1: self.cols - 1,
            row1: self.rows - 1,
            next: Some(CellId::new(0, 0)),
        }
    }

    /// The cells forming the square ring at Chebyshev distance `radius`
    /// around `center` (radius 0 is just the centre cell), clipped to the
    /// grid. Used by the iterative k-nearest-neighbour expansion.
    pub fn ring(&self, center: CellId, radius: u32) -> Vec<CellId> {
        if radius == 0 {
            return if self.contains_cell(center) {
                vec![center]
            } else {
                vec![]
            };
        }
        let mut out = Vec::new();
        let r = radius as i64;
        let (cc, cr) = (center.col as i64, center.row as i64);
        let mut push = |col: i64, row: i64| {
            if col >= 0 && row >= 0 && (col as u32) < self.cols && (row as u32) < self.rows {
                out.push(CellId::new(col as u32, row as u32));
            }
        };
        for col in (cc - r)..=(cc + r) {
            push(col, cr - r);
            push(col, cr + r);
        }
        for row in (cr - r + 1)..=(cr + r - 1) {
            push(cc - r, row);
            push(cc + r, row);
        }
        out
    }
}

impl fmt::Display for GridSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}×{} grid of {:.0} m cells at {}",
            self.cols, self.rows, self.cell_size, self.origin
        )
    }
}

/// Iterator over a rectangular block of cells, produced by
/// [`GridSpec::cells_overlapping`] and [`GridSpec::all_cells`].
#[derive(Debug, Clone)]
pub struct CellIter {
    col0: u32,
    col1: u32,
    row1: u32,
    next: Option<CellId>,
}

impl CellIter {
    fn empty() -> Self {
        CellIter {
            col0: 0,
            col1: 0,
            row1: 0,
            next: None,
        }
    }
}

impl Iterator for CellIter {
    type Item = CellId;

    fn next(&mut self) -> Option<CellId> {
        let cur = self.next?;
        self.next = if cur.col < self.col1 {
            Some(CellId::new(cur.col + 1, cur.row))
        } else if cur.row < self.row1 {
            Some(CellId::new(self.col0, cur.row + 1))
        } else {
            None
        };
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.next {
            None => (0, Some(0)),
            Some(cur) => {
                let cols = (self.col1 - self.col0 + 1) as usize;
                let full_rows = (self.row1 - cur.row) as usize;
                let n = (self.col1 - cur.col + 1) as usize + full_rows * cols;
                (n, Some(n))
            }
        }
    }
}

impl ExactSizeIterator for CellIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridSpec {
        GridSpec::new(Point::new(0.0, 0.0), 10.0, 8, 6)
    }

    #[test]
    fn cell_of_basic_and_edges() {
        let g = grid();
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), Some(CellId::new(0, 0)));
        assert_eq!(g.cell_of(Point::new(9.999, 0.0)), Some(CellId::new(0, 0)));
        assert_eq!(g.cell_of(Point::new(10.0, 0.0)), Some(CellId::new(1, 0)));
        // Outer inclusive edges.
        assert_eq!(g.cell_of(Point::new(80.0, 60.0)), Some(CellId::new(7, 5)));
        assert_eq!(g.cell_of(Point::new(80.1, 0.0)), None);
        assert_eq!(g.cell_of(Point::new(-0.1, 0.0)), None);
    }

    #[test]
    fn clamped_maps_everything() {
        let g = grid();
        assert_eq!(
            g.cell_of_clamped(Point::new(-100.0, -100.0)),
            CellId::new(0, 0)
        );
        assert_eq!(g.cell_of_clamped(Point::new(1e6, 1e6)), CellId::new(7, 5));
    }

    #[test]
    fn cell_bbox_round_trip() {
        let g = grid();
        for cell in g.all_cells() {
            let c = g.cell_center(cell);
            assert_eq!(g.cell_of(c), Some(cell));
            assert!(g.cell_bbox(cell).contains(c));
        }
    }

    #[test]
    fn covering_builds_tight_grid() {
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(95.0, 41.0));
        let g = GridSpec::covering(region, 10.0);
        assert_eq!((g.cols(), g.rows()), (10, 5));
        assert!(g.extent().contains_bbox(&region));
    }

    #[test]
    fn overlap_enumeration() {
        let g = grid();
        let q = BBox::new(Point::new(11.0, 11.0), Point::new(29.0, 19.0));
        let cells: Vec<_> = g.cells_overlapping(q).collect();
        assert_eq!(cells, vec![CellId::new(1, 1), CellId::new(2, 1)]);
        // Query entirely off-grid.
        assert_eq!(
            g.cells_overlapping(BBox::new(Point::new(200.0, 0.0), Point::new(210.0, 10.0)))
                .count(),
            0
        );
        // Query covering everything.
        assert_eq!(
            g.cells_overlapping(BBox::new(Point::new(-5.0, -5.0), Point::new(500.0, 500.0)))
                .count(),
            48
        );
    }

    #[test]
    fn clamped_cells_hold_every_point_of_the_query() {
        let g = grid();
        // Inside or crossing the extent: the same cells as overlapping.
        for q in [
            BBox::new(Point::new(11.0, 11.0), Point::new(29.0, 19.0)),
            BBox::new(Point::new(-5.0, -5.0), Point::new(500.0, 500.0)),
            BBox::new(Point::new(70.0, 20.0), Point::new(90.0, 30.0)),
        ] {
            let clamped: Vec<_> = g.cells_clamped(q).collect();
            assert_eq!(clamped, g.cells_overlapping(q).collect::<Vec<_>>());
        }
        // Wholly west of the extent: the west border cells of its rows.
        let west = BBox::new(Point::new(-30.0, 12.0), Point::new(-10.0, 25.0));
        assert_eq!(g.cells_overlapping(west).count(), 0);
        let cells: Vec<_> = g.cells_clamped(west).collect();
        assert_eq!(cells, vec![CellId::new(0, 1), CellId::new(0, 2)]);
        // Off a corner: the corner cell.
        let corner = BBox::new(Point::new(200.0, 200.0), Point::new(210.0, 210.0));
        assert_eq!(
            g.cells_clamped(corner).collect::<Vec<_>>(),
            vec![CellId::new(7, 5)]
        );
        assert_eq!(g.cells_clamped(BBox::EMPTY).count(), 0);
    }

    #[test]
    fn overlap_size_hint_exact() {
        let g = grid();
        let q = BBox::new(Point::new(5.0, 5.0), Point::new(35.0, 25.0));
        let it = g.cells_overlapping(q);
        let (lo, hi) = it.size_hint();
        let n = it.count();
        assert_eq!(lo, n);
        assert_eq!(hi, Some(n));
    }

    #[test]
    fn all_cells_row_major() {
        let g = GridSpec::new(Point::ORIGIN, 1.0, 3, 2);
        let cells: Vec<_> = g.all_cells().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], CellId::new(0, 0));
        assert_eq!(cells[2], CellId::new(2, 0));
        assert_eq!(cells[3], CellId::new(0, 1));
        assert_eq!(cells[5], CellId::new(2, 1));
    }

    #[test]
    fn ring_shapes() {
        let g = GridSpec::new(Point::ORIGIN, 1.0, 10, 10);
        let c = CellId::new(5, 5);
        assert_eq!(g.ring(c, 0), vec![c]);
        let r1 = g.ring(c, 1);
        assert_eq!(r1.len(), 8);
        assert!(r1.iter().all(|x| x.ring_distance(c) == 1));
        let r2 = g.ring(c, 2);
        assert_eq!(r2.len(), 16);
        // Clipped at the border.
        let corner = CellId::new(0, 0);
        let r1c = g.ring(corner, 1);
        assert_eq!(r1c.len(), 3);
    }

    #[test]
    fn zorder_round_trip_ids() {
        for cell in [CellId::new(0, 0), CellId::new(1, 2), CellId::new(1000, 999)] {
            assert_eq!(CellId::from_zorder(cell.zorder()), cell);
        }
    }
}
