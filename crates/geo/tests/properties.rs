//! Property-based tests for the geometric primitives.

use proptest::prelude::*;
use stcam_geo::{zorder, BBox, GridSpec, Point, Polygon, TimeInterval, Timestamp};

fn finite_coord() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

fn point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn zorder_round_trip(x in any::<u32>(), y in any::<u32>()) {
        prop_assert_eq!(zorder::decode(zorder::encode(x, y)), (x, y));
    }

    #[test]
    fn zorder_injective(a in any::<(u32, u32)>(), b in any::<(u32, u32)>()) {
        prop_assume!(a != b);
        prop_assert_ne!(zorder::encode(a.0, a.1), zorder::encode(b.0, b.1));
    }

    #[test]
    fn distance_triangle_inequality(a in point(), b in point(), c in point()) {
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6);
    }

    #[test]
    fn bbox_union_contains_both(a in (point(), point()), b in (point(), point())) {
        let ba = BBox::from_corners(a.0, a.1);
        let bb = BBox::from_corners(b.0, b.1);
        let u = ba.union(&bb);
        prop_assert!(u.contains_bbox(&ba));
        prop_assert!(u.contains_bbox(&bb));
    }

    #[test]
    fn bbox_intersection_within_both(a in (point(), point()), b in (point(), point())) {
        let ba = BBox::from_corners(a.0, a.1);
        let bb = BBox::from_corners(b.0, b.1);
        if let Some(i) = ba.intersection(&bb) {
            prop_assert!(ba.contains_bbox(&i));
            prop_assert!(bb.contains_bbox(&i));
        } else {
            prop_assert!(!ba.intersects(&bb));
        }
    }

    #[test]
    fn bbox_point_distance_zero_iff_contained(p in point(), a in (point(), point())) {
        let bb = BBox::from_corners(a.0, a.1);
        let d = bb.distance_to_point(p);
        prop_assert_eq!(d == 0.0, bb.contains(p));
        prop_assert!(d <= bb.max_distance_to_point(p) + 1e-9);
    }

    #[test]
    fn grid_cell_of_consistent_with_cell_bbox(
        x in 0.0..800.0f64,
        y in 0.0..600.0f64,
    ) {
        let g = GridSpec::new(Point::new(0.0, 0.0), 10.0, 80, 60);
        let cell = g.cell_of(Point::new(x, y)).expect("inside extent");
        prop_assert!(g.cell_bbox(cell).contains(Point::new(x, y)));
    }

    #[test]
    fn grid_overlap_covers_exactly_intersecting_cells(
        x0 in -50.0..850.0f64, y0 in -50.0..650.0f64,
        w in 0.0..400.0f64, h in 0.0..400.0f64,
    ) {
        let g = GridSpec::new(Point::new(0.0, 0.0), 10.0, 80, 60);
        let q = BBox::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let listed: std::collections::HashSet<_> = g.cells_overlapping(q).collect();
        for cell in g.all_cells() {
            let expected = g.cell_bbox(cell).intersects(&q);
            prop_assert_eq!(listed.contains(&cell), expected, "cell {}", cell);
        }
    }

    #[test]
    fn sector_points_within_range(
        heading in -3.0..3.0f64,
        fov in 0.2..3.0f64,
        range in 1.0..500.0f64,
        px in -600.0..600.0f64,
        py in -600.0..600.0f64,
    ) {
        let apex = Point::new(0.0, 0.0);
        let s = Polygon::sector(apex, heading, fov, range, 12);
        let p = Point::new(px, py);
        if s.contains(p) {
            // Everything inside the sector polygon is within viewing range.
            prop_assert!(apex.distance(p) <= range + 1e-6);
        }
    }

    #[test]
    fn polygon_contains_implies_bbox_contains(
        vs in prop::collection::vec(point(), 3..12),
        p in point(),
    ) {
        if let Some(poly) = Polygon::new(vs) {
            if poly.contains(p) {
                prop_assert!(poly.bbox().contains(p));
            }
        }
    }

    #[test]
    fn interval_intersection_commutes(
        a0 in 0u64..10_000, al in 0u64..10_000,
        b0 in 0u64..10_000, bl in 0u64..10_000,
    ) {
        let a = TimeInterval::new(Timestamp::from_millis(a0), Timestamp::from_millis(a0 + al));
        let b = TimeInterval::new(Timestamp::from_millis(b0), Timestamp::from_millis(b0 + bl));
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(!i.is_empty());
            prop_assert!(i.start() >= a.start() && i.end() <= a.end());
        }
    }
}

proptest! {
    #[test]
    fn polygon_bbox_intersection_has_no_false_negatives(
        heading in -3.0..3.0f64,
        fov in 0.3..2.5f64,
        range in 20.0..300.0f64,
        bx in -400.0..400.0f64,
        by in -400.0..400.0f64,
        bw in 1.0..300.0f64,
        bh in 1.0..300.0f64,
        sx in 0.0..1.0f64,
        sy in 0.0..1.0f64,
    ) {
        // If a sample point of the box is inside the polygon, then
        // intersects_bbox must report an overlap (it is allowed to be
        // conservative the other way).
        let poly = Polygon::sector(Point::new(0.0, 0.0), heading, fov, range, 10);
        let bb = BBox::new(Point::new(bx, by), Point::new(bx + bw, by + bh));
        let sample = Point::new(bb.min.x + bw * sx, bb.min.y + bh * sy);
        if poly.contains(sample) {
            prop_assert!(poly.intersects_bbox(&bb), "missed overlap at {}", sample);
        }
        // Symmetric check: polygon vertices inside the box.
        if poly.vertices().iter().any(|v| bb.contains(*v)) {
            prop_assert!(poly.intersects_bbox(&bb));
        }
    }
}
