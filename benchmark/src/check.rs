//! The oracle: answers recomputed by scanning the generated stream.

use crate::gen::{Kind, Query, Row, EXTENT_M, HEAT_CELLS};

/// A read's result as plain data.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Ids of the rows a range returned, ascending.
    Ids(Vec<u64>),
    /// Distances of the rows a kNN returned, ascending.
    Distances(Vec<f64>),
    /// Heat-map counts, row-major.
    Counts(Vec<u64>),
}

/// Euclidean length, computed the one way both sides of a comparison use.
pub fn distance(dx: f64, dy: f64) -> f64 {
    (dx * dx + dy * dy).sqrt()
}

/// What `q` must return from `visible`, the time-sorted prefix of the
/// stream that was acknowledged when `q` was issued.
pub fn expected(visible: &[Row], q: &Query) -> Answer {
    let lo = visible.partition_point(|r| r.time_ms() < q.t0_ms);
    let hi = visible.partition_point(|r| r.time_ms() < q.t1_ms);
    let rows = &visible[lo..hi];
    match q.kind {
        Kind::Range => {
            // Closed on all four sides, as `BBox::contains` is.
            let inside = |r: &&Row| (r.x - q.x).abs() <= q.half && (r.y - q.y).abs() <= q.half;
            let mut ids: Vec<u64> = rows.iter().filter(inside).map(Row::id).collect();
            ids.sort_unstable();
            Answer::Ids(ids)
        }
        Kind::Knn => {
            let mut distances: Vec<f64> = rows
                .iter()
                .map(|r| distance(r.x - q.x, r.y - q.y))
                .collect();
            distances.sort_by(f64::total_cmp);
            distances.truncate(q.k);
            Answer::Distances(distances)
        }
        Kind::Heatmap => {
            let cell = EXTENT_M / HEAT_CELLS as f64;
            let mut counts = vec![0u64; (HEAT_CELLS * HEAT_CELLS) as usize];
            for r in rows {
                let col = ((r.x / cell) as u32).min(HEAT_CELLS - 1);
                let row = ((r.y / cell) as u32).min(HEAT_CELLS - 1);
                counts[(row * HEAT_CELLS + col) as usize] += 1;
            }
            Answer::Counts(counts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seq: u64, x: f64, y: f64) -> Row {
        Row {
            seq,
            x,
            y,
            class: 0,
            entity: 0,
        }
    }

    fn query(kind: Kind, t0_ms: u64, t1_ms: u64) -> Query {
        Query {
            kind,
            x: 100.0,
            y: 100.0,
            half: 10.0,
            k: 2,
            t0_ms,
            t1_ms,
        }
    }

    #[test]
    fn range_is_closed_in_space_and_half_open_in_time() {
        let rows = [
            row(0, 90.0, 110.0),
            row(1, 100.0, 100.0),
            row(2, 110.5, 100.0),
            row(3, 100.0, 100.0),
        ];
        let got = expected(&rows, &query(Kind::Range, 0, 3));
        assert_eq!(got, Answer::Ids(vec![rows[0].id(), rows[1].id()]));
    }

    #[test]
    fn knn_keeps_the_k_smallest_distances() {
        let rows = [
            row(0, 103.0, 104.0),
            row(1, 100.0, 101.0),
            row(2, 500.0, 100.0),
        ];
        let got = expected(&rows, &query(Kind::Knn, 0, 10));
        assert_eq!(got, Answer::Distances(vec![1.0, 5.0]));
    }

    #[test]
    fn heatmap_counts_every_row_of_the_window_once() {
        let rows = [row(0, 0.0, 0.0), row(1, 7999.9, 7999.9), row(2, 130.0, 0.0)];
        let Answer::Counts(counts) = expected(&rows, &query(Kind::Heatmap, 0, 2)) else {
            panic!("heat-map answers with counts");
        };
        assert_eq!(counts.iter().sum::<u64>(), 2);
        assert_eq!((counts[0], counts[4095]), (1, 1));
    }
}
