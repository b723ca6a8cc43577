//! What a range read keeps: the [`Predicate`] a row must pass, and the
//! selection the rows that pass it enter.
//!
//! A range is evaluated inside the scan. Every tier tests the predicate
//! on a row's key columns — position and class — before the row is
//! cloned (head slices) or its wide columns are decoded (sealed blocks),
//! and a limited range tests the row's id against the cut of a bounded
//! selection, [`Lowest`], in the same place: a class-filtered read
//! materialises only the rows it returns, and a limited read holds
//! `O(limit)` rows however many the region holds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use stcam_camnet::batch::{decode_batch_filtered, decode_batch_into};
use stcam_camnet::{Observation, ObservationId};
use stcam_geo::{BBox, Point, Timestamp};
use stcam_world::EntityClass;

use crate::view::sort_by_id;

stcam_codec::wire_struct! {
    /// Which rows a read or a standing query selects: those positioned
    /// inside `region`, of `class` when one is set ("trucks inside A").
    /// Time is not part of it: a range read pairs it with a window, and a
    /// standing query matches observations as they arrive.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Predicate {
        /// Rows must lie inside this region (`BBox::contains`).
        pub region: BBox,
        /// When set, rows must carry this class.
        pub class: Option<EntityClass>,
    }
}

impl Predicate {
    /// Every row inside `region`, of any class.
    pub fn new(region: BBox) -> Predicate {
        Predicate {
            region,
            class: None,
        }
    }

    /// Whether a row at `position` of `class` passes: the one test range
    /// scans, replica logs and standing-query matching all apply, on the
    /// key columns alone.
    pub fn matches(&self, position: Point, class: EntityClass) -> bool {
        self.region.contains(position) && self.class.is_none_or(|want| want == class)
    }
}

/// The `limit` rows of lowest id offered so far, a tie in id going to the
/// row offered first: the first `limit` rows of a stable sort by id of
/// everything offered.
///
/// A bounded max-heap keyed by `(id, arrival)`, like [`Nearest`] keyed by
/// distance, whose top is the cut: once `limit` rows are held, a row
/// enters only below the top's id, so a scan can reject a row on its id
/// before cloning or decoding it.
///
/// [`Nearest`]: crate::view::Nearest
#[derive(Debug)]
pub(crate) struct Lowest {
    limit: usize,
    /// Rows that entered so far: the arrival stamp of the next one.
    entered: u64,
    heap: BinaryHeap<Arrived>,
}

/// One held row, ordered by `(id, arrival)`.
#[derive(Debug)]
struct Arrived {
    arrival: u64,
    row: Observation,
}

impl Arrived {
    fn key(&self) -> (ObservationId, u64) {
        (self.row.id, self.arrival)
    }
}

impl Ord for Arrived {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Arrived {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Arrived {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Arrived {}

impl Lowest {
    /// An empty selection of at most `limit` rows.
    pub fn new(limit: usize) -> Lowest {
        Lowest {
            limit,
            entered: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Whether a row with `id` offered now would enter. A later arrival
    /// loses a tie, so a full selection admits only ids below its top's.
    pub(crate) fn admits(&self, id: ObservationId) -> bool {
        self.heap.len() < self.limit || self.heap.peek().is_some_and(|top| id < top.row.id)
    }

    /// Offers an owned row.
    pub(crate) fn offer_owned(&mut self, row: Observation) {
        if self.admits(row.id) {
            self.insert(row);
        }
    }

    /// Holds `row`, which [`admits`](Self::admits) let in, in place of
    /// the top when the selection is full.
    fn insert(&mut self, row: Observation) {
        let arrived = Arrived {
            arrival: self.entered,
            row,
        };
        self.entered += 1;
        if self.heap.len() == self.limit {
            self.heap.pop();
        }
        self.heap.push(arrived);
    }

    /// The rows held, ascending by `(id, arrival)`.
    pub fn into_sorted(self) -> Vec<Observation> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|arrived| arrived.row)
            .collect()
    }
}

/// The rows one range scan keeps: every row that passes, in scan order,
/// or only the lowest ids under a limit. Each scanning thread fills one;
/// [`absorb`](Self::absorb) appends a later thread's to an earlier one's.
#[derive(Debug)]
pub(crate) struct Hits {
    /// Without a limit, every row kept, in scan order. With one, the rows
    /// a sealed block decoded, on their way into `lowest`.
    rows: Vec<Observation>,
    lowest: Option<Lowest>,
    /// Rows cloned or decoded whole, and the most held at once.
    #[cfg(test)]
    counted: (usize, usize),
}

impl Hits {
    /// An empty sink keeping at most `limit` rows (all without one), with
    /// room for `expected` rows when there is no limit.
    pub(crate) fn new(limit: Option<usize>, expected: usize) -> Hits {
        Hits {
            rows: Vec::with_capacity(if limit.is_none() { expected } else { 0 }),
            lowest: limit.map(Lowest::new),
            #[cfg(test)]
            counted: (0, 0),
        }
    }

    /// Offers a borrowed row that passed the predicate and window; it is
    /// cloned only if it is kept.
    pub(crate) fn offer(&mut self, row: &Observation) {
        let Some(lowest) = &mut self.lowest else {
            self.rows.push(row.clone());
            #[cfg(test)]
            self.count(1);
            return;
        };
        if lowest.admits(row.id) {
            lowest.offer_owned(row.clone());
            #[cfg(test)]
            self.count(1);
        }
    }

    /// Appends the rows of one columnar block that pass `keep(time,
    /// position, class)`. `whole` says every row passes, which lets an
    /// unlimited scan decode the block without testing its rows.
    ///
    /// Under a limit the block is read twice. The first pass decodes only
    /// the key columns and finds the rows that enter — at most `limit`,
    /// the lowest `(id, row)` of those below the cut — and the second
    /// decodes those rows whole. So a block adds at most `limit` rows
    /// before they move into the selection: a scan never holds more than
    /// `2 × limit`.
    pub(crate) fn decode_block(
        &mut self,
        block: &[u8],
        whole: bool,
        keep: impl Fn(Timestamp, Point, EntityClass) -> bool,
    ) {
        #[cfg(test)]
        let before = self.rows.len();
        let decoded = match &mut self.lowest {
            None if whole => decode_batch_into(&mut &block[..], &mut self.rows),
            None => {
                let pass = |_, t, p, c| keep(t, p, c);
                decode_batch_filtered(&mut &block[..], pass, &mut self.rows).map(drop)
            }
            Some(lowest) => {
                let mut entering: Vec<(ObservationId, u32)> = Vec::new();
                let mut row = 0u32;
                let probe = |id, t, p, c| {
                    if lowest.admits(id) && keep(t, p, c) {
                        entering.push((id, row));
                    }
                    row += 1;
                    false
                };
                decode_batch_filtered(&mut &block[..], probe, &mut self.rows)
                    .expect("sealed block decodes");
                if entering.len() > lowest.limit {
                    entering.select_nth_unstable(lowest.limit);
                    entering.truncate(lowest.limit);
                }
                let mut wanted: Vec<u32> = entering.into_iter().map(|(_, row)| row).collect();
                wanted.sort_unstable();
                let mut wanted = wanted.into_iter().peekable();
                let mut row = 0u32;
                let pick = |_, _, _, _| {
                    let picked = wanted.next_if_eq(&row).is_some();
                    row += 1;
                    picked
                };
                decode_batch_filtered(&mut &block[..], pick, &mut self.rows).map(drop)
            }
        };
        decoded.expect("sealed block decodes");
        #[cfg(test)]
        self.count(self.rows.len() - before);
        if let Some(lowest) = &mut self.lowest {
            self.rows.drain(..).for_each(|row| lowest.offer_owned(row));
        }
    }

    /// Appends `later`, the rows a scan of a later part of the same
    /// candidates kept: its rows rank after every row of this one.
    pub(crate) fn absorb(&mut self, later: Hits) {
        #[cfg(test)]
        {
            self.counted.0 += later.counted.0;
            self.counted.1 = self.counted.1.max(later.counted.1);
        }
        match (&mut self.lowest, later.lowest) {
            (Some(lowest), Some(later)) => {
                let rows = later.into_sorted().into_iter();
                rows.for_each(|row| lowest.offer_owned(row));
            }
            _ => self.rows.extend(later.rows),
        }
    }

    /// The rows kept, sorted by id, ties in scan order.
    pub(crate) fn into_sorted(self) -> Vec<Observation> {
        #[cfg(test)]
        RANGE_ROWS.with(|counter| {
            let (made, peak) = counter.get();
            counter.set((made + self.counted.0, peak.max(self.counted.1)));
        });
        match self.lowest {
            Some(lowest) => lowest.into_sorted(),
            None => {
                let mut rows = self.rows;
                sort_by_id(&mut rows);
                rows
            }
        }
    }

    /// Books `made` more rows materialised, and the rows held now.
    #[cfg(test)]
    fn count(&mut self, made: usize) {
        let held = self.rows.len() + self.lowest.as_ref().map_or(0, |lowest| lowest.heap.len());
        self.counted = (self.counted.0 + made, self.counted.1.max(held));
    }
}

#[cfg(test)]
thread_local! {
    /// Rows the range scans finished on this thread cloned or decoded
    /// whole, and the most rows one scanning thread of them held at once:
    /// what the class and limit tests count.
    pub(crate) static RANGE_ROWS: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
mod tests {
    use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
    use stcam_codec::{decode_from_slice, encode_to_vec, DecodeError};
    use stcam_geo::{BBox, Duration, Point, TimeInterval, Timestamp};
    use stcam_world::{EntityClass, EntityId};

    use super::{Predicate, RANGE_ROWS};
    use crate::{IndexConfig, StIndex, SPLIT_SCAN_ROWS};

    fn obs(seq: u64, t_ms: u64, position: Point, class: EntityClass) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_millis(t_ms),
            position,
            class,
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

    /// `n` rows over `seconds`, uniform over the extent and 60 m beyond
    /// it, in the four classes, ids a permutation of the arrival order.
    fn stream(n: u64, seconds: u64) -> Vec<Observation> {
        let mut state = 5u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let position = Point::new(unit() * 1120.0 - 60.0, unit() * 1120.0 - 60.0);
                let class = EntityClass::ALL[(i * 7 % 4) as usize];
                obs(i * 7_919 % n, i * seconds * 1000 / n, position, class)
            })
            .collect()
    }

    /// What `read` made — rows cloned or decoded whole, and the most rows
    /// one scanning thread held at once — beside its answer.
    fn counted(read: impl FnOnce() -> Vec<Observation>) -> (Vec<Observation>, usize, usize) {
        RANGE_ROWS.set((0, 0));
        let rows = read();
        let (made, peak) = RANGE_ROWS.get();
        (rows, made, peak)
    }

    /// The rows of `rows` in `window` passing `predicate`, sorted by id.
    fn oracle(
        rows: &[Observation],
        predicate: &Predicate,
        window: TimeInterval,
    ) -> Vec<Observation> {
        let mut hits: Vec<Observation> = rows
            .iter()
            .filter(|o| window.contains(o.time) && predicate.matches(o.position, o.class))
            .cloned()
            .collect();
        hits.sort_by_key(|o| o.id);
        hits
    }

    #[test]
    fn predicate_tests_region_and_class() {
        let trucks = Predicate {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            class: Some(EntityClass::Truck),
        };
        assert!(trucks.matches(Point::new(5.0, 5.0), EntityClass::Truck));
        assert!(!trucks.matches(Point::new(5.0, 5.0), EntityClass::Car));
        assert!(!trucks.matches(Point::new(15.0, 5.0), EntityClass::Truck));
        assert!(Predicate::new(trucks.region).matches(Point::new(5.0, 5.0), EntityClass::Car));
    }

    #[test]
    fn predicate_travels_as_region_then_optional_class_byte() {
        let bicycles = Predicate {
            region: BBox::new(Point::new(1.0, 2.0), Point::new(3.0, 4.0)),
            class: Some(EntityClass::Bicycle),
        };
        let mut bytes = encode_to_vec(&bicycles);
        assert_eq!(bytes[32..], [1, EntityClass::Bicycle.as_u8()]);
        assert_eq!(decode_from_slice::<Predicate>(&bytes), Ok(bicycles));
        assert_eq!(encode_to_vec(&Predicate::new(bicycles.region))[32..], [0]);
        bytes[33] = 77;
        assert!(matches!(
            decode_from_slice::<Predicate>(&bytes),
            Err(DecodeError::InvalidDiscriminant { value: 77, .. })
        ));
    }

    #[test]
    fn a_class_filtered_range_materialises_only_the_rows_it_returns() {
        let rows = stream(4_000, 60);
        let mut head = StIndex::new(config().without_sealing());
        head.insert_batch(rows.iter().cloned());
        let mut sealed = StIndex::new(config());
        sealed.insert_batch(rows.iter().cloned());
        sealed.seal_all();
        let everything = BBox::new(Point::new(-100.0, -100.0), Point::new(1100.0, 1100.0));
        let part = BBox::new(Point::new(130.0, -80.0), Point::new(620.0, 480.0));
        for (tier, index) in [("head", &head), ("sealed", &sealed)] {
            // Covering every cell and slice, where an unfiltered scan
            // decodes whole blocks untested, and covering part of them.
            for (region, window) in [
                (everything, window(0, 60_000)),
                (part, window(5_000, 47_000)),
            ] {
                let trucks = Predicate {
                    region,
                    class: Some(EntityClass::Truck),
                };
                let want = oracle(&rows, &trucks, window);
                let (got, made, _) =
                    counted(|| index.read_view().range_where(&trucks, window, None));
                assert!(want.len() > 100, "{tier}: {} trucks", want.len());
                assert_eq!(got, want, "{tier}");
                assert_eq!(made, want.len(), "{tier}: rows materialised");
            }
        }
    }

    #[test]
    fn a_limited_range_holds_at_most_twice_its_limit_per_thread() {
        // 24 000 candidates over twelve 10 s slices: two head slices, and
        // ten sealed ones above the split threshold, so two threads scan.
        let rows = stream(24_000, 120);
        let mut index = StIndex::new(config().with_head_slices(2));
        index.insert_batch(rows.iter().cloned());
        let head_start = Timestamp::from_secs(100);
        let sealed_rows = rows.iter().filter(|o| o.time < head_start).count();
        assert!(sealed_rows >= 2 * SPLIT_SCAN_ROWS && rows.len() - sealed_rows > 0);
        let everything = Predicate::new(BBox::new(
            Point::new(-100.0, -100.0),
            Point::new(1100.0, 1100.0),
        ));
        let all_time = window(0, 120_000);
        let limit = 10;
        let mut want = oracle(&rows, &everything, all_time);
        assert_eq!(want.len(), rows.len());
        want.truncate(limit);
        let view = index.read_view();
        let (got, made, peak) = counted(|| view.range_where(&everything, all_time, Some(limit)));
        assert_eq!(got, want);
        assert!(peak <= 2 * limit, "a scanning thread held {peak} rows");
        assert!(made < rows.len() / 10, "{made} rows materialised");
    }
}
