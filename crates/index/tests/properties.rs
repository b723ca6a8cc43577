//! Property-based equivalence: `StIndex` answers every query exactly like
//! the flat-scan oracle, across arbitrary workloads, eviction points and
//! query shapes.

use proptest::prelude::*;
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, Duration, Point, TimeInterval, Timestamp};
use stcam_index::{
    sort_by_id, FlatIndex, IndexConfig, Predicate, SealedSegment, SegmentDigest, StIndex,
    GROUP_SLICES, SPLIT_SCAN_ROWS,
};
use stcam_world::{EntityClass, EntityId};

const EXTENT: f64 = 500.0;
const SLICE_MS: u64 = 5_000;

fn config() -> IndexConfig {
    IndexConfig::new(
        BBox::new(Point::new(0.0, 0.0), Point::new(EXTENT, EXTENT)),
        37.0, // deliberately not a divisor of the extent
        Duration::from_millis(SLICE_MS),
    )
}

#[derive(Debug, Clone)]
struct RawObs {
    t_ms: u64,
    x: f64,
    y: f64,
}

fn raw_obs() -> impl Strategy<Value = RawObs> {
    (0u64..60_000, 0.0..EXTENT, 0.0..EXTENT).prop_map(|(t_ms, x, y)| RawObs { t_ms, x, y })
}

fn materialize(raw: &[RawObs]) -> Vec<Observation> {
    raw.iter()
        .enumerate()
        .map(|(i, r)| Observation {
            id: ObservationId::compose(CameraId(0), i as u64),
            camera: CameraId(0),
            time: Timestamp::from_millis(r.t_ms),
            position: Point::new(r.x, r.y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(i as u64),
            truth: Some(EntityId(i as u64)),
        })
        .collect()
}

fn build_both(raw: &[RawObs]) -> (StIndex, FlatIndex) {
    let obs = materialize(raw);
    let mut index = StIndex::new(config());
    let mut oracle = FlatIndex::new();
    for o in obs {
        index.insert(o.clone());
        oracle.insert(o);
    }
    (index, oracle)
}

fn ids<T: std::borrow::Borrow<Observation>>(v: &[T]) -> Vec<ObservationId> {
    v.iter().map(|o| o.borrow().id).collect()
}

/// `rows` with a second row under the id of every `dup_every`-th one,
/// inserted right after it: same position (so the same cell), another
/// time and class, so the two are told apart. The twin lies `slices_on`
/// slices later: with 0 it shares the original's slice and so its tier,
/// and keeps its relative order in either; with 1 the two sit in
/// consecutive segments once sealed, scanned in slice order.
fn with_duplicates(rows: Vec<Observation>, dup_every: usize, slices_on: u64) -> Vec<Observation> {
    let mut out = Vec::with_capacity(rows.len() + rows.len() / dup_every);
    for (i, o) in rows.into_iter().enumerate() {
        let twin = i.is_multiple_of(dup_every).then(|| {
            let t = o.time.as_millis();
            let slice = t - t % SLICE_MS + slices_on * SLICE_MS;
            Observation {
                time: Timestamp::from_millis(slice + (t + 1) % SLICE_MS),
                class: EntityClass::Truck,
                ..o.clone()
            }
        });
        out.push(o);
        out.extend(twin);
    }
    out
}

/// The range oracle: a filter over the rows in insertion order, stably
/// sorted by id.
fn stable_oracle(rows: &[Observation], region: BBox, window: TimeInterval) -> Vec<Observation> {
    let mut hits: Vec<Observation> = rows
        .iter()
        .filter(|o| region.contains(o.position) && window.contains(o.time))
        .cloned()
        .collect();
    hits.sort_by_key(|o| o.id);
    hits
}

/// A query region anywhere from well outside the extent to across it.
fn arb_region() -> impl Strategy<Value = BBox> {
    (
        -300.0..700.0f64,
        -300.0..700.0f64,
        0.0..500.0f64,
        0.0..500.0f64,
    )
        .prop_map(|(x, y, w, h)| BBox::new(Point::new(x, y), Point::new(x + w, y + h)))
}

/// Rows from `raw`, with positions up to 60 m outside the extent (they
/// clamp into the border cells).
fn spread(raw: &[RawObs]) -> Vec<Observation> {
    let mut rows = materialize(raw);
    for o in &mut rows {
        let p = o.position;
        o.position = Point::new(p.x * 1.24 - 60.0, p.y * 1.24 - 60.0);
    }
    rows
}

/// The lattice step: half a cell, so lattice rows tie in distance and
/// every second lattice line is a cell boundary.
const STEP: f64 = 18.5;

/// A row or query position: three times in four on the half-cell
/// lattice over the corner from 55.5 m outside the extent to 111 m
/// inside it (dense, so rows share positions, tie in distance and sit on
/// the cell boundaries a query's bound reaches), else anywhere up to
/// 60 m outside the extent. Rows outside clamp into the border cells.
fn arb_position() -> impl Strategy<Value = Point> {
    (
        0u8..4,
        (-3i32..7, -3i32..7),
        (-60.0..EXTENT + 60.0, -60.0..EXTENT + 60.0),
    )
        .prop_map(|(pick, (i, j), (x, y))| {
            if pick > 0 {
                Point::new(i as f64 * STEP, j as f64 * STEP)
            } else {
                Point::new(x, y)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_equivalence(
        raw in prop::collection::vec(raw_obs(), 0..300),
        qx in -100.0..600.0f64, qy in -100.0..600.0f64,
        qw in 0.0..400.0f64, qh in 0.0..400.0f64,
        t0 in 0u64..70_000, dt in 0u64..40_000,
    ) {
        let (index, oracle) = build_both(&raw);
        let region = BBox::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
        let window = TimeInterval::new(Timestamp::from_millis(t0), Timestamp::from_millis(t0 + dt));
        prop_assert_eq!(ids(&index.range(region, window)), ids(&oracle.range(region, window)));
        prop_assert_eq!(index.range_count(region, window), oracle.range(region, window).len());
    }

    #[test]
    fn knn_equivalence(
        raw in prop::collection::vec(raw_obs(), 0..300),
        qx in -100.0..600.0f64, qy in -100.0..600.0f64,
        k in 0usize..30,
        t0 in 0u64..70_000, dt in 1u64..40_000,
    ) {
        let (index, oracle) = build_both(&raw);
        let at = Point::new(qx, qy);
        let window = TimeInterval::new(Timestamp::from_millis(t0), Timestamp::from_millis(t0 + dt));
        prop_assert_eq!(ids(&index.knn(at, window, k)), ids(&oracle.knn(at, window, k)));
    }

    #[test]
    fn heatmap_equivalence(
        raw in prop::collection::vec(raw_obs(), 0..300),
        t0 in 0u64..70_000, dt in 0u64..40_000,
        bucket_size in 40.0..200.0f64,
    ) {
        let (index, oracle) = build_both(&raw);
        let buckets = stcam_geo::GridSpec::covering(
            BBox::new(Point::new(0.0, 0.0), Point::new(EXTENT, EXTENT)),
            bucket_size,
        );
        let window = TimeInterval::new(Timestamp::from_millis(t0), Timestamp::from_millis(t0 + dt));
        prop_assert_eq!(index.heatmap(&buckets, window), oracle.heatmap(&buckets, window));
    }

    #[test]
    fn eviction_equivalence_on_slice_boundaries(
        raw in prop::collection::vec(raw_obs(), 0..300),
        cut_slices in 0u64..14,
    ) {
        // FlatIndex eviction is exact; StIndex is slice-granular, so they
        // agree exactly when the cutoff lies on a slice boundary.
        let (mut index, mut oracle) = build_both(&raw);
        let cutoff = Timestamp::from_millis(cut_slices * SLICE_MS);
        index.evict_before(cutoff);
        oracle.evict_before(cutoff);
        prop_assert_eq!(index.len(), oracle.len());
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(EXTENT, EXTENT));
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_millis(100_000));
        prop_assert_eq!(ids(&index.range(region, window)), ids(&oracle.range(region, window)));
    }

    #[test]
    fn insertion_order_does_not_matter(
        raw in prop::collection::vec(raw_obs(), 1..150),
        qx in 0.0..EXTENT, qy in 0.0..EXTENT, qr in 10.0..250.0f64,
    ) {
        let obs = materialize(&raw);
        let mut forward = StIndex::new(config());
        let mut backward = StIndex::new(config());
        for o in &obs {
            forward.insert(o.clone());
        }
        for o in obs.iter().rev() {
            backward.insert(o.clone());
        }
        let region = BBox::around(Point::new(qx, qy), qr);
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_millis(100_000));
        prop_assert_eq!(ids(&forward.range(region, window)), ids(&backward.range(region, window)));
    }

    #[test]
    fn sealing_on_or_off_answers_identically(
        raw in prop::collection::vec(raw_obs(), 0..300),
        qx in -100.0..600.0f64, qy in -100.0..600.0f64,
        qw in 0.0..400.0f64, qh in 0.0..400.0f64,
        t0 in 0u64..70_000, dt in 0u64..40_000,
        k in 0usize..20,
        ex in 0.0..EXTENT, ey in 0.0..EXTENT, er in 10.0..300.0f64,
    ) {
        let obs = materialize(&raw);
        let mut sealed = StIndex::new(config().with_head_slices(1));
        let mut unsealed = StIndex::new(config().without_sealing());
        for o in &obs {
            sealed.insert(o.clone());
            unsealed.insert(o.clone());
        }
        sealed.seal_all();
        prop_assert_eq!(unsealed.stats().sealed_segments, 0);
        let region = BBox::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
        let window = TimeInterval::new(Timestamp::from_millis(t0), Timestamp::from_millis(t0 + dt));
        prop_assert_eq!(sealed.range(region, window), unsealed.range(region, window));
        prop_assert_eq!(sealed.range_count(region, window), unsealed.range_count(region, window));
        prop_assert_eq!(
            ids(&sealed.knn(Point::new(qx, qy), window, k)),
            ids(&unsealed.knn(Point::new(qx, qy), window, k))
        );
        let buckets = stcam_geo::GridSpec::covering(
            BBox::new(Point::new(0.0, 0.0), Point::new(EXTENT, EXTENT)),
            90.0,
        );
        prop_assert_eq!(sealed.heatmap(&buckets, window), unsealed.heatmap(&buckets, window));
        // extract_range removes identical sets from both.
        let cut = BBox::around(Point::new(ex, ey), er);
        let a = sealed.extract_range(cut);
        let b = unsealed.extract_range(cut);
        prop_assert_eq!(ids(&a), ids(&b));
        prop_assert_eq!(sealed.len(), unsealed.len());
    }

    #[test]
    fn sort_by_id_is_a_stable_sort_by_id(
        keys in prop::collection::vec((0u64..12, 0u64..1_000), 0..200),
    ) {
        let rows: Vec<Observation> = keys
            .iter()
            .map(|&(id, t)| Observation {
                id: ObservationId(id),
                time: Timestamp::from_millis(t),
                ..materialize(&[RawObs { t_ms: t, x: 1.0, y: 1.0 }])[0].clone()
            })
            .collect();
        let mut stable = rows.clone();
        stable.sort_by_key(|o| o.id);
        let mut keyed = rows.clone();
        sort_by_id(&mut keyed);
        prop_assert_eq!(&keyed, &stable);
        let mut refs: Vec<&Observation> = rows.iter().collect();
        sort_by_id(&mut refs);
        prop_assert!(refs.into_iter().eq(stable.iter()));
    }

    #[test]
    fn range_matches_the_stable_sort_oracle(
        raw in prop::collection::vec(raw_obs(), 0..300),
        dup_every in 1usize..8,
        region in arb_region(),
        t0 in 0u64..70_000, dt in 0u64..60_000,
        sealed in any::<bool>(),
    ) {
        // Head + sealed (two head slices) or fully sealed; ids repeat in
        // both tiers; rows clamp in from outside the extent; regions cross
        // grid borders or lie wholly outside the extent.
        let rows = with_duplicates(spread(&raw), dup_every, 0);
        let mut index = StIndex::new(config());
        index.insert_batch(rows.iter().cloned());
        if sealed {
            index.seal_all();
        }
        let window = TimeInterval::new(Timestamp::from_millis(t0), Timestamp::from_millis(t0 + dt));
        let want = stable_oracle(&rows, region, window);
        prop_assert_eq!(index.range_count(region, window), want.len());
        prop_assert_eq!(index.read_view().range(region, window), want.clone());
        prop_assert_eq!(index.range(region, window), want);
    }

    #[test]
    fn segment_frame_round_trips_through_the_wire(
        raw in prop::collection::vec(raw_obs(), 1..200),
    ) {
        // seal → encode → decode → unseal equals the input rows.
        let obs = materialize(&raw);
        let mut index = StIndex::new(config().with_head_slices(1));
        for o in &obs {
            index.insert(o.clone());
        }
        index.seal_all();
        let everything = BBox::new(Point::new(-1e12, -1e12), Point::new(1e12, 1e12));
        let (frames, head) = index.export_segments(everything);
        prop_assert!(head.is_empty());
        let mut recovered: Vec<Observation> = Vec::new();
        for frame in frames {
            let bytes = stcam_codec::encode_to_vec(&frame);
            let back: stcam_codec::SegmentFrame =
                stcam_codec::decode_from_slice(&bytes).expect("frame decodes");
            prop_assert_eq!(&back, &frame);
            let segment = stcam_index::SealedSegment::from_frame(back).expect("frame verifies");
            recovered.extend(segment.unseal());
        }
        recovered.sort_by_key(|o| o.id);
        let mut expected = obs;
        expected.sort_by_key(|o| o.id);
        prop_assert_eq!(recovered, expected);
    }

    #[test]
    fn len_tracks_inserts_and_evictions(
        raw in prop::collection::vec(raw_obs(), 0..200),
        cut_ms in 0u64..80_000,
    ) {
        let (mut index, _) = build_both(&raw);
        prop_assert_eq!(index.len(), raw.len());
        index.evict_before(Timestamp::from_millis(cut_ms));
        let stats = index.stats();
        prop_assert_eq!(stats.observations, index.len());
        // Everything still present is in a slice ending after the cutoff.
        if let Some(oldest) = stats.oldest {
            prop_assert!(oldest.as_millis() + SLICE_MS > cut_ms || index.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn knn_matches_the_oracle_on_a_sealed_archive(
        rows in prop::collection::vec((0u64..60_000, arb_position()), 0..250),
        query in (arb_position(), (-1e6..1e6f64, -1e6..1e6f64), 0u8..8),
        k in 0usize..12, above_count in 0u8..4,
        limit in (0u8..4, 0u32..12, 0.0..300.0f64),
        span in (any::<bool>(), 0u64..30_000, 1u64..60_000),
    ) {
        // Twelve sealed segments. Lattice rows share positions under
        // different ids and tie in distance, and lattice queries sit on
        // cell centres, edges and corners. One query in eight comes from
        // up to 1 000 km outside the extent, one k in four exceeds the
        // row count, one limit in four lands on the lattice and one in
        // four anywhere, and half the windows cover every row.
        let (near, (x, y), far_out) = query;
        let at = if far_out == 0 { Point::new(x, y) } else { near };
        let k = if above_count == 0 { k + 250 } else { k };
        let max_distance = match limit {
            (0, m, _) => Some(m as f64 * STEP),
            (1, _, d) => Some(d),
            _ => None,
        };
        let window = match span {
            (true, _, _) => TimeInterval::new(Timestamp::ZERO, Timestamp::from_millis(60_000)),
            (false, t0, dt) => {
                TimeInterval::new(Timestamp::from_millis(t0), Timestamp::from_millis(t0 + dt))
            }
        };
        let rows: Vec<Observation> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (t_ms, position))| Observation {
                id: ObservationId::compose(CameraId(0), i as u64),
                camera: CameraId(0),
                time: Timestamp::from_millis(t_ms),
                position,
                class: EntityClass::Car,
                signature: Signature::latent_for_entity(i as u64),
                truth: None,
            })
            .collect();
        let mut index = StIndex::new(config());
        index.insert_batch(rows.iter().cloned());
        index.seal_all();
        let oracle: FlatIndex = rows.into_iter().collect();
        let want: Vec<ObservationId> = oracle
            .knn(at, window, usize::MAX)
            .into_iter()
            .filter(|o| max_distance.is_none_or(|limit| at.distance(o.position) <= limit))
            .take(k)
            .map(|o| o.id)
            .collect();
        prop_assert_eq!(ids(&index.read_view().knn_within(at, window, k, max_distance)), want.clone());
        if max_distance.is_none() {
            prop_assert_eq!(ids(&index.knn(at, window, k)), want);
        }
    }
}

proptest! {
    // Each case builds a 25 000-row archive: run it in release.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn range_above_the_split_threshold_matches_the_stable_sort_oracle(
        seed in 0u64..1_000_000,
        dup_every in 1usize..64,
        region in arb_region(),
        dt in 0u64..70_000,
    ) {
        // A stream dense enough that a query over most of the extent
        // selects more sealed rows than the split threshold. Twins one
        // slice on put equal ids in consecutive segments, which the split
        // may scan on different threads: only concatenation in serial
        // order keeps the original ahead of its twin.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 3 * SPLIT_SCAN_ROWS as u64;
        let raw: Vec<RawObs> = (0..n)
            .map(|i| RawObs { t_ms: i * 60_000 / n, x: next() * EXTENT, y: next() * EXTENT })
            .collect();
        let rows = with_duplicates(spread(&raw), dup_every, 1);
        let mut index = StIndex::new(config());
        index.insert_batch(rows.iter().cloned());
        index.seal_all();
        let everything = TimeInterval::new(Timestamp::ZERO, Timestamp::from_millis(70_000));
        let wide = BBox::new(Point::new(-100.0, -100.0), Point::new(450.0, 450.0));
        prop_assert!(index.range_count(wide, everything) >= SPLIT_SCAN_ROWS, "the wide query splits");
        for (region, window) in [
            (wide, everything),
            (wide, TimeInterval::new(Timestamp::from_millis(dt / 2), Timestamp::from_millis(dt))),
            (region, TimeInterval::new(Timestamp::ZERO, Timestamp::from_millis(dt))),
        ] {
            let want = stable_oracle(&rows, region, window);
            prop_assert_eq!(index.range(region, window), want.clone());
            prop_assert_eq!(index.read_view().range(region, window), want);
        }
    }
}

proptest! {
    // One case in four builds a 25 000-row archive: run it in release.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn predicate_range_is_the_class_filtered_oracle_cut_to_the_limit(
        raw in prop::collection::vec(raw_obs(), 0..300),
        above_split in 0u8..4,
        seed in any::<u64>(),
        dup_every in 1usize..4,
        sealed in any::<bool>(),
        class in 0u8..5,
        limit in (0u8..4, 0usize..40),
        region in arb_region(),
        t0 in 0u64..70_000, dt in 0u64..60_000,
    ) {
        // Rows in the four classes, clamped in from outside the extent,
        // ids repeating within a slice; in the head and sealed tiers, or
        // all sealed; limits absent, zero, or cutting a run of one id. One case in four holds three times the split
        // threshold, so a wide region's sealed scan runs on two threads.
        let raw = if above_split == 0 {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let n = 3 * SPLIT_SCAN_ROWS as u64;
            (0..n)
                .map(|i| RawObs { t_ms: i * 60_000 / n, x: next() * EXTENT, y: next() * EXTENT })
                .collect()
        } else {
            raw
        };
        let mut rows = spread(&raw);
        for (i, o) in rows.iter_mut().enumerate() {
            o.class = EntityClass::ALL[(i as u64 ^ seed) as usize % 4];
        }
        let rows = with_duplicates(rows, dup_every, 0);
        let mut index = StIndex::new(config());
        index.insert_batch(rows.iter().cloned());
        if sealed {
            index.seal_all();
        }
        let oracle: FlatIndex = rows.into_iter().collect();
        let class = EntityClass::from_u8(class);
        let limit = (limit.0 > 0).then_some(limit.1);
        let wide = BBox::new(Point::new(-100.0, -100.0), Point::new(450.0, 450.0));
        let everything = TimeInterval::new(Timestamp::ZERO, Timestamp::from_millis(70_000));
        let window = TimeInterval::new(Timestamp::from_millis(t0), Timestamp::from_millis(t0 + dt));
        let view = index.read_view();
        // Over every row, a limit often falls between two rows of one id:
        // the one scanned first must be kept.
        for (region, window, class) in [(region, window, class), (wide, everything, class), (wide, everything, None)] {
            let predicate = Predicate { region, class };
            let want: Vec<Observation> = oracle
                .range(region, window)
                .into_iter()
                .filter(|o| class.is_none_or(|c| o.class == c))
                .take(limit.unwrap_or(usize::MAX))
                .cloned()
                .collect();
            prop_assert_eq!(view.range_where(&predicate, window, limit), want);
        }
    }
}

/// Every answer `index` gives, as the all-mutable `oracle` gives it:
/// range rows, kNN ids, heat-map, `range_count`, `len` and the rows
/// `for_each` visits.
fn assert_answers_as(
    index: &StIndex,
    oracle: &StIndex,
    queries: &[(BBox, TimeInterval, Point, usize)],
) -> Result<(), TestCaseError> {
    let all = |index: &StIndex| {
        let mut rows = Vec::new();
        index.for_each(|o| rows.push(o.clone()));
        rows.sort_by_key(|o| (o.id, o.time));
        rows
    };
    prop_assert_eq!(index.len(), oracle.len());
    prop_assert_eq!(all(index), all(oracle));
    let buckets = stcam_geo::GridSpec::covering(
        BBox::new(Point::new(0.0, 0.0), Point::new(EXTENT, EXTENT)),
        90.0,
    );
    let view = index.read_view();
    for &(region, window, at, k) in queries {
        prop_assert_eq!(index.range(region, window), oracle.range(region, window));
        prop_assert_eq!(view.range(region, window), oracle.range(region, window));
        prop_assert_eq!(
            index.range_count(region, window),
            oracle.range_count(region, window)
        );
        prop_assert_eq!(
            ids(&view.knn(at, window, k)),
            ids(&oracle.knn(at, window, k))
        );
        prop_assert_eq!(
            view.heatmap(&buckets, window),
            oracle.heatmap(&buckets, window)
        );
    }
    Ok(())
}

/// The slice groups wholly behind the head of an index whose newest slice
/// is `newest` under one head slice: each must be held as one segment.
fn assert_one_segment_per_closed_group(index: &StIndex, newest: u64) -> Result<(), TestCaseError> {
    let digests = index.segment_digests();
    for group in digests.iter().map(|d| d.number / GROUP_SLICES) {
        if (group + 1) * GROUP_SLICES - 1 < newest {
            let held = digests
                .iter()
                .filter(|d| d.number / GROUP_SLICES == group)
                .count();
            prop_assert_eq!(held, 1, "group {} is held as {} segments", group, held);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compaction_answers_as_the_unsealed_oracle(
        rows in prop::collection::vec((0u64..200_000, -60.0..EXTENT + 60.0, -60.0..EXTENT + 60.0), 1..300),
        late in prop::collection::vec((0u64..150_000, -60.0..EXTENT + 60.0, -60.0..EXTENT + 60.0), 0..40),
        spill in any::<bool>(),
        held_apart in any::<u8>(),
        evict_group in 0u64..3,
        cut in arb_region(),
        queries in prop::collection::vec(
            (arb_region(), 0u64..210_000, 0u64..120_000, arb_position(), 0usize..20),
            3,
        ),
    ) {
        // Five groups of eight 5 s slices, rows clamped in from outside
        // the extent, late rows into compacted groups, and a head slice.
        let dir = spill.then(|| {
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("stcompact-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            dir
        });
        // Every index spills into a directory of its own.
        let spills = std::cell::Cell::new(0);
        let fresh = || {
            let sealing = config().with_head_slices(1);
            StIndex::new(match &dir {
                Some(dir) => {
                    spills.set(spills.get() + 1);
                    let own = dir.join(spills.get().to_string());
                    std::fs::create_dir_all(&own).expect("temp dir");
                    sealing.with_spill_dir(own)
                }
                None => sealing,
            })
        };
        let mut index = fresh();
        let mut oracle = StIndex::new(config().without_sealing());
        let mut rows: Vec<(u64, f64, f64)> = rows;
        rows.sort_by_key(|r| r.0);
        rows.extend(late);
        // A last row at 205 s: a seal event after the late rows.
        rows.push((205_000, 1.0, 1.0));
        let rows: Vec<Observation> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (t_ms, x, y))| Observation {
                id: ObservationId::compose(CameraId(0), i as u64),
                camera: CameraId(0),
                time: Timestamp::from_millis(t_ms),
                position: Point::new(x, y),
                class: EntityClass::Car,
                signature: Signature::latent_for_entity(i as u64),
                truth: Some(EntityId(i as u64)),
            })
            .collect();
        index.insert_batch(rows.iter().cloned());
        oracle.insert_batch(rows.iter().cloned());
        let newest = 205_000 / SLICE_MS;
        let queries: Vec<(BBox, TimeInterval, Point, usize)> = queries
            .into_iter()
            .map(|(region, t0, dt, at, k)| {
                let window =
                    TimeInterval::new(Timestamp::from_millis(t0), Timestamp::from_millis(t0 + dt));
                (region, window, at, k)
            })
            .chain([(
                BBox::new(Point::new(-100.0, -100.0), Point::new(EXTENT + 100.0, EXTENT + 100.0)),
                TimeInterval::new(Timestamp::ZERO, Timestamp::from_millis(210_000)),
                Point::new(EXTENT / 2.0, EXTENT / 2.0),
                7,
            )])
            .collect();
        prop_assert!(index.stats().sealed_segments > 0);
        assert_one_segment_per_closed_group(&index, newest)?;
        assert_answers_as(&index, &oracle, &queries)?;

        // Retention at every slice boundary inside one group.
        for slice in 1..GROUP_SLICES {
            let cutoff = Timestamp::from_millis((evict_group * GROUP_SLICES + slice) * SLICE_MS);
            index.evict_before(cutoff);
            oracle.evict_before(cutoff);
            assert_answers_as(&index, &oracle, &queries)?;
            let stats = index.stats();
            prop_assert_eq!(stats.slices, oracle.stats().slices);
            prop_assert_eq!(stats.oldest, oracle.stats().oldest);
            prop_assert_eq!(stats.newest, oracle.stats().newest);
        }

        // Rebalancing's extraction.
        prop_assert_eq!(index.extract_range(cut), oracle.extract_range(cut));
        assert_answers_as(&index, &oracle, &queries)?;

        // A bulk sync into an empty index holds digest-equal segments.
        let everything = BBox::new(Point::new(-1e12, -1e12), Point::new(1e12, 1e12));
        let (frames, head) = index.export_segments(everything);
        let mut copy = fresh();
        for frame in &frames {
            let bytes = stcam_codec::encode_to_vec(frame);
            let frame: stcam_codec::SegmentFrame =
                stcam_codec::decode_from_slice(&bytes).expect("frame decodes");
            prop_assert!(copy.install_segment(SealedSegment::from_frame(frame).expect("frame verifies")));
        }
        copy.insert_batch(head);
        prop_assert_eq!(copy.segment_digests(), index.segment_digests());
        assert_answers_as(&copy, &oracle, &queries)?;

        // One slice's frames of every closed group, into the copy that
        // holds the group compacted: nothing changes. And the group's
        // frames into a copy holding some of its slices apart, as a
        // retried ship whose first chunks landed leaves it: the copy ends
        // holding the group as the sender does, each row once.
        for group in 0..newest / GROUP_SLICES {
            if (group + 1) * GROUP_SLICES > newest {
                continue;
            }
            let mut slices = fresh();
            let mut apart = fresh();
            let mut group_oracle = StIndex::new(config().without_sealing());
            index.for_each(|o| {
                let slice = o.time.as_millis() / SLICE_MS;
                if slice / GROUP_SLICES == group {
                    slices.insert(o.clone());
                    group_oracle.insert(o.clone());
                    if held_apart >> (slice % GROUP_SLICES) & 1 == 1 {
                        apart.insert(o.clone());
                    }
                }
            });
            slices.seal_all();
            apart.seal_all();
            for frame in frames.iter().filter(|f| f.number / GROUP_SLICES == group) {
                let segment = SealedSegment::from_frame(frame.clone()).expect("frame verifies");
                apart.install_segment(segment);
            }
            let of_group = |index: &StIndex| -> Vec<SegmentDigest> {
                let mut digests = index.segment_digests();
                digests.retain(|d| d.number / GROUP_SLICES == group);
                digests
            };
            prop_assert_eq!(of_group(&apart), of_group(&index));
            assert_answers_as(&apart, &group_oracle, &queries)?;
            let (frames, head) = slices.export_segments(everything);
            prop_assert!(head.is_empty());
            for frame in frames {
                prop_assert_eq!(frame.number, frame.window.start().as_millis() / SLICE_MS);
                prop_assert!(!copy.install_segment(SealedSegment::from_frame(frame).expect("frame verifies")));
            }
        }
        prop_assert_eq!(copy.segment_digests(), index.segment_digests());
        assert_one_segment_per_closed_group(&copy, newest)?;
        assert_answers_as(&copy, &oracle, &queries)?;

        drop((index, copy));
        if let Some(dir) = dir {
            for own in std::fs::read_dir(&dir).expect("spill dir") {
                let own = own.expect("spill dir entry").path();
                prop_assert_eq!(std::fs::read_dir(&own).expect("spill dir").count(), 0);
                let _ = std::fs::remove_dir(&own);
            }
            let _ = std::fs::remove_dir(&dir);
        }
    }
}
