//! Property-based tests for the framework's pure components: the wire
//! protocol never panics on hostile bytes and round-trips every message;
//! the partition map upholds its invariants for arbitrary geometry, ring
//! sizes and load profiles.

use proptest::prelude::*;
use stcam::{
    CensusRegistration, CensusReport, DigestEntry, DigestReport, PartitionMap, Predicate,
    ReplicaDigestEntry, Request, Response, WorkerStatsMsg,
};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_net::NodeId;
use stcam_world::{EntityClass, EntityId};

fn arb_region() -> impl Strategy<Value = BBox> {
    (
        0.0..4000.0f64,
        0.0..4000.0f64,
        1.0..2000.0f64,
        1.0..2000.0f64,
    )
        .prop_map(|(x, y, w, h)| BBox::new(Point::new(x, y), Point::new(x + w, y + h)))
}

fn arb_window() -> impl Strategy<Value = TimeInterval> {
    (0u64..100_000, 0u64..100_000).prop_map(|(a, d)| {
        TimeInterval::new(Timestamp::from_millis(a), Timestamp::from_millis(a + d))
    })
}

fn arb_observation() -> impl Strategy<Value = Observation> {
    (
        0u32..1_000,
        0u64..1_000_000,
        0u64..100_000,
        0.0..4000.0f64,
        0.0..4000.0f64,
        0u8..4,
        proptest::option::of(0u64..1_000_000),
    )
        .prop_map(|(cam, seq, t, x, y, class, truth)| Observation {
            id: ObservationId::compose(CameraId(cam), seq),
            camera: CameraId(cam),
            time: Timestamp::from_millis(t),
            position: Point::new(x, y),
            class: EntityClass::from_u8(class).expect("class"),
            signature: Signature::latent_for_entity(seq),
            truth: truth.map(EntityId),
        })
}

fn arb_buckets() -> impl Strategy<Value = GridSpec> {
    (
        0.0..1000.0f64,
        0.0..1000.0f64,
        1.0..500.0f64,
        1u32..64,
        1u32..64,
    )
        .prop_map(|(x, y, cell_size, cols, rows)| {
            GridSpec::new(Point::new(x, y), cell_size, cols, rows)
        })
}

/// `(tag, name)` pairs as a set, to hold a list of values against the
/// `VARIANTS` its declaration generates.
fn sorted(mut variants: Vec<(u8, &'static str)>) -> Vec<(u8, &'static str)> {
    variants.sort_unstable();
    variants.dedup();
    variants
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn protocol_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_from_slice::<Request>(&bytes);
        let _ = decode_from_slice::<Response>(&bytes);
        let _ = decode_from_slice::<stcam::Notification>(&bytes);
    }

    #[test]
    fn protocol_truncation_never_panics(region in arb_region(), window in arb_window(), cut in any::<prop::sample::Index>()) {
        // Every prefix of a valid message either fails cleanly or (never)
        // succeeds as a different value; it must not panic.
        let bytes = encode_to_vec(&Request::Range { region, window, limit: 0, projection: 0 });
        let cut = cut.index(bytes.len() + 1).min(bytes.len());
        let _ = decode_from_slice::<Request>(&bytes[..cut]);
    }

    #[test]
    fn requests_round_trip(
        region in arb_region(),
        window in arb_window(),
        buckets in arb_buckets(),
        batch in prop::collection::vec(arb_observation(), 0..8),
        k in 0u32..1000,
        class in 0u8..4,
        node in 0u32..100,
        cutoff in 0u64..1_000_000,
        max_distance in proptest::option::of(0.0..10_000.0f64),
        seq in any::<u64>(),
        epoch in any::<u64>(),
        cells in prop::collection::vec(0u32..4096, 0..32),
        limit in any::<u32>(),
        projection in 0u8..2,
    ) {
        let class = EntityClass::from_u8(class).expect("class");
        // Every Request variant the protocol defines.
        let requests = [
            Request::Ping,
            Request::IngestSeq { epoch, batch: batch.clone() },
            Request::ReplicateSeq { primary: NodeId(node), epoch, batch: batch.clone() },
            Request::RouteUpdate { epoch, grid: buckets, cells: cells.clone() },
            Request::Range { region, window, limit, projection },
            Request::Knn { at: region.center(), window, k, max_distance },
            Request::Heatmap { buckets, window },
            Request::RegisterContinuous {
                id: stcam::ContinuousQueryId(k as u64),
                predicate: Predicate { region, class: Some(class) },
            },
            Request::UnregisterContinuous(stcam::ContinuousQueryId(k as u64)),
            Request::Stats,
            Request::EvictBefore { cutoff: Timestamp::from_millis(cutoff), epoch },
            Request::Promote { failed: NodeId(node), epoch },
            Request::RangeFiltered { region, window, class, limit, projection },
            Request::ReplicaRead {
                of: NodeId(node),
                inner: Box::new(Request::Range { region, window, limit, projection }),
            },
            Request::CellDigest { grid: buckets },
            Request::Rejoin { epoch, grid: buckets, cells },
            Request::ExportSegments { region },
            Request::InstallSegments {
                primary: NodeId(node),
                grid: buckets,
                cell: k,
                truncate: k % 2 == 0,
                frames: vec![],
                head: batch.clone(),
            },
            Request::FetchPage { cursor: seq, page: k },
            Request::Census,
        ];
        // Each round-trips exactly, and the list is the declaration's.
        let mut seen = Vec::new();
        for request in requests {
            let bytes = encode_to_vec(&request);
            seen.push((bytes[0], request.op_name()));
            prop_assert_eq!(decode_from_slice::<Request>(&bytes).unwrap(), request);
        }
        prop_assert_eq!(sorted(seen), sorted(Request::VARIANTS.to_vec()), "a Request variant is not listed");
    }

    #[test]
    fn responses_round_trip(
        batch in prop::collection::vec(arb_observation(), 0..8),
        cells in prop::collection::vec((0u32..4096, 0u64..1_000_000), 0..32),
        served in prop::collection::vec(("[a-z_]{1,20}", 0u64..1_000), 0..6),
        scalars in prop::collection::vec(0u64..1_000_000, 7),
        newest in proptest::option::of(0u64..1_000_000),
        error in "[ -~]{0,64}",
        seq in any::<u64>(),
        epoch in any::<u64>(),
        accepted in any::<u32>(),
        pages in 1u32..64,
        page_kind in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        buckets in arb_buckets(),
        region in arb_region(),
    ) {
        let stats = WorkerStatsMsg {
            primary_observations: scalars[0],
            replica_observations: scalars[1],
            notifications_sent: scalars[2],
            continuous_queries: scalars[3],
            busy_micros: scalars[4],
            resident_bytes: scalars[5],
            sealed_segments: scalars[6],
            newest_ms: newest,
            served,
        };
        // Every Response variant the protocol defines.
        let misrouted: Vec<ObservationId> = batch.iter().map(|o| o.id).collect();
        let digests = DigestReport {
            primary: cells
                .iter()
                .map(|&(cell, checksum)| DigestEntry {
                    cell,
                    count: cell,
                    checksum,
                })
                .collect(),
            replicas: cells
                .iter()
                .map(|&(cell, checksum)| ReplicaDigestEntry {
                    primary: NodeId(cell),
                    cell,
                    count: cell,
                    checksum,
                })
                .collect(),
        };
        let responses = [
            Response::Ack,
            Response::Observations(batch.clone()),
            Response::Stats(stats),
            Response::Error(error),
            Response::CellCounts(cells.clone()),
            Response::Ingested {
                epoch,
                misrouted,
                matches: vec![stcam::Notification {
                    query: stcam::ContinuousQueryId(seq),
                    matches: batch,
                }],
            },
            Response::Digests(digests),
            Response::Segments { frames: vec![], head: vec![] },
            Response::ResultPage {
                cursor: seq,
                page: accepted % pages,
                pages,
                kind: page_kind,
                payload,
            },
            Response::Census(CensusReport::default()),
            Response::Census(CensusReport {
                epoch,
                grid: Some(buckets),
                cells: cells.iter().map(|&(cell, _)| cell).collect(),
                replica_of: cells.iter().map(|&(cell, _)| NodeId(cell)).collect(),
                registrations: vec![CensusRegistration {
                    id: stcam::ContinuousQueryId(seq),
                    predicate: Predicate { region, class: None },
                }],
            }),
        ];
        let mut seen = Vec::new();
        for response in responses {
            let bytes = encode_to_vec(&response);
            seen.push((bytes[0], response.op_name()));
            prop_assert_eq!(decode_from_slice::<Response>(&bytes).unwrap(), response);
        }
        prop_assert_eq!(sorted(seen), sorted(Response::VARIANTS.to_vec()), "a Response variant is not listed");
    }

    #[test]
    fn partition_ownership_is_total_and_consistent(
        side in 400.0..10_000.0f64,
        cell in 50.0..2_000.0f64,
        n_workers in 1usize..24,
        px in -2_000.0..12_000.0f64,
        py in -2_000.0..12_000.0f64,
    ) {
        prop_assume!(side / cell >= 1.0);
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(side, side));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::uniform(extent, cell, workers.clone());
        // Every point (even far outside) routes to a member.
        let owner = map.owner_of(Point::new(px, py));
        prop_assert!(workers.contains(&owner));
        // Cells partition exactly: each cell owned once, union = all.
        let total: usize = workers.iter().map(|&w| map.cells_of(w).len()).sum();
        prop_assert_eq!(total as u64, map.grid().cell_count());
    }

    #[test]
    fn partition_load_aware_never_starves_and_beats_worst_case(
        n_workers in 2usize..12,
        loads in prop::collection::vec(0u64..10_000, 64),
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(800.0, 800.0));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::load_aware(extent, 100.0, workers.clone(), &loads);
        for &w in &workers {
            prop_assert!(!map.cells_of(w).is_empty(), "worker {} starved", w);
        }
        // The imbalance can never be worse than "all load on one worker".
        let imbalance = map.imbalance(&loads);
        prop_assert!(imbalance <= n_workers as f64 + 1e-9);
        prop_assert!(imbalance >= 1.0 - 1e-9);
    }

    #[test]
    fn partition_region_fanout_is_minimal_and_sufficient(
        region in arb_region(),
        n_workers in 1usize..16,
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(8_000.0, 8_000.0));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::uniform(extent, 500.0, workers);
        let fanout = map.workers_for_region(region);
        // Sufficient: the owner of every overlapping cell is contacted.
        for c in map.grid().cells_overlapping(region) {
            prop_assert!(fanout.contains(&map.owner_of_cell(c)));
        }
        // Minimal: every contacted worker owns at least one overlapping cell.
        for &w in &fanout {
            let touches = map
                .cells_of(w)
                .iter()
                .any(|&c| map.grid().cell_bbox(c).intersects(&region));
            prop_assert!(touches, "{} contacted needlessly", w);
        }
    }

    #[test]
    fn partition_successors_are_distinct_members(
        n_workers in 1usize..16,
        r in 0usize..20,
        idx in any::<prop::sample::Index>(),
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::uniform(extent, 250.0, workers.clone());
        let me = workers[idx.index(workers.len())];
        let succ = map.successors(me, r);
        prop_assert!(succ.len() <= r.min(n_workers - 1));
        let mut seen = std::collections::HashSet::new();
        for s in &succ {
            prop_assert!(*s != me, "successor equals self");
            prop_assert!(workers.contains(s));
            prop_assert!(seen.insert(*s), "duplicate successor");
        }
    }

    #[test]
    fn routing_regions_tile_the_plane(
        n_workers in 1usize..8,
        px in -500.0..1500.0f64,
        py in -500.0..1500.0f64,
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
        let map = PartitionMap::uniform(extent, 250.0, workers);
        let p = Point::new(px, py);
        let containing: Vec<_> = map
            .grid()
            .all_cells()
            .filter(|&c| {
                let packed = c.row * map.grid().cols() + c.col;
                stcam_index::cell_scope(map.grid(), packed).contains(p)
            })
            .collect();
        prop_assert_eq!(containing.len(), 1, "point {} in {} regions", p, containing.len());
        prop_assert_eq!(containing[0], map.grid().cell_of_clamped(p));
    }
}

/// A standing-query registration for the interest-index equivalence
/// property: id and predicate.
fn arb_registration() -> impl Strategy<Value = (u64, Predicate)> {
    (0u64..32, arb_region(), proptest::option::of(0u8..4)).prop_map(|(id, region, class)| {
        (
            id,
            Predicate {
                region,
                class: class.map(|c| EntityClass::from_u8(c).expect("class")),
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The worker's bucketed interest index yields exactly what a linear
    /// scan of every registration would, for arbitrary predicates
    /// (including regions outside the worker extent) and arbitrary
    /// observation batches (including positions outside the extent,
    /// which clamp into edge cells). Later inserts under the same id
    /// replace earlier ones — the linear reference models that too.
    #[test]
    fn interest_index_is_equivalent_to_a_linear_scan(
        registrations in prop::collection::vec(arb_registration(), 0..24),
        batch in prop::collection::vec(arb_observation(), 0..32),
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0));
        let mut index = stcam::InterestIndex::new(extent);
        // Linear reference with last-insert-wins semantics.
        let mut reference: std::collections::BTreeMap<u64, Predicate> =
            std::collections::BTreeMap::new();
        for (id, predicate) in &registrations {
            index.insert(stcam::ContinuousQueryId(*id), *predicate);
            reference.insert(*id, *predicate);
        }
        let got = index.matching(&batch);
        let mut want = Vec::new();
        for (&id, predicate) in &reference {
            let matches: Vec<Observation> = batch
                .iter()
                .filter(|o| predicate.matches(o.position, o.class))
                .cloned()
                .collect();
            if !matches.is_empty() {
                let query = stcam::ContinuousQueryId(id);
                want.push(stcam::Notification { query, matches });
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Removing a random subset of registrations keeps the equivalence:
    /// no stale bucket entry survives a removal.
    #[test]
    fn interest_index_removal_leaves_no_stale_buckets(
        registrations in prop::collection::vec(arb_registration(), 1..24),
        drop_mask in prop::collection::vec(any::<bool>(), 24),
        batch in prop::collection::vec(arb_observation(), 0..16),
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0));
        let mut index = stcam::InterestIndex::new(extent);
        let mut reference: std::collections::BTreeMap<u64, Predicate> =
            std::collections::BTreeMap::new();
        for (id, predicate) in &registrations {
            index.insert(stcam::ContinuousQueryId(*id), *predicate);
            reference.insert(*id, *predicate);
        }
        for (i, (id, _)) in registrations.iter().enumerate() {
            if drop_mask[i % drop_mask.len()] {
                index.remove(stcam::ContinuousQueryId(*id));
                reference.remove(id);
            }
        }
        prop_assert_eq!(index.len(), reference.len());
        let got = index.matching(&batch);
        let mut want = Vec::new();
        for (&id, predicate) in &reference {
            let matches: Vec<Observation> = batch
                .iter()
                .filter(|o| predicate.matches(o.position, o.class))
                .cloned()
                .collect();
            if !matches.is_empty() {
                let query = stcam::ContinuousQueryId(id);
                want.push(stcam::Notification { query, matches });
            }
        }
        prop_assert_eq!(got, want);
    }
}

// ----------------------------------------------------------------------
// The page cutter (`stcam::paging::encode_reply`)
// ----------------------------------------------------------------------

/// A splitmix64 step: row sets are built from one seed, not drawn row by
/// row, so a 20 000-row case costs what its encodings do.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Row shapes the cutter must hold its bounds under. The first four are
/// homogeneous (every row costs about what its neighbours do).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Full rows, ids running up per camera as a stream's do.
    FullClustered,
    /// Full rows, ids anywhere in the id space.
    FullScattered,
    /// `PROJ_THIN` rows (blank signature, no truth), clustered ids.
    ThinClustered,
    /// `PROJ_THIN` rows, scattered ids.
    ThinScattered,
    /// Each row full or thin at random: one full row makes every row of
    /// its chunk carry a signature.
    Mixed,
    /// Cheap rows first (thin, unit deltas), then full rows whose id and
    /// time deltas take ten bytes each: bytes per row jump mid-set.
    CheapThenWide,
}

const SHAPES: [Shape; 6] = [
    Shape::FullClustered,
    Shape::FullScattered,
    Shape::ThinClustered,
    Shape::ThinScattered,
    Shape::Mixed,
    Shape::CheapThenWide,
];

fn rows_of(shape: Shape, n: usize, seed: u64) -> Vec<Observation> {
    let mut state = seed;
    (0..n as u64)
        .map(|i| {
            let r = mix(&mut state);
            let wide = shape == Shape::CheapThenWide && i >= n as u64 / 2;
            let scattered = matches!(shape, Shape::FullScattered | Shape::ThinScattered);
            let thin = match shape {
                Shape::ThinClustered | Shape::ThinScattered => true,
                Shape::Mixed => r & 1 == 0,
                Shape::CheapThenWide => !wide,
                _ => false,
            };
            let camera = CameraId(if scattered {
                (r >> 40) as u32 % 1_000
            } else {
                (i / 64) as u32 % 8
            });
            // A wide row's id and time alternate between the ends of
            // their ranges, so every delta is a ten-byte varint.
            let (id, time) = if wide {
                let end = if i % 2 == 0 {
                    u64::MAX - (r >> 8)
                } else {
                    r >> 8
                };
                (ObservationId(end), Timestamp::from_millis(end))
            } else if scattered {
                (
                    ObservationId::compose(camera, r >> 24),
                    Timestamp::from_millis(r >> 44),
                )
            } else {
                (
                    ObservationId::compose(camera, i),
                    Timestamp::from_millis(i * 3),
                )
            };
            Observation {
                id,
                camera,
                time,
                position: Point::new(
                    (r % 8_192_000) as f64 / 1024.0,
                    ((r >> 23) % 8_192_000) as f64 / 1024.0,
                ),
                class: EntityClass::ALL[(r >> 60) as usize % 4],
                signature: if thin {
                    Signature::new([0.0; 16])
                } else {
                    Signature::latent_for_entity(r)
                },
                truth: (!thin).then_some(EntityId(r >> 32)),
            }
        })
        .collect()
}

fn row_count(response: &Response) -> usize {
    match response {
        Response::Observations(rows) => rows.len(),
        Response::CellCounts(cells) => cells.len(),
        other => panic!("not a row-carrying response: {other:?}"),
    }
}

/// Checks one cut against the invariants `paging`'s module docs state.
fn check_cut(original: &Response, homogeneous: bool) -> Result<(), TestCaseError> {
    use stcam::paging::{self, Reply, PAGE_TARGET_BYTES};
    let frame = encode_to_vec(original);
    let rows = row_count(original);
    // The tag byte aside, the frame is the one page holding every row.
    let fits = frame.len() - 1 <= PAGE_TARGET_BYTES;
    match paging::encode_reply(original) {
        Reply::Frame(shipped) => {
            prop_assert!(
                fits || rows == 1,
                "{} bytes shipped as one frame",
                shipped.len()
            );
            prop_assert_eq!(shipped, frame);
        }
        Reply::Pages(kind, pages) => {
            prop_assert!(
                !fits,
                "a set that fits one page was cut into {}",
                pages.len()
            );
            prop_assert!(pages.len() >= 2);
            let mut answer = paging::empty_answer(kind).expect("kind");
            for (i, page) in pages.iter().enumerate() {
                let before = row_count(&answer);
                paging::append_page(&mut answer, page).expect("page decodes");
                let held = row_count(&answer) - before;
                prop_assert!(held >= 1, "page {i} is empty");
                prop_assert!(
                    page.len() <= PAGE_TARGET_BYTES || held == 1,
                    "page {i}: {} bytes for {held} rows",
                    page.len()
                );
                if homogeneous && i + 1 < pages.len() {
                    prop_assert!(
                        page.len() * 100 >= PAGE_TARGET_BYTES * 85,
                        "page {i} of {} is {} bytes, under 85 % full",
                        pages.len(),
                        page.len()
                    );
                }
            }
            prop_assert!(&answer == original, "decoded pages differ from the input");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Observation sets of 0–20 000 rows in every shape: each page within
    /// the bound unless it is one row, pages decode back to the input in
    /// order, homogeneous sets fill every page but the last, and a set
    /// that fits one page ships as its own frame. A quarter of the cases
    /// are sized around the one-page threshold.
    #[test]
    fn observation_pages_hold_their_bounds(
        n in 0usize..20_000,
        near_threshold in 0u8..4,
        shape in 0usize..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        let shape = SHAPES[shape];
        let thin = matches!(shape, Shape::ThinClustered | Shape::ThinScattered);
        let n = if near_threshold == 0 { n % if thin { 6_000 } else { 1_500 } } else { n };
        let homogeneous = !matches!(shape, Shape::Mixed | Shape::CheapThenWide);
        check_cut(&Response::Observations(rows_of(shape, n, seed)), homogeneous)?;
    }

    /// The same rule for sparse counts, dense and scattered indices.
    #[test]
    fn cell_count_pages_hold_their_bounds(
        n in 0usize..60_000,
        stride in 1u32..70_000,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let cells = (0..n as u32)
            .map(|i| (i.wrapping_mul(stride), mix(&mut state) >> (state % 64)))
            .collect();
        check_cut(&Response::CellCounts(cells), true)?;
    }
}
