//! Property-based tests for the camera-network layer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam_camnet::batch::{decode_batch, encode_batch};
use stcam_camnet::{
    decode_batch_filtered, decode_batch_into, scan_batch_keys, Camera, CameraId, CameraNetwork,
    Observation, ObservationId, Signature, TransitionModel, SIGNATURE_DIM,
};
use stcam_codec::DecodeError;
use stcam_geo::{BBox, Duration, Point, Timestamp};
use stcam_world::{EntityClass, EntityId, RoadNetwork};

/// A batch in one of the shapes the frame has to carry: `size` 0 and 1
/// are the 1- and 2-row blocks the stream seals, 2 a 500-row ingest
/// batch; positions on the 1/1024 m grid (`fixed`) or not; signatures
/// present or all zero (projected away); `truth` 0 none, 1 all, 2 mixed.
fn batch(seed: u64, size: u8, fixed: bool, signatures: bool, truth: u8) -> Vec<Observation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = [1, 2, 500][size as usize % 3];
    let mut camera = rng.gen_range(0u32..5_000);
    let mut seq = rng.gen_range(0u64..1 << 30);
    let mut ms = rng.gen_range(0u64..1 << 40);
    (0..n)
        .map(|i| {
            if rng.gen_bool(0.2) {
                camera = rng.gen_range(0u32..5_000);
            }
            seq += rng.gen_range(1u64..4);
            ms = ms.wrapping_add_signed(rng.gen_range(-50i64..400));
            let coordinate = |rng: &mut StdRng| {
                if fixed {
                    rng.gen_range(-(1i64 << 32)..1 << 32) as f64 / 1024.0
                } else {
                    rng.gen_range(-1e4..1e4) + 0.1
                }
            };
            let position = Point::new(coordinate(&mut rng), coordinate(&mut rng));
            let entity = EntityId(seq.wrapping_add_signed(rng.gen_range(-1000i64..1000)));
            Observation {
                id: ObservationId::compose(CameraId(camera), seq),
                camera: CameraId(camera),
                time: Timestamp::from_millis(ms),
                position,
                class: EntityClass::ALL[rng.gen_range(0usize..4)],
                signature: if signatures {
                    Signature::latent_for_entity(rng.gen())
                } else {
                    Signature::new([0.0; SIGNATURE_DIM])
                },
                truth: match truth % 3 {
                    0 => None,
                    1 => Some(entity),
                    _ => (i % 3 != 0 && rng.gen_bool(0.7)).then_some(entity),
                },
            }
        })
        .collect()
}

fn encoded(rows: &[Observation]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_batch(rows, &mut bytes);
    bytes
}

/// Feeds `bytes` to the three batch-frame decoders: each must return
/// (never panic), and on error leave `out` no longer than it was.
fn decoders_survive(bytes: &[u8]) -> Result<(), TestCaseError> {
    let prefix = vec![batch(1, 0, true, true, 1)[0].clone()];
    let mut out = prefix.clone();
    if decode_batch_into(&mut &bytes[..], &mut out).is_err() {
        prop_assert!(out.len() <= prefix.len() + bytes.len());
        prop_assert_eq!(&out, &prefix);
    }
    let mut out = prefix.clone();
    let mut calls = 0;
    let filtered = decode_batch_filtered(
        &mut &bytes[..],
        |_, t, _, _| {
            calls += 1;
            t.as_millis() % 2 == 0
        },
        &mut out,
    );
    match filtered {
        Ok(n) => {
            prop_assert!(calls == n && out.len() <= prefix.len() + n);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        }
        Err(_) => prop_assert_eq!(&out, &prefix),
    }
    let mut visits = 0;
    if let Ok(n) = scan_batch_keys(&mut &bytes[..], |_, _| visits += 1) {
        prop_assert_eq!(visits, n);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn camera_sees_implies_within_range_and_bbox(
        cx in -1000.0..1000.0f64, cy in -1000.0..1000.0f64,
        heading in -4.0..4.0f64,
        fov in 0.2..3.0f64,
        range in 10.0..500.0f64,
        px in -2000.0..2000.0f64, py in -2000.0..2000.0f64,
    ) {
        let cam = Camera::new(CameraId(0), Point::new(cx, cy), heading, fov, range);
        let p = Point::new(px, py);
        if cam.sees(p) {
            prop_assert!(cam.position().distance(p) <= range + 1e-9);
            prop_assert!(cam.coverage_bbox().inflated(1e-6).contains(p));
        }
    }

    #[test]
    fn coverage_polygon_is_subset_of_sees(
        heading in -4.0..4.0f64,
        fov in 0.2..3.0f64,
        range in 10.0..500.0f64,
        px in -600.0..600.0f64, py in -600.0..600.0f64,
    ) {
        // The tessellated polygon inscribes the true sector, so polygon
        // containment must imply analytic visibility.
        let cam = Camera::new(CameraId(0), Point::ORIGIN, heading, fov, range);
        let p = Point::new(px, py);
        if cam.coverage().contains(p) {
            prop_assert!(cam.sees(p));
        }
    }

    #[test]
    fn network_coverage_lookup_matches_scan(
        n_cams in 1usize..40,
        seed in any::<u64>(),
        px in -100.0..2100.0f64, py in -100.0..2100.0f64,
    ) {
        let roads = RoadNetwork::grid(
            BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0)),
            200.0,
        );
        let net = CameraNetwork::deploy_on_roads(&roads, n_cams, seed);
        let p = Point::new(px, py);
        let mut via_lookup = net.cameras_covering(p);
        via_lookup.sort();
        let mut via_scan: Vec<CameraId> = net
            .cameras()
            .filter(|c| c.sees(p))
            .map(Camera::id)
            .collect();
        via_scan.sort();
        prop_assert_eq!(via_lookup, via_scan);
    }

    #[test]
    fn transition_windows_monotone_in_distance(
        n_cams in 10usize..60,
        seed in any::<u64>(),
    ) {
        let roads = RoadNetwork::grid(
            BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0)),
            200.0,
        );
        let net = CameraNetwork::deploy_on_roads(&roads, n_cams, seed);
        let model = TransitionModel::from_network(&net, &roads);
        // For any adjacent pair: windows are valid and the upper bound
        // grows with measured distance for a fixed class.
        let mut pairs: Vec<(f64, Duration)> = Vec::new();
        for cam in net.cameras() {
            for &other in net.adjacent(cam.id()) {
                if let (Some(d), Some((min, max))) = (
                    model.distance(cam.id(), other),
                    model.window(cam.id(), other, EntityClass::Car),
                ) {
                    prop_assert!(min <= max);
                    prop_assert!(d > 0.0);
                    pairs.push((d, max));
                }
            }
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "window shrank with distance");
        }
    }

    #[test]
    fn signature_distance_is_a_metric(
        a in 0u64..10_000, b in 0u64..10_000, c in 0u64..10_000,
    ) {
        let sa = Signature::latent_for_entity(a);
        let sb = Signature::latent_for_entity(b);
        let sc = Signature::latent_for_entity(c);
        prop_assert_eq!(sa.distance(&sb), sb.distance(&sa));
        prop_assert!(sa.distance(&sa) == 0.0);
        prop_assert!(sa.distance(&sc) <= sa.distance(&sb) + sb.distance(&sc) + 1e-5);
        if a != b {
            prop_assert!(sa.distance(&sb) > 0.0);
        }
    }

    #[test]
    fn batch_frame_round_trips_exactly(
        seed in any::<u64>(), size in 0u8..3, fixed in any::<bool>(),
        signatures in any::<bool>(), truth in 0u8..3,
    ) {
        let rows = batch(seed, size, fixed, signatures, truth);
        let bytes = encoded(&rows);
        let mut slice = &bytes[..];
        prop_assert_eq!(decode_batch(&mut slice).expect("decode"), rows);
        prop_assert!(slice.is_empty(), "frame not consumed");
    }

    #[test]
    fn filtered_decode_is_decode_then_retain(
        seed in any::<u64>(), size in 0u8..3, fixed in any::<bool>(),
        signatures in any::<bool>(), truth in 0u8..3, cut in 0u64..4,
    ) {
        let rows = batch(seed, size, fixed, signatures, truth);
        let bytes = encoded(&rows);
        // Drops about a quarter per step of `cut`, by id, time, place and
        // class: `keep` sees each row's own key columns.
        let keep = |id: ObservationId, t: Timestamp, p: Point, c: EntityClass| {
            (id.0 ^ t.as_millis() ^ p.x.to_bits() ^ u64::from(c.as_u8())) % 4 >= cut
        };
        let mut expected = vec![batch(seed ^ 1, 0, true, true, 1)[0].clone()];
        let mut out = expected.clone();
        decode_batch_into(&mut &bytes[..], &mut expected).expect("decode");
        let mut rank = 0;
        expected.retain(|o| {
            rank += 1;
            rank == 1 || keep(o.id, o.time, o.position, o.class)
        });
        let mut calls = 0;
        let mut slice = &bytes[..];
        let n = decode_batch_filtered(&mut slice, |id, t, p, c| { calls += 1; keep(id, t, p, c) }, &mut out)
            .expect("decode");
        prop_assert_eq!(n, rows.len());
        prop_assert_eq!(calls, rows.len());
        prop_assert!(slice.is_empty(), "frame not consumed");
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn key_scan_visits_every_row_in_order(
        seed in any::<u64>(), size in 0u8..3, fixed in any::<bool>(),
        signatures in any::<bool>(), truth in 0u8..3,
    ) {
        let rows = batch(seed, size, fixed, signatures, truth);
        let bytes = encoded(&rows);
        let mut visited = Vec::new();
        let mut slice = &bytes[..];
        let n = scan_batch_keys(&mut slice, |t, p| visited.push((t, p))).expect("scan");
        prop_assert_eq!(n, rows.len());
        prop_assert!(slice.is_empty(), "frame not consumed");
        let keys: Vec<(Timestamp, Point)> = rows.iter().map(|o| (o.time, o.position)).collect();
        prop_assert_eq!(visited, keys);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_batch_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        decoders_survive(&bytes)?;
    }

    #[test]
    fn mutated_frames_never_panic_the_batch_decoders(
        seed in any::<u64>(), size in 0u8..3, fixed in any::<bool>(),
        signatures in any::<bool>(), truth in 0u8..3, edits in 1usize..5,
    ) {
        let mut bytes = encoded(&batch(seed, size, fixed, signatures, truth));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for _ in 0..edits {
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0u8..4) {
                0 => bytes[at] ^= 1 << rng.gen_range(0u32..8),
                1 => bytes[at] = rng.gen::<u32>() as u8,
                2 => bytes.truncate(at.max(1)),
                _ => bytes.insert(at, rng.gen::<u32>() as u8),
            }
        }
        decoders_survive(&bytes)?;
    }
}

#[test]
fn hostile_counts_are_typed_errors() {
    // 2^24 + 1 rows declared, and 2^24 rows declared over three bytes.
    for bytes in [
        &[0x81, 0x80, 0x80, 0x08][..],
        &[0x80, 0x80, 0x80, 0x08, 0, 1, 2][..],
    ] {
        let mut out = Vec::new();
        let err = decode_batch_into(&mut &bytes[..], &mut out).expect_err("hostile count");
        assert!(matches!(
            err,
            DecodeError::LengthOverflow { .. } | DecodeError::UnexpectedEnd { .. }
        ));
        assert!(out.is_empty());
    }
}
