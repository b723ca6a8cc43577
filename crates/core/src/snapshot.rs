//! Archive snapshots: export the cluster's observation archive to a
//! self-describing byte stream and import it into another cluster.
//!
//! The format is a sequence of CRC-protected frames (see
//! [`stcam_codec::frame`]), each containing one columnar observation
//! batch ([`ObservationBatch`]), the layout rows travel in on the wire.
//! Corruption anywhere in the stream is detected by the frame checksums
//! rather than silently mis-decoded.
//!
//! Used operationally for backup/restore and for moving an archive
//! between deployments (e.g. into a larger cluster).

use bytes::BytesMut;
use stcam_camnet::ObservationBatch;
use stcam_codec::{decode_from_slice, encode_to_vec, frame};
use stcam_geo::TimeInterval;

use crate::cluster::Cluster;
use crate::error::StcamError;

/// Observations per frame in exported archives.
const BATCH: usize = 1_000;

/// Exports every observation in `region` of the cluster over all retained
/// time to a framed byte stream.
///
/// # Errors
///
/// Propagates query failures.
pub fn export_archive(cluster: &Cluster, region: stcam_geo::BBox) -> Result<Vec<u8>, StcamError> {
    let observations = cluster.range_query(region, TimeInterval::ALL)?;
    let mut out = BytesMut::new();
    for batch in observations.chunks(BATCH) {
        frame::write_frame(&mut out, &encode_to_vec(&ObservationBatch(batch.to_vec())));
    }
    Ok(out.to_vec())
}

/// Imports a framed archive (as produced by [`export_archive`]) into the
/// cluster, returning the number of observations ingested. The caller
/// should [`flush`](Cluster::flush) before querying.
///
/// # Errors
///
/// Returns a codec error on any corrupted or truncated frame (nothing
/// after the corruption point is ingested; frames before it already
/// were), and propagates ingest failures.
pub fn import_archive(cluster: &Cluster, bytes: &[u8]) -> Result<usize, StcamError> {
    let mut buf = BytesMut::from(bytes);
    let mut total = 0usize;
    loop {
        match frame::read_frame(&mut buf)? {
            Some(payload) => {
                let ObservationBatch(batch) = decode_from_slice(&payload)?;
                total += cluster.ingest(batch)?;
            }
            None if buf.is_empty() => return Ok(total),
            None => {
                return Err(StcamError::Codec(stcam_codec::DecodeError::UnexpectedEnd {
                    context: "archive frame",
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
    use stcam_geo::{BBox, Point, Timestamp};
    use stcam_net::LinkModel;
    use stcam_world::{EntityClass, EntityId};

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0))
    }

    fn launch(workers: usize) -> Cluster {
        Cluster::launch(
            ClusterConfig::new(extent(), workers)
                .with_replication(0)
                .with_link(LinkModel::instant()),
        )
        .expect("launch")
    }

    fn batch(n: u64) -> Vec<Observation> {
        (0..n)
            .map(|i| Observation {
                id: ObservationId::compose(CameraId(0), i),
                camera: CameraId(0),
                time: Timestamp::from_millis((i % 60) * 1000),
                position: Point::new((i as f64 * 37.0) % 1000.0, (i as f64 * 53.0) % 1000.0),
                class: EntityClass::Car,
                signature: Signature::latent_for_entity(i),
                truth: Some(EntityId(i)),
            })
            .collect()
    }

    #[test]
    fn export_import_round_trip_between_clusters() {
        let source = launch(3);
        source.ingest(batch(2_500)).unwrap();
        source.flush().unwrap();
        let bytes = export_archive(&source, extent()).unwrap();
        assert!(bytes.len() > 100_000, "archive suspiciously small");
        source.shutdown();

        // Restore into a differently sized cluster.
        let target = launch(5);
        let imported = import_archive(&target, &bytes).unwrap();
        assert_eq!(imported, 2_500);
        target.flush().unwrap();
        let held = target.range_query(extent(), TimeInterval::ALL).unwrap();
        assert_eq!(held.len(), 2_500);
        target.shutdown();
    }

    #[test]
    fn corrupted_archive_is_detected() {
        let source = launch(2);
        source.ingest(batch(1_200)).unwrap();
        source.flush().unwrap();
        let mut bytes = export_archive(&source, extent()).unwrap();
        source.shutdown();
        // Flip a byte in the middle of the second frame's payload.
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0x40;
        let target = launch(2);
        assert!(matches!(
            import_archive(&target, &bytes),
            Err(StcamError::Codec(_))
        ));
        target.shutdown();
    }

    #[test]
    fn truncated_archive_is_detected() {
        let source = launch(2);
        source.ingest(batch(1_200)).unwrap();
        source.flush().unwrap();
        let bytes = export_archive(&source, extent()).unwrap();
        source.shutdown();
        let target = launch(2);
        assert!(matches!(
            import_archive(&target, &bytes[..bytes.len() - 10]),
            Err(StcamError::Codec(_))
        ));
        target.shutdown();
    }

    #[test]
    fn empty_archive_round_trips() {
        let source = launch(2);
        let bytes = export_archive(&source, extent()).unwrap();
        assert!(bytes.is_empty());
        source.shutdown();
        let target = launch(2);
        assert_eq!(import_archive(&target, &bytes).unwrap(), 0);
        target.shutdown();
    }

    #[test]
    fn regional_export_filters_by_region() {
        let source = launch(3);
        source.ingest(batch(1_000)).unwrap();
        source.flush().unwrap();
        let half = BBox::new(Point::new(0.0, 0.0), Point::new(500.0, 1000.0));
        let bytes = export_archive(&source, half).unwrap();
        let expected = source.range_query(half, TimeInterval::ALL).unwrap().len();
        source.shutdown();
        let target = launch(3);
        assert_eq!(import_archive(&target, &bytes).unwrap(), expected);
        target.shutdown();
    }
}
