//! Paged result streaming for oversize responses.
//!
//! A worker whose read produces a result larger than
//! [`PAGE_TARGET_BYTES`] does not ship it as one frame. Instead it splits
//! the rows into pages ([`pages_for`]), parks pages `1..` under a cursor,
//! and answers with [`Response::ResultPage`] page 0. The client pulls the
//! remaining pages with [`Request::FetchPage`](crate::Request::FetchPage)
//! and reassembles ([`reassemble`]). Invariants:
//!
//! * **Bounded frames.** Every page's encoded payload is at most
//!   [`PAGE_TARGET_BYTES`] (or holds a single row that alone exceeds it);
//!   with envelope and header overhead no response frame exceeds
//!   [`PAGE_MAX_BYTES`] for realistic row sizes. Neither side ever
//!   materialises a multi-megabyte message.
//! * **Standalone pages.** Each page payload is a complete encoding of
//!   its rows (a `stcam-camnet` batch frame for observations, a plain
//!   pair list for sparse counts), so pages decode independently, pulls
//!   are idempotent, and the usual timeout/retry machinery needs no
//!   special case.
//! * **Order-preserving.** Concatenating the pages' rows in page order
//!   reproduces the original response exactly.

use bytes::Buf;
use stcam_camnet::{batch, Observation};
use stcam_codec::{decode_from_slice, DecodeError};

use crate::protocol::Response;

/// Soft page bound: a page's encoded payload only exceeds this when a
/// single row does on its own.
pub const PAGE_TARGET_BYTES: usize = 56 * 1024;

/// Hard frame bound the communication experiment gates on: page payload
/// plus response header and fabric envelope overhead stays under this.
pub const PAGE_MAX_BYTES: usize = 64 * 1024;

/// Page kind: the payload is a `stcam-camnet` batch frame of
/// observations.
pub const PAGE_OBSERVATIONS: u8 = 0;

/// Page kind: the payload is a sparse `(bucket index, count)` pair list.
pub const PAGE_CELL_COUNTS: u8 = 1;

/// Splits `resp` into pages when it is a pageable kind whose rows do not
/// fit a single page. Returns `None` when the response should ship as a
/// plain frame: non-row-carrying kinds, and row sets that encode within
/// [`PAGE_TARGET_BYTES`].
pub fn pages_for(resp: &Response) -> Option<(u8, Vec<Vec<u8>>)> {
    let (kind, pages) = match resp {
        Response::Observations(rows) => {
            let mut pages = Vec::new();
            chunk_observations(rows, &mut pages);
            (PAGE_OBSERVATIONS, pages)
        }
        Response::CellCounts(cells) => {
            let mut pages = Vec::new();
            chunk_cells(cells, &mut pages);
            (PAGE_CELL_COUNTS, pages)
        }
        _ => return None,
    };
    if pages.len() <= 1 {
        return None;
    }
    Some((kind, pages))
}

/// Reconstructs the unpaged response from all of a result's page
/// payloads, in page order.
pub fn reassemble(kind: u8, payloads: &[Vec<u8>]) -> Result<Response, DecodeError> {
    match kind {
        PAGE_OBSERVATIONS => {
            let mut rows = Vec::new();
            for payload in payloads {
                rows.extend(decode_observation_page(payload)?);
            }
            Ok(Response::Observations(rows))
        }
        PAGE_CELL_COUNTS => {
            let mut cells = Vec::new();
            for payload in payloads {
                cells.extend(decode_from_slice::<Vec<(u32, u64)>>(payload)?);
            }
            Ok(Response::CellCounts(cells))
        }
        _ => Err(DecodeError::InvalidValue {
            reason: "unknown page kind",
        }),
    }
}

/// Decodes one observation page, requiring full consumption.
pub fn decode_observation_page(payload: &[u8]) -> Result<Vec<Observation>, DecodeError> {
    let mut buf = payload;
    let rows = batch::decode_batch(&mut buf)?;
    if buf.has_remaining() {
        return Err(DecodeError::InvalidValue {
            reason: "trailing bytes after page",
        });
    }
    Ok(rows)
}

/// Splits rows by recursive halving until each half's *actual* encoding
/// fits the page target — exact under variable-width encodings, and only
/// log-deep re-encoding work on the oversize path.
fn chunk_observations(rows: &[Observation], out: &mut Vec<Vec<u8>>) {
    let mut page = Vec::with_capacity(batch::batch_size_hint(rows));
    batch::encode_batch(rows, &mut page);
    if page.len() <= PAGE_TARGET_BYTES || rows.len() <= 1 {
        out.push(page);
    } else {
        let mid = rows.len() / 2;
        chunk_observations(&rows[..mid], out);
        chunk_observations(&rows[mid..], out);
    }
}

fn chunk_cells(cells: &[(u32, u64)], out: &mut Vec<Vec<u8>>) {
    let page = stcam_codec::encode_to_vec(&cells.to_vec());
    if page.len() <= PAGE_TARGET_BYTES || cells.len() <= 1 {
        out.push(page);
    } else {
        let mid = cells.len() / 2;
        chunk_cells(&cells[..mid], out);
        chunk_cells(&cells[mid..], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_geo::{Point, Timestamp};
    use stcam_world::{EntityClass, EntityId};

    fn obs(n: u64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId((n % 97) as u32), n),
            camera: CameraId((n % 97) as u32),
            time: Timestamp::from_millis(n * 13),
            position: Point::new((n % 1000) as f64, (n / 1000) as f64),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(n),
            truth: Some(EntityId(n)),
        }
    }

    #[test]
    fn small_results_ship_unpaged() {
        let rows: Vec<_> = (0..10).map(obs).collect();
        assert!(pages_for(&Response::Observations(rows)).is_none());
        assert!(pages_for(&Response::CellCounts(vec![(3, 9), (8, 2)])).is_none());
        assert!(pages_for(&Response::Ack).is_none());
    }

    #[test]
    fn large_observation_result_pages_and_reassembles() {
        // ~100 bytes/row encoded → well past several pages.
        let rows: Vec<_> = (0..4000).map(obs).collect();
        let original = Response::Observations(rows);
        let (kind, pages) = pages_for(&original).expect("oversize result must page");
        assert_eq!(kind, PAGE_OBSERVATIONS);
        assert!(pages.len() > 1);
        for page in &pages {
            assert!(!page.is_empty());
            assert!(
                page.len() <= PAGE_TARGET_BYTES,
                "page of {} bytes exceeds target",
                page.len()
            );
        }
        assert_eq!(reassemble(kind, &pages).unwrap(), original);
    }

    #[test]
    fn large_cell_count_result_pages_and_reassembles() {
        let cells: Vec<(u32, u64)> = (0..40_000).map(|i| (i, u64::from(i) * 31 + 1)).collect();
        let original = Response::CellCounts(cells);
        let (kind, pages) = pages_for(&original).expect("oversize result must page");
        assert_eq!(kind, PAGE_CELL_COUNTS);
        assert!(pages.len() > 1);
        for page in &pages {
            assert!(page.len() <= PAGE_TARGET_BYTES);
        }
        assert_eq!(reassemble(kind, &pages).unwrap(), original);
    }

    #[test]
    fn page_order_is_row_order() {
        let rows: Vec<_> = (0..4000).map(obs).collect();
        let (_, pages) = pages_for(&Response::Observations(rows.clone())).unwrap();
        let mut seen = Vec::new();
        for page in &pages {
            seen.extend(decode_observation_page(page).unwrap());
        }
        assert_eq!(seen, rows);
    }

    #[test]
    fn bad_pages_rejected() {
        assert!(reassemble(9, &[vec![]]).is_err());
        // An observation page with trailing junk.
        let mut page = Vec::new();
        batch::encode_batch(&[obs(1)], &mut page);
        page.push(0xFF);
        assert!(matches!(
            decode_observation_page(&page),
            Err(DecodeError::InvalidValue {
                reason: "trailing bytes after page"
            })
        ));
    }
}
