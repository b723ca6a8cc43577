//! Paged result streaming for oversize responses.
//!
//! A worker whose read produces a result larger than
//! [`PAGE_TARGET_BYTES`] does not ship it as one frame. Instead it cuts
//! the rows into pages ([`encode_reply`]), parks them under a cursor, and
//! answers with [`Response::ResultPage`] page 0. The client pulls the
//! remaining pages with [`Request::FetchPage`](crate::Request::FetchPage)
//! and decodes each into the answer as it arrives ([`append_page`]).
//! Invariants:
//!
//! * **Bounded frames.** Every page's encoded payload is at most
//!   [`PAGE_TARGET_BYTES`] (or holds a single row that alone exceeds it);
//!   with envelope and header overhead no read answer or page pull
//!   exceeds [`PAGE_MAX_BYTES`] for realistic row sizes. The bound is the
//!   read path's only: a cell copy's `ExportSegments` answer and its
//!   `InstallSegments` frames carry a whole cell's sealed segments in one
//!   message.
//! * **Standalone pages.** Each page payload is a complete encoding of
//!   its rows (a `stcam-camnet` batch frame for observations, a plain
//!   pair list for sparse counts), so pages decode independently, pulls
//!   are idempotent, and the usual timeout/retry machinery needs no
//!   special case.
//! * **Order-preserving.** Concatenating the pages' rows in page order
//!   reproduces the original response exactly.
//! * **Encoded once.** A response that fits one frame is encoded exactly
//!   once. A larger one is cut in one forward pass, each chunk sized from
//!   the bytes per row of the one before, so rows are encoded again only
//!   where that guess misses, and every page but the last is 85 % full.

use bytes::Buf;
use stcam_camnet::batch::{self, batch_size_hint};
use stcam_codec::{decode_from_slice, encode_to_vec, DecodeError, Wire};

use crate::protocol::Response;

/// Soft page bound: a page's encoded payload only exceeds this when a
/// single row does on its own.
pub const PAGE_TARGET_BYTES: usize = 56 * 1024;

/// Hard frame bound the communication experiment gates on: page payload
/// plus response header and fabric envelope overhead stays under this.
pub const PAGE_MAX_BYTES: usize = 64 * 1024;

/// A chunk that fits is taken as a page once it is this full (85 %), is
/// all that is left, or would overflow with one more row.
const PAGE_FILL_BYTES: usize = (PAGE_TARGET_BYTES * 85).div_ceil(100);

/// What the next chunk is sized for (94 %): the slack absorbs the drift in
/// bytes per row between chunks, so encoding one again stays the exception.
const PAGE_AIM_BYTES: usize = PAGE_TARGET_BYTES * 94 / 100;

/// Page kind: the payload is a `stcam-camnet` observation batch frame.
pub const PAGE_OBSERVATIONS: u8 = 0;

/// Page kind: the payload is a sparse `(bucket index, count)` pair list.
pub const PAGE_CELL_COUNTS: u8 = 1;

/// A response as the worker ships it.
#[derive(Debug, PartialEq)]
pub enum Reply {
    /// The whole response, encoded: non-row-carrying kinds, and row sets
    /// that encode within [`PAGE_TARGET_BYTES`].
    Frame(Vec<u8>),
    /// Rows that do not fit one page: the page kind, and at least two
    /// standalone page payloads in row order.
    Pages(u8, Vec<Vec<u8>>),
}

/// Encodes `resp` for the wire, each row once: as its one frame when
/// that fits, else cut into pages.
pub fn encode_reply(resp: &Response) -> Reply {
    let pairs = |chunk: &[(u32, u64)]| encode_to_vec(&chunk.to_vec());
    match resp {
        Response::Observations(rows) => {
            let floor = batch::batch_size_floor(rows);
            cut(resp, PAGE_OBSERVATIONS, rows, floor, |chunk| {
                let mut page = Vec::with_capacity(batch_size_hint(chunk).min(PAGE_TARGET_BYTES));
                batch::encode_batch(chunk, &mut page);
                page
            })
        }
        // A pair is two varints: never under two bytes.
        Response::CellCounts(cells) => cut(resp, PAGE_CELL_COUNTS, cells, 2 * cells.len(), pairs),
        _ => Reply::Frame(encode_to_vec(resp)),
    }
}

/// Decodes one page of `kind`'s rows onto the end of `answer`, requiring
/// full consumption. `answer` starts as [`empty_answer`] and is the
/// unpaged response once every page, in page order, is appended.
pub fn append_page(answer: &mut Response, payload: &[u8]) -> Result<(), DecodeError> {
    match answer {
        Response::Observations(rows) => {
            let mut buf = payload;
            batch::decode_batch_into(&mut buf, rows)?;
            if buf.has_remaining() {
                return Err(DecodeError::InvalidValue {
                    reason: "trailing bytes after page",
                });
            }
        }
        Response::CellCounts(cells) => cells.extend(decode_from_slice::<Vec<(u32, u64)>>(payload)?),
        _ => return unknown_kind(),
    }
    Ok(())
}

/// The response pages of `kind` are appended to.
pub fn empty_answer(kind: u8) -> Result<Response, DecodeError> {
    match kind {
        PAGE_OBSERVATIONS => Ok(Response::Observations(Vec::new())),
        PAGE_CELL_COUNTS => Ok(Response::CellCounts(Vec::new())),
        _ => unknown_kind(),
    }
}

fn unknown_kind<T>() -> Result<T, DecodeError> {
    Err(DecodeError::InvalidValue {
        reason: "unknown page kind",
    })
}

/// Ships `resp` — whose `rows` encode to at least `floor` bytes — as one
/// frame when they fit one page, else cuts them into pages with `encode`,
/// front to back. Every size is that of an actual encoding, so the bound
/// is exact under variable-width rows; a prefix never encodes larger than
/// a longer one, so a chunk is sought between a count that fits and one
/// that does not.
fn cut<T>(
    resp: &Response,
    kind: u8,
    rows: &[T],
    floor: usize,
    encode: impl Fn(&[T]) -> Vec<u8>,
) -> Reply {
    // Rows to try next: from the size hint, then the last bytes per row.
    let mut take = rows.len() * PAGE_TARGET_BYTES / resp.size_hint();
    if floor <= PAGE_TARGET_BYTES {
        // The tag byte aside, the frame is the one page holding every row.
        let frame = encode_to_vec(resp);
        if frame.len() - 1 <= PAGE_TARGET_BYTES || rows.len() == 1 {
            return Reply::Frame(frame);
        }
        take = rows.len() * PAGE_AIM_BYTES / frame.len();
    }
    let mut pages = Vec::new();
    let mut rest = rows;
    while !rest.is_empty() {
        // `under` rows fit, as `page`; `over` rows do not.
        let (mut under, mut over, mut page) = (0, rest.len() + 1, Vec::new());
        while under + 1 < over && page.len() < PAGE_FILL_BYTES {
            // A guess a measured bound contradicts is a jump in row width:
            // halve. (`over` is measured once it is a count `rest` has.)
            let n = if take <= under || (over <= take && over <= rest.len()) {
                (under + over) / 2
            } else {
                take.min(over - 1)
            };
            let bytes = encode(&rest[..n]);
            take = n * PAGE_AIM_BYTES / bytes.len();
            if bytes.len() > PAGE_TARGET_BYTES && n > 1 {
                over = n;
            } else {
                (under, page) = (n, bytes);
            }
        }
        pages.push(page);
        rest = &rest[under..];
    }
    Reply::Pages(kind, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
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

    // Bound, fill, order and the one-frame rule: `tests/properties.rs`.

    #[test]
    fn small_results_ship_as_their_own_frame() {
        for resp in [
            Response::Observations((0..10).map(obs).collect()),
            Response::Observations(vec![]),
            Response::CellCounts(vec![(3, 9), (8, 2)]),
            Response::Ack,
        ] {
            assert_eq!(encode_reply(&resp), Reply::Frame(encode_to_vec(&resp)));
        }
    }

    #[test]
    fn bad_pages_rejected() {
        assert!(empty_answer(9).is_err());
        assert!(append_page(&mut Response::Ack, &[]).is_err());
        // An observation page with trailing junk.
        let mut page = Vec::new();
        batch::encode_batch(&[obs(1)], &mut page);
        page.push(0xFF);
        assert_eq!(
            append_page(&mut empty_answer(PAGE_OBSERVATIONS).unwrap(), &page),
            Err(DecodeError::InvalidValue {
                reason: "trailing bytes after page"
            })
        );
    }
}
