//! The sealed-segment frame: the structural wire/storage format of one
//! immutable archive segment.
//!
//! A segment freezes one closed time slice of a worker's shard, or an
//! aligned group of slices compacted into one, into a columnar payload:
//! per occupied (grid cell, slice) one independently decodable block (the
//! observation-batch columnar encoding), laid out back-to-back slice by
//! slice with cells ascending within a slice, plus a footer directory
//! listing each block's `(cell, offset, len, count, checksum)` in payload
//! order. The directory is what makes sealed reads cell-selective — a
//! range query decodes only the blocks of the cells it overlaps — and
//! what lets repair split a segment at cell boundaries by byte copy,
//! without decoding untouched blocks. A one-slice frame's directory is
//! therefore sorted by cell, as it always was.
//!
//! This module defines only the *structure* and its validation; the
//! semantic layer (sealing slices, compacting groups, scanning,
//! splitting) lives in `stcam-index`, which also checks what this layer
//! cannot see without decoding rows: each block's slice, and the cell
//! order within a slice. Checksums are order-independent XOR folds of a
//! per-observation mix, so a segment rebuilt from the same rows in any
//! order digests identically.

use bytes::{Buf, BufMut};
use stcam_geo::TimeInterval;

use crate::varint;
use crate::{Bytes, DecodeError, Wire, WireAs};

/// First byte of every encoded segment frame.
pub const SEGMENT_MAGIC: u8 = 0xA7;
/// Format version; bumped on any layout change.
pub const SEGMENT_VERSION: u8 = 1;

/// One directory entry of a segment: one cell's block of one slice
/// within the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentBlock {
    /// Packed grid cell (`row * cols + col`) of the index grid the
    /// segment was sealed under.
    pub cell: u32,
    /// Byte offset of the block in the payload.
    pub offset: u32,
    /// Byte length of the block.
    pub len: u32,
    /// Observations encoded in the block.
    pub count: u32,
    /// Order-independent XOR fold of the block's observation checksums.
    pub checksum: u64,
}

/// The encoded form of one sealed segment: header, footer directory, and
/// the concatenated per-(cell, slice) blocks.
///
/// Invariants enforced on decode (and asserted by [`validate`](Self::validate)):
/// blocks are non-empty and tile the payload exactly in directory order
/// (first offset 0, each block starts where the previous ended, last
/// block ends at `payload.len()`), the block counts sum to `count`, and
/// the block checksums XOR to `checksum`. Where one slice ends and the
/// next begins is told by the rows' times, which this layer does not
/// decode: `stcam-index` checks that cells ascend within each slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFrame {
    /// The first time slice the segment holds rows of.
    pub number: u64,
    /// That first slice's window `[number·len, (number+1)·len)`: its
    /// length is the slice length, which places every later block of a
    /// compacted group in its slice.
    pub window: TimeInterval,
    /// Total observations across all blocks.
    pub count: u64,
    /// XOR fold of all block checksums.
    pub checksum: u64,
    /// Per-block directory, in payload order.
    pub directory: Vec<SegmentBlock>,
    /// Concatenated columnar blocks, slice by slice.
    pub payload: Vec<u8>,
}

impl SegmentFrame {
    /// The payload bytes of directory entry `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range (the directory invariants
    /// guarantee in-range entries slice validly).
    pub fn block_payload(&self, i: usize) -> &[u8] {
        let b = &self.directory[i];
        &self.payload[b.offset as usize..(b.offset + b.len) as usize]
    }

    /// Checks the structural invariants, returning the violated one.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidValue`] naming the violated
    /// invariant.
    pub fn validate(&self) -> Result<(), DecodeError> {
        let fail = |reason: &'static str| Err(DecodeError::InvalidValue { reason });
        let mut cursor: u64 = 0;
        let mut count: u64 = 0;
        let mut checksum: u64 = 0;
        for b in &self.directory {
            if u64::from(b.offset) != cursor {
                return fail("segment blocks do not tile the payload");
            }
            if b.count == 0 {
                return fail("empty block in segment directory");
            }
            cursor += u64::from(b.len);
            count += u64::from(b.count);
            checksum ^= b.checksum;
        }
        if cursor != self.payload.len() as u64 {
            return fail("segment payload length mismatch");
        }
        if count != self.count {
            return fail("segment count does not match directory");
        }
        if checksum != self.checksum {
            return fail("segment checksum does not match directory");
        }
        Ok(())
    }
}

impl Wire for SegmentBlock {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.cell.encode(buf);
        self.offset.encode(buf);
        self.len.encode(buf);
        self.count.encode(buf);
        // Checksums are high-entropy: fixed width beats a varint.
        buf.put_slice(&self.checksum.to_le_bytes());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let cell = u32::decode(buf)?;
        let offset = u32::decode(buf)?;
        let len = u32::decode(buf)?;
        let count = u32::decode(buf)?;
        if buf.remaining() < 8 {
            return Err(DecodeError::UnexpectedEnd {
                context: "segment block checksum",
            });
        }
        let mut raw = [0u8; 8];
        buf.copy_to_slice(&mut raw);
        let checksum = u64::from_le_bytes(raw);
        Ok(SegmentBlock {
            cell,
            offset,
            len,
            count,
            checksum,
        })
    }

    fn size_hint(&self) -> usize {
        self.cell.size_hint()
            + self.offset.size_hint()
            + self.len.size_hint()
            + self.count.size_hint()
            + 8
    }
}

impl Wire for SegmentFrame {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(SEGMENT_MAGIC);
        buf.put_u8(SEGMENT_VERSION);
        self.number.encode(buf);
        self.window.encode(buf);
        self.count.encode(buf);
        buf.put_slice(&self.checksum.to_le_bytes());
        self.directory.encode(buf);
        Bytes::encode(&self.payload, buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        if buf.remaining() < 2 {
            return Err(DecodeError::UnexpectedEnd {
                context: "segment header",
            });
        }
        if buf.get_u8() != SEGMENT_MAGIC {
            return Err(DecodeError::InvalidValue {
                reason: "bad segment magic",
            });
        }
        let version = buf.get_u8();
        if version != SEGMENT_VERSION {
            return Err(DecodeError::InvalidDiscriminant {
                type_name: "SegmentFrame version",
                value: version as u64,
            });
        }
        let number = u64::decode(buf)?;
        let window = TimeInterval::decode(buf)?;
        let count = u64::decode(buf)?;
        if buf.remaining() < 8 {
            return Err(DecodeError::UnexpectedEnd {
                context: "segment checksum",
            });
        }
        let mut raw = [0u8; 8];
        buf.copy_to_slice(&mut raw);
        let checksum = u64::from_le_bytes(raw);
        let directory = Vec::decode(buf)?;
        let payload = Bytes::decode(buf)?;
        let frame = SegmentFrame {
            number,
            window,
            count,
            checksum,
            directory,
            payload,
        };
        frame.validate()?;
        Ok(frame)
    }

    fn size_hint(&self) -> usize {
        2 + self.number.size_hint()
            + self.window.size_hint()
            + self.count.size_hint()
            + 8
            + varint::len_u64(self.directory.len() as u64)
            + self.directory.iter().map(Wire::size_hint).sum::<usize>()
            + Bytes::size_hint(&self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, encode_to_vec};
    use stcam_geo::Timestamp;

    fn frame() -> SegmentFrame {
        SegmentFrame {
            number: 4,
            window: TimeInterval::new(Timestamp::from_secs(40), Timestamp::from_secs(50)),
            count: 3,
            checksum: 0xDEAD ^ 0xBEEF,
            directory: vec![
                SegmentBlock {
                    cell: 2,
                    offset: 0,
                    len: 5,
                    count: 1,
                    checksum: 0xDEAD,
                },
                SegmentBlock {
                    cell: 9,
                    offset: 5,
                    len: 3,
                    count: 2,
                    checksum: 0xBEEF,
                },
            ],
            payload: vec![1, 2, 3, 4, 5, 6, 7, 8],
        }
    }

    #[test]
    fn frame_round_trips() {
        let f = frame();
        let bytes = encode_to_vec(&f);
        assert_eq!(decode_from_slice::<SegmentFrame>(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_frame_round_trips() {
        let f = SegmentFrame {
            number: 0,
            window: TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10)),
            count: 0,
            checksum: 0,
            directory: vec![],
            payload: vec![],
        };
        let bytes = encode_to_vec(&f);
        assert_eq!(decode_from_slice::<SegmentFrame>(&bytes).unwrap(), f);
    }

    #[test]
    fn block_payload_slices_by_directory() {
        let f = frame();
        assert_eq!(f.block_payload(0), &[1, 2, 3, 4, 5]);
        assert_eq!(f.block_payload(1), &[6, 7, 8]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_to_vec(&frame());
        bytes[0] ^= 0xFF;
        assert!(decode_from_slice::<SegmentFrame>(&bytes).is_err());
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = encode_to_vec(&frame());
        bytes[1] = SEGMENT_VERSION + 1;
        assert!(matches!(
            decode_from_slice::<SegmentFrame>(&bytes),
            Err(DecodeError::InvalidDiscriminant { .. })
        ));
    }

    #[test]
    fn a_directory_in_payload_order_may_restart_its_cells() {
        // A compacted group lists slice after slice: cells ascend within
        // each and restart at the next. Tiling is what decode checks.
        let mut f = frame();
        f.directory[1].cell = 2;
        let bytes = encode_to_vec(&f);
        assert_eq!(decode_from_slice::<SegmentFrame>(&bytes).unwrap(), f);
        f.directory.swap(0, 1);
        let bytes = encode_to_vec(&f);
        assert!(
            decode_from_slice::<SegmentFrame>(&bytes).is_err(),
            "blocks out of payload order"
        );
    }

    #[test]
    fn gap_in_payload_rejected() {
        let mut f = frame();
        f.directory[1].offset = 6; // skips byte 5
        let bytes = encode_to_vec(&f);
        assert!(decode_from_slice::<SegmentFrame>(&bytes).is_err());
    }

    #[test]
    fn count_mismatch_rejected() {
        let mut f = frame();
        f.count = 99;
        let bytes = encode_to_vec(&f);
        assert!(decode_from_slice::<SegmentFrame>(&bytes).is_err());
    }

    #[test]
    fn checksum_mismatch_rejected() {
        let mut f = frame();
        f.checksum ^= 1;
        let bytes = encode_to_vec(&f);
        assert!(decode_from_slice::<SegmentFrame>(&bytes).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = encode_to_vec(&frame());
        for cut in 0..bytes.len() {
            assert!(
                decode_from_slice::<SegmentFrame>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn hostile_payload_length_rejected() {
        let f = frame();
        let mut bytes = Vec::new();
        bytes.push(SEGMENT_MAGIC);
        bytes.push(SEGMENT_VERSION);
        f.number.encode(&mut bytes);
        f.window.encode(&mut bytes);
        f.count.encode(&mut bytes);
        bytes.put_slice(&f.checksum.to_le_bytes());
        f.directory.encode(&mut bytes);
        varint::write_u64(&mut bytes, 1 << 40); // absurd payload length
        assert!(matches!(
            decode_from_slice::<SegmentFrame>(&bytes),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn size_hint_is_exact() {
        let f = frame();
        assert_eq!(f.size_hint(), encode_to_vec(&f).len());
    }
}
