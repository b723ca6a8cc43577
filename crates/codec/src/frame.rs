//! Length-prefixed, checksummed framing for transport.
//!
//! A frame is:
//!
//! ```text
//! +-------+-----------------+----------------+---------+
//! | magic | payload length  | CRC-32 of body |  body   |
//! | 2 B   | u32 little end. | u32 little end.| N bytes |
//! +-------+-----------------+----------------+---------+
//! ```
//!
//! The fixed-width header keeps frame scanning trivial; varints are used
//! only *inside* payloads. The CRC-32 (IEEE polynomial) detects a
//! truncated or corrupted file: frames are the container of snapshot
//! archives (`stcam::snapshot`), and nothing on the simulated network
//! uses them.

use bytes::{Buf, BufMut, BytesMut};

use crate::DecodeError;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 2] = [0xC5, 0x7A];

/// Maximum accepted payload length (64 MiB).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 2 + 4 + 4;

/// The decoded fixed-size header of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 checksum of the payload.
    pub crc: u32,
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: once_table::Table = once_table::Table::new();
    let table = TABLE.get();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ table[idx];
    }
    !crc
}

mod once_table {
    use std::sync::OnceLock;

    pub struct Table(OnceLock<[u32; 256]>);

    impl Table {
        pub const fn new() -> Self {
            Table(OnceLock::new())
        }

        pub fn get(&self) -> &[u32; 256] {
            self.0.get_or_init(|| {
                let mut table = [0u32; 256];
                let mut i = 0;
                while i < 256 {
                    let mut crc = i as u32;
                    let mut bit = 0;
                    while bit < 8 {
                        crc = if crc & 1 != 0 {
                            (crc >> 1) ^ 0xEDB8_8320
                        } else {
                            crc >> 1
                        };
                        bit += 1;
                    }
                    table[i] = crc;
                    i += 1;
                }
                table
            })
        }
    }
}

/// Appends a complete frame wrapping `payload` to `buf`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`].
pub fn write_frame(buf: &mut BytesMut, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "payload exceeds MAX_FRAME_LEN"
    );
    buf.reserve(HEADER_LEN + payload.len());
    buf.put_slice(&FRAME_MAGIC);
    buf.put_u32_le(payload.len() as u32);
    buf.put_u32_le(crc32(payload));
    buf.put_slice(payload);
}

/// Attempts to read one complete frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete frame
/// (read more bytes and retry); on success the frame is consumed from
/// `buf` and its payload returned.
///
/// # Errors
///
/// Returns [`DecodeError::BadMagic`], [`DecodeError::LengthOverflow`], or
/// [`DecodeError::ChecksumMismatch`] on corrupt input. The buffer is left
/// untouched on `Ok(None)` and in an unspecified (but safe) state on error.
pub fn read_frame(buf: &mut BytesMut) -> Result<Option<Vec<u8>>, DecodeError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0..2] != FRAME_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut header = &buf[2..HEADER_LEN];
    let len = header.get_u32_le();
    let crc = header.get_u32_le();
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::LengthOverflow {
            declared: len as u64,
            max: MAX_FRAME_LEN as u64,
        });
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    buf.advance(HEADER_LEN);
    let payload = buf.split_to(len as usize).to_vec();
    if crc32(&payload) != crc {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = BytesMut::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, &[7u8; 1000]);
        assert_eq!(read_frame(&mut buf).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut buf).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut buf).unwrap().unwrap(), vec![7u8; 1000]);
        assert_eq!(read_frame(&mut buf).unwrap(), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_frame_waits_for_more() {
        let mut full = BytesMut::new();
        write_frame(&mut full, b"payload");
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert_eq!(read_frame(&mut partial).unwrap(), None, "cut at {cut}");
            assert_eq!(partial.len(), cut, "buffer must be untouched");
        }
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut buf = BytesMut::new();
        write_frame(&mut buf, b"important data");
        let idx = HEADER_LEN + 3;
        buf[idx] ^= 0x01;
        assert_eq!(read_frame(&mut buf), Err(DecodeError::ChecksumMismatch));
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = BytesMut::new();
        write_frame(&mut buf, b"x");
        buf[0] = 0;
        assert_eq!(read_frame(&mut buf), Err(DecodeError::BadMagic));
    }

    #[test]
    fn hostile_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(&FRAME_MAGIC);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(0);
        assert!(matches!(
            read_frame(&mut buf),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "payload exceeds MAX_FRAME_LEN")]
    fn oversized_write_panics() {
        let mut buf = BytesMut::new();
        // Use a fake huge slice length via from_raw_parts? No — just build
        // a vec one past the limit. 64 MiB + 1 allocation is acceptable in
        // a test.
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        write_frame(&mut buf, &payload);
    }
}
