//! LEB128 variable-length integer encoding with ZigZag for signed values.
//!
//! Unsigned integers are written 7 bits at a time, least-significant group
//! first, with the high bit of each byte marking continuation. A `u64`
//! therefore occupies 1–10 bytes; the ids, counts and cell coordinates that
//! dominate `stcam` traffic almost always fit in 1–3.

use bytes::{Buf, BufMut};

use crate::DecodeError;

/// Maximum encoded width of a `u64` varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` to `buf` as a LEB128 varint, in one `put_slice`.
pub fn write_u64<B: BufMut>(buf: &mut B, mut v: u64) {
    let mut bytes = [0u8; MAX_VARINT_LEN];
    let mut last = 0;
    while v >= 0x80 {
        bytes[last] = v as u8 | 0x80;
        v >>= 7;
        last += 1;
    }
    bytes[last] = v as u8;
    buf.put_slice(&bytes[..=last]);
}

/// Reads a LEB128 varint from `buf`.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] when the buffer runs out before a
/// terminating byte, and [`DecodeError::VarintOverflow`] when the encoding
/// exceeds [`MAX_VARINT_LEN`] bytes or overflows 64 bits.
pub fn read_u64<B: Buf>(buf: &mut B) -> Result<u64, DecodeError> {
    // Decoded from the front chunk in place, then consumed with one
    // `advance`: the buffers of the vendored `bytes` are contiguous.
    let mut result = 0u64;
    let chunk = buf.chunk();
    for (i, &byte) in chunk.iter().take(MAX_VARINT_LEN).enumerate() {
        let low = (byte & 0x7F) as u64;
        if i == MAX_VARINT_LEN - 1 && low > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        result |= low << (7 * i);
        if byte & 0x80 == 0 {
            buf.advance(i + 1);
            return Ok(result);
        }
    }
    if chunk.len() >= MAX_VARINT_LEN {
        Err(DecodeError::VarintOverflow)
    } else {
        Err(DecodeError::UnexpectedEnd { context: "varint" })
    }
}

/// The number of bytes [`write_u64`] would emit for `v`.
pub fn len_u64(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Maps a signed integer to an unsigned one so that values of small
/// magnitude (of either sign) get short varints: 0 → 0, -1 → 1, 1 → 2, …
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` to `buf` as a ZigZag-mapped varint.
pub fn write_i64<B: BufMut>(buf: &mut B, v: i64) {
    write_u64(buf, zigzag(v));
}

/// Reads a ZigZag-mapped varint from `buf`.
///
/// # Errors
///
/// Propagates the errors of [`read_u64`].
pub fn read_i64<B: Buf>(buf: &mut B) -> Result<i64, DecodeError> {
    read_u64(buf).map(unzigzag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn round_trip_u64(v: u64) -> usize {
        let mut buf = BytesMut::new();
        write_u64(&mut buf, v);
        let n = buf.len();
        assert_eq!(len_u64(v), n, "len_u64 wrong for {v}");
        let mut slice = &buf[..];
        assert_eq!(read_u64(&mut slice).unwrap(), v);
        assert!(slice.is_empty());
        n
    }

    #[test]
    fn boundaries_round_trip_with_expected_widths() {
        assert_eq!(round_trip_u64(0), 1);
        assert_eq!(round_trip_u64(127), 1);
        assert_eq!(round_trip_u64(128), 2);
        assert_eq!(round_trip_u64(16_383), 2);
        assert_eq!(round_trip_u64(16_384), 3);
        assert_eq!(round_trip_u64(u32::MAX as u64), 5);
        assert_eq!(round_trip_u64(u64::MAX), 10);
    }

    #[test]
    fn zigzag_small_magnitudes_are_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [-1_000_000i64, -1, 0, 1, 42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn signed_round_trip() {
        for v in [i64::MIN, -12345, -1, 0, 1, 12345, i64::MAX] {
            let mut buf = BytesMut::new();
            write_i64(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(read_i64(&mut slice).unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = BytesMut::new();
        write_u64(&mut buf, 300);
        let mut slice = &buf[..1]; // drop the final byte
        assert!(matches!(
            read_u64(&mut slice),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn overlong_encoding_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let bytes = [0xFFu8; 11];
        let mut slice = &bytes[..];
        assert_eq!(read_u64(&mut slice), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn overflowing_final_byte_rejected() {
        // 10-byte encoding whose last byte pushes past 64 bits.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut slice = &bytes[..];
        assert_eq!(read_u64(&mut slice), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn max_u64_highest_valid() {
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let mut slice = &bytes[..];
        assert_eq!(read_u64(&mut slice).unwrap(), u64::MAX);
    }
}
