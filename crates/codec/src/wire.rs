//! The [`Wire`] trait and implementations for standard types.

use bytes::{Buf, BufMut};

use crate::varint;
use crate::DecodeError;

/// Largest length prefix accepted for collections and strings (16 MiB of
/// elements); guards against corrupt or adversarial inputs allocating
/// unbounded memory.
pub const MAX_SEQ_LEN: u64 = 16 * 1024 * 1024;

/// A type with a deterministic binary wire form.
///
/// Encoding is infallible; decoding validates the input and returns a
/// [`DecodeError`] on malformed data. Implementations must round-trip:
/// `decode(encode(x)) == x` for every value `x`.
///
/// # Example
///
/// ```
/// use stcam_codec::{decode_from_slice, encode_to_vec};
///
/// let bytes = encode_to_vec(&(7u32, true));
/// let value: (u32, bool) = decode_from_slice(&bytes)?;
/// assert_eq!(value, (7, true));
/// # Ok::<(), stcam_codec::DecodeError>(())
/// ```
pub trait Wire: Sized {
    /// Appends this value's wire form to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// Reads one value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the input is truncated, malformed, or
    /// violates a domain invariant of the target type.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError>;

    /// A cheap estimate of this value's encoded size, used by
    /// [`encode_to_vec`] / [`encode_into`] to reserve buffer capacity up
    /// front. May be off in either direction — encoding is always exact —
    /// but implementations should make it tight for types that dominate
    /// hot-path traffic so single-allocation encoding is the common case.
    fn size_hint(&self) -> usize {
        16
    }
}

/// Encodes `value` into a fresh byte vector sized from its
/// [`Wire::size_hint`].
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.size_hint());
    value.encode(&mut out);
    out
}

/// Appends `value`'s wire form to `out`, reserving capacity from its
/// [`Wire::size_hint`].
///
/// Hot paths that assemble many messages can keep one scratch `Vec` and
/// `clear()` it between messages, so the allocation is amortised across
/// the whole stream instead of paid per message.
pub fn encode_into<T: Wire>(value: &T, out: &mut Vec<u8>) {
    out.reserve(value.size_hint());
    value.encode(out);
}

/// Decodes a value from `bytes`, requiring that the whole slice is consumed.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input, and
/// [`DecodeError::InvalidValue`] when trailing bytes remain.
pub fn decode_from_slice<T: Wire>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut slice = bytes;
    let value = T::decode(&mut slice)?;
    if !slice.is_empty() {
        return Err(DecodeError::InvalidValue {
            reason: "trailing bytes after value",
        });
    }
    Ok(value)
}

/// The exact number of bytes `value` occupies on the wire.
pub fn encoded_len<T: Wire>(value: &T) -> usize {
    // Correctness over micro-optimisation: measure by encoding. Message
    // construction dominates; this is used mainly by accounting code.
    encode_to_vec(value).len()
}

fn need<B: Buf>(buf: &B, n: usize, context: &'static str) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::UnexpectedEnd { context })
    } else {
        Ok(())
    }
}

/// Reads a varint length, at most [`MAX_SEQ_LEN`], then that many bytes
/// in one copy: the body of a `String` and of the
/// [`Bytes`](crate::Bytes) layout.
pub(crate) fn decode_byte_string<B: Buf>(
    buf: &mut B,
    context: &'static str,
) -> Result<Vec<u8>, DecodeError> {
    let len = varint::read_u64(buf)?;
    if len > MAX_SEQ_LEN {
        return Err(DecodeError::LengthOverflow {
            declared: len,
            max: MAX_SEQ_LEN,
        });
    }
    let len = len as usize;
    need(buf, len, context)?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    Ok(bytes)
}

impl Wire for bool {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(*self));
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        need(buf, 1, "bool")?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DecodeError::InvalidDiscriminant {
                type_name: "bool",
                value: v as u64,
            }),
        }
    }
    fn size_hint(&self) -> usize {
        1
    }
}

impl Wire for u8 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(*self);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        need(buf, 1, "u8")?;
        Ok(buf.get_u8())
    }
    fn size_hint(&self) -> usize {
        1
    }
}

macro_rules! wire_varint_unsigned {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode<B: BufMut>(&self, buf: &mut B) {
                varint::write_u64(buf, *self as u64);
            }
            fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
                let v = varint::read_u64(buf)?;
                <$ty>::try_from(v).map_err(|_| DecodeError::InvalidValue {
                    reason: concat!("varint out of range for ", stringify!($ty)),
                })
            }
            fn size_hint(&self) -> usize {
                varint::len_u64(*self as u64)
            }
        }
    )*};
}

wire_varint_unsigned!(u16, u32, u64, usize);

macro_rules! wire_varint_signed {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode<B: BufMut>(&self, buf: &mut B) {
                varint::write_i64(buf, *self as i64);
            }
            fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
                let v = varint::read_i64(buf)?;
                <$ty>::try_from(v).map_err(|_| DecodeError::InvalidValue {
                    reason: concat!("varint out of range for ", stringify!($ty)),
                })
            }
            fn size_hint(&self) -> usize {
                varint::len_u64(varint::zigzag(*self as i64))
            }
        }
    )*};
}

wire_varint_signed!(i16, i32, i64);

impl Wire for f64 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64_le(*self);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        need(buf, 8, "f64")?;
        Ok(buf.get_f64_le())
    }
    fn size_hint(&self) -> usize {
        8
    }
}

impl Wire for f32 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f32_le(*self);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        need(buf, 4, "f32")?;
        Ok(buf.get_f32_le())
    }
    fn size_hint(&self) -> usize {
        4
    }
}

impl Wire for String {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        varint::write_u64(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let bytes = decode_byte_string(buf, "string bytes")?;
        String::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
    }
    fn size_hint(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        varint::write_u64(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let len = varint::read_u64(buf)?;
        if len > MAX_SEQ_LEN {
            return Err(DecodeError::LengthOverflow {
                declared: len,
                max: MAX_SEQ_LEN,
            });
        }
        let mut out = Vec::with_capacity((len as usize).min(1024));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
    fn size_hint(&self) -> usize {
        // Elements of the hot collections (observations, counts) have
        // near-constant width, so extrapolating from the first element is
        // both cheap and tight.
        varint::len_u64(self.len() as u64)
            + self.first().map_or(0, |item| item.size_hint() * self.len())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        need(buf, 1, "option tag")?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            v => Err(DecodeError::InvalidDiscriminant {
                type_name: "Option",
                value: v as u64,
            }),
        }
    }
    fn size_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::size_hint)
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode<B: BufMut>(&self, buf: &mut B) {
                $(self.$idx.encode(buf);)+
            }
            fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
                Ok(($($name::decode(buf)?,)+))
            }
            fn size_hint(&self) -> usize {
                0 $(+ self.$idx.size_hint())+
            }
        }
    };
}

wire_tuple!(T0: 0);
wire_tuple!(T0: 0, T1: 1);
wire_tuple!(T0: 0, T1: 1, T2: 2);
wire_tuple!(T0: 0, T1: 1, T2: 2, T3: 3);
wire_tuple!(T0: 0, T1: 1, T2: 2, T3: 3, T4: 4);

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        for item in self {
            item.encode(buf);
        }
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(buf)?);
        }
        out.try_into().map_err(|_| DecodeError::InvalidValue {
            reason: "array length mismatch",
        })
    }
    fn size_hint(&self) -> usize {
        self.first().map_or(0, |item| item.size_hint() * N)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(encoded_len(&v), bytes.len());
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(true);
        round_trip(false);
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(i16::MIN);
        round_trip(i32::MIN);
        round_trip(i64::MIN);
        round_trip(1.5f64);
        round_trip(-0.0f64);
        round_trip(f64::INFINITY);
        round_trip(3.25f32);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let bytes = encode_to_vec(&f64::NAN);
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn strings_and_collections() {
        round_trip(String::new());
        round_trip(String::from("héllo, wörld"));
        round_trip::<Vec<u64>>(vec![]);
        round_trip(vec![1u64, 2, 3, u64::MAX]);
        round_trip(vec![String::from("a"), String::from("bb")]);
        round_trip(Some(42u32));
        round_trip::<Option<u32>>(None);
        round_trip(Some(vec![Some(1u8), None]));
    }

    #[test]
    fn tuples_and_arrays() {
        round_trip((1u8,));
        round_trip((1u64, String::from("x")));
        round_trip((1u64, 2.0f64, true, String::from("y"), vec![1u32]));
        round_trip([1.0f32, 2.0, 3.0]);
        round_trip([0u8; 16]);
    }

    #[test]
    fn bool_rejects_other_bytes() {
        assert!(matches!(
            decode_from_slice::<bool>(&[2]),
            Err(DecodeError::InvalidDiscriminant { .. })
        ));
    }

    #[test]
    fn option_rejects_bad_tag() {
        assert!(matches!(
            decode_from_slice::<Option<u8>>(&[7, 0]),
            Err(DecodeError::InvalidDiscriminant { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&5u32);
        bytes.push(0);
        assert!(matches!(
            decode_from_slice::<u32>(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A Vec<u64> claiming 2^40 elements must not allocate.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1 << 40);
        assert!(matches!(
            decode_from_slice::<Vec<u64>>(&bytes),
            Err(DecodeError::LengthOverflow { .. })
        ));
        assert!(matches!(
            decode_from_slice::<String>(&bytes),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn truncated_collection_rejected() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        assert!(matches!(
            decode_from_slice::<Vec<u64>>(&bytes[..bytes.len() - 1]),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode_from_slice::<String>(&bytes),
            Err(DecodeError::InvalidUtf8)
        );
    }

    #[test]
    fn out_of_range_narrow_integer_rejected() {
        let bytes = encode_to_vec(&(u16::MAX as u64 + 1));
        assert!(matches!(
            decode_from_slice::<u16>(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn encode_into_appends_and_reuses_capacity() {
        let mut scratch = Vec::new();
        encode_into(&7u32, &mut scratch);
        let first = scratch.clone();
        scratch.clear();
        encode_into(&7u32, &mut scratch);
        assert_eq!(scratch, first);
        let cap = scratch.capacity();
        scratch.clear();
        encode_into(&9u32, &mut scratch);
        assert_eq!(scratch.capacity(), cap, "cleared scratch must not realloc");
        // Appending after existing content preserves the prefix.
        encode_into(&true, &mut scratch);
        assert_eq!(
            decode_from_slice::<(u32, bool)>(&scratch).unwrap(),
            (9, true)
        );
    }

    #[test]
    fn size_hints_are_exact_for_fixed_width_shapes() {
        // Hints for the shapes that dominate hot-path traffic should be
        // exact so encode_to_vec allocates once.
        fn exact<T: Wire>(v: T) {
            assert_eq!(v.size_hint(), encoded_len(&v), "hint not exact");
        }
        exact(0u64);
        exact(u64::MAX);
        exact(-300i64);
        exact(1.5f64);
        exact([1.0f32; 16]);
        exact((1u64, 2u32, 3.0f64));
        exact(Some(7u64));
        exact(Option::<u64>::None);
        exact(String::from("camera-7"));
        exact(vec![1u8, 2, 3]);
    }

    #[test]
    fn small_values_encode_small() {
        assert_eq!(encoded_len(&1u64), 1);
        assert_eq!(encoded_len(&300u64), 2);
        assert_eq!(encoded_len(&(-1i64)), 1);
        assert_eq!(encoded_len(&String::from("ab")), 3);
    }
}
