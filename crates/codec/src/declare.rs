//! Message declarations: [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) turn one statement of a message's
//! fields into the type and its [`Wire`] implementation, so the layout of
//! a message is written down once.
//!
//! A field is `name: Type`, optionally followed by
//!
//! * `as Adapter` — the field travels in `Adapter`'s layout instead of
//!   `Type`'s own ([`WireAs`]): an id newtype as its bare integer, a row
//!   list as a columnar batch, a `Vec<u8>` as one slice ([`Bytes`]);
//! * `where (condition) else "reason"` — decoding fails with
//!   [`DecodeError::InvalidValue`] unless `condition` holds. The condition
//!   sees this field and every field declared before it, by value.
//!
//! Fields are encoded in declaration order; `size_hint` is the sum of the
//! fields' hints. A [`wire_enum!`](crate::wire_enum) variant is
//! `Variant = tag "name"` followed by nothing, `{ fields }` or one
//! `(field)`; the tag byte leads the encoding.
//!
//! ```
//! use stcam_codec::{decode_from_slice, encode_to_vec, wire_enum, wire_struct, DecodeError};
//!
//! wire_struct! {
//!     /// A half-open page range.
//!     #[derive(Debug, PartialEq)]
//!     pub struct Pages {
//!         /// First page.
//!         pub from: u32,
//!         /// One past the last page.
//!         pub to: u32 where (from < to) else "empty page range",
//!     }
//! }
//!
//! wire_enum! {
//!     /// What a reader asks for.
//!     #[derive(Debug, PartialEq)]
//!     pub enum Ask {
//!         retired [1];
//!         /// Everything.
//!         All = 0 "all",
//!         /// Some pages.
//!         Some = 2 "some" (pages: Pages),
//!     }
//! }
//!
//! let ask = Ask::Some(Pages { from: 3, to: 9 });
//! assert_eq!(ask.op_name(), "some");
//! assert_eq!(encode_to_vec(&ask), [2, 3, 9]);
//! assert_eq!(decode_from_slice::<Ask>(&[2, 3, 9])?, ask);
//! assert!(matches!(decode_from_slice::<Ask>(&[2, 9, 3]), Err(DecodeError::InvalidValue { .. })));
//! assert!(matches!(decode_from_slice::<Ask>(&[1]), Err(DecodeError::InvalidDiscriminant { .. })));
//! # Ok::<(), DecodeError>(())
//! ```

use bytes::{Buf, BufMut};

use crate::wire::decode_byte_string;
use crate::{varint, DecodeError, Wire};

/// A wire layout for values of type `T` other than `T`'s own [`Wire`]
/// form — what the `as Adapter` of a declared field names.
pub trait WireAs<T> {
    /// Appends `value` to `buf` in this layout.
    fn encode<B: BufMut>(value: &T, buf: &mut B);

    /// Reads one value in this layout from the front of `buf`.
    ///
    /// # Errors
    ///
    /// As [`Wire::decode`].
    fn decode<B: Buf>(buf: &mut B) -> Result<T, DecodeError>;

    /// As [`Wire::size_hint`].
    fn size_hint(value: &T) -> usize;
}

/// The layout of a field declared without `as`: the type's own [`Wire`]
/// form.
#[derive(Debug)]
pub struct Plain;

impl<T: Wire> WireAs<T> for Plain {
    fn encode<B: BufMut>(value: &T, buf: &mut B) {
        value.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<T, DecodeError> {
        T::decode(buf)
    }
    fn size_hint(value: &T) -> usize {
        value.size_hint()
    }
}

/// A byte string moved as one slice: the bytes of the plain `Vec<u8>`
/// layout (varint length, then the bytes), written with one `put_slice`
/// and read with one `copy_to_slice` instead of one call per byte.
#[derive(Debug)]
pub struct Bytes;

impl WireAs<Vec<u8>> for Bytes {
    fn encode<B: BufMut>(value: &Vec<u8>, buf: &mut B) {
        varint::write_u64(buf, value.len() as u64);
        buf.put_slice(value);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Vec<u8>, DecodeError> {
        decode_byte_string(buf, "byte string")
    }
    fn size_hint(value: &Vec<u8>) -> usize {
        varint::len_u64(value.len() as u64) + value.len()
    }
}

/// Fails the build of a [`wire_enum!`](crate::wire_enum) declaration in
/// which two variants share a tag or one takes a retired tag: a frame of
/// an old layout must fail to decode, not alias a new message.
pub const fn assert_tags_distinct(assigned: &[u8], retired: &[u8]) {
    let mut i = 0;
    while i < assigned.len() {
        let mut j = i + 1;
        while j < assigned.len() {
            assert!(assigned[i] != assigned[j], "two variants share a tag");
            j += 1;
        }
        let mut j = 0;
        while j < retired.len() {
            assert!(assigned[i] != retired[j], "a variant takes a retired tag");
            j += 1;
        }
        i += 1;
    }
}

/// The adapter type of a declared field: `Plain` unless `as` names one.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_adapter {
    () => {
        $crate::Plain
    };
    ($adapter:ty) => {
        $adapter
    };
}

/// The three bodies generated from one field list. Each field name must
/// be bound to a reference (`@encode`, `@hint`) and is bound to the
/// decoded value by `@decode`.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_fields {
    (@encode $buf:ident; $($field:ident : $fty:ty $(as $adapter:ty)?
        $(where ($check:expr) else $reason:literal)?),*) => {
        $(<$crate::__wire_adapter!($($adapter)?) as $crate::WireAs<$fty>>::encode($field, $buf);)*
    };
    (@decode $buf:ident; $($field:ident : $fty:ty $(as $adapter:ty)?
        $(where ($check:expr) else $reason:literal)?),*) => {
        $(
            let $field = <$crate::__wire_adapter!($($adapter)?) as $crate::WireAs<$fty>>::decode($buf)?;
            $(if !($check) {
                return Err($crate::DecodeError::InvalidValue { reason: $reason });
            })?
        )*
    };
    (@hint $($field:ident : $fty:ty $(as $adapter:ty)?
        $(where ($check:expr) else $reason:literal)?),*) => {
        0 $(+ <$crate::__wire_adapter!($($adapter)?) as $crate::WireAs<$fty>>::size_hint($field))*
    };
}

/// Declares a struct and its [`Wire`](crate::Wire) implementation from
/// one field list (see the [module documentation](crate::declare)).
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $fty:ty $(as $adapter:ty)?
                    $(where ($check:expr) else $reason:literal)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)*
        }

        impl $crate::Wire for $name {
            fn encode<B: $crate::__bytes::BufMut>(&self, buf: &mut B) {
                let Self { $($field),* } = self;
                $crate::__wire_fields!(@encode buf;
                    $($field: $fty $(as $adapter)? $(where ($check) else $reason)?),*);
            }
            fn decode<B: $crate::__bytes::Buf>(buf: &mut B) -> Result<Self, $crate::DecodeError> {
                $crate::__wire_fields!(@decode buf;
                    $($field: $fty $(as $adapter)? $(where ($check) else $reason)?),*);
                Ok(Self { $($field),* })
            }
            fn size_hint(&self) -> usize {
                let Self { $($field),* } = self;
                $crate::__wire_fields!(@hint
                    $($field: $fty $(as $adapter)? $(where ($check) else $reason)?),*)
            }
        }
    };
}

/// Declares a tagged enum, its [`Wire`](crate::Wire) implementation, its
/// tag table and its variants' names from one list of variants (see the
/// [module documentation](crate::declare)).
///
/// Beside the type it generates `VARIANTS`, the `(tag, name)` of every
/// variant in declaration order; `RETIRED`, the tags named after
/// `retired` that no variant may take again; `op_name`; and
/// `decode_tagged`, the decoder for a value whose tag byte is already
/// read.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            retired [$($retired:literal),*];
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:tt $op:literal
                $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $fty:ty $(as $adapter:ty)?
                            $(where ($check:expr) else $reason:literal)?
                    ),* $(,)?
                })?
                $((
                    $tfield:ident : $tty:ty $(as $tadapter:ty)?
                        $(where ($tcheck:expr) else $treason:literal)?
                ))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $fty,)* })? $(($tty))?,
            )*
        }

        const _: () = $crate::assert_tags_distinct(&[$($tag),*], &[$($retired),*]);

        impl $name {
            /// `(tag byte, name)` of every variant, in declaration order.
            pub const VARIANTS: &'static [(u8, &'static str)] = &[$(($tag, $op)),*];

            /// Tags of variants that no longer exist. They stay unassigned,
            /// so a frame of an old layout fails to decode instead of
            /// aliasing a new message.
            pub const RETIRED: &'static [u8] = &[$($retired),*];

            /// The stable name of this value's variant — for a request,
            /// the label of its per-operation counters and policies.
            pub fn op_name(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $op,)*
                }
            }

            /// Decodes the fields of the variant whose tag byte, `tag`, is
            /// already read.
            ///
            /// # Errors
            ///
            /// As `Wire::decode`; `InvalidDiscriminant` for a tag no
            /// variant has.
            pub fn decode_tagged<B: $crate::__bytes::Buf>(
                tag: u8,
                buf: &mut B,
            ) -> Result<Self, $crate::DecodeError> {
                match tag {
                    $($tag => {
                        $crate::__wire_fields!(@decode buf;
                            $($($field: $fty $(as $adapter)?
                                $(where ($check) else $reason)?),*)?
                            $($tfield: $tty $(as $tadapter)?
                                $(where ($tcheck) else $treason)?)?);
                        Ok(Self::$variant $({ $($field),* })? $(($tfield))?)
                    })*
                    other => Err($crate::DecodeError::InvalidDiscriminant {
                        type_name: stringify!($name),
                        value: other as u64,
                    }),
                }
            }
        }

        impl $crate::Wire for $name {
            fn encode<B: $crate::__bytes::BufMut>(&self, buf: &mut B) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($tfield))? => {
                        buf.put_u8($tag);
                        $crate::__wire_fields!(@encode buf;
                            $($($field: $fty $(as $adapter)?),*)?
                            $($tfield: $tty $(as $tadapter)?)?);
                    })*
                }
            }
            fn decode<B: $crate::__bytes::Buf>(buf: &mut B) -> Result<Self, $crate::DecodeError> {
                let tag = <u8 as $crate::Wire>::decode(buf)?;
                Self::decode_tagged(tag, buf)
            }
            fn size_hint(&self) -> usize {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($tfield))? => {
                        1 + $crate::__wire_fields!(@hint
                            $($($field: $fty $(as $adapter)?),*)?
                            $($tfield: $tty $(as $tadapter)?)?)
                    })*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, encode_to_vec, encoded_len};

    /// A `u32` that travels as one fixed byte.
    struct Byte;

    impl WireAs<u32> for Byte {
        fn encode<B: BufMut>(value: &u32, buf: &mut B) {
            buf.put_u8(*value as u8);
        }
        fn decode<B: Buf>(buf: &mut B) -> Result<u32, DecodeError> {
            u8::decode(buf).map(u32::from)
        }
        fn size_hint(_: &u32) -> usize {
            1
        }
    }

    wire_struct! {
        /// A page of a result.
        #[derive(Debug, Clone, PartialEq)]
        struct Page {
            /// This page.
            page: u32,
            /// How many there are.
            pages: u32 where (page < pages) else "page out of range",
            /// Its kind, one byte.
            kind: u32 as Byte,
            /// Its rows.
            rows: Vec<u64>,
        }
    }

    const WRAP: u8 = 7;

    wire_enum! {
        /// Every variant shape.
        #[derive(Debug, Clone, PartialEq)]
        enum Message {
            retired [1, 3];
            /// No fields.
            Unit = 0 "unit",
            /// One unnamed field.
            Tuple = 2 "tuple" (kind: u32 as Byte where (kind < 9) else "unknown kind"),
            /// Named fields.
            Struct = 4 "struct" {
                /// A page.
                page: Page,
                /// A label.
                label: String,
            },
            /// A tag that code names.
            Wrap = WRAP "wrap" (inner: Option<u64>),
        }
    }

    fn page() -> Page {
        Page {
            page: 1,
            pages: 300,
            kind: 5,
            rows: vec![9],
        }
    }

    #[test]
    fn fields_are_laid_out_in_declaration_order() {
        assert_eq!(encode_to_vec(&page()), [1, 0xAC, 0x02, 5, 1, 9]);
        assert_eq!(
            decode_from_slice::<Page>(&[1, 0xAC, 0x02, 5, 1, 9]),
            Ok(page())
        );
    }

    #[test]
    fn a_tag_byte_leads_every_variant() {
        let all = [
            (Message::Unit, vec![0]),
            (Message::Tuple(8), vec![2, 8]),
            (
                Message::Struct {
                    page: page(),
                    label: "ab".into(),
                },
                vec![4, 1, 0xAC, 0x02, 5, 1, 9, 2, b'a', b'b'],
            ),
            (Message::Wrap(Some(3)), vec![WRAP, 1, 3]),
        ];
        for (value, bytes) in all {
            assert_eq!(encode_to_vec(&value), bytes);
            assert_eq!(decode_from_slice::<Message>(&bytes), Ok(value));
        }
    }

    #[test]
    fn tables_follow_the_declaration() {
        assert_eq!(
            Message::VARIANTS,
            [(0, "unit"), (2, "tuple"), (4, "struct"), (WRAP, "wrap")]
        );
        assert_eq!(Message::RETIRED, [1, 3]);
        assert_eq!(Message::Tuple(0).op_name(), "tuple");
        assert_eq!(
            Message::decode_tagged(2, &mut &[8u8][..]),
            Ok(Message::Tuple(8))
        );
    }

    #[test]
    fn validators_reject_at_decode() {
        assert_eq!(
            decode_from_slice::<Page>(&[3, 3, 0, 0]),
            Err(DecodeError::InvalidValue {
                reason: "page out of range"
            })
        );
        assert_eq!(
            decode_from_slice::<Message>(&[2, 9]),
            Err(DecodeError::InvalidValue {
                reason: "unknown kind"
            })
        );
    }

    #[test]
    fn retired_and_unknown_tags_are_rejected() {
        for tag in [1, 3, 5, 200] {
            assert_eq!(
                decode_from_slice::<Message>(&[tag]),
                Err(DecodeError::InvalidDiscriminant {
                    type_name: "Message",
                    value: tag as u64
                })
            );
        }
    }

    #[test]
    fn size_hint_is_the_sum_of_the_fields() {
        for value in [
            Message::Unit,
            Message::Tuple(8),
            Message::Struct {
                page: page(),
                label: "ab".into(),
            },
            Message::Wrap(None),
        ] {
            assert_eq!(value.size_hint(), encoded_len(&value));
        }
    }

    #[test]
    fn bytes_layout_is_the_plain_vec_layout() {
        for len in [0, 1, 127, 128, 16_383, 16_384, 57_344] {
            let value: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut bytes = Vec::new();
            <Bytes as WireAs<Vec<u8>>>::encode(&value, &mut bytes);
            assert_eq!(bytes, encode_to_vec(&value), "length {len}");
            assert_eq!(<Bytes as WireAs<Vec<u8>>>::size_hint(&value), bytes.len());
            let mut slice = &bytes[..];
            assert_eq!(<Bytes as WireAs<Vec<u8>>>::decode(&mut slice), Ok(value));
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn bytes_layout_rejects_lengths_it_cannot_hold() {
        let decode = |mut bytes: &[u8]| <Bytes as WireAs<Vec<u8>>>::decode(&mut bytes);
        // Three bytes declared, two present.
        assert_eq!(
            decode(&[3, 1, 2]),
            Err(DecodeError::UnexpectedEnd {
                context: "byte string"
            })
        );
        let mut beyond = Vec::new();
        varint::write_u64(&mut beyond, crate::MAX_SEQ_LEN + 1);
        assert_eq!(
            decode(&beyond),
            Err(DecodeError::LengthOverflow {
                declared: crate::MAX_SEQ_LEN + 1,
                max: crate::MAX_SEQ_LEN
            })
        );
    }

    #[test]
    #[should_panic(expected = "retired tag")]
    fn a_retired_tag_cannot_be_taken() {
        assert_tags_distinct(&[0, 2, 3], &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "share a tag")]
    fn a_tag_cannot_be_shared() {
        assert_tags_distinct(&[0, 2, 2], &[]);
    }
}
