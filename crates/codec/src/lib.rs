//! Deterministic binary wire format for messages between `stcam` cluster
//! nodes.
//!
//! The distributed framework accounts for every byte that crosses the
//! (simulated) network — the communication-cost experiment (Table 2 of the
//! evaluation) reports exact wire sizes — so serialization is implemented
//! from scratch rather than delegated to an opaque third-party format.
//!
//! * [`Wire`] — the encode/decode trait, implemented for all primitives,
//!   `String`, `Vec<T>`, `Option<T>`, tuples, and the `stcam-geo` types.
//! * [`declare`] — [`wire_struct!`] and [`wire_enum!`]: one declaration of
//!   a message's tag, name and fields generates the type, its `encode`,
//!   `decode` and `size_hint`, and an enum's tag table. Every protocol
//!   message of `stcam` is stated through them.
//! * [`varint`] — LEB128 variable-length integers with ZigZag for signed
//!   values; small ids and counts dominate the traffic, so this roughly
//!   halves message sizes compared to fixed-width encoding.
//! * [`frame`] — length-prefixed, CRC-32-protected framing for transport.
//! * [`segment`] — the sealed-segment frame: per-cell columnar blocks
//!   with a footer directory, the at-rest/wire form of the index's
//!   immutable archive tier.
//!
//! # Example
//!
//! ```
//! use stcam_codec::{decode_from_slice, encode_to_vec, Wire};
//!
//! let msg = (42u64, String::from("camera-7"), vec![1.5f64, 2.5]);
//! let bytes = encode_to_vec(&msg);
//! let back: (u64, String, Vec<f64>) = decode_from_slice(&bytes)?;
//! assert_eq!(back, msg);
//! # Ok::<(), stcam_codec::DecodeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod declare;
mod error;
pub mod frame;
mod geo_impls;
pub mod segment;
pub mod varint;
mod wire;

/// `Buf`/`BufMut` for the code the declaration macros expand to, so a crate
/// that declares a message need not depend on `bytes` itself.
#[doc(hidden)]
pub use bytes as __bytes;
pub use declare::{assert_tags_distinct, Bytes, Plain, WireAs};
pub use error::DecodeError;
pub use frame::{read_frame, write_frame, FrameHeader, MAX_FRAME_LEN};
pub use segment::{SegmentBlock, SegmentFrame, SEGMENT_MAGIC, SEGMENT_VERSION};
pub use wire::{decode_from_slice, encode_into, encode_to_vec, encoded_len, Wire, MAX_SEQ_LEN};
