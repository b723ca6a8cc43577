//! The wire format, pinned: every frame in `tests/golden/frames.txt` was
//! written once by the codec of the commit named in that file, and must
//! decode and re-encode to the same bytes for ever after. A change to how
//! messages are *declared* may not move a byte on the link — the
//! communication-cost table counts them.

use std::collections::BTreeSet;

use stcam::{Notification, Request, Response};
use stcam_codec::{decode_from_slice, encode_to_vec, Wire};

/// One line of the golden file.
struct Golden {
    kind: &'static str,
    /// The variant's op name, without the `+` marker.
    name: &'static str,
    /// No `+`: every sequence in the value has at most one element.
    short: bool,
    bytes: Vec<u8>,
}

fn golden() -> Vec<Golden> {
    include_str!("golden/frames.txt")
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let mut parts = line.split(' ');
            let (kind, label, hex) = (
                parts.next().expect("kind"),
                parts.next().expect("name"),
                parts.next().expect("hex"),
            );
            assert!(parts.next().is_none(), "stray column in {line:?}");
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
                .collect();
            Golden {
                kind,
                name: label.trim_end_matches('+'),
                short: !label.ends_with('+'),
                bytes,
            }
        })
        .collect()
}

/// What one decode yields, with the type erased: the value's name, its
/// re-encoding and its size hint — or nothing, for a typed decode error.
type Decoded = Option<(&'static str, Vec<u8>, usize)>;

fn decoded<T: Wire>(bytes: &[u8], name: fn(&T) -> &'static str) -> Decoded {
    let value: T = decode_from_slice(bytes).ok()?;
    Some((name(&value), encode_to_vec(&value), value.size_hint()))
}

impl Golden {
    /// Decodes `bytes` as the type this frame's kind names.
    fn decode(&self, bytes: &[u8]) -> Decoded {
        match self.kind {
            "request" => decoded(bytes, Request::op_name),
            "response" => decoded(bytes, Response::op_name),
            "notification" => decoded::<Notification>(bytes, |_| "notification"),
            other => panic!("unknown kind {other:?}"),
        }
    }
}

#[test]
fn every_golden_frame_decodes_and_re_encodes_byte_identically() {
    let frames = golden();
    for frame in &frames {
        let (name, bytes, _) = frame
            .decode(&frame.bytes)
            .unwrap_or_else(|| panic!("{} {} does not decode", frame.kind, frame.name));
        assert_eq!(name, frame.name);
        assert_eq!(
            bytes, frame.bytes,
            "{} {name} re-encodes differently",
            frame.kind
        );
    }
    // The declarations say which variants exist; each needs a frame here.
    for (kind, variants) in [
        ("request", Request::VARIANTS),
        ("response", Response::VARIANTS),
    ] {
        let pinned: BTreeSet<(u8, &str)> = frames
            .iter()
            .filter(|frame| frame.kind == kind)
            .map(|frame| (frame.bytes[0], frame.name))
            .collect();
        let declared: BTreeSet<(u8, &str)> = variants.iter().copied().collect();
        assert_eq!(pinned, declared, "a {kind} variant has no golden frame");
    }
}

#[test]
fn size_hints_cover_frames_whose_sequences_are_short() {
    // `encode_to_vec` reserves `size_hint()` bytes: a hint below the
    // encoded length costs the hot frames a second allocation.
    for frame in golden().iter().filter(|frame| frame.short) {
        let (name, bytes, hint) = frame.decode(&frame.bytes).expect("golden frame");
        assert!(
            hint >= bytes.len(),
            "{} {name}: hint {hint} < {} bytes",
            frame.kind,
            bytes.len()
        );
    }
}

#[test]
fn a_mutated_golden_frame_never_panics_the_decoder() {
    // Valid frames cut at every length and with every byte altered reach
    // decoder states random bytes do not: each must end in a value or a
    // typed `DecodeError` (`decoded` maps it to `None`), never a panic.
    for frame in golden() {
        for cut in 0..frame.bytes.len() {
            frame.decode(&frame.bytes[..cut]);
        }
        let mut bytes = frame.bytes.clone();
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                bytes[i] ^= flip;
                frame.decode(&bytes);
                bytes[i] ^= flip;
            }
        }
    }
}
