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
                bytes,
            }
        })
        .collect()
}

/// Decodes `frame` as a `T`, re-encodes it, and requires the same bytes.
fn reencode<T: Wire>(frame: &Golden) -> T {
    let value: T = decode_from_slice(&frame.bytes)
        .unwrap_or_else(|e| panic!("{} {}: {e}", frame.kind, frame.name));
    assert_eq!(
        encode_to_vec(&value),
        frame.bytes,
        "{} {} re-encodes differently",
        frame.kind,
        frame.name
    );
    value
}

#[test]
fn every_golden_frame_decodes_and_re_encodes_byte_identically() {
    let mut requests = BTreeSet::new();
    let mut response_tags = BTreeSet::new();
    for frame in golden() {
        match frame.kind {
            "request" => {
                let request: Request = reencode(&frame);
                assert_eq!(request.op_name(), frame.name);
                requests.insert(frame.name);
            }
            "response" => {
                reencode::<Response>(&frame);
                response_tags.insert(frame.bytes[0]);
            }
            "notification" => {
                reencode::<Notification>(&frame);
            }
            other => panic!("unknown kind {other:?}"),
        }
    }
    assert_eq!(requests.len(), 22, "a Request variant has no golden frame");
    assert_eq!(
        response_tags.len(),
        12,
        "a Response variant has no golden frame"
    );
}
