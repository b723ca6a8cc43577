//! Message envelopes carried by the fabric.

use crate::NodeId;

/// How a message participates in the request/response protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// A [`Waker`](crate::Waker)'s marker, put straight into its own
    /// node's inbox. Never on the wire: every message that crosses a link
    /// is a call or part of one.
    Wake,
    /// An RPC request; delivered to the receiver's inbox, carrying a
    /// correlation id the receiver must echo in its reply.
    Request,
    /// An RPC response; routed directly to the caller blocked in
    /// [`Endpoint::call`](crate::Endpoint::call) rather than the inbox.
    Response,
    /// A caller's "what became of this request?", sent in place of a
    /// copy when a retransmission timeout runs out. Header only: the
    /// destination's fabric drops it while the node holds the request, and
    /// answers [`Replay`](Self::Replay) or [`NotHeld`](Self::NotHeld).
    Probe,
    /// The bounce of a [`Probe`](Self::Probe) whose request the
    /// destination does not know (lost, or its reply forgotten). Header
    /// only; the waiting caller then sends the request again in full.
    NotHeld,
    /// The destination's stored response to a request its node answered,
    /// sent again to a probe or a copy. Resolves the call like a
    /// [`Response`](Self::Response), but is never a round-trip sample.
    Replay,
}

/// A message as delivered to a receiving endpoint.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Protocol role of this message.
    pub kind: MessageKind,
    /// Correlation id of the call the message belongs to.
    pub correlation: u64,
    /// Opaque payload bytes (typically a `stcam-codec` encoded value).
    pub payload: Vec<u8>,
}

/// Fixed per-message envelope overhead a real transport would add,
/// charged on top of the payload (16 bytes: src, dst, kind, correlation).
/// Public so layers above the fabric can account wire bytes per call
/// without a fabric-counter round trip.
pub const WIRE_OVERHEAD: u64 = 16;

impl Envelope {
    /// Total accounted wire size of this message: payload plus
    /// [`WIRE_OVERHEAD`].
    pub fn wire_size(&self) -> u64 {
        self.payload.len() as u64 + WIRE_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_overhead() {
        let e = Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            kind: MessageKind::Request,
            correlation: 1,
            payload: vec![0u8; 100],
        };
        assert_eq!(e.wire_size(), 116);
    }
}
