//! Simulated cluster transport for the `stcam` framework.
//!
//! The original system ran on a physical cluster over TCP/IP. This crate
//! substitutes an in-process **message fabric**: every cluster node holds an
//! [`Endpoint`] registered with a shared [`Fabric`], and messages travel
//! through a delivery thread that models per-link latency (base + per-byte),
//! deterministic jitter, probabilistic loss, network partitions, and node
//! crashes. Per-node and global counters account for every message and byte,
//! which the communication-cost experiment reads directly.
//!
//! What this preserves from a real deployment: message *counts*, message
//! *sizes*, request fan-out/fan-in structure, delivery ordering per link,
//! latency proportional to payload size, and all failure-handling code
//! paths. What it abstracts away: kernel networking overheads and
//! congestion — which is why the evaluation reports relative shapes rather
//! than absolute wall-clock numbers.
//!
//! # Example
//!
//! ```
//! use stcam_net::{Fabric, LinkModel, NodeId, Resend};
//! use std::time::Duration;
//!
//! let fabric = Fabric::new(LinkModel::instant());
//! let a = fabric.register(NodeId(0));
//! let b = fabric.register(NodeId(1));
//!
//! let call = a.call_start(NodeId(1), b"ping")?;
//! let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!((env.src, env.payload.as_slice()), (NodeId(0), &b"ping"[..]));
//! b.reply(&env, b"pong".to_vec())?;
//! let (answer, _) = a.call_wait(call, b"ping", &Resend::once(Duration::from_secs(1)));
//! assert_eq!(answer?, b"pong");
//! # Ok::<(), stcam_net::NetError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod envelope;
mod error;
mod fabric;
mod link;
mod peers;
mod replies;
mod stats;

pub use envelope::{Envelope, MessageKind, WIRE_OVERHEAD};
pub use error::NetError;
pub use fabric::{Endpoint, Fabric, PendingCall, Sends, Waker};
pub use link::LinkModel;
pub use peers::{PeerTable, Resend, MIN_RTO};
pub use stats::{FabricStats, NodeStats};

/// Identifier of a cluster node.
///
/// Plain `u32` wrapper; node 0 is conventionally the coordinator and
/// workers are numbered from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
