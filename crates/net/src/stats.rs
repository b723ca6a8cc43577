//! Message and byte accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::NodeId;

/// Monotonic counters for one node's traffic.
#[derive(Debug, Default)]
pub struct NodeCounters {
    pub(crate) msgs_sent: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) msgs_received: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) msgs_dropped: AtomicU64,
    pub(crate) probes_sent: AtomicU64,
    pub(crate) not_held_sent: AtomicU64,
    pub(crate) held_dropped: AtomicU64,
    pub(crate) replayed_sent: AtomicU64,
}

/// A point-in-time snapshot of one node's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Messages this node has sent (whether or not delivered).
    pub msgs_sent: u64,
    /// Wire bytes this node has sent.
    pub bytes_sent: u64,
    /// Messages delivered to this node.
    pub msgs_received: u64,
    /// Wire bytes delivered to this node.
    pub bytes_received: u64,
    /// Messages addressed to or from this node that the fabric dropped
    /// (loss model, partitions, or crashed peers).
    pub msgs_dropped: u64,
    /// Probes this node sent when a retransmission timeout ran out (part
    /// of `msgs_sent`).
    pub probes_sent: u64,
    /// `NotHeld` bounces this node sent: probes of requests it did not
    /// hold (part of `msgs_sent`).
    pub not_held_sent: u64,
    /// Request copies and probes delivered to this node while it still
    /// held the request, and dropped there (part of `msgs_received`).
    pub held_dropped: u64,
    /// Stored replies sent again to probes and copies (part of `msgs_sent`).
    pub replayed_sent: u64,
}

impl NodeStats {
    /// Difference against an earlier snapshot of the same node: traffic
    /// that occurred in between. Saturating, so a stale `earlier` from a
    /// different node cannot underflow.
    pub fn since(&self, earlier: &NodeStats) -> NodeStats {
        NodeStats {
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            msgs_received: self.msgs_received.saturating_sub(earlier.msgs_received),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            msgs_dropped: self.msgs_dropped.saturating_sub(earlier.msgs_dropped),
            probes_sent: self.probes_sent.saturating_sub(earlier.probes_sent),
            not_held_sent: self.not_held_sent.saturating_sub(earlier.not_held_sent),
            held_dropped: self.held_dropped.saturating_sub(earlier.held_dropped),
            replayed_sent: self.replayed_sent.saturating_sub(earlier.replayed_sent),
        }
    }
}

impl NodeCounters {
    pub(crate) fn snapshot(&self) -> NodeStats {
        NodeStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            msgs_dropped: self.msgs_dropped.load(Ordering::Relaxed),
            probes_sent: self.probes_sent.load(Ordering::Relaxed),
            not_held_sent: self.not_held_sent.load(Ordering::Relaxed),
            held_dropped: self.held_dropped.load(Ordering::Relaxed),
            replayed_sent: self.replayed_sent.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the whole fabric's traffic.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Total messages accepted for delivery.
    pub total_msgs: u64,
    /// Total wire bytes accepted for delivery.
    pub total_bytes: u64,
    /// Total messages dropped by loss, partition, or crash.
    pub total_dropped: u64,
    /// Probes sent in place of a request copy (part of `total_msgs`).
    pub total_probes: u64,
    /// `NotHeld` bounces of probes (part of `total_msgs`).
    pub total_not_held: u64,
    /// Request copies and probes dropped at delivery because their
    /// destination still held the request.
    pub total_held_dropped: u64,
    /// Stored replies sent again to probes and copies (part of `total_msgs`).
    pub total_replayed: u64,
    /// Largest single response frame (payload + envelope overhead) any
    /// node has sent — the high-water mark the paged-streaming protocol
    /// bounds. A high-water, not a counter: [`since`](Self::since)
    /// carries it forward instead of subtracting.
    pub max_response_bytes: u64,
    /// Per-node counter snapshots.
    pub per_node: HashMap<NodeId, NodeStats>,
}

impl FabricStats {
    /// Difference against an earlier snapshot: traffic that occurred in
    /// between. Per-node entries present only in `self` are kept as-is.
    pub fn since(&self, earlier: &FabricStats) -> FabricStats {
        let per_node = self
            .per_node
            .iter()
            .map(|(node, now)| {
                let then = earlier.per_node.get(node).copied().unwrap_or_default();
                (*node, now.since(&then))
            })
            .collect();
        FabricStats {
            total_msgs: self.total_msgs - earlier.total_msgs,
            total_bytes: self.total_bytes - earlier.total_bytes,
            total_dropped: self.total_dropped - earlier.total_dropped,
            total_probes: self.total_probes - earlier.total_probes,
            total_not_held: self.total_not_held - earlier.total_not_held,
            total_held_dropped: self.total_held_dropped - earlier.total_held_dropped,
            total_replayed: self.total_replayed - earlier.total_replayed,
            max_response_bytes: self.max_response_bytes,
            per_node,
        }
    }
}

/// Shared registry of all node counters plus fabric-level totals.
#[derive(Debug, Default)]
pub(crate) struct StatsRegistry {
    pub(crate) total_msgs: AtomicU64,
    pub(crate) total_bytes: AtomicU64,
    pub(crate) total_dropped: AtomicU64,
    pub(crate) total_probes: AtomicU64,
    pub(crate) total_not_held: AtomicU64,
    pub(crate) total_held_dropped: AtomicU64,
    pub(crate) total_replayed: AtomicU64,
    pub(crate) max_response_bytes: AtomicU64,
    pub(crate) nodes: RwLock<HashMap<NodeId, std::sync::Arc<NodeCounters>>>,
}

impl StatsRegistry {
    pub(crate) fn snapshot(&self) -> FabricStats {
        FabricStats {
            total_msgs: self.total_msgs.load(Ordering::Relaxed),
            total_bytes: self.total_bytes.load(Ordering::Relaxed),
            total_dropped: self.total_dropped.load(Ordering::Relaxed),
            total_probes: self.total_probes.load(Ordering::Relaxed),
            total_not_held: self.total_not_held.load(Ordering::Relaxed),
            total_held_dropped: self.total_held_dropped.load(Ordering::Relaxed),
            total_replayed: self.total_replayed.load(Ordering::Relaxed),
            max_response_bytes: self.max_response_bytes.load(Ordering::Relaxed),
            per_node: self
                .nodes
                .read()
                .iter()
                .map(|(id, c)| (*id, c.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_since_subtracts_and_saturates() {
        let a = NodeStats {
            msgs_sent: 4,
            bytes_sent: 100,
            probes_sent: 1,
            held_dropped: 2,
            ..Default::default()
        };
        let b = NodeStats {
            msgs_sent: 9,
            bytes_sent: 350,
            probes_sent: 3,
            not_held_sent: 1,
            held_dropped: 2,
            replayed_sent: 4,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.msgs_sent, 5);
        assert_eq!(d.bytes_sent, 250);
        assert_eq!(
            (
                d.probes_sent,
                d.not_held_sent,
                d.held_dropped,
                d.replayed_sent
            ),
            (2, 1, 0, 4)
        );
        // Saturating: a mismatched baseline does not underflow.
        assert_eq!(a.since(&b).msgs_sent, 0);
    }

    #[test]
    fn since_subtracts() {
        let mut a = FabricStats {
            total_msgs: 10,
            total_bytes: 1000,
            total_probes: 2,
            total_held_dropped: 1,
            ..Default::default()
        };
        a.per_node.insert(
            NodeId(1),
            NodeStats {
                msgs_sent: 4,
                ..Default::default()
            },
        );
        let mut b = a.clone();
        b.total_msgs = 25;
        b.total_bytes = 2500;
        b.total_probes = 7;
        b.total_not_held = 3;
        b.total_held_dropped = 4;
        b.total_replayed = 2;
        b.per_node.get_mut(&NodeId(1)).unwrap().msgs_sent = 9;
        let d = b.since(&a);
        assert_eq!(d.total_msgs, 15);
        assert_eq!(d.total_bytes, 1500);
        assert_eq!(
            (
                d.total_probes,
                d.total_not_held,
                d.total_held_dropped,
                d.total_replayed
            ),
            (5, 3, 3, 2)
        );
        assert_eq!(d.per_node[&NodeId(1)].msgs_sent, 5);
    }
}
