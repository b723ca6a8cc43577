//! What one client knows of each peer: when to ask after a request
//! again, and whether the peer is suspected down.
//!
//! *When to send again* and *when to give up* are different questions. A
//! caller's patience (its timeout × attempts) answers the second and is
//! the caller's to choose; the first is a property of the path, and this
//! module measures it: a Jacobson/Karels estimator (`SRTT + 4·RTTVAR`,
//! RFC 6298) per **(request class, destination)**. The class is part of
//! the key because one worker answers a point read in 0.3 ms and an
//! archive scan in 60 ms — a per-destination estimate alone would re-send
//! every slow request it ever saw a fast one beside.
//!
//! Beside the estimates sits each peer's **streak**: calls given up on
//! since its last answer. Any answer clears it, so a single timeout under
//! load never diverts traffic for long, while a dead peer is suspect
//! after its first unanswered call. Both are written once per call, at
//! the end of [`Endpoint::call_wait`](crate::Endpoint::call_wait), and
//! read far more often — on every wait, failover ranking and kNN anchor —
//! so one `RwLock` guards the table and readers never queue behind each
//! other.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::NodeId;

/// Floor of every measured retransmission timeout.
///
/// A constant, not a setting. What an early timeout costs is a probe: a
/// 16-byte header that the peer drops while it holds the request, so a
/// reply that was merely late — a few percent of sub-millisecond
/// exchanges take over 2 ms on a two-core host — costs 16 bytes, not a
/// second copy of the frame and a second execution. That makes a low
/// floor cheap: no floor from 0.5 to 10 ms moves the wire bytes, and
/// 0.5 ms buys nothing measurable over 1 ms, which stays ≈ 5× a clean
/// fabric round trip and so a floor on a slower host too (DESIGN §4.1
/// has the table for 0.5, 1, 2, 5 and 10 ms).
pub const MIN_RTO: Duration = Duration::from_millis(1);

/// Smoothed round trip and its mean deviation for one pair.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    srtt: Duration,
    rttvar: Duration,
}

#[derive(Debug, Default)]
struct Peers {
    rtts: HashMap<(&'static str, NodeId), Estimate>,
    /// Calls given up on since the peer's last answer.
    streaks: HashMap<NodeId, u32>,
}

/// Every peer one logical client has called: the retransmission timeout
/// of each (request class, destination) pair and each destination's
/// failure streak. Internally synchronised: the endpoints of one client
/// share a table.
#[derive(Debug, Default)]
pub struct PeerTable {
    peers: RwLock<Peers>,
}

impl PeerTable {
    /// How long to wait for `to`'s answer to a `class` request before
    /// sending it again: `SRTT + 4·RTTVAR`, no less than [`MIN_RTO`] and
    /// no more than `cap` — and `cap` itself until the pair has a sample,
    /// so a fresh pair and a silent peer wait exactly as long as a caller
    /// without an estimator would.
    pub fn rto(&self, class: &'static str, to: NodeId, cap: Duration) -> Duration {
        match self.peers.read().rtts.get(&(class, to)) {
            Some(e) => (e.srtt + 4 * e.rttvar).max(MIN_RTO).min(cap),
            None => cap,
        }
    }

    /// Books how one `class` call to `to` ended: an answered call clears
    /// the peer's streak, one given up on adds 1 to it. `rtt` is the
    /// round trip of an answered call when it measures the path — its
    /// frame went on the wire once and the response, not a replay,
    /// answered it (Karn's rule) — and is folded into the pair's
    /// estimate.
    pub fn record(&self, class: &'static str, to: NodeId, answered: bool, rtt: Option<Duration>) {
        let mut peers = self.peers.write();
        let streak = peers.streaks.entry(to).or_default();
        *streak = if answered {
            0
        } else {
            streak.saturating_add(1)
        };
        if let Some(rtt) = rtt {
            peers
                .rtts
                .entry((class, to))
                .and_modify(|e| {
                    e.rttvar = (3 * e.rttvar + e.srtt.abs_diff(rtt)) / 4;
                    e.srtt = (7 * e.srtt + rtt) / 8;
                })
                .or_insert(Estimate {
                    srtt: rtt,
                    rttvar: rtt / 2,
                });
        }
    }

    /// Whether a call to `to` went unanswered since its last answer.
    pub fn is_suspect(&self, to: NodeId) -> bool {
        self.peers.read().streaks.get(&to).is_some_and(|&n| n > 0)
    }

    /// Stably orders `candidates` by ascending streak: unsuspected peers
    /// first, ties in their given (ring) order.
    pub fn rank(&self, candidates: &mut [NodeId]) {
        let peers = self.peers.read();
        candidates.sort_by_key(|to| peers.streaks.get(to).copied().unwrap_or(0));
    }

    /// Clears `to`'s streak, keeping its round-trip estimates: a
    /// readmitted worker is a fresh incarnation, and what its old one
    /// failed to answer would demote it in every ranking until answers
    /// drained the streak.
    pub fn forget(&self, to: NodeId) {
        self.peers.write().streaks.remove(&to);
    }

    /// Every peer with a streak on record and its length, by node id.
    pub fn snapshot(&self) -> Vec<(NodeId, u32)> {
        let peers = self.peers.read();
        let mut all: Vec<_> = peers.streaks.iter().map(|(&n, &s)| (n, s)).collect();
        all.sort_unstable();
        all
    }
}

/// How [`Endpoint::call_wait`](crate::Endpoint::call_wait) waits for one
/// answer: a probe goes out under the call's correlation each time the
/// retransmission timeout runs out — which doubles after every probe, up
/// to `timeout` — for at most `max_sends` sends in all (the frame, then
/// probes), and the call fails only `timeout × max_sends` after its
/// first send (or at `deadline`, when that comes first). Probing early
/// never shortens that patience, and a wait begun too late for it still
/// makes every send and gives the last one its retransmission timeout.
#[derive(Debug, Clone, Copy)]
pub struct Resend<'a> {
    /// The request class, which with the destination keys the estimate.
    pub class: &'static str,
    /// Where the first retransmission timeout comes from and where the
    /// call's outcome is booked; `None` waits `timeout` between sends and
    /// books nothing.
    pub peers: Option<&'a PeerTable>,
    /// The longest wait before a re-send, and the wait of a pair without
    /// a sample.
    pub timeout: Duration,
    /// Sends in all, the frame and its probes (1 = never probe).
    pub max_sends: u32,
    /// An instant after which the caller has no use for the answer.
    pub deadline: Option<Instant>,
}

impl Resend<'_> {
    /// One send, `timeout` of patience: a plain blocking call.
    pub fn once(timeout: Duration) -> Self {
        Resend {
            class: "",
            peers: None,
            timeout,
            max_sends: 1,
            deadline: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Duration = Duration::from_millis(100);
    const PEER: NodeId = NodeId(1);

    fn micros(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// An answered `class` call to `to` whose round trip `rtt` is a sample.
    fn sample(table: &PeerTable, class: &'static str, to: NodeId, rtt: Duration) {
        table.record(class, to, true, Some(rtt));
    }

    /// A call to `to` given up on.
    fn give_up(table: &PeerTable, to: NodeId) {
        table.record("range", to, false, None);
    }

    #[test]
    fn a_pair_without_a_sample_waits_the_whole_timeout() {
        let table = PeerTable::default();
        assert_eq!(table.rto("range", PEER, CAP), CAP);
        // A sample for one class says nothing about another, nor about
        // another destination.
        sample(&table, "range", PEER, micros(400));
        assert_eq!(table.rto("heatmap", PEER, CAP), CAP);
        assert_eq!(table.rto("range", NodeId(2), CAP), CAP);
    }

    #[test]
    fn steady_fast_samples_settle_on_the_floor() {
        let table = PeerTable::default();
        for _ in 0..50 {
            sample(&table, "range", PEER, micros(400));
        }
        assert_eq!(table.rto("range", PEER, CAP), MIN_RTO);
    }

    #[test]
    fn a_wide_spread_keeps_the_rto_above_the_slow_samples() {
        let table = PeerTable::default();
        for i in 0..200 {
            let rtt = if i % 2 == 0 { 1 } else { 40 };
            sample(&table, "range", PEER, Duration::from_millis(rtt));
            if i >= 8 {
                let rto = table.rto("range", PEER, Duration::from_secs(5));
                assert!(rto >= Duration::from_millis(40), "{rto:?} after {i}");
            }
        }
    }

    #[test]
    fn an_answer_without_a_sample_leaves_the_estimate() {
        let table = PeerTable::default();
        table.record("range", PEER, true, None);
        assert_eq!(table.rto("range", PEER, CAP), CAP, "Karn: still unsampled");
        sample(&table, "range", PEER, micros(400));
        let settled = table.rto("range", PEER, CAP);
        table.record("range", PEER, true, None);
        give_up(&table, PEER);
        assert_eq!(table.rto("range", PEER, CAP), settled);
    }

    #[test]
    fn the_rto_never_exceeds_the_timeout() {
        let table = PeerTable::default();
        for _ in 0..10 {
            sample(&table, "range", PEER, Duration::from_secs(1));
        }
        assert_eq!(table.rto("range", PEER, CAP), CAP);
        // Nor does a timeout below the floor get raised to it.
        let tiny = Duration::from_millis(3);
        assert_eq!(table.rto("range", PEER, tiny), tiny);
    }

    #[test]
    fn an_answer_clears_the_streak() {
        let table = PeerTable::default();
        assert!(!table.is_suspect(PEER));
        give_up(&table, PEER);
        give_up(&table, PEER);
        assert_eq!(table.snapshot(), vec![(PEER, 2)]);
        assert!(table.is_suspect(PEER));
        // Any class's answer counts, sampled or not.
        table.record("heatmap", PEER, true, None);
        assert_eq!(table.snapshot(), vec![(PEER, 0)]);
        assert!(!table.is_suspect(PEER));
    }

    #[test]
    fn rank_prefers_unsuspected_peers_and_keeps_ring_order_on_ties() {
        let table = PeerTable::default();
        give_up(&table, NodeId(2));
        give_up(&table, NodeId(2));
        give_up(&table, NodeId(4));
        let mut candidates = vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
        table.rank(&mut candidates);
        assert_eq!(candidates, vec![NodeId(3), NodeId(5), NodeId(4), NodeId(2)]);
    }

    #[test]
    fn forget_clears_the_streak_and_keeps_the_estimate() {
        let table = PeerTable::default();
        for _ in 0..50 {
            sample(&table, "range", NodeId(4), micros(400));
        }
        give_up(&table, NodeId(4));
        give_up(&table, NodeId(4));
        give_up(&table, NodeId(5));
        table.forget(NodeId(4));
        assert!(!table.is_suspect(NodeId(4)));
        assert_eq!(table.rto("range", NodeId(4), CAP), MIN_RTO);
        // Other peers keep their streaks; forgetting an unknown is a no-op.
        table.forget(NodeId(99));
        assert_eq!(table.snapshot(), vec![(NodeId(5), 1)]);
    }

    #[test]
    fn snapshot_reports_known_peers_sorted() {
        let table = PeerTable::default();
        give_up(&table, NodeId(9));
        sample(&table, "range", NodeId(3), micros(400));
        assert_eq!(table.snapshot(), vec![(NodeId(3), 0), (NodeId(9), 1)]);
    }

    /// A pack of reader threads must make progress while a writer books
    /// outcomes, and every write must land. A return to an exclusive
    /// lock still passes the consistency half but shows up in wall
    /// clock: the reads beside a writer must not cost dramatically more
    /// than the same reads uncontended.
    #[test]
    fn concurrent_readers_are_not_serialised_by_a_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};

        const READERS: usize = 8;
        const READS: usize = 20_000;
        let table = PeerTable::default();
        for n in 0..4u32 {
            give_up(&table, NodeId(n));
            sample(&table, "range", NodeId(n), micros(400));
        }

        let read_pass = |table: &PeerTable| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..READERS)
                    .map(|i| {
                        scope.spawn(move || {
                            let mut acc = 0u64;
                            for j in 0..READS {
                                let to = NodeId(((i + j) % 4) as u32);
                                acc += table.is_suspect(to) as u64;
                                acc += table.rto("range", to, CAP).as_micros() as u64;
                            }
                            acc
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
            })
        };

        // Uncontended baseline.
        let started = Instant::now();
        assert!(read_pass(&table) > 0);
        let baseline = started.elapsed();

        // The same reads with one writer hammering the table.
        let stop = AtomicBool::new(false);
        let (contended, writes) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut writes = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    give_up(&table, NodeId(7));
                    writes += 1;
                }
                writes
            });
            let started = Instant::now();
            assert!(read_pass(&table) > 0);
            let contended = started.elapsed();
            stop.store(true, Ordering::Relaxed);
            (contended, writer.join().unwrap())
        });

        // Every write landed.
        assert!(writes > 0, "writer never ran");
        assert!(table.snapshot().contains(&(NodeId(7), writes)));
        // Generous bound: catches an exclusive lock (which serialises
        // readers behind a busy writer and blows this up by an order of
        // magnitude) without flaking on slow CI.
        let ceiling = baseline.mul_f64(20.0) + Duration::from_millis(250);
        assert!(
            contended < ceiling,
            "reads beside a writer took {contended:?} (uncontended {baseline:?}); \
             readers appear to serialise against the writer"
        );
    }
}
