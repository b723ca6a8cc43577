//! Retransmission timeouts: when to ask after a request again.
//!
//! *When to send again* and *when to give up* are different questions. A
//! caller's patience (its timeout × attempts) answers the second and is
//! the caller's to choose; the first is a property of the path, and this
//! module measures it: a Jacobson/Karels estimator (`SRTT + 4·RTTVAR`,
//! RFC 6298) per **(request class, destination)**. The class is part of
//! the key because one worker answers a point read in 0.3 ms and an
//! archive scan in 60 ms — a per-destination estimate alone would re-send
//! every slow request it ever saw a fast one beside.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

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

/// The retransmission timeout of every (request class, destination) pair
/// one logical client has exchanged with. Internally synchronised: the
/// endpoints of one client share a table.
#[derive(Debug, Default)]
pub struct RtoTable {
    pairs: Mutex<HashMap<(&'static str, NodeId), Estimate>>,
}

impl RtoTable {
    /// How long to wait for `to`'s answer to a `class` request before
    /// sending it again: `SRTT + 4·RTTVAR`, no less than [`MIN_RTO`] and
    /// no more than `cap` — and `cap` itself until the pair has a sample,
    /// so a fresh pair and a silent peer wait exactly as long as a caller
    /// without an estimator would.
    pub fn rto(&self, class: &'static str, to: NodeId, cap: Duration) -> Duration {
        match self.pairs.lock().get(&(class, to)) {
            Some(e) => (e.srtt + 4 * e.rttvar).max(MIN_RTO).min(cap),
            None => cap,
        }
    }

    /// Folds in one exchange that took `rtt` and put its request frame
    /// on the wire `frames` times. An exchange whose frame went out more
    /// than once is ignored (Karn's rule): its answer cannot be matched
    /// to one of its copies. Probes do not count — a probe is answered
    /// by silence or a bounce, never by the response.
    pub fn sample(&self, class: &'static str, to: NodeId, rtt: Duration, frames: u32) {
        if frames != 1 {
            return;
        }
        self.pairs
            .lock()
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
    /// Where the first retransmission timeout comes from and where an
    /// exchange answered on its first send is sampled; `None` waits
    /// `timeout` between sends.
    pub rtos: Option<&'a RtoTable>,
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
            rtos: None,
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

    #[test]
    fn a_pair_without_a_sample_waits_the_whole_timeout() {
        let table = RtoTable::default();
        assert_eq!(table.rto("range", PEER, CAP), CAP);
        // A sample for one class says nothing about another, nor about
        // another destination.
        table.sample("range", PEER, micros(400), 1);
        assert_eq!(table.rto("heatmap", PEER, CAP), CAP);
        assert_eq!(table.rto("range", NodeId(2), CAP), CAP);
    }

    #[test]
    fn steady_fast_samples_settle_on_the_floor() {
        let table = RtoTable::default();
        for _ in 0..50 {
            table.sample("range", PEER, micros(400), 1);
        }
        assert_eq!(table.rto("range", PEER, CAP), MIN_RTO);
    }

    #[test]
    fn a_wide_spread_keeps_the_rto_above_the_slow_samples() {
        let table = RtoTable::default();
        for i in 0..200 {
            let rtt = if i % 2 == 0 { 1 } else { 40 };
            table.sample("range", PEER, Duration::from_millis(rtt), 1);
            if i >= 8 {
                let rto = table.rto("range", PEER, Duration::from_secs(5));
                assert!(rto >= Duration::from_millis(40), "{rto:?} after {i}");
            }
        }
    }

    #[test]
    fn a_re_sent_exchange_is_not_a_sample() {
        let table = RtoTable::default();
        table.sample("range", PEER, micros(400), 2);
        assert_eq!(table.rto("range", PEER, CAP), CAP, "Karn: still unsampled");
        table.sample("range", PEER, micros(400), 1);
        let settled = table.rto("range", PEER, CAP);
        table.sample("range", PEER, Duration::from_millis(90), 3);
        assert_eq!(table.rto("range", PEER, CAP), settled);
    }

    #[test]
    fn the_rto_never_exceeds_the_timeout() {
        let table = RtoTable::default();
        for _ in 0..10 {
            table.sample("range", PEER, Duration::from_secs(1), 1);
        }
        assert_eq!(table.rto("range", PEER, CAP), CAP);
        // Nor does a timeout below the floor get raised to it.
        let tiny = Duration::from_millis(3);
        assert_eq!(table.rto("range", PEER, tiny), tiny);
    }
}
