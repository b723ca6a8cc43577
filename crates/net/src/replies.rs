//! At-most-once execution: each node's reply table (DESIGN §4.4).

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use crate::NodeId;

/// Replied calls kept per caller, far more than one caller keeps
/// outstanding at one node; past it the caller's oldest is forgotten.
pub(crate) const REPLIES_PER_CALLER: usize = 256;

/// Reply bytes kept per node, 64 full result pages; past it the node's
/// oldest replied call is forgotten, and a larger reply is not kept.
const REPLY_BYTES_PER_NODE: usize = 4 << 20;

/// What the node has made of a request it was handed.
#[derive(Debug, Clone)]
pub(crate) enum Seen {
    /// It is still working on it.
    Held,
    /// It answered with these bytes.
    Replied(Vec<u8>),
}

/// Every call one node was handed and has not forgotten.
#[derive(Debug, Default)]
pub(crate) struct Replies {
    calls: HashMap<(NodeId, u64), Seen>,
    /// The replied calls of each caller. One counter per fabric draws the
    /// correlations, so the smaller one is the older call.
    replied: HashMap<NodeId, BTreeSet<u64>>,
    /// Bytes of every stored reply.
    bytes: usize,
}

impl Replies {
    /// A request delivered under `call`: `None` when it is new — it is
    /// held from here and goes to the node — else what the node made of it.
    pub(crate) fn admit(&mut self, call: (NodeId, u64)) -> Option<Seen> {
        match self.calls.entry(call) {
            Entry::Occupied(known) => Some(known.get().clone()),
            Entry::Vacant(new) => {
                new.insert(Seen::Held);
                None
            }
        }
    }

    /// What the node made of `call`, for a probe: `None` when it never saw
    /// the request or has forgotten it.
    pub(crate) fn probe(&self, call: (NodeId, u64)) -> Option<Seen> {
        self.calls.get(&call).cloned()
    }

    /// Keeps `reply` as the answer to `call` if the node holds it (after a
    /// restart it may not), then forgets the oldest calls past the bounds.
    pub(crate) fn reply(&mut self, call: (NodeId, u64), reply: Vec<u8>) {
        if !matches!(self.calls.get(&call), Some(Seen::Held)) {
            return;
        }
        if reply.len() > REPLY_BYTES_PER_NODE {
            self.calls.remove(&call);
            return;
        }
        self.bytes += reply.len();
        self.calls.insert(call, Seen::Replied(reply));
        let mine = self.replied.entry(call.0).or_default();
        mine.insert(call.1);
        if mine.len() > REPLIES_PER_CALLER {
            self.forget_oldest(call.0);
        }
        while self.bytes > REPLY_BYTES_PER_NODE {
            let fronts = self
                .replied
                .iter()
                .filter_map(|(&c, of)| Some((*of.first()?, c)));
            let Some((_, caller)) = fronts.min() else {
                break;
            };
            self.forget_oldest(caller);
        }
    }

    fn forget_oldest(&mut self, caller: NodeId) {
        let oldest = self.replied.get_mut(&caller).and_then(BTreeSet::pop_first);
        if let Some(Seen::Replied(reply)) = oldest.and_then(|c| self.calls.remove(&(caller, c))) {
            self.bytes -= reply.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn past_the_byte_bound_the_oldest_reply_goes_first() {
        let mut replies = Replies::default();
        let call = |n: u64| (NodeId(n as u32 % 2), n);
        for n in 0..5 {
            assert!(replies.admit(call(n)).is_none());
            replies.reply(call(n), vec![0; REPLY_BYTES_PER_NODE / 4]);
        }
        // Five quarters from two callers: the oldest call of all goes.
        let kept = |replies: &Replies| -> Vec<u64> {
            (0..5)
                .filter(|&n| matches!(replies.probe(call(n)), Some(Seen::Replied(_))))
                .collect()
        };
        assert_eq!(kept(&replies), [1, 2, 3, 4]);
        // A reply over the bound alone is not kept and evicts nothing.
        let big = (NodeId(2), 9);
        assert!(replies.admit(big).is_none());
        replies.reply(big, vec![0; REPLY_BYTES_PER_NODE + 1]);
        assert!(replies.probe(big).is_none());
        assert_eq!(kept(&replies), [1, 2, 3, 4]);
    }
}
