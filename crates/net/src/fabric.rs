//! The message fabric: registration, delivery, RPC, failure injection.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};

use crate::envelope::{Envelope, MessageKind};
use crate::link::{DetRng, LinkModel};
use crate::peers::Resend;
use crate::replies::{Replies, Seen};
use crate::stats::{FabricStats, NodeCounters, NodeStats, StatsRegistry};
use crate::{NetError, NodeId};

/// The shared in-process network connecting all cluster nodes.
///
/// Create one fabric per simulated cluster, [`register`](Fabric::register)
/// an [`Endpoint`] per node, and hand each endpoint to its node's threads.
/// The fabric owns a background delivery thread that applies the
/// [`LinkModel`] before handing messages to receivers; it shuts down when
/// the last endpoint and fabric handle are dropped.
#[derive(Debug, Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

#[derive(Debug)]
struct FabricInner {
    link: LinkModel,
    /// Current drop probability as `f64::to_bits`, runtime-mutable so
    /// chaos schedules can open and close lossy-link phases on a running
    /// cluster (initialised from `link.drop_probability`).
    drop_bits: AtomicU64,
    stats: StatsRegistry,
    nodes: RwLock<HashMap<NodeId, NodeState>>,
    sched_tx: Sender<Scheduled>,
    next_correlation: AtomicU64,
    rng: Mutex<DetRng>,
    /// Partition group per node; nodes in different groups cannot talk.
    partition: RwLock<HashMap<NodeId, u32>>,
    /// Per-directed-link drop probability overrides as `f64::to_bits`.
    /// When a link has an entry it replaces the global probability for
    /// that direction only, so chaos schedules can degrade individual
    /// links asymmetrically.
    link_drop: RwLock<HashMap<(NodeId, NodeId), u64>>,
    /// Last scheduled delivery instant per directed link, to preserve
    /// per-link FIFO despite jitter.
    link_clock: Mutex<HashMap<(NodeId, NodeId), Instant>>,
}

/// Where a caller waits for its answer. Unbounded, so the delivery
/// thread never blocks on a caller that has not come round to waiting.
type Answers = Arc<Mutex<HashMap<u64, Sender<Answer>>>>;

/// What the fabric hands a waiting caller.
enum Answer {
    /// The response's bytes and the instant the fabric delivered them (a
    /// caller that claims answers in turn must not book the wait for its
    /// turn as round-trip time). Removes the call's entry.
    Reply(Instant, Vec<u8>),
    /// A stored response sent again: resolves the call, but a probe asked
    /// for it, so it is no round-trip sample.
    Replay(Vec<u8>),
    /// The destination bounced a probe: it does not know the request.
    /// Leaves the entry in place for the answer still to come.
    NotHeld,
}

#[derive(Debug, Clone)]
struct NodeState {
    inbox_tx: Sender<Envelope>,
    pending: Answers,
    /// Every request handed to this node, held or replied: a copy or a
    /// probe of one is answered at delivery and never reaches the node.
    replies: Arc<Mutex<Replies>>,
    alive: Arc<AtomicBool>,
    counters: Arc<NodeCounters>,
}

struct Scheduled {
    at: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl Fabric {
    /// Creates a fabric whose links all follow `link`, seeded
    /// deterministically.
    pub fn new(link: LinkModel) -> Self {
        Fabric::with_seed(link, 0x57CA_C0FF_EE00_u64)
    }

    /// Creates a fabric with an explicit RNG seed for the loss/jitter
    /// draws, for reproducible failure experiments.
    pub fn with_seed(link: LinkModel, seed: u64) -> Self {
        let (sched_tx, sched_rx) = channel::unbounded();
        let inner = Arc::new(FabricInner {
            link,
            drop_bits: AtomicU64::new(link.drop_probability.to_bits()),
            stats: StatsRegistry::default(),
            nodes: RwLock::new(HashMap::new()),
            sched_tx,
            next_correlation: AtomicU64::new(1),
            rng: Mutex::new(DetRng::new(seed)),
            partition: RwLock::new(HashMap::new()),
            link_drop: RwLock::new(HashMap::new()),
            link_clock: Mutex::new(HashMap::new()),
        });
        let thread_inner = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("stcam-fabric-delivery".into())
            .spawn(move || delivery_loop(sched_rx, thread_inner))
            .expect("spawn delivery thread");
        Fabric { inner }
    }

    /// Registers `node` and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already registered.
    pub fn register(&self, node: NodeId) -> Endpoint {
        let (inbox_tx, inbox_rx) = channel::unbounded();
        let counters = Arc::new(NodeCounters::default());
        let state = NodeState {
            inbox_tx,
            pending: Arc::new(Mutex::new(HashMap::new())),
            replies: Arc::default(),
            alive: Arc::new(AtomicBool::new(true)),
            counters: Arc::clone(&counters),
        };
        let mut nodes = self.inner.nodes.write();
        assert!(!nodes.contains_key(&node), "node {node} already registered");
        self.inner
            .stats
            .nodes
            .write()
            .insert(node, Arc::clone(&counters));
        let pending = Arc::clone(&state.pending);
        let replies = Arc::clone(&state.replies);
        let alive = Arc::clone(&state.alive);
        nodes.insert(node, state);
        Endpoint {
            node,
            inner: Arc::clone(&self.inner),
            inbox_rx,
            pending,
            replies,
            alive,
            counters,
        }
    }

    /// Marks `node` as crashed: its sends fail, deliveries to it are
    /// dropped, and outstanding RPCs against it will time out.
    pub fn crash(&self, node: NodeId) {
        if let Some(state) = self.inner.nodes.read().get(&node) {
            state.alive.store(false, Ordering::SeqCst);
            // Fail outstanding RPC callers promptly by dropping their
            // response channels.
            state.pending.lock().clear();
        }
    }

    /// Reverses [`crash`](Fabric::crash); the node resumes with an empty
    /// inbox history (messages dropped while down stay dropped) and no
    /// memory of the requests it held or answered, so a probe of one is
    /// bounced and the copy that follows reaches the new incarnation.
    pub fn restart(&self, node: NodeId) {
        if let Some(state) = self.inner.nodes.read().get(&node) {
            *state.replies.lock() = Replies::default();
            state.alive.store(true, Ordering::SeqCst);
        }
    }

    /// `true` when `node` is registered and not crashed.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.inner
            .nodes
            .read()
            .get(&node)
            .map(|s| s.alive.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// Splits the cluster into isolated groups: messages between nodes in
    /// different groups are dropped. Nodes not mentioned keep group 0.
    pub fn partition(&self, groups: &[&[NodeId]]) {
        let mut map = self.inner.partition.write();
        map.clear();
        for (gi, group) in groups.iter().enumerate() {
            for node in *group {
                map.insert(*node, gi as u32 + 1);
            }
        }
    }

    /// Removes all partitions.
    pub fn heal_partition(&self) {
        self.inner.partition.write().clear();
    }

    /// A snapshot of all traffic counters.
    pub fn stats(&self) -> FabricStats {
        self.inner.stats.snapshot()
    }

    /// The link model used by every link of this fabric, with the
    /// *current* drop probability (see
    /// [`set_drop_probability`](Self::set_drop_probability)).
    pub fn link_model(&self) -> LinkModel {
        let mut link = self.inner.link;
        link.drop_probability = f64::from_bits(self.inner.drop_bits.load(Ordering::SeqCst));
        link
    }

    /// Changes the loss rate of every link at runtime. Messages already
    /// scheduled for delivery are unaffected; subsequent sends draw
    /// against the new probability. Chaos schedules use this to run
    /// lossy-link phases against a live cluster.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `[0, 1]`.
    pub fn set_drop_probability(&self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.inner.drop_bits.store(p.to_bits(), Ordering::SeqCst);
    }

    /// Sets the loss rate of the single directed link `src → dst`,
    /// overriding the global probability for that direction. The reverse
    /// direction is unaffected, which models asymmetric degradation
    /// (e.g. a camera uplink losing frames while downlink control
    /// traffic still arrives).
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `[0, 1]`.
    pub fn set_link_drop_probability(&self, src: NodeId, dst: NodeId, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.inner.link_drop.write().insert((src, dst), p.to_bits());
    }

    /// Removes a per-link override installed by
    /// [`set_link_drop_probability`](Self::set_link_drop_probability);
    /// the link falls back to the global probability.
    pub fn clear_link_drop_probability(&self, src: NodeId, dst: NodeId) {
        self.inner.link_drop.write().remove(&(src, dst));
    }
}

impl FabricInner {
    fn same_partition(&self, a: NodeId, b: NodeId) -> bool {
        let map = self.partition.read();
        map.get(&a).copied().unwrap_or(0) == map.get(&b).copied().unwrap_or(0)
    }

    /// Common send path; returns Ok even when the loss model drops the
    /// message (like UDP — reliability is the caller's concern via RPC).
    fn submit(&self, env: Envelope) -> Result<(), NetError> {
        let nodes = self.nodes.read();
        let src_state = nodes.get(&env.src).ok_or(NetError::UnknownNode(env.src))?;
        if !src_state.alive.load(Ordering::SeqCst) {
            return Err(NetError::NodeDown(env.src));
        }
        let dst_state = nodes.get(&env.dst).ok_or(NetError::UnknownNode(env.dst))?;
        let size = env.wire_size();
        src_state.counters.msgs_sent.fetch_add(1, Ordering::Relaxed);
        src_state
            .counters
            .bytes_sent
            .fetch_add(size, Ordering::Relaxed);
        self.stats.total_msgs.fetch_add(1, Ordering::Relaxed);
        self.stats.total_bytes.fetch_add(size, Ordering::Relaxed);
        if env.kind == MessageKind::Response {
            self.stats
                .max_response_bytes
                .fetch_max(size, Ordering::Relaxed);
        }
        // What the fabric itself answers, or a probe: counted apart.
        let (node, all) = (&src_state.counters, &self.stats);
        let apart = match env.kind {
            MessageKind::Probe => Some((&node.probes_sent, &all.total_probes)),
            MessageKind::NotHeld => Some((&node.not_held_sent, &all.total_not_held)),
            MessageKind::Replay => Some((&node.replayed_sent, &all.total_replayed)),
            MessageKind::Request | MessageKind::Response | MessageKind::Wake => None,
        };
        if let Some((sent, total)) = apart {
            sent.fetch_add(1, Ordering::Relaxed);
            total.fetch_add(1, Ordering::Relaxed);
        }

        // Loss, partition and dead-destination checks happen at send time;
        // crash-at-delivery races are checked again in the delivery loop.
        let dropped =
            !dst_state.alive.load(Ordering::SeqCst) || !self.same_partition(env.src, env.dst) || {
                let p = self
                    .link_drop
                    .read()
                    .get(&(env.src, env.dst))
                    .map(|bits| f64::from_bits(*bits))
                    .unwrap_or_else(|| f64::from_bits(self.drop_bits.load(Ordering::Relaxed)));
                p > 0.0 && self.rng.lock().next_f64() < p
            };
        if dropped {
            src_state
                .counters
                .msgs_dropped
                .fetch_add(1, Ordering::Relaxed);
            self.stats.total_dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        let u = self.rng.lock().next_f64();
        let latency = self.link.latency_for(env.payload.len(), u);
        let now = Instant::now();
        let mut at = now + latency;
        {
            // Preserve per-link FIFO despite jitter.
            let mut clock = self.link_clock.lock();
            let entry = clock.entry((env.src, env.dst)).or_insert(at);
            if *entry > at {
                at = *entry;
            } else {
                *entry = at;
            }
        }
        let seq = self.next_correlation.fetch_add(1, Ordering::Relaxed);
        self.sched_tx
            .send(Scheduled { at, seq, env })
            .map_err(|_| NetError::Shutdown)
    }

    fn deliver(&self, env: Envelope) {
        let nodes = self.nodes.read();
        let Some(dst_state) = nodes.get(&env.dst) else {
            return;
        };
        if !dst_state.alive.load(Ordering::SeqCst) {
            self.stats.total_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let size = env.wire_size();
        dst_state
            .counters
            .msgs_received
            .fetch_add(1, Ordering::Relaxed);
        dst_state
            .counters
            .bytes_received
            .fetch_add(size, Ordering::Relaxed);
        match env.kind {
            MessageKind::Response | MessageKind::Replay => {
                let sender = dst_state.pending.lock().remove(&env.correlation);
                if let Some(tx) = sender {
                    let _ = tx.send(match env.kind {
                        MessageKind::Replay => Answer::Replay(env.payload),
                        _ => Answer::Reply(Instant::now(), env.payload),
                    });
                }
                // A response nobody waits for — the caller gave up, or an
                // earlier answer to a re-sent request already resolved
                // the call — is silently dropped.
            }
            MessageKind::NotHeld => {
                // Likewise a bounce behind the answer it raced: per-link
                // FIFO delivered that answer first, and it took the entry.
                if let Some(tx) = dst_state.pending.lock().get(&env.correlation) {
                    let _ = tx.send(Answer::NotHeld);
                }
            }
            MessageKind::Request | MessageKind::Probe => {
                // A copy or a probe of a request the node was handed never
                // reaches it: dropped while held, answered once replied.
                let call = (env.src, env.correlation);
                let seen = match env.kind {
                    MessageKind::Request => dst_state.replies.lock().admit(call),
                    _ => dst_state.replies.lock().probe(call),
                };
                let (kind, payload) = match seen {
                    Some(Seen::Held) => {
                        self.held_dropped(dst_state);
                        return;
                    }
                    Some(Seen::Replied(reply)) => (MessageKind::Replay, reply),
                    None if env.kind == MessageKind::Request => {
                        let _ = dst_state.inbox_tx.send(env);
                        return;
                    }
                    None => (MessageKind::NotHeld, Vec::new()),
                };
                // The answer takes the wire like any message — loss,
                // latency, partitions, per-link FIFO behind the reply.
                // `submit` reads `nodes` again; a second read guard here
                // could wait forever behind a queued `register`.
                drop(nodes);
                let _ = self.submit(Envelope {
                    src: env.dst,
                    dst: env.src,
                    kind,
                    correlation: env.correlation,
                    payload,
                });
            }
            MessageKind::Wake => unreachable!("a wake marker never takes the wire"),
        }
    }

    fn held_dropped(&self, state: &NodeState) {
        state.counters.held_dropped.fetch_add(1, Ordering::Relaxed);
        self.stats
            .total_held_dropped
            .fetch_add(1, Ordering::Relaxed);
    }
}

fn delivery_loop(rx: Receiver<Scheduled>, inner: std::sync::Weak<FabricInner>) {
    // OS timers cannot sleep accurately for the sub-millisecond latencies
    // a LAN model produces, so waits below this threshold yield-poll
    // instead of parking. `yield_now` (rather than a pure spin) keeps the
    // simulator usable on low-core-count hosts, where a spinning delivery
    // thread would starve the very threads it is delivering to.
    const SPIN_BELOW: Duration = Duration::from_millis(1);
    let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
    loop {
        let now = Instant::now();
        // Deliver everything due.
        while heap.peek().is_some_and(|s| s.at <= now) {
            let s = heap.pop().expect("peeked");
            match inner.upgrade() {
                Some(inner) => inner.deliver(s.env),
                None => return,
            }
        }
        let wait = heap.peek().map(|s| s.at.saturating_duration_since(now));
        let received = match wait {
            Some(Duration::ZERO) => continue,
            Some(d) if d < SPIN_BELOW => {
                let deadline = now + d;
                loop {
                    match rx.try_recv() {
                        Ok(s) => break Some(s),
                        Err(_) if Instant::now() >= deadline => break None,
                        Err(_) => std::thread::yield_now(),
                    }
                }
            }
            Some(d) => rx.recv_timeout(d).ok(),
            None => rx.recv().ok(),
        };
        match received {
            Some(s) => heap.push(s),
            None if wait.is_none() => return, // disconnected and idle
            None => {}                        // timeout: loop to deliver
        }
    }
}

/// A node's handle onto the fabric.
///
/// Cheap to clone is *not* provided deliberately: each node owns exactly
/// one endpoint, mirroring one socket per process. The endpoint is `Send`,
/// so a node may move it into its serving thread; concurrent RPC *calls*
/// from multiple threads of the same node are supported through interior
/// synchronisation.
pub struct Endpoint {
    node: NodeId,
    inner: Arc<FabricInner>,
    inbox_rx: Receiver<Envelope>,
    pending: Answers,
    replies: Arc<Mutex<Replies>>,
    alive: Arc<AtomicBool>,
    counters: Arc<NodeCounters>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Sends a request and blocks until its response arrives or `timeout`
    /// elapses. One send: a lost frame costs the whole timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when no response arrives in time (the request
    /// or response may have been lost, or the peer crashed); other errors
    /// as for [`call_start`](Self::call_start).
    pub fn call(
        &self,
        to: NodeId,
        payload: Vec<u8>,
        timeout: Duration,
    ) -> Result<Vec<u8>, NetError> {
        let call = self.start(to, payload)?;
        self.call_wait(call, &[], &Resend::once(timeout)).0
    }

    /// Puts a copy of `frame` on the wire as a request and returns
    /// without waiting: the response is claimed later by
    /// [`call_wait`](Self::call_wait), which also probes for the request
    /// when the answer is overdue. This is how a scatter overlaps its
    /// round trips on one thread — start every sub-query first, then wait
    /// for each in turn. The call's patience runs from here, not from
    /// when its turn to be waited for comes.
    ///
    /// A started call that is dropped unwaited gives up its correlation
    /// entry; a response that still arrives is dropped like any late one.
    ///
    /// # Errors
    ///
    /// Fails when this node is down, the destination is unknown, or the
    /// fabric has shut down. Submission errors are local — not evidence
    /// about the destination's health, so no outcome is booked for them.
    pub fn call_start(&self, to: NodeId, frame: &[u8]) -> Result<PendingCall, NetError> {
        self.start(to, frame.to_vec())
    }

    fn start(&self, to: NodeId, payload: Vec<u8>) -> Result<PendingCall, NetError> {
        let correlation = self.inner.next_correlation.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::unbounded();
        self.pending.lock().insert(correlation, tx);
        let call = PendingCall {
            to,
            correlation,
            rx,
            started: Instant::now(),
            pending: Arc::clone(&self.pending),
        };
        self.submit_call(&call, MessageKind::Request, payload)
            .map(|()| call)
    }

    fn submit_call(
        &self,
        call: &PendingCall,
        kind: MessageKind,
        payload: Vec<u8>,
    ) -> Result<(), NetError> {
        self.inner.submit(Envelope {
            src: self.node,
            dst: call.to,
            kind,
            correlation: call.correlation,
            payload,
        })
    }

    /// Blocks until a started call's response arrives or its patience
    /// runs out, and books the outcome in `resend.peers` — once per call,
    /// however many sends it took: an answer (response or replay) clears
    /// the destination's failure streak, giving up adds 1 to it. Returns
    /// the outcome and what the call put on the wire.
    ///
    /// Whenever the retransmission timeout of `resend` runs out, the
    /// caller does not send the request again: it sends a
    /// [`MessageKind::Probe`], a bare header under the call's correlation.
    /// The destination's fabric drops a probe of a request the node still
    /// holds (a slow answer costs 16 bytes, not a second execution),
    /// answers one of a request the node answered with the stored reply,
    /// a [`MessageKind::Replay`], and otherwise bounces
    /// [`MessageKind::NotHeld`], upon which `frame`, the bytes the call
    /// was started with, goes out again in full and at once, under the
    /// same correlation — once for all the bounces of probes sent before
    /// it, which reached the peer ahead of it and so say nothing about it.
    /// Whichever answer arrives first resolves the call, and a later one,
    /// or a bounce behind it on the same link, is dropped. The frame is
    /// never rebuilt. A dead or partitioned peer answers nothing, so it is
    /// waited out exactly as before. An exchange whose frame went on the
    /// wire once and was answered by the response, not a replay, is a
    /// round-trip sample however many probes it took: that answer can
    /// only be to that frame, and a replay's round trip holds an RTO.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when no response arrived by `timeout ×
    /// max_sends` after [`call_start`](Self::call_start) — or, for a
    /// wait begun so late that probes were still owed, a retransmission
    /// timeout after the last of them — or by `resend.deadline` (requests
    /// or responses may have been lost, or the peer crashed); a
    /// submission error as for [`call_start`](Self::call_start) when this
    /// node went down between sends, which books nothing.
    pub fn call_wait(
        &self,
        call: PendingCall,
        frame: &[u8],
        resend: &Resend<'_>,
    ) -> (Result<Vec<u8>, NetError>, Sends) {
        let patience = call.started + resend.timeout * resend.max_sends;
        let mut rto = resend.peers.map_or(resend.timeout, |peers| {
            peers.rto(resend.class, call.to, resend.timeout)
        });
        let mut next_probe = call.started + rto;
        let mut sends = Sends {
            frames: 1,
            probes: 0,
        };
        // Probes sent before the latest frame. Each reached the peer
        // ahead of that frame (per-link FIFO), so the frame already
        // answers its bounce.
        let mut answered = 0;
        let result = loop {
            // Every send gets its retransmission timeout to be answered,
            // the last one the rest of the patience too. A scatter starts
            // all its calls and waits on them one after another, so a
            // dead peer waited on first uses up the patience of the calls
            // behind it: counted from the first send alone, a frame lost
            // on the way to a live peer would never be asked after and the
            // peer would read as dead.
            let last = 1 + sends.probes >= resend.max_sends;
            let until = if last {
                patience.max(next_probe)
            } else {
                next_probe
            };
            let until = resend.deadline.map_or(until, |d| until.min(d));
            let wait = until.saturating_duration_since(Instant::now());
            match call.rx.recv_timeout(wait) {
                Ok(Answer::Reply(arrived, response)) => {
                    let rtt = arrived.saturating_duration_since(call.started);
                    break Ok((response, (sends.frames == 1).then_some(rtt)));
                }
                Ok(Answer::Replay(response)) => break Ok((response, None)),
                Ok(Answer::NotHeld) if sends.probes > answered => {
                    answered = sends.probes;
                    let copy = frame.to_vec();
                    if let Err(local) = self.submit_call(&call, MessageKind::Request, copy) {
                        return (Err(local), sends);
                    }
                    sends.frames += 1;
                }
                Ok(Answer::NotHeld) => {}
                Err(RecvTimeoutError::Timeout)
                    if !last && resend.deadline.is_none_or(|d| until < d) =>
                {
                    if let Err(local) = self.submit_call(&call, MessageKind::Probe, Vec::new()) {
                        return (Err(local), sends);
                    }
                    sends.probes += 1;
                    rto = (rto * 2).min(resend.timeout);
                    next_probe = Instant::now() + rto;
                }
                // Out of patience — or this node crashed, which drops
                // the channel so its callers fail at once.
                Err(_) => break Err(NetError::Timeout),
            }
        };
        if let Some(peers) = resend.peers {
            let sample = result.as_ref().ok().and_then(|&(_, rtt)| rtt);
            peers.record(resend.class, call.to, result.is_ok(), sample);
        }
        (result.map(|(response, _)| response), sends)
    }

    /// Replies to a previously received [`MessageKind::Request`] envelope.
    /// The fabric keeps a copy of `payload`, and answers a later probe or
    /// copy of the request with it until the node's reply table forgets it.
    ///
    /// # Errors
    ///
    /// As for [`call_start`](Self::call_start).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `request` is not a request envelope.
    pub fn reply(&self, request: &Envelope, payload: Vec<u8>) -> Result<(), NetError> {
        debug_assert!(request.kind == MessageKind::Request, "reply to non-request");
        let stored = payload.clone();
        let sent = self.inner.submit(Envelope {
            src: self.node,
            dst: request.src,
            kind: MessageKind::Response,
            correlation: request.correlation,
            payload,
        });
        // Only now: a probe that finds the request still held is dropped
        // rather than bringing a second copy of the reply ahead of it.
        let call = (request.src, request.correlation);
        self.replies.lock().reply(call, stored);
        sent
    }

    /// Receives the next inbound message, blocking up to `timeout`.
    /// Returns `None` on timeout or fabric shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.inbox_rx.recv_timeout(timeout).ok()
    }

    /// Receives the next inbound message, blocking indefinitely. Returns
    /// `None` only on fabric shutdown — use a [`Waker`] to interrupt a
    /// blocked receiver (e.g. for node shutdown), since a crash injected
    /// by the fabric does not close the inbox.
    pub fn recv(&self) -> Option<Envelope> {
        self.inbox_rx.recv().ok()
    }

    /// A handle that can interrupt this endpoint's blocking
    /// [`recv`](Self::recv) from another thread by injecting a local wake
    /// marker directly into the inbox. The marker bypasses the link model
    /// and aliveness checks (it never touches the wire), so it works even
    /// while the node is crashed by failure injection.
    pub fn waker(&self) -> Waker {
        let inbox_tx = self
            .inner
            .nodes
            .read()
            .get(&self.node)
            .map(|s| s.inbox_tx.clone())
            .expect("own node is registered");
        Waker {
            node: self.node,
            inbox_tx,
        }
    }

    /// Receives the next inbound message without blocking.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.inbox_rx.try_recv().ok()
    }

    /// `true` until this node is crashed by failure injection.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Snapshot of this node's traffic counters.
    pub fn stats(&self) -> NodeStats {
        self.counters.snapshot()
    }
}

/// What one call put on the wire, as [`Endpoint::call_wait`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sends {
    /// Times the request frame went out: the first send, plus one copy
    /// per [`MessageKind::NotHeld`] bounce.
    pub frames: u32,
    /// Header-only probes, one per retransmission timeout that ran out;
    /// each costs [`WIRE_OVERHEAD`](crate::WIRE_OVERHEAD) bytes.
    pub probes: u32,
}

/// A request in flight: created by [`Endpoint::call_start`], resolved by
/// [`Endpoint::call_wait`]. Holding one does not block anything — the
/// response waits in a buffered channel until claimed.
#[derive(Debug)]
pub struct PendingCall {
    to: NodeId,
    correlation: u64,
    rx: Receiver<Answer>,
    /// When the first send went on the wire: round trips and patience
    /// are measured from here.
    started: Instant,
    /// Where the answer is routed from; the entry is given up on drop.
    pending: Answers,
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        self.pending.lock().remove(&self.correlation);
    }
}

/// Interrupts a blocked [`Endpoint::recv`] by injecting a wake marker
/// into the endpoint's inbox, off the wire. Obtained from
/// [`Endpoint::waker`]; cheap to clone and `Send`, so a node's control
/// thread can be woken from any other thread (shutdown, timers).
#[derive(Clone)]
pub struct Waker {
    node: NodeId,
    inbox_tx: Sender<Envelope>,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").field("node", &self.node).finish()
    }
}

impl Waker {
    /// Wakes the endpoint: its blocked [`Endpoint::recv`] returns a
    /// marker envelope for which [`Waker::is_wake`] is `true`. A no-op
    /// after fabric shutdown.
    pub fn wake(&self) {
        let _ = self.inbox_tx.send(Envelope {
            src: self.node,
            dst: self.node,
            kind: MessageKind::Wake,
            correlation: 0,
            payload: Vec::new(),
        });
    }

    /// Whether `env` is a wake marker (to be discarded by the receive
    /// loop after it re-checks its stop condition).
    pub fn is_wake(env: &Envelope) -> bool {
        env.kind == MessageKind::Wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeerTable;

    fn instant_fabric() -> Fabric {
        Fabric::new(LinkModel::instant())
    }

    #[test]
    fn a_started_call_reaches_the_inbox() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        a.call_start(NodeId(1), b"hi").unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.payload, b"hi");
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.kind, MessageKind::Request);
    }

    #[test]
    fn rpc_round_trip() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let handle = std::thread::spawn(move || {
            let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(req.kind, MessageKind::Request);
            server.reply(&req, b"pong".to_vec()).unwrap();
        });
        let resp = client
            .call(NodeId(1), b"ping".to_vec(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(resp, b"pong");
        handle.join().unwrap();
    }

    #[test]
    fn unknown_node_errors() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        assert_eq!(
            a.call_start(NodeId(9), &[]).err(),
            Some(NetError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn duplicate_registration_panics() {
        let f = instant_fabric();
        let _a = f.register(NodeId(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _b = f.register(NodeId(0));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn crash_drops_messages_and_fails_sends() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        f.crash(NodeId(1));
        assert!(!f.is_alive(NodeId(1)));
        a.call_start(NodeId(1), b"lost").unwrap(); // silently dropped
        assert!(b.recv_timeout(Duration::from_millis(50)).is_none());
        assert_eq!(
            b.call_start(NodeId(0), &[]).err(),
            Some(NetError::NodeDown(NodeId(1)))
        );
        f.restart(NodeId(1));
        assert!(f.is_alive(NodeId(1)));
        a.call_start(NodeId(1), b"back").unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn rpc_to_crashed_node_times_out() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let _b = f.register(NodeId(1));
        f.crash(NodeId(1));
        let err = a
            .call(NodeId(1), vec![], Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        let c = f.register(NodeId(2));
        f.partition(&[&[NodeId(0), NodeId(1)], &[NodeId(2)]]);
        a.call_start(NodeId(1), b"same side").unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
        a.call_start(NodeId(2), b"other side").unwrap();
        assert!(c.recv_timeout(Duration::from_millis(50)).is_none());
        f.heal_partition();
        a.call_start(NodeId(2), b"healed").unwrap();
        assert!(c.recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn loss_model_drops_roughly_the_right_fraction() {
        let f = Fabric::with_seed(LinkModel::instant().with_drop_probability(0.5), 99);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        for _ in 0..1000 {
            a.call_start(NodeId(1), &[0u8; 8]).unwrap();
        }
        let mut received = 0;
        while b.recv_timeout(Duration::from_millis(100)).is_some() {
            received += 1;
        }
        assert!((300..700).contains(&received), "received {received}");
        let stats = f.stats();
        assert_eq!(stats.total_dropped + received, 1000);
    }

    #[test]
    fn drop_probability_is_runtime_mutable() {
        let f = Fabric::with_seed(LinkModel::instant(), 7);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        f.set_drop_probability(1.0);
        assert_eq!(f.link_model().drop_probability, 1.0);
        a.call_start(NodeId(1), b"lost").unwrap();
        assert!(b.recv_timeout(Duration::from_millis(50)).is_none());
        f.set_drop_probability(0.0);
        a.call_start(NodeId(1), b"through").unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn per_link_drop_is_asymmetric_and_overrides_the_global_rate() {
        let f = Fabric::with_seed(LinkModel::instant(), 7);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        // Kill only the 0 → 1 direction; the reverse stays clean.
        f.set_link_drop_probability(NodeId(0), NodeId(1), 1.0);
        a.call_start(NodeId(1), b"uplink").unwrap();
        assert!(b.recv_timeout(Duration::from_millis(50)).is_none());
        b.call_start(NodeId(0), b"downlink").unwrap();
        assert!(a.recv_timeout(Duration::from_secs(1)).is_some());
        // The per-link override beats the global knob in both directions:
        // a lossless override punches through a fully lossy fabric.
        f.set_drop_probability(1.0);
        f.set_link_drop_probability(NodeId(0), NodeId(1), 0.0);
        a.call_start(NodeId(1), b"exempt").unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
        b.call_start(NodeId(0), b"not exempt").unwrap();
        assert!(a.recv_timeout(Duration::from_millis(50)).is_none());
        // Clearing the override falls back to the global rate.
        f.set_drop_probability(0.0);
        f.clear_link_drop_probability(NodeId(0), NodeId(1));
        a.call_start(NodeId(1), b"restored").unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn latency_is_applied() {
        let link = LinkModel {
            base_latency: Duration::from_millis(30),
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter: Duration::ZERO,
            drop_probability: 0.0,
        };
        let f = Fabric::new(link);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        let t0 = Instant::now();
        a.call_start(NodeId(1), &[]).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1));
        let elapsed = t0.elapsed();
        assert!(env.is_some());
        assert!(elapsed >= Duration::from_millis(25), "elapsed {elapsed:?}");
    }

    #[test]
    fn per_link_fifo_despite_jitter() {
        let link = LinkModel {
            base_latency: Duration::from_micros(200),
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter: Duration::from_micros(200),
            drop_probability: 0.0,
        };
        let f = Fabric::new(link);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        for i in 0..200u32 {
            a.call_start(NodeId(1), &i.to_le_bytes()).unwrap();
        }
        let mut last = None;
        for _ in 0..200 {
            let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
            let v = u32::from_le_bytes(env.payload.try_into().unwrap());
            if let Some(prev) = last {
                assert!(v > prev, "reordered: {v} after {prev}");
            }
            last = Some(v);
        }
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        a.call_start(NodeId(1), &[0u8; 100]).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let s = f.stats();
        assert_eq!(s.total_msgs, 1);
        assert_eq!(s.total_bytes, 116);
        assert_eq!(s.per_node[&NodeId(0)].msgs_sent, 1);
        assert_eq!(s.per_node[&NodeId(1)].msgs_received, 1);
        assert_eq!(a.stats().bytes_sent, 116);
    }

    #[test]
    fn a_call_books_its_outcome_and_a_local_error_books_nothing() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = PeerTable::default();
        let once = |ms| Resend {
            peers: Some(&table),
            ..Resend::once(Duration::from_millis(ms))
        };
        let server_thread = std::thread::spawn(move || {
            let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
            server.reply(&req, b"ok".to_vec()).unwrap();
        });
        assert_eq!(ask(&client, b"hi", &once(5_000)).0, Ok(b"ok".to_vec()));
        server_thread.join().unwrap();
        assert_eq!(table.snapshot(), vec![(NodeId(1), 0)]);
        f.crash(NodeId(1));
        assert_eq!(ask(&client, b"", &once(30)).0, Err(NetError::Timeout));
        assert_eq!(table.snapshot(), vec![(NodeId(1), 1)]);
        // Local submission errors (unknown peer) must not blame the peer.
        assert!(client.call_start(NodeId(9), b"").is_err());
        assert_eq!(table.snapshot(), vec![(NodeId(1), 1)]);
    }

    const H: u64 = crate::WIRE_OVERHEAD;

    /// The settled retransmission timeout of [`warm_table`]'s pair: wide
    /// enough that a test thread acting between two probes is never
    /// overtaken by one.
    const RTO: Duration = Duration::from_millis(20);

    fn settle(table: &PeerTable, node: NodeId) {
        for _ in 0..20 {
            table.record("t", node, true, Some(RTO));
        }
    }

    /// A table whose `("t", NodeId(1))` pair probes ≈ [`RTO`] after the
    /// first send and ≈ 2 × [`RTO`] after each probe.
    fn warm_table() -> PeerTable {
        let table = PeerTable::default();
        settle(&table, NodeId(1));
        let rto = table.rto("t", NodeId(1), Duration::from_secs(1));
        assert!(rto >= RTO && rto < RTO + Duration::from_millis(1));
        table
    }

    fn resend(table: &PeerTable, timeout_ms: u64, max_sends: u32) -> Resend<'_> {
        Resend {
            class: "t",
            peers: Some(table),
            timeout: Duration::from_millis(timeout_ms),
            max_sends,
            deadline: None,
        }
    }

    fn sends(frames: u32, probes: u32) -> Sends {
        Sends { frames, probes }
    }

    /// Starts a call of `frame` to node 1 and waits it out.
    fn ask(
        client: &Endpoint,
        frame: &[u8],
        resend: &Resend<'_>,
    ) -> (Result<Vec<u8>, NetError>, Sends) {
        let call = client.call_start(NodeId(1), frame).unwrap();
        client.call_wait(call, frame, resend)
    }

    /// Books a call to node 1 given up on, leaving its estimate alone.
    fn suspect(table: &PeerTable) {
        table.record("t", NodeId(1), false, None);
    }

    /// Node 1's failure streak in `table`.
    fn streak(table: &PeerTable) -> u32 {
        let mut peers = table.snapshot().into_iter();
        peers.find(|&(n, _)| n == NodeId(1)).map_or(0, |(_, s)| s)
    }

    #[test]
    fn a_re_sent_call_resolves_on_the_first_reply_and_the_second_is_dropped() {
        // A restarted peer forgets what it held: it bounces the probe and
        // is handed the copy, and both incarnations answer.
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        suspect(&table);
        let settled = table.rto("t", NodeId(1), Duration::from_secs(1));
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| ask(&client, b"ask", &resend(&table, 500, 3)));
            let first = server.recv_timeout(Duration::from_secs(5)).unwrap();
            f.crash(NodeId(1));
            f.restart(NodeId(1));
            let copy = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(
                (copy.correlation, &copy.payload),
                (first.correlation, &first.payload)
            );
            server.reply(&first, vec![1]).unwrap();
            server.reply(&copy, vec![2]).unwrap();
            assert_eq!(waiting.join().unwrap(), (Ok(vec![1]), sends(2, 1)));
        });
        assert_eq!(client.pending.lock().len(), 0);
        // The second reply arrives at the node and resolves nothing — not
        // even the next call, which gets the answer to its own request.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
                server.reply(&req, vec![3]).unwrap();
            });
            let next = client.call(NodeId(1), b"next".to_vec(), Duration::from_secs(5));
            assert_eq!(next, Ok(vec![3]));
        });
        let sent = client.stats();
        assert_eq!((sent.msgs_sent, sent.probes_sent), (4, 1));
        assert_eq!(sent.bytes_sent, 2 * (3 + H) + H + (4 + H));
        // The bounce and three replies.
        assert_eq!(sent.msgs_received, 4);
        assert_eq!(server.stats().not_held_sent, 1);
        // Answered after a probe and a copy: the streak is cleared.
        assert_eq!(streak(&table), 0);
        // Karn: the frame went out twice, so the estimate is left alone.
        assert_eq!(table.rto("t", NodeId(1), Duration::from_secs(1)), settled);
    }

    #[test]
    fn a_held_request_is_delivered_once_and_a_lost_reply_replayed() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        suspect(&table);
        std::thread::scope(|scope| {
            // Probes at ≈ 20 and 60 ms find the request held and are
            // dropped: 16 bytes each, and the server is handed it once.
            let waiting = scope.spawn(|| ask(&client, b"slow", &resend(&table, 500, 3)));
            let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(server.recv_timeout(Duration::from_millis(100)).is_none());
            let (sent, handed) = (client.stats(), server.stats());
            assert_eq!((sent.msgs_sent, sent.probes_sent), (3, 2));
            assert_eq!(sent.bytes_sent, (4 + H) + 2 * H);
            assert_eq!((handed.msgs_received, handed.held_dropped), (3, 2));
            server.reply(&req, b"done".to_vec()).unwrap();
            assert_eq!(waiting.join().unwrap(), (Ok(b"done".to_vec()), sends(1, 2)));
            assert_eq!(streak(&table), 0);
            suspect(&table);

            // The reply is lost: the probe that follows finds it stored
            // and is answered with it again — one frame and one probe
            // out, the request executed once.
            let before = (client.stats(), server.stats());
            f.set_link_drop_probability(NodeId(1), NodeId(0), 1.0);
            let waiting = scope.spawn(|| ask(&client, b"again", &resend(&table, 500, 3)));
            let first = server.recv_timeout(Duration::from_secs(5)).unwrap();
            server.reply(&first, b"lost".to_vec()).unwrap();
            f.clear_link_drop_probability(NodeId(1), NodeId(0));
            assert_eq!(waiting.join().unwrap(), (Ok(b"lost".to_vec()), sends(1, 1)));
            assert!(server.try_recv().is_none(), "executed once");
            let sent = client.stats().since(&before.0);
            assert_eq!((sent.msgs_sent, sent.bytes_sent), (2, (5 + H) + H));
            let answered = server.stats().since(&before.1);
            assert_eq!(
                (
                    answered.msgs_sent,
                    answered.replayed_sent,
                    answered.not_held_sent
                ),
                (2, 1, 0)
            );
            assert_eq!(answered.bytes_sent, 2 * (4 + H));
        });
        // A replay is an answer too.
        assert_eq!(streak(&table), 0);
        assert_eq!(f.stats().total_replayed, 1);
    }

    #[test]
    fn a_replayed_answer_is_not_a_round_trip_sample() {
        // It answers a probe, so its round trip includes a timeout.
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        let settled = table.rto("t", NodeId(1), Duration::from_secs(1));
        f.set_link_drop_probability(NodeId(1), NodeId(0), 1.0);
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| ask(&client, b"ask", &resend(&table, 500, 3)));
            let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
            server.reply(&req, vec![7]).unwrap();
            f.clear_link_drop_probability(NodeId(1), NodeId(0));
            assert_eq!(waiting.join().unwrap(), (Ok(vec![7]), sends(1, 1)));
        });
        assert_eq!(server.stats().replayed_sent, 1);
        assert_eq!(table.rto("t", NodeId(1), Duration::from_secs(1)), settled);
    }

    #[test]
    fn a_reply_past_the_bound_is_forgotten_and_its_copy_executed_again() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        let answer = |reply: Vec<u8>| {
            let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
            server.reply(&req, reply).unwrap();
            req.payload
        };
        // The first reply is lost, and the caller's next
        // `REPLIES_PER_CALLER` answers push it out of the table.
        f.set_link_drop_probability(NodeId(1), NodeId(0), 1.0);
        let first = client.call_start(NodeId(1), b"first").unwrap();
        answer(b"lost".to_vec());
        f.clear_link_drop_probability(NodeId(1), NodeId(0));
        let _later: Vec<PendingCall> = (0..crate::replies::REPLIES_PER_CALLER)
            .map(|_| {
                let call = client.call_start(NodeId(1), b"later").unwrap();
                answer(Vec::new());
                call
            })
            .collect();
        // So the probe is bounced, and the copy executed again.
        std::thread::scope(|scope| {
            let waiting =
                scope.spawn(|| client.call_wait(first, b"first", &resend(&table, 500, 3)));
            assert_eq!(answer(b"again".to_vec()), b"first");
            assert_eq!(
                waiting.join().unwrap(),
                (Ok(b"again".to_vec()), sends(2, 1))
            );
        });
        let wire = f.stats();
        assert_eq!((wire.total_not_held, wire.total_replayed), (1, 0));
    }

    #[test]
    fn giving_up_reclaims_the_entry_and_restart_forgets_held_requests() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        // Probes at ≈ 20 and 60 ms, gives up at 3 × 40 ms and not before.
        let started = Instant::now();
        let (answer, sent) = ask(&client, b"void", &resend(&table, 40, 3));
        assert_eq!((answer, sent), (Err(NetError::Timeout), sends(1, 2)));
        assert!(started.elapsed() >= Duration::from_millis(120));
        assert_eq!(client.pending.lock().len(), 0);
        // Three sends, one call given up on.
        assert_eq!(streak(&table), 1);
        assert_eq!(client.stats().bytes_sent, (4 + H) + 2 * H);
        assert_eq!(server.stats().held_dropped, 2);
        // A deadline ends the wait before the patience does.
        let started = Instant::now();
        let hurried = Resend {
            deadline: Some(started + Duration::from_millis(10)),
            ..resend(&table, 1_000, 3)
        };
        let (answer, sent) = ask(&client, b"void", &hurried);
        assert_eq!((answer, sent), (Err(NetError::Timeout), sends(1, 0)));
        assert!(started.elapsed() < Duration::from_millis(500));
        // The server was handed each request once and still holds both
        // (the hurried one may still be on its way to the queue); a
        // restarted node holds nothing.
        let handed: Vec<_> = (0..2)
            .map(|_| {
                server
                    .recv_timeout(Duration::from_secs(5))
                    .expect("request handed")
            })
            .map(|request| (request.src, request.correlation))
            .collect();
        assert!(server.try_recv().is_none(), "a request was handed twice");
        let seen = |call| server.replies.lock().probe(call);
        assert!(handed
            .iter()
            .all(|&call| matches!(seen(call), Some(Seen::Held))));
        f.crash(NodeId(1));
        f.restart(NodeId(1));
        assert!(handed.iter().all(|&call| seen(call).is_none()));
    }

    #[test]
    fn a_lost_request_is_bounced_and_sent_once_more() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        f.set_link_drop_probability(NodeId(0), NodeId(1), 1.0);
        let call = client.call_start(NodeId(1), b"lost").unwrap();
        f.clear_link_drop_probability(NodeId(0), NodeId(1));
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| client.call_wait(call, b"lost", &resend(&table, 500, 3)));
            let copy = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(copy.payload, b"lost");
            server.reply(&copy, b"found".to_vec()).unwrap();
            assert_eq!(
                waiting.join().unwrap(),
                (Ok(b"found".to_vec()), sends(2, 1))
            );
        });
        assert!(server.try_recv().is_none(), "executed once");
        let sent = client.stats();
        assert_eq!(
            (sent.msgs_sent, sent.msgs_dropped, sent.probes_sent),
            (3, 1, 1)
        );
        assert_eq!(sent.bytes_sent, 2 * (4 + H) + H);
        let handed = server.stats();
        assert_eq!((handed.msgs_received, handed.not_held_sent), (2, 1));
    }

    #[test]
    fn a_crashed_peer_is_silent_and_waited_out_to_the_patience() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let _server = f.register(NodeId(1));
        let table = warm_table();
        f.crash(NodeId(1));
        let started = Instant::now();
        let (answer, sent) = ask(&client, b"void", &resend(&table, 40, 3));
        assert_eq!((answer, sent), (Err(NetError::Timeout), sends(1, 2)));
        assert!(started.elapsed() >= Duration::from_millis(120));
        let stats = f.stats();
        assert_eq!((stats.total_msgs, stats.total_dropped), (3, 3));
        assert_eq!(stats.total_bytes, (4 + H) + 2 * H);
        assert_eq!((stats.total_probes, stats.total_not_held), (2, 0));
        assert_eq!(streak(&table), 1);
    }

    #[test]
    fn a_partitioned_peer_is_silent() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        f.partition(&[&[NodeId(0)], &[NodeId(1)]]);
        let started = Instant::now();
        let (answer, sent) = ask(&client, b"void", &resend(&table, 40, 3));
        assert_eq!((answer, sent), (Err(NetError::Timeout), sends(1, 2)));
        assert!(started.elapsed() >= Duration::from_millis(120));
        assert_eq!(server.stats(), NodeStats::default());
        let stats = f.stats();
        assert_eq!((stats.total_dropped, stats.total_not_held), (3, 0));
    }

    /// 30 ms each way, no jitter, no loss.
    fn slow_link() -> LinkModel {
        LinkModel {
            base_latency: Duration::from_millis(30),
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter: Duration::ZERO,
            drop_probability: 0.0,
        }
    }

    #[test]
    fn a_replay_queued_behind_the_answer_is_ignored() {
        // 30 ms each way: the probe sent at ≈ 20 ms reaches the server at
        // 50, after it answered at 30, and is answered with the stored
        // reply; the answer arrives at 60 and the replay behind it at 80.
        let f = Fabric::new(slow_link());
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        let server_thread = std::thread::spawn(move || {
            for n in 1..=2u8 {
                let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
                server.reply(&req, vec![n]).unwrap();
            }
            server
        });
        let (answer, sent) = ask(&client, b"ask", &resend(&table, 500, 2));
        assert_eq!((answer, sent), (Ok(vec![1]), sends(1, 1)));
        assert_eq!(client.pending.lock().len(), 0);
        // The replay lands while the next call waits, and leaves it be.
        let next = client.call(NodeId(1), b"next".to_vec(), Duration::from_secs(5));
        assert_eq!(next, Ok(vec![2]));
        let server = server_thread.join().unwrap();
        assert_eq!(server.stats().replayed_sent, 1);
        assert_eq!(client.stats().msgs_received, 3);
    }

    #[test]
    fn a_bounce_already_answered_by_a_copy_brings_no_second_copy() {
        // 30 ms each way and the frame lost: probes at ≈ 20 and 60 ms
        // reach the server at 50 and 90 and both bounce, landing at 80
        // and 120. The first bounce brings the copy (server at 110); the
        // second answers a probe sent before that copy and brings nothing.
        let f = Fabric::new(slow_link());
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        f.set_link_drop_probability(NodeId(0), NodeId(1), 1.0);
        let call = client.call_start(NodeId(1), b"lost").unwrap();
        f.clear_link_drop_probability(NodeId(0), NodeId(1));
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| client.call_wait(call, b"lost", &resend(&table, 500, 3)));
            let copy = server.recv_timeout(Duration::from_secs(5)).unwrap();
            server.reply(&copy, b"found".to_vec()).unwrap();
            assert_eq!(
                waiting.join().unwrap(),
                (Ok(b"found".to_vec()), sends(2, 2))
            );
        });
        assert!(server.recv_timeout(Duration::from_millis(100)).is_none());
        assert_eq!(server.stats().not_held_sent, 2);
        assert_eq!(client.stats().bytes_sent, 2 * (4 + H) + 2 * H);
    }

    #[test]
    fn karn_samples_an_exchange_whose_frame_went_out_once_however_often_probed() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let table = warm_table();
        let rto = || table.rto("t", NodeId(1), Duration::from_secs(1));
        let settled = rto();
        std::thread::scope(|scope| {
            // One frame and two probes, answered after ≈ 100 ms: a sample.
            let waiting = scope.spawn(|| ask(&client, b"slow", &resend(&table, 500, 3)));
            let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(server.recv_timeout(Duration::from_millis(100)).is_none());
            server.reply(&req, vec![]).unwrap();
            assert_eq!(waiting.join().unwrap().1, sends(1, 2));
        });
        let sampled = rto();
        assert!(sampled > settled, "{sampled:?} after a 100 ms answer");
        // Two frames, the first lost: no sample.
        f.set_link_drop_probability(NodeId(0), NodeId(1), 1.0);
        let call = client.call_start(NodeId(1), b"lost").unwrap();
        f.clear_link_drop_probability(NodeId(0), NodeId(1));
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| client.call_wait(call, b"lost", &resend(&table, 500, 3)));
            let copy = server.recv_timeout(Duration::from_secs(5)).unwrap();
            server.reply(&copy, vec![]).unwrap();
            assert_eq!(waiting.join().unwrap().1, sends(2, 1));
        });
        assert_eq!(rto(), sampled);
    }

    #[test]
    fn a_call_waited_on_after_its_patience_ran_out_is_still_probed() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let _dead = f.register(NodeId(1));
        let live = f.register(NodeId(2));
        let table = warm_table();
        settle(&table, NodeId(2));
        // Both calls start together; the live peer's first frame is lost.
        f.set_link_drop_probability(NodeId(0), NodeId(2), 1.0);
        let to_dead = client.call_start(NodeId(1), b"ping").unwrap();
        let to_live = client.call_start(NodeId(2), b"ping").unwrap();
        f.clear_link_drop_probability(NodeId(0), NodeId(2));
        let server = std::thread::spawn(move || {
            let req = live.recv_timeout(Duration::from_secs(5)).unwrap();
            live.reply(&req, b"pong".to_vec()).unwrap();
        });
        // Waiting on the silent peer takes the whole 2 × 40 ms ...
        let patient = resend(&table, 40, 2);
        let (answer, _) = client.call_wait(to_dead, b"ping", &patient);
        assert_eq!(answer, Err(NetError::Timeout));
        // ... which is also all the patience the other call had: it is
        // probed at once, bounced, and its frame sent again.
        let (answer, sent) = client.call_wait(to_live, b"ping", &patient);
        assert_eq!((answer, sent), (Ok(b"pong".to_vec()), sends(2, 1)));
        server.join().unwrap();
    }

    #[test]
    fn waker_interrupts_blocking_recv() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let waker = a.waker();
        let handle = std::thread::spawn(move || {
            let env = a.recv().expect("woken, not shut down");
            assert!(Waker::is_wake(&env));
        });
        std::thread::sleep(Duration::from_millis(20));
        waker.wake();
        handle.join().unwrap();
    }

    #[test]
    fn waker_reaches_a_crashed_node() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let waker = a.waker();
        f.crash(NodeId(0));
        waker.wake();
        let env = a.recv().expect("wake bypasses aliveness");
        assert!(Waker::is_wake(&env));
        // Real traffic is not mistaken for a wake.
        f.restart(NodeId(0));
        let b = f.register(NodeId(1));
        b.call_start(NodeId(0), b"real").unwrap();
        let env = a.recv().unwrap();
        assert!(!Waker::is_wake(&env));
    }

    #[test]
    fn response_high_water_tracks_largest_response_frame() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let server_thread = std::thread::spawn(move || {
            for _ in 0..2 {
                let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
                let n = req.payload[0] as usize * 100;
                server.reply(&req, vec![0u8; n]).unwrap();
            }
        });
        client
            .call(NodeId(1), vec![3u8; 1000], Duration::from_secs(5))
            .unwrap();
        client
            .call(NodeId(1), vec![1u8], Duration::from_secs(5))
            .unwrap();
        server_thread.join().unwrap();
        let stats = f.stats();
        // Largest *response* (300 B payload + overhead); the 1000 B
        // request does not count.
        assert_eq!(
            stats.max_response_bytes,
            300 + crate::envelope::WIRE_OVERHEAD
        );
        // since() carries the high-water instead of subtracting it.
        assert_eq!(
            f.stats().since(&stats).max_response_bytes,
            stats.max_response_bytes
        );
    }

    #[test]
    fn concurrent_rpcs_from_one_node() {
        let f = instant_fabric();
        let client = Arc::new(f.register(NodeId(0)));
        let server = f.register(NodeId(1));
        let server_thread = std::thread::spawn(move || {
            for _ in 0..40 {
                let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
                let mut resp = req.payload.clone();
                resp.push(0xAA);
                server.reply(&req, resp).unwrap();
            }
        });
        let mut handles = vec![];
        for t in 0..4u8 {
            let c = Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                for i in 0..10u8 {
                    let resp = c
                        .call(NodeId(1), vec![t, i], Duration::from_secs(5))
                        .unwrap();
                    assert_eq!(resp, vec![t, i, 0xAA]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server_thread.join().unwrap();
    }
}
