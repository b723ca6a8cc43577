//! The typed scatter/gather execution layer.
//!
//! Coordinator and ingestors talk to workers in one shape — scatter a
//! message, gather the answers — and only the [`Executor`] does it: one
//! loop starts every target's first exchange, waits in target order,
//! asks after what is overdue under the operation's [`OpPolicy`], and books
//! per-operation telemetry ([`OpStats`], wire bytes counted at each send
//! and receive). Two entries sit on it:
//!
//! * A **read** is a [`DistributedOp`]: a small value that knows which
//!   workers to contact, what [`Request`] to send each one, how to decode
//!   each worker's [`Response`] into a typed partial, and how to merge the
//!   partials. [`Executor::execute_degraded`] runs it and, for a shard
//!   whose primary is unreachable, walks the shard's alive ring successors
//!   with [`Request::ReplicaRead`].
//! * A **control message** — barrier, probe, route install, cell move,
//!   repair stream, an acked write's owner and replica writes — is a
//!   named [`Request`] handed to [`Executor::ask`] with its targets and
//!   the decoder for the one [`Response`] it expects (an acked write
//!   sends both names in one scatter, each booked under its own). It
//!   never fails over: the per-target errors are the answer.
//!
//! # Retry semantics
//!
//! *When to ask again* and *when to give up* are separate. A sub-query
//! is probed when the retransmission timeout of its **(operation,
//! worker)** pair runs out — `SRTT + 4·RTTVAR` over the pair's answered
//! exchanges ([`stcam_net::PeerTable`]: sampled from exchanges whose frame
//! went out once, never under [`stcam_net::MIN_RTO`], doubling per
//! probe, capped at [`OpPolicy::timeout`], and equal to it until the pair
//! has a sample) — at most [`OpPolicy::max_attempts`] sends in all. It
//! fails only `timeout × max_attempts` after its first send, or at the
//! read's deadline. So a lost frame costs about a round trip, a silent
//! worker is given up on exactly as late as before, and a liveness probe
//! ([`OpPolicy::no_retry`]) is still one send and one timeout.
//!
//! A timeout sends a header-only probe ([`Endpoint::call_wait`]): a
//! worker's fabric drops it while the worker holds the request — a slow
//! answer costs 16 bytes, not a second execution — replays the stored
//! reply once it answered, and otherwise bounces it, upon which the same
//! bytes go out again under the same correlation. The worker *can* still
//! see a request twice (its fabric forgot the reply), so the protocol
//! keeps one invariant instead of a per-op flag: **every request the
//! executor sends is safe to apply twice.** Reads are pure; writes either
//! overwrite (route install, a cell stream's truncate), remove their
//! input before acting (promote), or pass the worker's id/digest dedup
//! (segment install). A new message must keep that invariant. A probe
//! counts in [`OpStats::retries`] and books 16 bytes; a copy, the frame.
//!
//! # Adding a new operation
//!
//! 1. Add the `Request`/`Response` message pair in `protocol.rs` and a
//!    `match` arm in the worker's `handle_request`.
//! 2. A read implements [`DistributedOp`] (targets / request / decode /
//!    merge), which makes it a [`Query`](crate::Query) asked through
//!    [`Cluster::query`](crate::Cluster::query) — no facade to add; see
//!    [`TopCellsOp`] for a complete example (it reuses the heat-map
//!    message, so it skips step 1 too).
//! 3. A control message needs no type: the coordinator spells the
//!    `Request` and passes it to [`Executor::ask`] under the name that
//!    keys its policy and telemetry.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use parking_lot::Mutex;
use stcam_camnet::Observation;
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_geo::{BBox, CellId, GridSpec, Point, TimeInterval};
use stcam_index::Predicate;
use stcam_net::{Endpoint, NetError, NodeId, PeerTable, PendingCall, Resend};

use crate::admission::{Deadline, ShedReason};
use crate::error::StcamError;
pub use crate::latency::LatencyHistogram;
use crate::paging;
use crate::partition::PartitionMap;
use crate::protocol::{Request, Response, PROJ_FULL};

// ----------------------------------------------------------------------
// Policy and telemetry
// ----------------------------------------------------------------------

/// Timeout/retry policy of one operation class: wait at most `timeout`
/// before probing, send at most `max_attempts` times, give up
/// `timeout × max_attempts` after the first send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpPolicy {
    /// Longest wait before a sub-query is probed; the measured
    /// retransmission timeout of its (operation, worker) pair is shorter.
    pub timeout: StdDuration,
    /// Total sends per sub-query (1 = no retry).
    pub max_attempts: u32,
}

impl OpPolicy {
    /// The standard policy: up to three sends within the caller's total
    /// `timeout`, so the worst case against a genuinely dead worker is
    /// the bound a non-retrying caller would see.
    pub fn new(timeout: StdDuration) -> Self {
        OpPolicy {
            timeout: timeout / 3,
            max_attempts: 3,
        }
    }

    /// A single-attempt policy (used for liveness probes, where a timeout
    /// *is* the signal).
    pub fn no_retry(timeout: StdDuration) -> Self {
        OpPolicy {
            timeout,
            max_attempts: 1,
        }
    }
}

/// Cumulative telemetry of one operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Times the operation was invoked.
    pub invocations: u64,
    /// Sub-query attempts issued (fan-out × invocations, plus retries).
    pub sub_queries: u64,
    /// Sub-query frames sent again to the same worker because its
    /// answer was overdue.
    pub retries: u64,
    /// Sub-queries whose final attempt failed.
    pub failures: u64,
    /// Sub-queries re-issued to a replica after the primary failed
    /// (degraded-path reads only).
    pub failovers: u64,
    /// Wire bytes sent by the coordinator for this operation.
    pub bytes_sent: u64,
    /// Wire bytes received by the coordinator for this operation.
    pub bytes_received: u64,
    /// Wall-clock microseconds spent in the scatter/gather phase
    /// (issuing sub-queries and collecting responses).
    pub scatter_micros: u64,
    /// Wall-clock microseconds spent merging partials into the output.
    pub merge_micros: u64,
    /// Wire bytes the control loop moved between copies: its
    /// `export_segments` answers received plus `install_segments`
    /// requests sent. Booked only under the "repair" key, which holds the
    /// loop's rounds and bytes and no message stats of its own.
    pub repair_bytes: u64,
    /// Control-loop rounds driven (booked under "repair").
    pub repair_rounds: u64,
    /// Per-invocation scatter/gather latency distribution (one sample
    /// per invocation, log-linear microsecond buckets).
    pub latency: LatencyHistogram,
}

impl OpStats {
    /// Difference against an earlier snapshot: activity that occurred in
    /// between (saturating).
    pub fn since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            invocations: self.invocations.saturating_sub(earlier.invocations),
            sub_queries: self.sub_queries.saturating_sub(earlier.sub_queries),
            retries: self.retries.saturating_sub(earlier.retries),
            failures: self.failures.saturating_sub(earlier.failures),
            failovers: self.failovers.saturating_sub(earlier.failovers),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            scatter_micros: self.scatter_micros.saturating_sub(earlier.scatter_micros),
            merge_micros: self.merge_micros.saturating_sub(earlier.merge_micros),
            repair_bytes: self.repair_bytes.saturating_sub(earlier.repair_bytes),
            repair_rounds: self.repair_rounds.saturating_sub(earlier.repair_rounds),
            latency: self.latency.since(&earlier.latency),
        }
    }
}

// ----------------------------------------------------------------------
// Degraded results and completeness accounting
// ----------------------------------------------------------------------

/// How a read should behave when shards are unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Fail the whole query with [`StcamError::PartialFailure`] unless
    /// every shard (primary or replica) answered.
    #[default]
    Strict,
    /// Answer from whatever shards survive and report what is missing in
    /// the result's [`Completeness`].
    BestEffort,
}

/// An account of which shards contributed to a degraded query's answer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Completeness {
    /// Shards the query had to cover.
    pub shards_total: usize,
    /// Shards answered by their primary.
    pub shards_from_primary: usize,
    /// Shards answered by a replica after the primary failed.
    pub shards_from_replica: usize,
    /// Shard primaries that contributed nothing: neither the primary nor
    /// any replica answered. Empty iff the answer is complete.
    pub missing: Vec<NodeId>,
    /// `(failed primary, serving replica)` pairs for shards answered via
    /// failover.
    pub replicas_used: Vec<(NodeId, NodeId)>,
    /// Sub-query frames sent again to the same worker.
    pub retries: u64,
    /// Whether the value is guaranteed to be a subset of the complete
    /// answer. Always true when nothing is missing; under loss it is
    /// false for top-k shapes (kNN, top-cells), where dropping a shard
    /// can *promote* wrong items into the result rather than merely
    /// omitting rows.
    pub subset: bool,
    /// When set, the answer was degraded *by policy* (admission-control
    /// load shedding or a mid-flight deadline expiry), not by
    /// infrastructure failure — overload is reported truthfully instead
    /// of surfacing as a silent timeout.
    pub shed: Option<ShedReason>,
}

impl Completeness {
    /// Whether every shard contributed (directly or via a replica).
    pub fn is_full(&self) -> bool {
        self.missing.is_empty()
    }

    /// Fraction of shards that answered, in `[0, 1]` (1 when the query
    /// had no shards to cover).
    pub fn fraction(&self) -> f64 {
        if self.shards_total == 0 {
            1.0
        } else {
            (self.shards_total - self.missing.len()) as f64 / self.shards_total as f64
        }
    }

    /// Folds another phase's account into this one (used by composed
    /// queries such as two-phase kNN).
    pub fn absorb(&mut self, other: Completeness) {
        self.shards_total += other.shards_total;
        self.shards_from_primary += other.shards_from_primary;
        self.shards_from_replica += other.shards_from_replica;
        for node in other.missing {
            if !self.missing.contains(&node) {
                self.missing.push(node);
            }
        }
        self.replicas_used.extend(other.replicas_used);
        self.retries += other.retries;
        self.subset = self.subset && other.subset;
        self.shed = self.shed.or(other.shed);
    }
}

/// A best-effort query result: the merged value plus the account of
/// which shards stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded<T> {
    /// The merged answer over the shards that responded.
    pub value: T,
    /// Which shards contributed and which are missing.
    pub completeness: Completeness,
}

// ----------------------------------------------------------------------
// The read abstraction
// ----------------------------------------------------------------------

/// One distributed read: scatter targets, per-worker request, response
/// decoding, and partial-result merging.
///
/// Implementations are plain values consumed by
/// [`Executor::execute_degraded`]. Every sub-query of one is a pure
/// per-shard read, so a shard whose primary is unreachable may be
/// answered from a ring successor's replica log.
pub trait DistributedOp {
    /// What one worker contributes.
    type Partial;
    /// What the whole operation yields.
    type Output;

    /// Stable operation name — the key for policy overrides and
    /// [`OpStats`] aggregation.
    fn name(&self) -> &'static str;

    /// Whether merging fewer shards than targeted still yields a subset
    /// of the complete answer. True for unions and per-bucket sums;
    /// false for top-k shapes, where a lost shard can promote items that
    /// the complete answer would have displaced.
    fn subset_on_loss(&self) -> bool {
        true
    }

    /// The workers this operation must contact, given the current
    /// partition map and alive set.
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId>;

    /// The request to send worker `to`.
    fn request(&self, to: NodeId) -> Request;

    /// Checks and converts one worker's response into a partial result.
    fn decode(&self, response: Response) -> Result<Self::Partial, StcamError>;

    /// Merges the per-worker partials (in target order) into the output.
    fn merge(self, partials: Vec<(NodeId, Self::Partial)>) -> Self::Output;
}

// ----------------------------------------------------------------------
// The executor
// ----------------------------------------------------------------------

/// State shared by every [`Executor`] of one logical client: policy
/// overrides, per-operation telemetry, the peer table, and the
/// replication factor.
///
/// The coordinator's control-plane executor and the query plane's pooled
/// executors all hold one `Arc<ExecShared>`, so an operation books into
/// the same [`OpStats`] registry no matter which fabric endpoint carried
/// it — telemetry stays a single coherent account under concurrency.
#[derive(Debug)]
pub(crate) struct ExecShared {
    default_policy: OpPolicy,
    overrides: Mutex<HashMap<&'static str, OpPolicy>>,
    stats: Mutex<BTreeMap<&'static str, OpStats>>,
    /// Replication factor of the ring (0 disables replica failover).
    replication: AtomicUsize,
    /// Retransmission timeout per (operation, worker) and failure streak
    /// per worker, booked at the end of every call any member makes —
    /// probe, write, sub-query, failover attempt.
    peers: PeerTable,
}

impl ExecShared {
    fn new(default_policy: OpPolicy) -> Self {
        ExecShared {
            default_policy,
            overrides: Mutex::new(HashMap::new()),
            stats: Mutex::new(BTreeMap::new()),
            replication: AtomicUsize::new(0),
            peers: PeerTable::default(),
        }
    }
}

/// `FetchPage` exchanges one paged answer keeps in flight. Four 64 KiB
/// pages per ≈ 300 µs round trip stay under `LinkModel::lan()`'s 1 GB/s,
/// which the fabric does not serialise per link: more would be bandwidth
/// the model does not have.
const PULL_WINDOW: u32 = 4;

/// What one scatter counted. Wire bytes are counted at each send and
/// receive (payload + envelope overhead) instead of diffing endpoint
/// counters, so concurrent operations sharing an endpoint never
/// attribute each other's traffic.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    sent: u64,
    received: u64,
    /// Same-target probes after a retransmission timeout.
    retries: u64,
    /// Replica reads issued after a primary failed.
    failovers: u64,
}

impl Tally {
    fn sent(&mut self, payload_len: usize, times: u32) {
        self.sent += (payload_len as u64 + stcam_net::WIRE_OVERHEAD) * u64::from(times);
    }
    fn received(&mut self, payload_len: usize) {
        self.received += payload_len as u64 + stcam_net::WIRE_OVERHEAD;
    }
}

/// One target's outcome of a scatter.
struct ShardOutcome<P> {
    /// The worker the sub-query was addressed to (a read's shard
    /// primary).
    shard: NodeId,
    /// The decoded partial, or the *primary's* error when neither the
    /// primary nor any replica answered.
    result: Result<P, StcamError>,
    /// The replica that answered, when the primary did not.
    via: Option<NodeId>,
}

/// Owns the scatter/gather loop, retry policy, and per-op telemetry for
/// every read ([`execute_degraded`](Self::execute_degraded)) and every
/// write and control message ([`ask`](Self::ask)).
#[derive(Debug)]
pub struct Executor {
    endpoint: Endpoint,
    shared: Arc<ExecShared>,
}

impl Executor {
    /// Creates an executor speaking through `endpoint` with
    /// `default_policy` for operations without an override.
    pub fn new(endpoint: Endpoint, default_policy: OpPolicy) -> Self {
        Self::with_shared(endpoint, Arc::new(ExecShared::new(default_policy)))
    }

    /// Creates an executor over `endpoint` that joins an existing shared
    /// state — same policies, same telemetry registry, same peer table.
    /// This is how the query plane's endpoint pool stays one logical
    /// client: N endpoints, one account.
    pub(crate) fn with_shared(endpoint: Endpoint, shared: Arc<ExecShared>) -> Self {
        Executor { endpoint, shared }
    }

    /// The shared policy/telemetry/peer state, for building further
    /// executors that join this one's account.
    pub(crate) fn shared(&self) -> Arc<ExecShared> {
        Arc::clone(&self.shared)
    }

    /// The underlying fabric endpoint (its id names this sender).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// What this client knows of each worker: round-trip estimates and
    /// failure streaks.
    pub(crate) fn peers(&self) -> &PeerTable {
        &self.shared.peers
    }

    /// Sets the ring replication factor consulted by replica failover
    /// (how many successors may hold a shard's replica log).
    pub fn set_replication(&self, replication: usize) {
        self.shared
            .replication
            .store(replication, Ordering::Relaxed);
    }

    /// Installs a policy override for the named operation.
    pub fn set_policy(&self, op: &'static str, policy: OpPolicy) {
        self.shared.overrides.lock().insert(op, policy);
    }

    /// The effective policy of the named operation.
    pub fn policy_for(&self, op: &str) -> OpPolicy {
        self.shared
            .overrides
            .lock()
            .get(op)
            .copied()
            .unwrap_or(self.shared.default_policy)
    }

    /// A snapshot of per-op telemetry, sorted by operation name.
    pub fn op_stats(&self) -> Vec<(&'static str, OpStats)> {
        self.shared
            .stats
            .lock()
            .iter()
            .map(|(&name, &s)| (name, s))
            .collect()
    }

    /// Books control-loop rounds and the bytes they moved against the
    /// "repair" telemetry key (the loop calls this once per run).
    pub(crate) fn note_repair(&self, rounds: u64, bytes: u64) {
        let mut stats = self.shared.stats.lock();
        let entry = stats.entry("repair").or_default();
        entry.repair_rounds += rounds;
        entry.repair_bytes += bytes;
    }

    /// Telemetry of one operation (zeros when never invoked).
    pub fn stats_for(&self, op: &str) -> OpStats {
        self.shared
            .stats
            .lock()
            .get(op)
            .copied()
            .unwrap_or_default()
    }

    /// Sends one control message to each of `targets` and returns every
    /// target's decoded answer, in target order. `name` keys the
    /// message's [`OpPolicy`] and [`OpStats`]; `request` is called once
    /// per entry of `targets`, in order, so a broadcast returns the same
    /// frame each time and a worker listed twice gets one sub-query per
    /// entry; `want` decodes the one [`Response`] the message expects.
    ///
    /// A timed-out target is retried under the policy and never failed
    /// over: its error is part of the answer, which is what a liveness
    /// probe reads. A caller that needs every target to succeed takes
    /// the first `Err`.
    pub fn ask<T>(
        &self,
        name: &'static str,
        targets: &[NodeId],
        request: impl FnMut(NodeId) -> Request,
        want: impl Fn(Response) -> Result<T, StcamError>,
    ) -> Vec<(NodeId, Result<T, StcamError>)> {
        let targets: Vec<_> = targets.iter().map(|&to| (0, to)).collect();
        self.ask_named(&[name], &targets, request, want)
    }

    /// [`ask`](Self::ask) under several names in one scatter: a target
    /// comes with the index of the name in `names` it waits and books
    /// under.
    pub(crate) fn ask_named<T>(
        &self,
        names: &[&'static str],
        targets: &[(usize, NodeId)],
        request: impl FnMut(NodeId) -> Request,
        want: impl Fn(Response) -> Result<T, StcamError>,
    ) -> Vec<(NodeId, Result<T, StcamError>)> {
        let (outcomes, _) = self.scatter(names, targets, None, request, want, None);
        outcomes.into_iter().map(|o| (o.shard, o.result)).collect()
    }

    /// Runs a read's replica-failover scatter/gather and reports how
    /// complete the merged answer is, instead of failing on lost shards.
    ///
    /// Per shard: the primary is attempted first (with the operation's
    /// normal retry policy); if it fails with a transport error, the
    /// shard's sub-query is re-issued to its ring successors —
    /// unsuspected first, per the [`PeerTable`] — wrapped in
    /// [`Request::ReplicaRead`]. A shard is declared missing only after
    /// the primary and every candidate replica failed. The merge then
    /// runs over whatever survived.
    ///
    /// The per-call tenancy context is optional: no sub-query waits past
    /// a `deadline` (a mid-flight expiry surfaces as missing shards
    /// tagged [`ShedReason::Deadline`] — truthful, never an overrun), and
    /// a `bytes_out` accumulator receives this call's wire bytes (sent +
    /// received, the same tally booked into [`OpStats`]) so the caller
    /// can attribute them to a tenant.
    pub fn execute_degraded<O: DistributedOp>(
        &self,
        op: O,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
        deadline: Option<Deadline>,
        bytes_out: Option<&AtomicU64>,
    ) -> Degraded<O::Output> {
        let name = op.name();
        let targets = op.targets(partition, alive).into_iter().map(|to| (0, to));
        let (outcomes, tallies) = self.scatter(
            &[name],
            &targets.collect::<Vec<_>>(),
            deadline,
            |to| op.request(to),
            |response| op.decode(response),
            Some((partition, alive)),
        );
        let tally = tallies[0];
        if let Some(acc) = bytes_out {
            acc.fetch_add(tally.sent + tally.received, Ordering::Relaxed);
        }
        let mut completeness = Completeness {
            shards_total: outcomes.len(),
            retries: tally.retries,
            subset: true,
            ..Completeness::default()
        };
        let mut partials = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome.result {
                Ok(partial) => {
                    match outcome.via {
                        Some(replica) => {
                            completeness.shards_from_replica += 1;
                            completeness.replicas_used.push((outcome.shard, replica));
                        }
                        None => completeness.shards_from_primary += 1,
                    }
                    partials.push((outcome.shard, partial));
                }
                Err(_) => completeness.missing.push(outcome.shard),
            }
        }
        completeness.subset = completeness.missing.is_empty() || op.subset_on_loss();
        // Shards lost while the deadline was running out are attributed
        // to the deadline, not to infrastructure: it is what cut their
        // waits off.
        if !completeness.missing.is_empty() && deadline.is_some_and(|d| d.expired()) {
            completeness.shed = completeness.shed.or(Some(ShedReason::Deadline));
        }
        let started = Instant::now();
        let value = op.merge(partials);
        let merge_micros = started.elapsed().as_micros() as u64;
        self.shared
            .stats
            .lock()
            .entry(name)
            .or_default()
            .merge_micros += merge_micros;
        Degraded {
            value,
            completeness,
        }
    }

    /// How `name`'s sub-queries wait: its policy, this client's measured
    /// retransmission timeouts, and no longer than `deadline`.
    fn resend(&self, name: &'static str, deadline: Option<Deadline>) -> Resend<'_> {
        let policy = self.policy_for(name);
        Resend {
            class: name,
            peers: Some(&self.shared.peers),
            timeout: policy.timeout,
            max_sends: policy.max_attempts,
            deadline: deadline.map(|d| Instant::now() + d.remaining()),
        }
    }

    /// The one scatter loop, under both entries: starts the first wire
    /// exchange of every target's sub-query before waiting on any (one
    /// thread overlaps the round trips; page pulls, probes and failover
    /// follow per target), resolves each in target order, and — given
    /// the plan to `failover` in — re-issues a transport-failed sub-query
    /// to the shard's replicas. A target names its operation by index
    /// into `names`: the sub-query waits under that name's policy, and
    /// each name books one invocation with its own sub-queries into its
    /// [`OpStats`], its latency running until its last one resolved.
    /// Returns what each name counted.
    fn scatter<P>(
        &self,
        names: &[&'static str],
        targets: &[(usize, NodeId)],
        deadline: Option<Deadline>,
        mut request: impl FnMut(NodeId) -> Request,
        decode: impl Fn(Response) -> Result<P, StcamError>,
        failover: Option<(&PartitionMap, &HashSet<NodeId>)>,
    ) -> (Vec<ShardOutcome<P>>, Vec<Tally>) {
        // Per name: how it waits, what it counted, its sub-queries and
        // failures, and when the last of them resolved.
        let book = |name| (self.resend(name, deadline), Tally::default(), 0, 0, 0);
        let mut books: Vec<_> = names.iter().map(|&name| book(name)).collect();
        let started = Instant::now();
        let firsts: Vec<_> = targets
            .iter()
            .map(|&(name, shard)| {
                let frame = encode_to_vec(&request(shard));
                let call = self.start(shard, &frame, &mut books[name].1);
                (name, shard, frame, call)
            })
            .collect();
        let outcomes: Vec<ShardOutcome<P>> = firsts
            .into_iter()
            .map(|(name, shard, frame, call)| {
                let (resend, tally, subs, failures, micros) = &mut books[name];
                let primary = self.receive(shard, call, &frame, resend, &decode, tally);
                let outcome = match (primary, failover) {
                    // Only transport failures justify failover: an
                    // application-level error from a reachable primary
                    // would repeat at any replica.
                    (Err(err @ StcamError::Net(_)), Some((partition, alive))) => {
                        let replicas = partition.alive_successors(
                            shard,
                            self.shared.replication.load(Ordering::Relaxed),
                            alive,
                        );
                        let inner = || request(shard);
                        self.fail_over(shard, err, replicas, inner, resend, &decode, tally)
                    }
                    (result, _) => ShardOutcome {
                        shard,
                        result,
                        via: None,
                    },
                };
                *subs += 1;
                *failures += u64::from(outcome.result.is_err());
                *micros = started.elapsed().as_micros() as u64;
                outcome
            })
            .collect();
        let mut stats = self.shared.stats.lock();
        for (resend, tally, subs, failures, micros) in &books {
            let entry = stats.entry(resend.class).or_default();
            entry.invocations += 1;
            entry.sub_queries += subs + tally.retries + tally.failovers;
            entry.retries += tally.retries;
            entry.failures += failures;
            entry.failovers += tally.failovers;
            entry.bytes_sent += tally.sent;
            entry.bytes_received += tally.received;
            entry.scatter_micros += micros;
            entry.latency.record(*micros);
        }
        (outcomes, books.into_iter().map(|book| book.1).collect())
    }

    /// Puts `frame` on the wire for `to` and books the send.
    fn start(&self, to: NodeId, frame: &[u8], tally: &mut Tally) -> Result<PendingCall, NetError> {
        tally.sent(frame.len(), 1);
        self.endpoint.call_start(to, frame)
    }

    /// The failover half of a read's sub-query, entered when the primary
    /// failed at the transport with `err`: asks `replicas` — the same
    /// ring-walked set the acked write path certifies and the repair
    /// planner restores — unsuspected first, until one answers `inner`
    /// from its replica log of `shard`.
    #[allow(clippy::too_many_arguments)]
    fn fail_over<P>(
        &self,
        shard: NodeId,
        err: StcamError,
        mut replicas: Vec<NodeId>,
        mut inner: impl FnMut() -> Request,
        resend: &Resend<'_>,
        decode: &impl Fn(Response) -> Result<P, StcamError>,
        tally: &mut Tally,
    ) -> ShardOutcome<P> {
        self.shared.peers.rank(&mut replicas);
        for replica in replicas {
            tally.failovers += 1;
            let frame = encode_to_vec(&Request::ReplicaRead {
                of: shard,
                inner: Box::new(inner()),
            });
            let call = self.start(replica, &frame, tally);
            if let Ok(partial) = self.receive(replica, call, &frame, resend, decode, tally) {
                return ShardOutcome {
                    shard,
                    result: Ok(partial),
                    via: Some(replica),
                };
            }
        }
        ShardOutcome {
            shard,
            result: Err(err),
            via: None,
        }
    }

    /// Waits out one started exchange, probing whenever the pair's
    /// retransmission timeout runs out (each probe is a retry on the
    /// books) and re-sending `frame` when the worker does not hold it,
    /// and returns the answer's bytes.
    fn wait(
        &self,
        call: Result<PendingCall, NetError>,
        frame: &[u8],
        resend: &Resend<'_>,
        tally: &mut Tally,
    ) -> Result<Vec<u8>, NetError> {
        let (raw, sends) = self.endpoint.call_wait(call?, frame, resend);
        tally.retries += u64::from(sends.probes);
        tally.sent(0, sends.probes);
        tally.sent(frame.len(), sends.frames - 1);
        let bytes = raw?;
        tally.received(bytes.len());
        Ok(bytes)
    }

    /// Turns the exchange `call` started with `node` into the decoded
    /// partial: the wait (which probes, and re-sends `frame` when it is
    /// not held), decode, and page pulls.
    /// Asks again — a new exchange, the same frame — only when the node no
    /// longer holds the pages it parked.
    fn receive<P>(
        &self,
        node: NodeId,
        mut call: Result<PendingCall, NetError>,
        frame: &[u8],
        resend: &Resend<'_>,
        decode: &impl Fn(Response) -> Result<P, StcamError>,
        tally: &mut Tally,
    ) -> Result<P, StcamError> {
        for asked in 1.. {
            let bytes = self.wait(call, frame, resend, tally)?;
            let response = decode_from_slice::<Response>(&bytes)?;
            if let Some(whole) = self.collect_pages(node, response, resend, tally)? {
                return decode(whole);
            }
            if asked >= resend.max_sends {
                break;
            }
            tally.retries += 1;
            call = self.start(node, frame, tally);
        }
        Err(StcamError::Net(NetError::Timeout))
    }

    /// When a sub-query answered with the first frame of a paged result,
    /// pulls the remaining pages from the same node, [`PULL_WINDOW`] at a
    /// time and waited on in page order, decoding each onto the answer
    /// while those behind it travel; any other response passes through.
    ///
    /// Each pull is an exchange of its own class, `"fetch_page"` (a pull
    /// answers in a fraction of the time its range does), probed like
    /// any other; one that fails surfaces as the transport error it is.
    /// `None` when the worker answered a pull with an error, which it
    /// does only when the cursor was evicted under churn — the result is
    /// gone, not wrong, and asking the sub-query again parks a fresh one.
    fn collect_pages(
        &self,
        node: NodeId,
        response: Response,
        resend: &Resend<'_>,
        tally: &mut Tally,
    ) -> Result<Option<Response>, StcamError> {
        let Response::ResultPage {
            cursor,
            page: 0,
            pages,
            kind,
            payload,
        } = response
        else {
            return Ok(Some(response));
        };
        let pull = Resend {
            class: "fetch_page",
            ..*resend
        };
        let pull_page = |page: u32, tally: &mut Tally| {
            let frame = encode_to_vec(&Request::FetchPage { cursor, page });
            let call = self.start(node, &frame, tally);
            (frame, call)
        };
        let mut window: VecDeque<_> = (1..pages.min(1 + PULL_WINDOW))
            .map(|page| pull_page(page, tally))
            .collect();
        let mut answer = paging::empty_answer(kind)?;
        paging::append_page(&mut answer, &payload)?;
        for page in 1..pages {
            let (frame, call) = window.pop_front().expect("a pull per page still owed");
            let bytes = self.wait(call, &frame, &pull, tally)?;
            if pages - page > PULL_WINDOW {
                window.push_back(pull_page(page + PULL_WINDOW, tally));
            }
            match decode_from_slice::<Response>(&bytes)? {
                Response::ResultPage {
                    cursor: c,
                    page: p,
                    kind: k,
                    payload,
                    ..
                } if c == cursor && p == page && k == kind => {
                    paging::append_page(&mut answer, &payload)?
                }
                Response::Error(_) => return Ok(None),
                other => {
                    return Err(StcamError::Remote(format!(
                        "expected page {page} of cursor {cursor}, got {other:?}"
                    )))
                }
            }
        }
        Ok(Some(answer))
    }
}

// ----------------------------------------------------------------------
// Decoders and target helpers
// ----------------------------------------------------------------------

/// The error for a response that is not the `wanted` variant: the
/// worker's own message when it answered [`Response::Error`], else a
/// description of the surprise.
pub(crate) fn unexpected(wanted: &str, response: Response) -> StcamError {
    match response {
        Response::Error(msg) => StcamError::Remote(msg),
        other => StcamError::Remote(format!("expected {wanted}, got {other:?}")),
    }
}

pub(crate) fn want_ack(response: Response) -> Result<(), StcamError> {
    match response {
        Response::Ack => Ok(()),
        other => Err(unexpected("ack", other)),
    }
}

pub(crate) fn want_observations(response: Response) -> Result<Vec<Observation>, StcamError> {
    match response {
        Response::Observations(obs) => Ok(obs),
        other => Err(unexpected("observations", other)),
    }
}

/// Every alive worker, in id order.
pub(crate) fn all_alive(alive: &HashSet<NodeId>) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = alive.iter().copied().collect();
    v.sort();
    v
}

/// The alive owners of cells overlapping `region`.
pub(crate) fn region_targets(
    partition: &PartitionMap,
    alive: &HashSet<NodeId>,
    region: BBox,
) -> Vec<NodeId> {
    partition
        .workers_for_region(region)
        .into_iter()
        .filter(|w| alive.contains(w))
        .collect()
}

/// Sorts by distance from `at` (ties broken by id for determinism).
/// Uses `total_cmp`, so NaN distances (degenerate positions) order
/// deterministically instead of poisoning the comparator.
pub(crate) fn sort_knn(observations: &mut [Observation], at: Point) {
    observations.sort_by(|a, b| {
        let distance = |o: &Observation| at.distance_sq(o.position);
        distance(a).total_cmp(&distance(b)).then(a.id.cmp(&b.id))
    });
}

// ----------------------------------------------------------------------
// The operations
// ----------------------------------------------------------------------

/// Spatio-temporal range query over the shards overlapping the
/// predicate's region, with class, result-size and column pushdown.
#[derive(Debug, Clone, Copy)]
pub struct RangeOp {
    /// Inside `predicate.region`, of `predicate.class` when it is set
    /// ("trucks inside A"): each worker tests it inside its scan.
    pub predicate: Predicate,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Per-shard row cutoff pushed down to the workers (0 = unlimited).
    /// Each shard keeps its `limit` lowest-id rows; the merge re-sorts
    /// and truncates globally, so the result equals the unlimited
    /// query's first `limit` rows in id order.
    pub limit: u32,
    /// Column projection pushed down to the workers
    /// ([`PROJ_FULL`] or
    /// [`PROJ_THIN`](crate::PROJ_THIN), which blanks the signature and
    /// ground-truth columns so they never cross the wire).
    pub projection: u8,
}

impl RangeOp {
    /// Every full row in `region` × `window`: no class filter, no limit.
    pub fn new(region: BBox, window: TimeInterval) -> Self {
        RangeOp {
            predicate: Predicate::new(region),
            window,
            limit: 0,
            projection: PROJ_FULL,
        }
    }
}

impl DistributedOp for RangeOp {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        match self.predicate.class {
            None => "range",
            Some(_) => "range_filtered",
        }
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        region_targets(partition, alive, self.predicate.region)
    }
    fn request(&self, _to: NodeId) -> Request {
        let RangeOp {
            predicate: Predicate { region, class },
            window,
            limit,
            projection,
        } = *self;
        match class {
            None => Request::Range {
                region,
                window,
                limit,
                projection,
            },
            Some(class) => Request::RangeFiltered {
                region,
                window,
                class,
                limit,
                projection,
            },
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        let total = partials.iter().map(|(_, obs)| obs.len()).sum::<usize>();
        let mut parts = partials.into_iter().map(|(_, obs)| obs);
        let mut merged = parts.next().unwrap_or_default();
        merged.reserve_exact(total - merged.len());
        parts.for_each(|obs| merged.extend(obs));
        merged.sort_by_key(|o| o.id); // Sorted runs: 0.57 ms here, 1.57 ms by sort_by_id.
        if self.limit > 0 {
            merged.truncate(self.limit as usize);
        }
        merged
    }
}

/// Which workers a [`KnnOp`] asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KnnTargets {
    /// The (alive) owner of the query point's cell: `"knn_phase1"`.
    Owner(NodeId),
    /// The shards intersecting the bounding disk (every alive worker when
    /// there is no bound), minus this one, which already answered:
    /// `"knn_phase2"`.
    DiskExcept(NodeId),
    /// Every alive worker — the naive baseline: `"knn_broadcast"`.
    AllAlive,
}

/// One kNN scatter: ask the workers `to` names for their `k` nearest rows
/// within `bound`, and keep the `k` nearest of their answers and `seed`.
/// [`Knn`](crate::Knn) composes two — the owner's answer bounds and
/// seeds the rest; [`broadcast`](Self::broadcast), the unpruned baseline,
/// is the one form built outside this crate.
#[derive(Debug, Clone)]
pub struct KnnOp {
    /// Query point.
    pub at: Point,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Result size.
    pub k: usize,
    /// Prune radius pushed down to the workers (None = no bound).
    pub(crate) bound: Option<f64>,
    /// Rows already found, folded into the merge.
    pub(crate) seed: Vec<Observation>,
    /// The workers asked.
    pub(crate) to: KnnTargets,
}

impl KnnOp {
    /// An unbounded, unseeded scatter to `to`.
    pub(crate) fn new(at: Point, window: TimeInterval, k: usize, to: KnnTargets) -> Self {
        KnnOp {
            at,
            window,
            k,
            bound: None,
            seed: Vec::new(),
            to,
        }
    }

    /// The naive kNN baseline: every alive worker, no bound.
    pub fn broadcast(at: Point, window: TimeInterval, k: usize) -> Self {
        Self::new(at, window, k, KnnTargets::AllAlive)
    }
}

impl DistributedOp for KnnOp {
    type Partial = Vec<Observation>;
    type Output = Vec<Observation>;
    fn name(&self) -> &'static str {
        match self.to {
            KnnTargets::Owner(_) => "knn_phase1",
            KnnTargets::DiskExcept(_) => "knn_phase2",
            KnnTargets::AllAlive => "knn_broadcast",
        }
    }
    fn subset_on_loss(&self) -> bool {
        false
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        match self.to {
            KnnTargets::Owner(owner) => vec![owner],
            KnnTargets::AllAlive => all_alive(alive),
            KnnTargets::DiskExcept(done) => {
                let mut candidates = match self.bound {
                    Some(radius) => partition.workers_for_region(BBox::around(self.at, radius)),
                    None => all_alive(alive),
                };
                candidates.retain(|w| *w != done && alive.contains(w));
                candidates
            }
        }
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Knn {
            at: self.at,
            window: self.window,
            k: self.k as u32,
            max_distance: self.bound,
        }
    }
    fn decode(&self, response: Response) -> Result<Vec<Observation>, StcamError> {
        want_observations(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<Observation>)>) -> Vec<Observation> {
        let mut merged = self.seed;
        merged.extend(partials.into_iter().flat_map(|(_, obs)| obs));
        sort_knn(&mut merged, self.at);
        merged.truncate(self.k);
        merged
    }
}

/// Heat-map aggregate with worker-side partial aggregation: each shard
/// reduces to sparse `(bucket, count)` pairs over its own region (most
/// of the grid is zero for any one shard), the merge sums them into the
/// dense answer.
#[derive(Debug, Clone, Copy)]
pub struct HeatmapOp {
    /// Aggregation buckets.
    pub buckets: GridSpec,
    /// Temporal predicate.
    pub window: TimeInterval,
}

impl DistributedOp for HeatmapOp {
    type Partial = Vec<(u32, u64)>;
    type Output = Vec<u64>;
    fn name(&self) -> &'static str {
        "heatmap"
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        region_targets(partition, alive, self.buckets.extent())
    }
    fn request(&self, _to: NodeId) -> Request {
        Request::Heatmap {
            buckets: self.buckets,
            window: self.window,
        }
    }
    /// Rejects bucket indices outside `buckets`, so the merges can index
    /// without checking.
    fn decode(&self, response: Response) -> Result<Vec<(u32, u64)>, StcamError> {
        let cells = match response {
            Response::CellCounts(cells) => cells,
            other => return Err(unexpected("cell counts", other)),
        };
        let count = self.buckets.cell_count();
        if cells.iter().any(|&(idx, _)| u64::from(idx) >= count) {
            return Err(StcamError::Remote("bucket index out of range".into()));
        }
        Ok(cells)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<(u32, u64)>)>) -> Vec<u64> {
        let mut total = vec![0u64; self.buckets.cell_count() as usize];
        for (_, cells) in partials {
            for (idx, count) in cells {
                total[idx as usize] += count;
            }
        }
        total
    }
}

/// The `k` densest buckets of a heat-map grid: the same sparse per-shard
/// partials as [`HeatmapOp`] (same sub-query, booked separately as
/// `"top_cells"`), summed and ranked at the merge. Ties rank by bucket
/// index for determinism.
#[derive(Debug, Clone, Copy)]
pub struct TopCellsOp {
    /// Aggregation buckets.
    pub buckets: GridSpec,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Number of cells to keep.
    pub k: usize,
}

impl TopCellsOp {
    /// The heat-map whose buckets this ranks.
    fn heatmap(&self) -> HeatmapOp {
        HeatmapOp {
            buckets: self.buckets,
            window: self.window,
        }
    }
}

impl DistributedOp for TopCellsOp {
    type Partial = Vec<(u32, u64)>;
    type Output = Vec<(CellId, u64)>;
    fn name(&self) -> &'static str {
        "top_cells"
    }
    fn subset_on_loss(&self) -> bool {
        false
    }
    fn targets(&self, partition: &PartitionMap, alive: &HashSet<NodeId>) -> Vec<NodeId> {
        self.heatmap().targets(partition, alive)
    }
    fn request(&self, to: NodeId) -> Request {
        self.heatmap().request(to)
    }
    fn decode(&self, response: Response) -> Result<Vec<(u32, u64)>, StcamError> {
        self.heatmap().decode(response)
    }
    fn merge(self, partials: Vec<(NodeId, Vec<(u32, u64)>)>) -> Vec<(CellId, u64)> {
        let totals = self.heatmap().merge(partials);
        let mut ranked: Vec<(u32, u64)> = (0..).zip(totals).filter(|&(_, n)| n > 0).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(self.k);
        let cols = self.buckets.cols();
        ranked
            .into_iter()
            .map(|(idx, count)| (CellId::new(idx % cols, idx / cols), count))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_geo::Timestamp;
    use stcam_net::{Fabric, LinkModel};
    use stcam_world::EntityClass;

    fn obs(seq: u64, x: f64) -> Observation {
        crate::test_obs(seq, 0, x, 0.0)
    }

    fn window() -> TimeInterval {
        TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100))
    }

    fn one_worker_world() -> (PartitionMap, HashSet<NodeId>) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let partition = PartitionMap::uniform(extent, 250.0, vec![NodeId(1)]);
        let alive: HashSet<NodeId> = [NodeId(1)].into_iter().collect();
        (partition, alive)
    }

    #[test]
    fn policy_overrides_take_effect() {
        let fabric = Fabric::new(LinkModel::instant());
        let exec = Executor::new(
            fabric.register(NodeId(0)),
            OpPolicy::new(StdDuration::from_secs(5)),
        );
        assert_eq!(exec.policy_for("range").max_attempts, 3);
        exec.set_policy("range", OpPolicy::no_retry(StdDuration::from_millis(50)));
        assert_eq!(exec.policy_for("range").max_attempts, 1);
        assert_eq!(
            exec.policy_for("range").timeout,
            StdDuration::from_millis(50)
        );
        // Other ops keep the default.
        assert_eq!(exec.policy_for("heatmap").max_attempts, 3);
    }

    #[test]
    fn op_stats_since_subtracts() {
        let a = OpStats {
            invocations: 2,
            sub_queries: 8,
            bytes_sent: 100,
            ..Default::default()
        };
        let b = OpStats {
            invocations: 5,
            sub_queries: 20,
            bytes_sent: 450,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.invocations, 3);
        assert_eq!(d.sub_queries, 12);
        assert_eq!(d.bytes_sent, 350);
    }

    #[test]
    fn decoders_map_remote_errors() {
        let range = RangeOp::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            window(),
        );
        assert!(matches!(
            range.decode(Response::Error("boom".into())),
            Err(StcamError::Remote(_))
        ));
        assert!(matches!(
            range.decode(Response::Ack),
            Err(StcamError::Remote(_))
        ));
        assert!(matches!(want_ack(Response::Ack), Ok(())));
        assert!(matches!(
            want_ack(Response::Error("boom".into())),
            Err(StcamError::Remote(msg)) if msg == "boom"
        ));
        assert!(matches!(
            want_ack(Response::Observations(vec![])),
            Err(StcamError::Remote(msg)) if msg.starts_with("expected ack")
        ));
        let heat = HeatmapOp {
            buckets: GridSpec::new(Point::new(0.0, 0.0), 10.0, 2, 2),
            window: window(),
        };
        // An out-of-range bucket index is an application error, not a
        // panic at merge time.
        assert!(matches!(
            heat.decode(Response::CellCounts(vec![(4, 1)])),
            Err(StcamError::Remote(_))
        ));
        assert_eq!(
            heat.decode(Response::CellCounts(vec![(0, 1), (3, 4)]))
                .unwrap(),
            vec![(0, 1), (3, 4)]
        );
    }

    #[test]
    fn sort_knn_orders_by_distance_then_id_and_survives_nan() {
        let mut v = vec![obs(2, 5.0), obs(0, 10.0), obs(1, 5.0)];
        sort_knn(&mut v, Point::new(0.0, 0.0));
        let seqs: Vec<u64> = v.iter().map(|o| o.id.seq()).collect();
        assert_eq!(seqs, vec![1, 2, 0]);
        // A NaN position no longer destabilises the order of the rest.
        let mut w = vec![obs(3, f64::NAN), obs(4, 1.0), obs(5, 2.0)];
        sort_knn(&mut w, Point::new(0.0, 0.0));
        assert_eq!(w[0].id.seq(), 4);
        assert_eq!(w[1].id.seq(), 5);
        assert_eq!(w[2].id.seq(), 3); // NaN distance sorts last under total_cmp
    }

    #[test]
    fn top_cells_merge_ranks_by_count_then_index() {
        let op = TopCellsOp {
            buckets: GridSpec::new(Point::new(0.0, 0.0), 10.0, 4, 4),
            window: window(),
            k: 3,
        };
        let partials = vec![
            (NodeId(1), vec![(0u32, 5u64), (5, 2)]),
            (NodeId(2), vec![(5, 2), (9, 4), (1, 4)]),
        ];
        let top = op.merge(partials);
        // cell 0 → 5; cells 1, 5, 9 → 4 each (tie broken by index).
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (CellId::new(0, 0), 5));
        assert_eq!(top[1], (CellId::new(1, 0), 4));
        assert_eq!(top[2], (CellId::new(1, 1), 4)); // index 5 = col 1, row 1
    }

    #[test]
    fn completeness_accounting() {
        let full = Completeness {
            shards_total: 4,
            shards_from_primary: 3,
            shards_from_replica: 1,
            replicas_used: vec![(NodeId(2), NodeId(3))],
            subset: true,
            ..Completeness::default()
        };
        assert!(full.is_full());
        assert_eq!(full.fraction(), 1.0);
        let mut degraded = Completeness {
            shards_total: 4,
            shards_from_primary: 3,
            missing: vec![NodeId(2)],
            subset: true,
            ..Completeness::default()
        };
        assert!(!degraded.is_full());
        assert_eq!(degraded.fraction(), 0.75);
        // Absorbing a second phase sums counters, dedups missing, and
        // ANDs the subset guarantee.
        degraded.absorb(Completeness {
            shards_total: 2,
            shards_from_primary: 1,
            missing: vec![NodeId(2), NodeId(5)],
            retries: 1,
            subset: false,
            ..Completeness::default()
        });
        assert_eq!(degraded.shards_total, 6);
        assert_eq!(degraded.missing, vec![NodeId(2), NodeId(5)]);
        assert_eq!(degraded.retries, 1);
        assert!(!degraded.subset);
        // Nothing to cover counts as complete.
        assert_eq!(Completeness::default().fraction(), 1.0);
        assert!(Completeness::default().is_full());
    }

    #[test]
    fn op_degradation_flags() {
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let grid = GridSpec::new(Point::new(0.0, 0.0), 1.0, 1, 1);
        // Unions and per-bucket sums lose rows monotonically.
        let range = RangeOp::new(region, window());
        assert!(range.subset_on_loss());
        // A class filter changes the frame and the stats key, nothing else.
        let mut filtered = range;
        filtered.predicate.class = Some(EntityClass::Car);
        assert_eq!((range.name(), filtered.name()), ("range", "range_filtered"));
        assert!(matches!(range.request(NodeId(1)), Request::Range { .. }));
        let car = EntityClass::Car;
        assert!(
            matches!(filtered.request(NodeId(1)), Request::RangeFiltered { class, .. } if class == car)
        );
        let heat = HeatmapOp {
            buckets: grid,
            window: window(),
        };
        assert!(heat.subset_on_loss());
        // Top-k shapes can promote wrong items when a shard is lost.
        assert!(!KnnOp::broadcast(Point::ORIGIN, window(), 3).subset_on_loss());
        let top = TopCellsOp {
            buckets: grid,
            window: window(),
            k: 3,
        };
        assert!(!top.subset_on_loss());
    }

    #[test]
    fn knn_forms_differ_in_name_targets_and_bound_only() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let workers: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let partition = PartitionMap::uniform(extent, 250.0, workers.clone());
        // Worker 4 is down: no form may target it.
        let alive: HashSet<NodeId> = workers[..3].iter().copied().collect();
        let at = Point::new(400.0, 10.0);
        let owner = partition.owner_of(at);
        let others: Vec<NodeId> = all_alive(&alive)
            .into_iter()
            .filter(|w| *w != owner)
            .collect();
        // The disk reaches one of the two other alive shards.
        let mut in_disk = partition.workers_for_region(BBox::around(at, 200.0));
        in_disk.retain(|w| others.contains(w));
        assert_eq!(in_disk.len(), 1);
        use KnnTargets::{AllAlive, DiskExcept, Owner};
        let form = |to, bound| KnnOp {
            bound,
            seed: vec![obs(7, 420.0)],
            ..KnnOp::new(at, window(), 3, to)
        };
        for (op, name, targets) in [
            (form(Owner(owner), None), "knn_phase1", vec![owner]),
            (form(DiskExcept(owner), Some(200.0)), "knn_phase2", in_disk),
            (form(DiskExcept(owner), None), "knn_phase2", others),
            (form(AllAlive, None), "knn_broadcast", all_alive(&alive)),
        ] {
            assert_eq!(op.name(), name);
            assert_eq!(op.targets(&partition, &alive), targets, "{name}");
            let frame = Request::Knn {
                at,
                window: window(),
                k: 3,
                max_distance: op.bound,
            };
            assert_eq!(op.request(owner), frame);
            // One merge: the seed competes with the partials for the top k.
            let partials = vec![
                (NodeId(2), vec![obs(1, 430.0), obs(2, 900.0)]),
                (NodeId(3), vec![obs(3, 415.0), obs(4, 0.0)]),
            ];
            let nearest: Vec<u64> = op.merge(partials).iter().map(|o| o.id.seq()).collect();
            assert_eq!(nearest, vec![3, 7, 1]);
        }
    }

    #[test]
    fn degraded_execute_reports_a_dead_unreplicated_shard_as_missing() {
        // One worker, nobody serving it, replication 0: the degraded
        // path must answer with an empty value and a truthful account.
        let fabric = Fabric::new(LinkModel::instant());
        let _worker_ep = fabric.register(NodeId(1));
        let exec = Executor::new(
            fabric.register(NodeId(0)),
            OpPolicy::no_retry(StdDuration::from_millis(50)),
        );
        let (partition, alive) = one_worker_world();
        let d = exec.execute_degraded(
            RangeOp::new(
                BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
                window(),
            ),
            &partition,
            &alive,
            None,
            None,
        );
        assert!(d.value.is_empty());
        assert_eq!(d.completeness.shards_total, 1);
        assert_eq!(d.completeness.missing, vec![NodeId(1)]);
        assert!(!d.completeness.is_full());
        assert_eq!(d.completeness.fraction(), 0.0);
        assert!(d.completeness.subset, "a lost range shard still subsets");
        // The failed call also made the silent worker suspect.
        assert!(exec.peers().is_suspect(NodeId(1)));
        let stats = exec.stats_for("range");
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.failovers, 0, "no replicas configured");
    }

    #[test]
    fn empty_target_set_yields_empty_output_without_traffic() {
        let fabric = Fabric::new(LinkModel::instant());
        let exec = Executor::new(
            fabric.register(NodeId(0)),
            OpPolicy::new(StdDuration::from_secs(1)),
        );
        let (partition, _) = one_worker_world();
        let alive = HashSet::new(); // nobody alive
        let d = exec.execute_degraded(
            RangeOp::new(
                BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
                window(),
            ),
            &partition,
            &alive,
            None,
            None,
        );
        assert!(d.value.is_empty() && d.completeness.is_full());
        let stats = exec.stats_for("range");
        assert_eq!(stats.invocations, 1);
        assert_eq!(stats.sub_queries, 0);
        assert_eq!(stats.bytes_sent, 0);
    }
}
